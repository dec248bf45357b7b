"""Fiat-Shamir proof that aggregated ciphertexts open to known aggregates.

For each sector j the prover shows knowledge of (Q_j, R_j) with

    P1'_j  = g1^Q_j * V^R_j        (aggregated first components)
    P1''_j = g1^R_j                (aggregated randomness components)

while the verifier additionally pins the witness Q_j to the publicly
stated aggregate via a third commitment.  Without that link a prover
could exhibit *some* opening of P1 while quoting the tag-satisfying
aggregates alongside, so the link is what makes the proof bind the
ciphertexts to the tagged plaintext.

One Fiat-Shamir challenge covers all sectors; it is derived from the
system parameters, the file identity, the challenge, V, the aggregates
and every commitment.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import MalformedProof
from .groups import G1Elem, SystemParams, scalar_to_bytes
from .rng import Rng, default_rng


@dataclass(frozen=True)
class EncNizk:
    """Sigma transcript: commitments, derived challenge, responses."""

    t_open: tuple[G1Elem, ...]    # g1^alpha_j * V^beta_j
    t_rand: tuple[G1Elem, ...]    # g1^beta_j
    t_value: tuple[G1Elem, ...]   # g1^alpha_j
    challenge: int
    z_value: tuple[int, ...]      # alpha_j + c*Q_j
    z_rand: tuple[int, ...]       # beta_j + c*R_j


def fs_challenge(order: int, parts: list[bytes]) -> int:
    h = hashlib.sha256()
    h.update(b"sevdel/fs:")
    for part in parts:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return int.from_bytes(h.digest(), "big") % order


def _fs_parts(
    context: bytes,
    v_pub: G1Elem,
    p1: list[tuple[G1Elem, G1Elem]],
    p2: G1Elem,
    q: list[int],
    commitments: tuple[tuple[G1Elem, ...], ...],
) -> list[bytes]:
    group = v_pub.group
    parts = [context, v_pub.to_bytes(), p2.to_bytes()]
    for a, b in p1:
        parts.append(a.to_bytes())
        parts.append(b.to_bytes())
    for qj in q:
        parts.append(scalar_to_bytes(group, qj))
    for row in commitments:
        parts.extend(t.to_bytes() for t in row)
    return parts


def prove_opening(
    params: SystemParams,
    v_pub: G1Elem,
    p1: list[tuple[G1Elem, G1Elem]],
    p2: G1Elem,
    q: list[int],
    r_agg: list[int],
    context: bytes,
    rng: Rng | None = None,
) -> EncNizk:
    rng = default_rng(rng)
    g1 = params.g1
    order = params.order
    s = len(q)
    alphas = rng.scalars(s, order)
    betas = rng.scalars(s, order)
    t_open = tuple(params.g1_msm([g1, v_pub], [a, b]) for a, b in zip(alphas, betas))
    t_rand = tuple(g1 ** b for b in betas)
    t_value = tuple(g1 ** a for a in alphas)
    c = fs_challenge(order, _fs_parts(context, v_pub, p1, p2, q, (t_open, t_rand, t_value)))
    z_value, z_rand = respond(alphas, betas, c, q, r_agg, order)
    return EncNizk(t_open, t_rand, t_value, c, z_value, z_rand)


def respond(
    alphas: list[int],
    betas: list[int],
    c: int,
    q: list[int],
    r_agg: list[int],
    order: int,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Third sigma round; split out so tests can replay fixed commitments."""
    z_value = tuple((alphas[j] + c * q[j]) % order for j in range(len(q)))
    z_rand = tuple((betas[j] + c * r_agg[j]) % order for j in range(len(q)))
    return z_value, z_rand


def check_equations(
    params: SystemParams,
    v_pub: G1Elem,
    p1: list[tuple[G1Elem, G1Elem]],
    q: list[int],
    t_open: tuple[G1Elem, ...],
    t_rand: tuple[G1Elem, ...],
    t_value: tuple[G1Elem, ...],
    c: int,
    z_value: tuple[int, ...],
    z_rand: tuple[int, ...],
) -> bool:
    """Sigma verification equations against the public aggregates q,
    each rearranged into one multi-exponentiation against its commitment:
    g1^z_v V^z_r P1'^-c = t_open, g1^z_r P1''^-c = t_rand and
    g1^(z_v - c*Q) = t_value."""
    g1, order, msm = params.g1, params.order, params.g1_msm
    for j, (p1p, p1pp) in enumerate(p1):
        if msm([g1, v_pub, p1p], [z_value[j], z_rand[j], -c]) != t_open[j]:
            return False
        if msm([g1, p1pp], [z_rand[j], -c]) != t_rand[j]:
            return False
        if g1 ** ((z_value[j] - c * q[j]) % order) != t_value[j]:
            return False
    return True


def verify_opening(
    params: SystemParams,
    v_pub: G1Elem,
    p1: list[tuple[G1Elem, G1Elem]],
    p2: G1Elem,
    q: list[int],
    proof: EncNizk,
    context: bytes,
) -> bool:
    s = len(q)
    if not (
        len(proof.t_open) == len(proof.t_rand) == len(proof.t_value)
        == len(proof.z_value) == len(proof.z_rand) == len(p1) == s
    ):
        raise MalformedProof("sigma transcript arity mismatch")
    order = params.order
    if not all(0 <= z < order for z in proof.z_value + proof.z_rand):
        raise MalformedProof("sigma response out of range")
    expect_c = fs_challenge(
        order,
        _fs_parts(context, v_pub, p1, p2, q, (proof.t_open, proof.t_rand, proof.t_value)),
    )
    if proof.challenge != expect_c:
        return False
    return check_equations(
        params, v_pub, p1, q,
        proof.t_open, proof.t_rand, proof.t_value,
        proof.challenge, proof.z_value, proof.z_rand,
    )
