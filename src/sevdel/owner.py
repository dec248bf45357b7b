"""Data-owner side of the protocol.

The owner tags each block before outsourcing, later challenges the cloud
to prove the stored ciphertexts encrypt exactly the tagged file, and --
if the encrypted file ever leaks -- answers a blockchain audit challenge
to claim the provider's penalty deposit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .codec import BlockMatrix, FileManifest
from .errors import CountOutOfRange, MalformedProof, MissingBlock
from .groups import (
    DOMAIN_DELETE,
    G1Elem,
    G2Elem,
    SystemParams,
    block_point,
    pairing,
)
from .nizk import verify_opening
from .rng import Rng, SeededRng, default_rng

# Challenge coefficients are drawn from a fixed 128-bit range independent
# of the group order, in the usual compact-PoR style; they act modulo the
# group order wherever they are used as exponents.
COEFF_BITS = 128


@dataclass(frozen=True)
class OwnerKeyPair:
    w: int            # private; never serialized into transcripts
    W: G2Elem         # public, W = g2^w


@dataclass(frozen=True)
class SectorGenerators:
    """Owner's per-sector generators; x stays private, u is published."""

    x: tuple[int, ...]
    u: tuple[G1Elem, ...]


@dataclass(frozen=True)
class TagSet:
    """Homomorphic tags over the plaintext blocks, one per block."""

    phi: tuple[G1Elem, ...]


@dataclass(frozen=True)
class Challenge:
    """Sampled block indices (1-based) with nonzero coefficients."""

    items: tuple[tuple[int, int], ...]
    nonce: bytes

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.items)

    def canonical_json(self) -> str:
        return json.dumps(
            {
                "items": [[i, format(l, "x")] for i, l in self.items],
                "nonce": self.nonce.hex(),
            },
            sort_keys=True,
        )

    def canonical_bytes(self) -> bytes:
        return self.canonical_json().encode()


@dataclass
class AuditResponse:
    """Owner's reply to an audit challenge over leaked ciphertexts.

    Carries the per-sector aggregates plus the challenged ciphertext
    components themselves; the verifying node needs the components to
    recompute the tag bases, since it holds only the registered tags.
    """

    q1_prime: tuple[G1Elem, ...]
    q1_dprime: tuple[G1Elem, ...]
    q2: G1Elem
    revealed_prime: dict[int, tuple[G1Elem, ...]]
    revealed_dprime: dict[int, tuple[G1Elem, ...]]


def keygen(params: SystemParams, rng: Rng | None = None) -> OwnerKeyPair:
    rng = default_rng(rng)
    w = rng.scalar(params.order, nonzero=True)
    return OwnerKeyPair(w=w, W=params.g2 ** w)


def outsource(
    params: SystemParams,
    keys: OwnerKeyPair,
    manifest: FileManifest,
    blocks: BlockMatrix,
    rng: Rng | None = None,
) -> tuple[SectorGenerators, TagSet]:
    """Tag every block: phi_i = (H(I_M||i) * prod_j u_j^{m_ij})^w."""
    blocks.check_shape(manifest)
    rng = default_rng(rng)
    group = params.group
    x = tuple(rng.scalars(manifest.s, params.order, nonzero=True))
    u = tuple(params.g1 ** xj for xj in x)
    u_raw = [e.raw for e in u]
    msm, g1pow = group.g1_msm, group.g1_pow
    phi = []
    for i, row in enumerate(blocks.rows, start=1):
        # w stays outside: the inner exponents are short sector values
        h = block_point(params, manifest.file_id, i).raw
        phi.append(G1Elem(group, g1pow(msm([h, *u_raw], [1, *row]), keys.w)))
    return SectorGenerators(x=x, u=u), TagSet(phi=tuple(phi))


def gen_challenge(manifest: FileManifest, count: int, rng_seed) -> Challenge:
    """Sample count distinct blocks with fresh coefficients, seed-reproducible."""
    if not 1 <= count <= manifest.n:
        raise CountOutOfRange(f"challenge size {count} not in [1, {manifest.n}]")
    rng = SeededRng(rng_seed).child(b"challenge:" + manifest.file_id)
    indices = sorted(i + 1 for i in rng.sample(manifest.n, count))
    items = tuple((i, rng.scalar(1 << COEFF_BITS, nonzero=True)) for i in indices)
    return Challenge(items=items, nonce=rng.read(16))


def enc_proof_context(params: SystemParams, manifest: FileManifest, challenge: Challenge) -> bytes:
    return b"sevdel/enc-proof:" + params.digest() + manifest.file_id + challenge.canonical_bytes()


def verify_encryption_proof(
    params: SystemParams,
    manifest: FileManifest,
    u: tuple[G1Elem, ...],
    W: G2Elem,
    A: G2Elem,
    V: G1Elem,
    challenge: Challenge,
    proof,
) -> bool:
    """Accept iff the aggregates satisfy the tag equation and the proof
    links the aggregated ciphertexts to the same aggregates under V.

    A (the provider's public key) is part of the published verification
    context but does not enter either equation.
    """
    s = manifest.s
    if len(u) != s:
        raise MalformedProof("sector generator count mismatch")
    if len(proof.q) != s or len(proof.p1_prime) != s or len(proof.p1_dprime) != s:
        raise MalformedProof("proof arity disagrees with manifest")
    order = params.order
    if not all(0 <= qj < order for qj in proof.q):
        raise MalformedProof("aggregate out of scalar range")
    for i, _ in challenge.items:
        if not 1 <= i <= manifest.n:
            raise MalformedProof("challenged index outside file")

    # (a) aggregated tag equation:
    #     e(P2, g2) == e(prod_i H(I_M||i)^l_i * prod_j u_j^Q_j, W)
    bases = [block_point(params, manifest.file_id, i) for i, _ in challenge.items]
    agg = params.g1_msm([*bases, *u], [*(l for _, l in challenge.items), *proof.q])
    if pairing(proof.p2, params.g2) != pairing(agg, W):
        return False

    # (b) NIZK linking the aggregated ciphertexts to the same aggregates
    p1 = list(zip(proof.p1_prime, proof.p1_dprime))
    context = enc_proof_context(params, manifest, challenge)
    return verify_opening(params, V, p1, proof.p2, list(proof.q), proof.nizk, context)


def audit_respond(
    params: SystemParams,
    manifest: FileManifest,
    leaked,
    sigma,
    audit_challenge: Challenge,
) -> AuditResponse:
    """Aggregate the leaked ciphertext blocks named by the audit challenge.

    Q1'_j = prod_i (E'_ij)^g_i, Q1''_j likewise, Q2 = prod_i sigma_i^g_i.
    Raises missing-block if the owner does not hold a challenged block,
    which is exactly the position of an owner who never saw the ciphertext.
    """
    if leaked is None:
        raise MissingBlock("owner holds no leaked ciphertexts")
    group = params.group
    s = manifest.s
    rows_p, rows_pp = [], []
    for i, _ in audit_challenge.items:
        row_p = leaked.row_prime(i - 1)
        row_pp = leaked.row_dprime(i - 1)
        if row_p is None or row_pp is None:
            raise MissingBlock(f"challenged ciphertext block {i} not held")
        rows_p.append(row_p)
        rows_pp.append(row_pp)
    gammas = [gamma for _, gamma in audit_challenge.items]
    msm = group.g1_msm
    indices = audit_challenge.indices
    return AuditResponse(
        q1_prime=tuple(G1Elem(group, msm([row[j] for row in rows_p], gammas))
                       for j in range(s)),
        q1_dprime=tuple(G1Elem(group, msm([row[j] for row in rows_pp], gammas))
                        for j in range(s)),
        q2=params.g1_msm([sigma.sigma[i - 1] for i in indices], gammas),
        revealed_prime={i: tuple(G1Elem(group, r) for r in row)
                        for i, row in zip(indices, rows_p)},
        revealed_dprime={i: tuple(G1Elem(group, r) for r in row)
                         for i, row in zip(indices, rows_pp)},
    )


# -- owner-authenticated deletion requests -----------------------------------
# The deletion flow in the harness demands an owner signature on the
# request; a BLS-style signature reuses the existing pairing machinery.

def delete_request_payload(file_id: bytes, at_time: int) -> bytes:
    return json.dumps({"file_id": file_id.hex(), "time": at_time}, sort_keys=True).encode()


def sign_delete_request(params: SystemParams, keys: OwnerKeyPair, file_id: bytes, at_time: int) -> tuple[bytes, G1Elem]:
    payload = delete_request_payload(file_id, at_time)
    sig = params.hash_to_g1(DOMAIN_DELETE, payload) ** keys.w
    return payload, sig


def verify_delete_request(params: SystemParams, W: G2Elem, payload: bytes, sig: G1Elem) -> bool:
    return pairing(sig, params.g2) == pairing(params.hash_to_g1(DOMAIN_DELETE, payload), W)
