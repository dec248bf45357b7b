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
    pairing_eq,
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
    """Sampled block indices (1-based) with nonzero coefficients.

    Construction raises MalformedProof unless items is a non-empty tuple
    of (index, coefficient) int pairs with distinct indices and every
    coefficient in [1, 2^COEFF_BITS), and the nonce is bytes; the checks
    that need the file's n and the group order are check_challenge's.
    """

    items: tuple[tuple[int, int], ...]
    nonce: bytes

    def __post_init__(self):
        items = self.items
        if not (isinstance(items, tuple) and isinstance(self.nonce, bytes)
                and all(isinstance(item, tuple) and len(item) == 2
                        and all(type(x) is int for x in item) for item in items)):
            raise MalformedProof("challenge items must be (index, coefficient) int pairs")
        if not items:
            raise MalformedProof("empty challenge")
        if len({i for i, _ in items}) != len(items):
            raise MalformedProof("duplicate challenged index")
        for i, gamma in items:
            if not 1 <= gamma < 1 << COEFF_BITS:
                raise MalformedProof(
                    f"coefficient for challenged block {i} outside [1, 2^{COEFF_BITS})")

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


@dataclass
class AuditResponse:
    """Owner's reply to an audit challenge over leaked ciphertexts.

    Carries only the challenged ciphertext rows; the verifying node needs
    them to recompute the tag bases, since it holds only the registered
    tags.  Each row component is the canonical encoding of E'_ij or
    E''_ij: the verifier only hashes it, so it is never decoded.  There
    are no aggregates: the tag aggregate Q2 = prod_i sigma_i^g_i is a
    function of the registered tags and the challenge, which the verifier
    holds, and no verifier equation uses ciphertext aggregates, which
    anyone holding the rows could compute.
    """

    revealed_prime: dict[int, tuple[bytes, ...]]
    revealed_dprime: dict[int, tuple[bytes, ...]]


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
    # one batched product over the shared u_j, H(I_M||i) each row's own
    # base; w stays outside, so the inner exponents are short sector values
    phi = group.g1_msm_rows([e.raw for e in u], (
        ((block_point(params, manifest.file_id, i).raw,), [*row, 1])
        for i, row in enumerate(blocks.rows, start=1)))
    g1pow = group.g1_pow
    for i, h in enumerate(phi):
        phi[i] = G1Elem(group, g1pow(h, keys.w))   # in place: no second list of n points
    return SectorGenerators(x=x, u=u), TagSet(phi=tuple(phi))


def gen_challenge(manifest: FileManifest, count: int, rng_seed) -> Challenge:
    """Sample count distinct blocks with fresh coefficients, seed-reproducible."""
    if not 1 <= count <= manifest.n:
        raise CountOutOfRange(f"challenge size {count} not in [1, {manifest.n}]")
    rng = SeededRng(rng_seed).child(b"challenge:" + manifest.file_id)
    indices = sorted(i + 1 for i in rng.sample(manifest.n, count))
    items = tuple((i, rng.scalar(1 << COEFF_BITS, nonzero=True)) for i in indices)
    return Challenge(items=items, nonce=rng.read(16))


def check_challenge(challenge: Challenge, n: int, order: int) -> None:
    """Raise MalformedProof unless every challenged index lies in [1, n]
    and no coefficient is 0 mod the group order; the rest of the shape
    Challenge checks when it is built.  An empty or all-zero challenge
    would be met by identities."""
    for i, gamma in challenge.items:
        if not 1 <= i <= n:
            raise MalformedProof(f"challenged index {i} outside [1, {n}]")
        if gamma % order == 0:
            raise MalformedProof(f"zero coefficient for challenged block {i}")


def enc_proof_context(params: SystemParams, manifest: FileManifest, challenge: Challenge) -> bytes:
    return (b"sevdel/enc-proof:" + params.digest() + manifest.file_id
            + challenge.canonical_json().encode())


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
    context but does not enter either equation.  Raises MalformedProof
    for a V that is the identity: E' = g1^m V^r would be the plaintext in
    the clear, and the proof would hold with every R_j = 0.
    """
    s = manifest.s
    if len(u) != s:
        raise MalformedProof("sector generator count mismatch")
    if len(proof.q) != s or len(proof.p1_prime) != s or len(proof.p1_dprime) != s:
        raise MalformedProof("proof arity disagrees with manifest")
    order = params.order
    if not all(0 <= qj < order for qj in proof.q):
        raise MalformedProof("aggregate out of scalar range")
    check_challenge(challenge, manifest.n, order)
    if V == params.g1_identity():
        raise MalformedProof("public key V is the identity")

    # (a) aggregated tag equation:
    #     e(P2, g2) == e(prod_i H(I_M||i)^l_i * prod_j u_j^Q_j, W)
    bases = [block_point(params, manifest.file_id, i) for i, _ in challenge.items]
    agg = params.g1_msm([*bases, *u], [*(l for _, l in challenge.items), *proof.q])
    if not pairing_eq((proof.p2, params.g2), (agg, W)):
        return False

    # (b) NIZK linking the aggregated ciphertexts to the same aggregates
    p1 = list(zip(proof.p1_prime, proof.p1_dprime))
    context = enc_proof_context(params, manifest, challenge)
    return verify_opening(params, V, p1, proof.p2, list(proof.q),
                          proof.challenge, proof.response, context)


def audit_respond(
    params: SystemParams,
    manifest: FileManifest,
    leaked,
    sigma,
    audit_challenge: Challenge,
) -> AuditResponse:
    """Answer an audit challenge with the leaked ciphertext rows it names,
    as canonical encodings.

    sigma (the registered ciphertext tags) is unused: the verifier
    aggregates the tags it holds itself.  It stays in the signature for
    positional callers.  Raises MalformedProof for a challenge that
    check_challenge refuses, and MissingBlock if the owner does not hold
    a challenged block, which is exactly the position of an owner who
    never saw the ciphertext; DimensionMismatch unless leaked has the
    manifest's n rows and s sectors in every challenged row, by the
    check_dims that prove_encryption applies.
    """
    check_challenge(audit_challenge, manifest.n, params.order)
    if leaked is None:
        raise MissingBlock("owner holds no leaked ciphertexts")
    indices = audit_challenge.indices
    leaked.check_dims(manifest.n, manifest.s, [i - 1 for i in indices])
    encodings = params.group.g1_row_encodings
    return AuditResponse(
        revealed_prime={i: tuple(encodings(leaked.rows_prime[i - 1])) for i in indices},
        revealed_dprime={i: tuple(encodings(leaked.rows_dprime[i - 1])) for i in indices})


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
    return pairing_eq((sig, params.g2), (params.hash_to_g1(DOMAIN_DELETE, payload), W))
