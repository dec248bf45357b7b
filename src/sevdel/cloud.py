"""Cloud-server side: enclave-keyed encryption, tags, proofs, deletion.

Each file is encrypted blockwise with lifted ElGamal under a key v that
lives only inside the file's enclave: E'_ij = g1^{m_ij} V^{r_ij},
E''_ij = g1^{r_ij}.  Decryption recovers g1^{m_ij} and solves the bounded
discrete log by baby-step/giant-step, which is why sector values are
capped at 2^sector_bits.  Destroying the enclave forgets v and every
r_ij, after which neither decryption nor proof generation is possible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .codec import BlockMatrix, FileManifest
from .enclave import DeletionReceipt, Enclave, EnclaveRegistry
from .errors import (
    DimensionMismatch,
    DlogOutOfRange,
    IndexOutOfRange,
    UnknownFile,
)
from .groups import (
    G1Elem,
    G2Elem,
    SystemParams,
    block_point,
    elem_to_scalar,
    scalar_from_bytes,
    scalar_to_bytes,
)
from .nizk import EncNizk, prove_opening
from .owner import Challenge, TagSet, enc_proof_context
from .rng import Rng, default_rng

_SEAL_KEY = b"file-key"
_SEAL_RAND = b"row-randomness"
_SEAL_META = b"meta"

_BSGS_BABY_MAX_BITS = 16


@dataclass(frozen=True)
class ServerKeyPair:
    a: int            # provider private
    A: G2Elem         # public, A = g2^a


@dataclass(frozen=True)
class FileEncryptionKey:
    """Per-file ElGamal key; v exists only inside the file's enclave."""

    v: int
    V: G1Elem


@dataclass
class CiphertextMatrix:
    """n x s lifted-ElGamal pairs plus the public key they were made under.

    Component rows hold raw backend values to keep large files cheap;
    ``prime_elem``/``dprime_elem`` wrap single entries on demand.  A row
    of None models a block the holder does not possess.
    """

    rows_prime: list
    rows_dprime: list
    v_pub: G1Elem
    n: int
    s: int

    @property
    def group(self):
        return self.v_pub.group

    def check_shape(self, manifest: FileManifest) -> None:
        if self.n != manifest.n or self.s != manifest.s:
            raise DimensionMismatch("ciphertext matrix shape disagrees with manifest")

    def row_prime(self, row: int):
        return self.rows_prime[row]

    def row_dprime(self, row: int):
        return self.rows_dprime[row]

    def prime_elem(self, row: int, col: int) -> G1Elem:
        return G1Elem(self.group, self.rows_prime[row][col])

    def dprime_elem(self, row: int, col: int) -> G1Elem:
        return G1Elem(self.group, self.rows_dprime[row][col])


@dataclass(frozen=True)
class EncTagSet:
    """Provider tags over the ciphertext blocks, one per block."""

    sigma: tuple[G1Elem, ...]


@dataclass(frozen=True)
class EncProof:
    """Response to an encryption-verification challenge."""

    p1_prime: tuple[G1Elem, ...]
    p1_dprime: tuple[G1Elem, ...]
    p2: G1Elem
    q: tuple[int, ...]
    nizk: EncNizk


def server_keygen(params: SystemParams, rng: Rng | None = None) -> ServerKeyPair:
    rng = default_rng(rng)
    a = rng.scalar(params.order, nonzero=True)
    return ServerKeyPair(a=a, A=params.g2 ** a)


def _require_bound(enclave: Enclave, manifest: FileManifest) -> None:
    if enclave.file_id != manifest.file_id:
        raise UnknownFile("enclave is bound to a different file")


def encrypt_file(
    params: SystemParams,
    enclave: Enclave,
    manifest: FileManifest,
    blocks: BlockMatrix,
    rng: Rng | None = None,
) -> tuple[CiphertextMatrix, G1Elem]:
    """Encrypt every sector under a fresh enclave-held key.

    The per-sector randomness r_ij is sealed into the enclave (the later
    encryption proof needs it); it never leaves the enclave otherwise.
    """
    blocks.check_shape(manifest)
    _require_bound(enclave, manifest)
    rng = default_rng(rng)
    group = params.group
    order = params.order
    v = rng.scalar(order, nonzero=True)
    key = FileEncryptionKey(v=v, V=params.g1 ** v)
    g1_raw = params.g1.raw
    g1pow = group.g1_pow
    sb = group.scalar_bytes
    rows_prime = []
    rows_dprime = []
    r_buf = bytearray()
    for row in blocks.rows:
        rs = rng.scalars(manifest.s, order)
        # E' = g1^m V^r = g1^(m + v*r): both components are powers of g1
        rows_prime.append([g1pow(g1_raw, (m + v * r) % order) for m, r in zip(row, rs)])
        rows_dprime.append([g1pow(g1_raw, r) for r in rs])
        r_buf += b"".join(r.to_bytes(sb, "big") for r in rs)   # rs lie in [0, order)
    enclave.seal(_SEAL_KEY, scalar_to_bytes(group, key.v))
    enclave.seal(_SEAL_RAND, bytes(r_buf))
    enclave.seal(_SEAL_META, json.dumps(
        {"n": manifest.n, "s": manifest.s, "sector_bits": manifest.sector_bits},
        sort_keys=True).encode())
    cts = CiphertextMatrix(
        rows_prime=rows_prime,
        rows_dprime=rows_dprime,
        v_pub=key.V,
        n=manifest.n,
        s=manifest.s,
    )
    return cts, key.V


# -- bounded discrete log ------------------------------------------------------

_dlog_tables: dict = {}


def _dlog_table(group, bits: int):
    """Baby steps {g1_key(g1^k): k} for k below 2^min(bits, 16), the giant
    stride g1^-(2^baby_bits), and baby_bits; built once per group."""
    baby_bits = min(bits, _BSGS_BABY_MAX_BITS)
    cache_key = (group.name, baby_bits)
    table = _dlog_tables.get(cache_key)
    if table is None:
        key = group.g1_key
        baby = {key(pt): k for k, pt in enumerate(group.g1_gen_multiples(1 << baby_bits))}
        stride = group.g1_inv(group.g1_pow(group.g1_gen, 1 << baby_bits))
        table = (baby, stride, baby_bits)
        _dlog_tables[cache_key] = table
    return table


def _dlog(group, table, raw, bits: int) -> int:
    """Baby-step/giant-step over [0, 2^bits); DlogOutOfRange on miss."""
    baby, stride, baby_bits = table
    giant_steps = 1 << max(bits - baby_bits, 0)
    cur = raw
    key, op = group.g1_key, group.g1_op
    for t in range(giant_steps):
        k = baby.get(key(cur))
        if k is not None:
            val = (t << baby_bits) + k
            if val < (1 << bits):
                return val
        cur = op(cur, stride)
    raise DlogOutOfRange(f"no exponent below 2^{bits} matches; ciphertext corrupt?")


def _unseal_key(params: SystemParams, enclave: Enclave) -> tuple[int, int]:
    group = params.group
    v = scalar_from_bytes(group, enclave.unseal(_SEAL_KEY))
    meta = json.loads(enclave.unseal(_SEAL_META))
    return v, int(meta["sector_bits"])


def decrypt_block(params: SystemParams, enclave: Enclave, e_pair: tuple[G1Elem, G1Elem]) -> int:
    """Recover one sector value: the m with g1^m = E' / (E'')^v."""
    v, sector_bits = _unseal_key(params, enclave)
    e_prime, e_dprime = e_pair
    group = params.group
    lifted = group.g1_op(e_prime.raw, group.g1_inv(group.g1_pow(e_dprime.raw, v)))
    return _dlog(group, _dlog_table(group, sector_bits), lifted, sector_bits)


def decrypt_file(params: SystemParams, enclave: Enclave, cts: CiphertextMatrix) -> BlockMatrix:
    """Bulk decryption; one unseal, one dlog table fetch."""
    v, sector_bits = _unseal_key(params, enclave)
    group = params.group
    table = _dlog_table(group, sector_bits)
    op, pw, inv = group.g1_op, group.g1_pow, group.g1_inv
    rows = []
    for rp, rpp in zip(cts.rows_prime, cts.rows_dprime):
        rows.append([_dlog(group, table, op(a, inv(pw(b, v))), sector_bits)
                     for a, b in zip(rp, rpp)])
    return BlockMatrix(rows)


def gen_enc_tags(
    params: SystemParams,
    server_keys: ServerKeyPair,
    manifest: FileManifest,
    cts: CiphertextMatrix,
    u: tuple[G1Elem, ...],
    v_gens: tuple[G1Elem, ...],
) -> EncTagSet:
    """Tag ciphertext blocks:
    sigma_i = (H(I_M||i) * prod_j u_j^{h(E'_ij)} v_j^{h(E''_ij)})^a
    with h mapping components through elem_to_scalar; a is folded into
    the exponents, so each tag is one multi-exponentiation.
    """
    cts.check_shape(manifest)
    if len(u) != manifest.s or len(v_gens) != manifest.s:
        raise DimensionMismatch("sector generator count disagrees with manifest")
    group = params.group
    a = server_keys.a
    gens = [e.raw for e in u] + [e.raw for e in v_gens]
    sigma = []
    for i in range(1, manifest.n + 1):
        comps = [*cts.rows_prime[i - 1], *cts.rows_dprime[i - 1]]
        exps = [a * elem_to_scalar(G1Elem(group, c)) for c in comps]
        base = block_point(params, manifest.file_id, i).raw
        sigma.append(G1Elem(group, group.g1_msm([base, *gens], [a, *exps])))
    return EncTagSet(sigma=tuple(sigma))


def prove_encryption(
    params: SystemParams,
    enclave: Enclave,
    manifest: FileManifest,
    blocks: BlockMatrix,
    cts: CiphertextMatrix,
    tags: TagSet,
    challenge: Challenge,
    rng: Rng | None = None,
) -> EncProof:
    """Aggregate the challenged blocks and prove the opening.

    P1'_j = prod_i (E'_ij)^l_i, P1''_j = prod_i (E''_ij)^l_i,
    Q_j = sum_i l_i m_ij, P2 = prod_i phi_i^l_i, R_j = sum_i l_i r_ij;
    needs the enclave for the sealed r_ij, so it dies with the enclave.
    """
    blocks.check_shape(manifest)
    cts.check_shape(manifest)
    _require_bound(enclave, manifest)
    group = params.group
    order = params.order
    s = manifest.s
    for i, _ in challenge.items:
        if not 1 <= i <= manifest.n:
            raise IndexOutOfRange(f"challenged block {i} outside [1, {manifest.n}]")
    r_blob = enclave.unseal(_SEAL_RAND)
    sb = group.scalar_bytes

    def sealed_r(row: int, col: int) -> int:
        off = (row * s + col) * sb
        return scalar_from_bytes(group, r_blob[off:off + sb])

    rows = [i - 1 for i, _ in challenge.items]
    ls = [l for _, l in challenge.items]
    msm = group.g1_msm
    p1_prime = tuple(G1Elem(group, msm([cts.rows_prime[i][j] for i in rows], ls))
                     for j in range(s))
    p1_dprime = tuple(G1Elem(group, msm([cts.rows_dprime[i][j] for i in rows], ls))
                      for j in range(s))
    q = [sum(l * blocks.rows[i][j] for i, l in zip(rows, ls)) % order for j in range(s)]
    r_agg = [sum(l * sealed_r(i, j) for i, l in zip(rows, ls)) % order for j in range(s)]
    p2 = params.g1_msm([tags.phi[i] for i in rows], ls)
    context = enc_proof_context(params, manifest, challenge)
    proof = prove_opening(
        params, cts.v_pub, list(zip(p1_prime, p1_dprime)), p2, q, r_agg, context,
        rng=default_rng(rng),
    )
    return EncProof(
        p1_prime=p1_prime,
        p1_dprime=p1_dprime,
        p2=p2,
        q=tuple(q),
        nizk=proof,
    )


def delete_file(registry: EnclaveRegistry, file_id: bytes) -> DeletionReceipt:
    """Enact deletion by destroying the file's enclave; v and all r_ij die."""
    return registry.destroy_for(file_id)
