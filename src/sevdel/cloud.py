"""Cloud-server side: enclave-keyed encryption, tags, proofs, deletion.

Each file is encrypted blockwise with lifted ElGamal under a key v that
lives only inside the file's enclave: E'_ij = g1^{m_ij} V^{r_ij},
E''_ij = g1^{r_ij}.  Decryption recovers g1^{m_ij} = E'_ij g1^{-v r_ij}
from the sealed r_ij and solves the bounded discrete log by
baby-step/giant-step, which is why sector values are capped at
2^sector_bits.  Both directions are powers of g1 only, so they run as
batched generator-table walks (the backend's g1_gen_add), one call per
chunk of about _BATCH_SECTORS sectors.  Destroying the enclave forgets v
and every r_ij, after which neither decryption nor proof generation is
possible.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

from .codec import BlockMatrix, FileManifest, check_rows, sector_row
from .enclave import DeletionReceipt, Enclave, EnclaveRegistry
from .errors import (
    DimensionMismatch,
    DlogOutOfRange,
    UnknownFile,
)
from .groups import (
    G1Elem,
    G2Elem,
    SystemParams,
    block_point,
    encoding_to_scalar,
    scalar_from_bytes,
    scalar_to_bytes,
)
from .nizk import prove_opening
from .owner import Challenge, TagSet, check_challenge, enc_proof_context
from .rng import Rng, default_rng

_SEAL_KEY = b"file-key"
_SEAL_RAND = b"row-randomness"
_SEAL_META = b"meta"

_BSGS_BABY_MAX_BITS = 16

# sectors per batched generator-table walk: enough walks to spread each
# table row's shared inversion, few enough that no file-sized list exists
_BATCH_SECTORS = 512


@dataclass(frozen=True)
class ServerKeyPair:
    a: int            # provider private
    A: G2Elem         # public, A = g2^a


@dataclass
class CiphertextMatrix:
    """n x s lifted-ElGamal pairs plus the public key they were made under.

    Component rows hold raw backend values.  On toy each row is one
    array('Q') (8 B per component), which wire.decode_ciphertexts reads
    and the backend's g1_row_encodings writes a whole row at a time.  On
    bn254 a row is a list of points, except an E'' row read back by
    wire.decode_ciphertexts: that is a bn254.EncodedRow, whose components
    were checked on decode and stay encodings until one is read, when it
    is decoded once.  Both read like lists: len, row[j] and iteration;
    the backend's g1_row_encodings turns any row into its encodings.  A
    row of None models a block the holder does not possess.
    """

    rows_prime: list
    rows_dprime: list
    v_pub: G1Elem
    n: int
    s: int

    def check_dims(self, n: int, s: int, only=None) -> None:
        """MissingBlock for a row of None, DimensionMismatch unless both
        components hold n rows of s entries; with only, a collection of
        0-based indices, the row counts and just those rows are checked."""
        if self.n != n or self.s != s:
            raise DimensionMismatch(f"ciphertext matrix is {self.n}x{self.s}, expected {n}x{s}")
        check_rows(self.rows_prime, n, s, "ciphertext E' rows", only)
        check_rows(self.rows_dprime, n, s, "ciphertext E'' rows", only)


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
    challenge: int    # batched DLEQ over the P1 pairs, see sevdel.nizk
    response: int


def server_keygen(params: SystemParams, rng: Rng | None = None) -> ServerKeyPair:
    rng = default_rng(rng)
    a = rng.scalar(params.order, nonzero=True)
    return ServerKeyPair(a=a, A=params.g2 ** a)


def _require_bound(enclave: Enclave, manifest: FileManifest) -> None:
    if enclave.file_id != manifest.file_id:
        raise UnknownFile("enclave is bound to a different file")


def _batches(n: int, s: int):
    """Row ranges [lo, hi) of about _BATCH_SECTORS sectors covering n rows."""
    step = max(1, _BATCH_SECTORS // s)
    return ((lo, min(lo + step, n)) for lo in range(0, n, step))


def encrypt_file(
    params: SystemParams,
    enclave: Enclave,
    manifest: FileManifest,
    blocks: BlockMatrix,
    rng: Rng | None = None,
) -> tuple[CiphertextMatrix, G1Elem]:
    """Encrypt every sector under a fresh enclave-held key.

    Both components are powers of g1, E' = g1^(m + v*r) and E'' = g1^r,
    so each chunk of about _BATCH_SECTORS sectors is one g1_gen_add from
    the identity over both exponents of every sector; r_ij are drawn one
    row at a time, in row order.  The per-sector randomness r_ij is sealed
    into the enclave (the later encryption proof needs it); it never
    leaves the enclave otherwise.
    """
    blocks.check_shape(manifest)
    _require_bound(enclave, manifest)
    rng = default_rng(rng)
    group = params.group
    order = params.order
    v = rng.scalar(order, nonzero=True)    # exists only inside the file's enclave
    V = params.g1 ** v
    s = manifest.s
    gen_add, g1_row = group.g1_gen_add, group.g1_row
    sb = group.scalar_bytes
    ident = group.g1_identity()
    rows_prime = []
    rows_dprime = []
    r_buf = bytearray()
    for lo, hi in _batches(manifest.n, s):
        exps = []
        for row in blocks.rows[lo:hi]:
            rs = rng.scalars(s, order)
            # E' = g1^m V^r = g1^(m + v*r): both components are powers of g1
            exps += [m + v * r for m, r in zip(row, rs)]
            exps += rs
            r_buf += b"".join(r.to_bytes(sb, "big") for r in rs)   # rs lie in [0, order)
        pts = gen_add([ident] * len(exps), exps)
        for off in range(0, len(pts), 2 * s):
            rows_prime.append(g1_row(pts[off:off + s]))
            rows_dprime.append(g1_row(pts[off + s:off + 2 * s]))
    enclave.seal(_SEAL_KEY, scalar_to_bytes(group, v))
    enclave.seal(_SEAL_RAND, bytes(r_buf))
    enclave.seal(_SEAL_META, json.dumps(
        {"n": manifest.n, "s": manifest.s, "sector_bits": manifest.sector_bits},
        sort_keys=True).encode())
    cts = CiphertextMatrix(
        rows_prime=rows_prime,
        rows_dprime=rows_dprime,
        v_pub=V,
        n=manifest.n,
        s=manifest.s,
    )
    return cts, V


# -- bounded discrete log ------------------------------------------------------

_dlog_tables: dict = {}


def _dlog_table(group, bits: int):
    """(baby steps, baby_bits) for m below 2^baby_bits, baby_bits =
    min(bits, 16), built once per group and width: the backend's
    g1_dlog_table, whose g1_dlog_lookup of g1^(m - half), half =
    2^(baby_bits - 1), is m: on toy all 2^baby_bits points, on bn254 one
    entry per +- pair keyed on x, 2^15 entries (about 4 MiB) at 16 bits."""
    baby_bits = min(bits, _BSGS_BABY_MAX_BITS)
    cache_key = (group.name, baby_bits)
    table = _dlog_tables.get(cache_key)
    if table is None:
        table = (group.g1_dlog_table(baby_bits), baby_bits)
        _dlog_tables[cache_key] = table
    return table


def _dlog(group, table, points, bits: int) -> list:
    """[x] in [0, 2^bits) with points[i] = g1^(x - half), half as in
    _dlog_table; DlogOutOfRange if any point misses.  One lookup of every
    point, then the misses step down together, x // 2^baby_bits giant
    steps each, one g1_gen_add by -2^baby_bits and one lookup a step."""
    baby, baby_bits = table
    lookup = group.g1_dlog_lookup
    values = lookup(baby, points)
    if None not in values:
        return values
    window = 1 << baby_bits
    misses = [k for k, m in enumerate(values) if m is None]
    pending = [points[k] for k in misses]
    for base in range(window, 1 << bits, window):
        pending = group.g1_gen_add(pending, [-window] * len(pending))
        found = lookup(baby, pending)
        if found.count(None) == len(found):
            continue                # most steps find nothing: no bookkeeping
        for k, m in zip(misses, found):
            if m is not None:
                values[k] = base + m
        misses = [k for k, m in zip(misses, found) if m is None]
        if not misses:
            return values
        pending = [pt for pt, m in zip(pending, found) if m is None]
    raise DlogOutOfRange(f"no exponent below 2^{bits} matches; ciphertext corrupt?")


def _unseal_key(params: SystemParams, enclave: Enclave) -> tuple[int, dict]:
    v = scalar_from_bytes(params.group, enclave.unseal(_SEAL_KEY))
    return v, json.loads(enclave.unseal(_SEAL_META))


def _sealed_rows(group, enclave: Enclave, s: int):
    """Reader over the sealed r_ij: row(i) unseals and parses only the s
    scalars of block i + 1.  The enclave wrote them from [0, order), so
    they are not range-checked again."""
    sb = group.scalar_bytes
    width = s * sb

    def unseal(i):
        return enclave.unseal(_SEAL_RAND, i * width, (i + 1) * width)

    if sb == 8:
        unpack = struct.Struct(">%dQ" % s).unpack
        return lambda i: unpack(unseal(i))

    def row(i):
        blob = unseal(i)
        return [int.from_bytes(blob[off:off + sb], "big") for off in range(0, width, sb)]
    return row


def decrypt_block(params: SystemParams, enclave: Enclave, e_pair: tuple[G1Elem, G1Elem]) -> int:
    """Recover one sector value: the m with g1^m = E' / (E'')^v, shifted
    by g1^-half for the centred dlog table, as one multi-exponentiation."""
    v, meta = _unseal_key(params, enclave)
    sector_bits = int(meta["sector_bits"])
    table = _dlog_table(params.group, sector_bits)
    half = 1 << (table[1] - 1)
    lifted = params.g1_msm((*e_pair, params.g1), (1, -v, -half))
    return _dlog(params.group, table, [lifted.raw], sector_bits)[0]


def decrypt_file(params: SystemParams, enclave: Enclave, cts: CiphertextMatrix) -> BlockMatrix:
    """Bulk decryption from the sealed randomness: E' = g1^(m + v*r), so
    g1^m = E' * g1^(-v*r).  Each chunk of about _BATCH_SECTORS sectors is
    one g1_gen_add that starts each walk at E' and adds -v*r - half times
    g1, giving g1^(m - half) affine for the lookup in the centred dlog
    table (half as in _dlog_table): the shift rides on the scalar, at no
    point operation.  Each chunk's lifted points go to _dlog as one list.
    E'' is not read, so no E'' component of a decoded matrix is decoded
    here; a wrong E' still fails the bounded dlog or decrypts wrong."""
    v, meta = _unseal_key(params, enclave)
    n, s, sector_bits = int(meta["n"]), int(meta["s"]), int(meta["sector_bits"])
    cts.check_dims(n, s)
    group = params.group
    table = _dlog_table(group, sector_bits)
    sealed_r = _sealed_rows(group, enclave, s)
    neg_v = params.order - v
    half = 1 << (table[1] - 1)
    rows = []
    for lo, hi in _batches(n, s):
        starts = []
        exps = []
        for i in range(lo, hi):
            starts += cts.rows_prime[i]
            exps += [neg_v * r - half for r in sealed_r(i)]
        values = _dlog(group, table, group.g1_gen_add(starts, exps), sector_bits)
        for off in range(0, len(values), s):
            rows.append(sector_row(sector_bits, values[off:off + s]))
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
    with h hashing the canonical encoding of each component through
    encoding_to_scalar, as the audit verifier does; a is folded into the
    exponents, so each tag is one row of a batched multi-exponentiation
    over the 2s sector generators every row shares.
    """
    cts.check_dims(manifest.n, manifest.s)
    if len(u) != manifest.s or len(v_gens) != manifest.s:
        raise DimensionMismatch("sector generator count disagrees with manifest")
    group = params.group
    encodings = group.g1_row_encodings
    a = server_keys.a
    gens = [e.raw for e in u] + [e.raw for e in v_gens]

    def rows():
        # H(I_M||i) is each row's own base; rows are made as they are consumed
        for i, (row_p, row_pp) in enumerate(zip(cts.rows_prime, cts.rows_dprime), start=1):
            exps = [a * encoding_to_scalar(group, c)
                    for c in (*encodings(row_p), *encodings(row_pp))]
            yield (block_point(params, manifest.file_id, i).raw,), [*exps, a]

    return EncTagSet(sigma=tuple(G1Elem(group, raw) for raw in group.g1_msm_rows(gens, rows())))


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
    Raises MalformedProof unless the challenge fits the file, by the same
    owner.check_challenge both verifiers apply.
    """
    _require_bound(enclave, manifest)
    group = params.group
    order = params.order
    s = manifest.s
    check_challenge(challenge, manifest.n, order)
    rows = [i - 1 for i, _ in challenge.items]
    ls = [l for _, l in challenge.items]
    # the header and the challenged rows: the proof reads no other row
    blocks.check_shape(manifest, rows)
    cts.check_dims(manifest.n, s, rows)
    sealed_r = _sealed_rows(group, enclave, s)
    r_rows = [sealed_r(i) for i in rows]    # a destroyed enclave refuses before any work
    msm = group.g1_msm
    p1_prime = tuple(G1Elem(group, msm([cts.rows_prime[i][j] for i in rows], ls))
                     for j in range(s))
    p1_dprime = tuple(G1Elem(group, msm([cts.rows_dprime[i][j] for i in rows], ls))
                      for j in range(s))
    q = [sum(l * blocks.rows[i][j] for i, l in zip(rows, ls)) % order for j in range(s)]
    r_agg = [sum(l * r[j] for r, l in zip(r_rows, ls)) % order for j in range(s)]
    p2 = params.g1_msm([tags.phi[i] for i in rows], ls)
    context = enc_proof_context(params, manifest, challenge)
    c, z = prove_opening(
        params, cts.v_pub, list(zip(p1_prime, p1_dprime)), p2, q, r_agg, context,
        rng=default_rng(rng),
    )
    return EncProof(
        p1_prime=p1_prime,
        p1_dprime=p1_dprime,
        p2=p2,
        q=tuple(q),
        challenge=c,
        response=z,
    )


def delete_file(registry: EnclaveRegistry, file_id: bytes) -> DeletionReceipt:
    """Enact deletion by destroying the file's enclave; v and all r_ij die."""
    return registry.destroy_for(file_id)
