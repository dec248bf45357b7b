"""G1 multi-exponentiation, its batched rows, the generator table and its
batched walks, the dlog table source, batched scalar draws, and
byte-identical protocol output.

``g1_msm``, ``g1_msm_rows``, ``g1_gen_add`` and the generator table are
checked against per-term double-and-add (``bn254._g1_mul_raw``) and
``g1_add`` on bn254, and against ``g1_pow``/``g1_add`` on toy.
"""

import hashlib
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sevdel import bn254, cloud, codec, owner, wire
from sevdel.enclave import EnclaveRegistry
from sevdel.errors import DimensionMismatch, InvalidElement, InvariantViolation
from sevdel.groups import DOMAIN_BLOCK, setup, vgen_points
from sevdel.rng import Rng, SeededRng


def _bn254_mul(pt, k):
    return bn254._g1_mul_raw(pt, k % bn254.R)


def _reference_mul(group):
    # on bn254, plain double-and-add: shares no code with g1_msm
    return _bn254_mul if group.name == "bn254" else group.g1_pow


def per_term(group, bases, scalars):
    mul = _reference_mul(group)
    acc = group.g1_identity()
    for b, k in zip(bases, scalars):
        acc = group.g1_add(acc, mul(b, k))
    return acc


def _pool(params):
    """Bases a product of powers meets: identity, the generator and its
    inverse, and a few unrelated points (repeats come from re-drawing)."""
    group = params.group
    mul = _reference_mul(group)
    gen = group.g1_gen
    rng = SeededRng(b"msm-pool/" + group.name.encode())
    others = [mul(gen, rng.scalar(params.order, nonzero=True)) for _ in range(5)]
    return [group.g1_identity(), gen, mul(gen, -1)] + others


_POOLS = {}


def pool(params):
    if params.group.name not in _POOLS:
        _POOLS[params.group.name] = _pool(params)
    return _POOLS[params.group.name]


_terms = st.lists(
    st.tuples(st.integers(0, 7),
              st.one_of(st.integers(), st.integers(-2**300, 2**300),
                        st.sampled_from([0, 1, -1]))),
    max_size=20)


def _check_msm_property(params, terms):
    group = params.group
    bases = [pool(params)[i] for i, _ in terms]
    scalars = [k for _, k in terms]
    assert group.g1_msm(bases, scalars) == per_term(group, bases, scalars)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(terms=_terms)
def test_msm_matches_per_term_product_toy(terms):
    _check_msm_property(setup("toy", 16), terms)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(terms=_terms)
def test_msm_matches_per_term_product_bn254(terms):
    _check_msm_property(setup("bn254", 8), terms)


def _edge_cases(params):
    group = params.group
    r = params.order
    ident, gen, gen_inv, p, q = pool(params)[:5]
    mul = _reference_mul(group)
    p_inv = mul(p, -1)
    return [
        ("empty", [], [], ident),
        ("all identity bases", [ident, ident, ident], [5, r - 1, -3], ident),
        ("P with -P", [p, p_inv], [12345, 12345], ident),
        ("repeated bases", [p, p, p], [1, 2, 3], mul(p, 6)),
        ("one term", [q], [987654321], mul(q, 987654321)),
        ("scalar order-1", [p], [r - 1], p_inv),
        ("scalar order", [p], [r], ident),
        ("negative scalar", [p], [-1], p_inv),
        ("negative beyond order", [p, q], [-(r + 5), -2 * r], mul(p, r - 5)),
        ("zero scalars", [p, q, gen], [0, 0, r], ident),
        ("generator cancels", [gen, gen_inv, gen], [r - 1, 1, 1], gen_inv),
        ("generator and others", [gen, p, gen, q], [7, 9, r - 2, -4],
         per_term(group, [gen, p, q], [5, 9, r - 4])),
    ]


@pytest.mark.parametrize("case", range(12))
def test_msm_pinned_edge_cases(any_params, case):
    name, bases, scalars, expect = _edge_cases(any_params)[case]
    assert any_params.group.g1_msm(bases, scalars) == expect, name


def test_msm_rejects_mismatched_lengths(any_params):
    group = any_params.group
    with pytest.raises(DimensionMismatch):
        group.g1_msm([group.g1_gen, group.g1_gen], [1])


# -- batched rows over shared bases ---------------------------------------------

def _row_pool(params):
    """pool(params) plus -P for the first unrelated point P, so a draw can
    hold P together with -P."""
    base = pool(params)
    return base + [_reference_mul(params.group)(base[3], -1)]


# a scalar is v + m * order: negative, zero, wider than the order, or a
# multiple of it
_row_scalar = st.tuples(st.one_of(st.sampled_from([0, 1, -1]), st.integers(-2**300, 2**300)),
                        st.sampled_from([0, 0, 0, 1, -1, 2]))


@st.composite
def _batches(draw):
    shared = draw(st.lists(st.integers(0, 8), max_size=6))
    rows = []
    for _ in range(draw(st.sampled_from([0, 1, 2, 7]))):
        own = draw(st.lists(st.integers(0, 8), max_size=3))
        count = len(shared) + len(own)
        rows.append((own, draw(st.lists(_row_scalar, min_size=count, max_size=count))))
    return shared, rows


def _check_rows_property(params, batch):
    group = params.group
    bases = _row_pool(params)
    shared = [bases[i] for i in batch[0]]
    rows = [([bases[i] for i in own], [v + m * params.order for v, m in ks])
            for own, ks in batch[1]]
    got = group.g1_msm_rows(shared, rows)
    assert got == [per_term(group, [*shared, *own], ks) for own, ks in rows]
    assert got == [group.g1_msm([*shared, *own], ks) for own, ks in rows]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batch=_batches())
def test_msm_rows_match_per_row_products_toy(batch):
    _check_rows_property(setup("toy", 16), batch)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batch=_batches())
def test_msm_rows_match_per_row_products_bn254(batch):
    _check_rows_property(setup("bn254", 8), batch)


def test_msm_rows_pinned_edge_cases(any_params):
    group = any_params.group
    r = any_params.order
    ident, gen, gen_inv, p, q = pool(any_params)[:5]
    mul = _reference_mul(group)
    p_inv = mul(p, -1)
    assert group.g1_msm_rows([p, q], []) == []
    assert group.g1_msm_rows([], [([q], [5])]) == [mul(q, 5)]
    assert group.g1_msm_rows([], [([], [])]) == [ident]
    rows = [
        ([], [3, 4]),                       # shared bases only
        ([p_inv], [1, 0, 1]),               # P with -P: the identity
        ([p, gen], [2, 1, -2, r + 7]),      # a shared base repeated as own, cancelling
        ([ident, q], [0, 0, 9, -r]),        # identity own base, zero scalars
        ([gen_inv], [r - 1, 5, 1]),         # generator term, on G1_GEN and its inverse
    ]
    assert group.g1_msm_rows([p, q], rows) == [
        per_term(group, [p, q], [3, 4]), ident, per_term(group, [q, gen], [1, 7]),
        ident, per_term(group, [p, q, gen], [r - 1, 5, -1])]


def test_msm_rows_reject_mismatched_scalar_counts(any_params):
    group = any_params.group
    p, q = pool(any_params)[3:5]
    for rows in ([([], [1])], [([q], [1, 2, 3, 4])], [([], [1, 2]), ([q], [1, 2])]):
        with pytest.raises(DimensionMismatch):
            group.g1_msm_rows([p, q], rows)


def test_window_width_of_one_call_is_unchanged():
    # one call picks from 2..7 only: w = 8 pays only when the digits of
    # many rows share one table
    for points in range(1, 41):
        for bits in range(0, points * 256 + 1, 37):
            cost = lambda w: ((points * ((1 << (w - 2)) - 1) * 20 + bits * 11 / (w + 1))
                              + (300 if w > 2 else 0))
            assert bn254._window_width(points, bits) == min(range(2, 8), key=cost)
    # 16 sector generators under 32 rows of 254-bit scalars, as in tagging
    assert bn254._window_width(16, 32 * 16 * 254) == 8


def test_msm_rows_at_the_widest_window(bn_params):
    # a tagging-sized batch: 16 shared bases, 32 rows of full-width scalars,
    # one own base per row; the shared tables run at w = 8
    group = bn_params.group
    rng = SeededRng(b"msm-rows-wide")
    shared = [bn_params.hash_to_g1(b"sevdel/vgen", b"wide-%d" % j).raw for j in range(16)]
    rows = [([bn_params.hash_to_g1(b"sevdel/block", b"wide-%d" % i).raw],
             rng.scalars(17, bn_params.order)) for i in range(32)]
    got = group.g1_msm_rows(shared, rows)
    assert got == [group.g1_msm([*shared, *own], ks) for own, ks in rows]
    own, ks = rows[0]
    assert got[0] == per_term(group, [*shared, *own], ks)


def test_params_msm_wraps_elements_and_checks_groups(toy_params, bn_params):
    g = bn_params.g1
    assert bn_params.g1_msm([g, g ** 5], [2, 3]) == g ** 17
    assert bn_params.g1_msm([], []) == bn_params.g1_identity()
    with pytest.raises(InvalidElement):
        bn_params.g1_msm([g, toy_params.g1], [1, 1])


def _check_generator_power(params, k):
    group = params.group
    expect = _reference_mul(group)(group.g1_gen, k)
    assert group.g1_msm([group.g1_gen], [k]) == expect
    assert (params.g1 ** k).raw == expect


@pytest.mark.parametrize("k", [0, 1, 2, 31, 32, 33, 64, 127, 128, 129, 255, 256, 257,
                               2**128 + 3, 2**248 - 1, 2**248 + 1, bn254.R - 1, -1])
def test_generator_power_matches_g1_mul(any_params, k):
    # each k also checks order-1-k, order-k and k+order: 0, 1 and order-1
    # are among them, as are the signed base-256 digit carries at
    # 127/128/129 and 255/256/257, the carry through every row of
    # 2^248 - 1, the first and the last row alone in 2^248 + 1, and the
    # signed base-64 carries at 32/33 and 64
    r = any_params.order
    for scalar in (k, r - 1 - k, r - k, k + r):
        _check_generator_power(any_params, scalar)


def test_generator_power_random_scalars(any_params):
    for k in SeededRng(b"gen-table-random").scalars(20, any_params.order):
        _check_generator_power(any_params, k)


def test_generator_table_under_one_mib(bn_params, g1_on_curve):
    bn254.g1_msm([bn254.G1_GEN], [1])   # builds the table
    rows = bn254._gen_rows
    size = sys.getsizeof(rows) + sum(
        sys.getsizeof(row) + sum(sys.getsizeof(pt) + sys.getsizeof(pt[0]) + sys.getsizeof(pt[1])
                                 for pt in row)
        for row in rows)
    assert size <= 1 << 20
    assert all(g1_on_curve(pt) for row in rows for pt in row)


@pytest.mark.parametrize("row", [0, 15, 31])
def test_generator_table_entries(row):
    # entry j of row i is (j + 1) * 2^(8i) * G, for the first, a middle and
    # the last row; both generator walkers read this table
    rows = bn254._generator_rows()
    assert len(rows) == 32 and all(len(r) == 128 for r in rows)
    for j, pt in enumerate(rows[row]):
        assert pt == bn254._g1_mul_raw(bn254.G1_GEN, (j + 1) << (8 * row)), j


# -- batched generator walks: P_i + k_i * g1 -----------------------------------

def _check_gen_add(params, starts, scalars):
    group = params.group
    mul = _reference_mul(group)
    expect = [group.g1_add(p, mul(group.g1_gen, k)) for p, k in zip(starts, scalars)]
    assert group.g1_gen_add(starts, scalars) == expect


def test_gen_add_pinned_scalars_from_every_start(any_params):
    # digit carries at 127/128/129, 255/256/257 and 31/32/33, the carry
    # through every row (2^248 - 1), the first and the last row alone
    # (2^248 + 1), the order and past it, a negative scalar, and a
    # full-width one, each from the identity, g1, 1/g1 and others
    r = any_params.order
    ks = [0, 1, 31, 32, 33, 127, 128, 129, 255, 256, 257, 2**248 - 1, 2**248 + 1,
          r - 1, r, r + 5, -7, 2**253]
    for start in pool(any_params):
        _check_gen_add(any_params, [start] * len(ks), ks)


def test_gen_add_cancellation_and_doubling(any_params):
    group = any_params.group
    mul = _reference_mul(group)
    gen, ident = group.g1_gen, group.g1_identity()
    ks = [5, 64, 2**200 + 3, any_params.order - 2]
    # a start of -k*G ends at the identity
    assert group.g1_gen_add([mul(gen, -k) for k in ks], ks) == [ident] * len(ks)
    cases = [
        (mul(gen, 5), 5),               # the start is row 0's entry: a doubling
        (mul(gen, 64), 64),             # the same at a row-0 digit of 64
        (mul(gen, 62), 2 + 64),         # one plain addition of 66*G
        (mul(gen, -64), 64 + 4096),     # cancels at row 0, then starts again at row 1
        (mul(gen, -31), -31),           # a negative digit met by its own entry
        (mul(gen, 256), 256),           # the start is row 1's entry, row 0 adds nothing
        (mul(gen, 254), 2 + 256),       # the walk reaches 256*G, then adds row 1's 256*G
        (mul(gen, -256), 256 + 65536),  # cancels at row 1, then starts again at row 2
        (mul(gen, -127), -127),         # the lowest digit met by its own entry
    ]
    _check_gen_add(any_params, [p for p, _ in cases], [k for _, k in cases])


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(walks=st.lists(st.tuples(st.integers(0, 7), st.integers(-2**300, 2**300)), max_size=12),
       group=st.sampled_from(["toy", "bn254"]))
def test_gen_add_matches_reference(walks, group):
    params = setup(group, 8)
    _check_gen_add(params, [pool(params)[i] for i, _ in walks], [k for _, k in walks])


def test_gen_add_repeated_scalars(any_params, monkeypatch):
    # walks that share a scalar share its digits: [1024] * k from distinct
    # starts, among them the doubling lane 1024*G and the cancelling
    # -1024*G; repeats mixed with distinct
    # scalars, r + 7 and -7 among them, equal to 7 and r - 7 only mod r;
    # and repeats of 300 = 44 + 256 whose walks double at row 0, cancel
    # there or cancel at the end
    group = any_params.group
    mul = _reference_mul(group)
    gen, r = group.g1_gen, any_params.order
    block = [mul(gen, k) for k in (0, 1, 1023, 1024, -1024, 2**200)] + pool(any_params)
    mixed = [7, 1024, 7, 2**253, 1024, r - 1, r + 7, -7, r - 7, 7]
    lanes = [mul(gen, k) for k in (44, -44, -300, 300, 44, -300)]
    digits = bn254._gen_digits
    recoded = []
    monkeypatch.setattr(bn254, "_gen_digits", lambda k: recoded.append(k) or digits(k))
    _check_gen_add(any_params, block, [1024] * len(block))
    _check_gen_add(any_params, pool(any_params) + block[:2], mixed)
    _check_gen_add(any_params, lanes, [300] * len(lanes))
    if group.name == "bn254":
        # once per distinct scalar mod r in each call
        assert sorted(recoded) == sorted([1024, 7, 1024, 2**253, r - 1, r - 7, 300])


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 2**256 - 1), w=st.integers(2, 8))
def test_wnaf_is_a_width_w_naf(k, w):
    # the recoder of every Straus multi-exponentiation, of G2 scalar
    # multiplication and of the Miller loop's 6u+2; at w = 2 the NAF is unique
    assert bn254._is_wnaf(bn254._digits(bn254._wnaf(k, w)), k, w)


def test_gen_digits_past_half_the_order_are_negated():
    # digits of k in [0, R) sum to k mod R, each selects a table entry
    # (|d| <= 128), and a scalar past R/2 is recoded from R - k: the
    # dlog's giant step -2^16 is one digit, as +2^16 is
    R = bn254.R
    for k in (0, 1, 127, 128, 129, 255, 1 << 16, R >> 1, (R >> 1) + 1,
              R - (1 << 16), R - 129, R - 128, R - 1, 0xDEADBEEF << 200):
        digits = bn254._gen_digits(k)
        assert sum(d << (8 * i) for i, d in enumerate(digits)) % R == k
        assert all(-128 <= d <= 128 for d in digits) and len(digits) <= 32
    assert bn254._gen_digits(1 << 16) == [0, 0, 1]
    assert bn254._gen_digits(R - (1 << 16)) == [0, 0, -1]


def test_gen_add_rejects_mismatched_lengths(any_params):
    group = any_params.group
    for points, scalars in (([group.g1_gen, group.g1_gen], [1]), ([], [3])):
        with pytest.raises(DimensionMismatch):
            group.g1_gen_add(points, scalars)
    assert group.g1_gen_add([], []) == []


def test_roundtrip_across_a_batch_boundary(bn_params):
    # one batch plus 8 sectors at s = 8, one block all zero: the second
    # batch runs, and decrypting the zero block cancels to the identity
    s = 8
    sectors = cloud._BATCH_SECTORS + 8
    data = bytearray(SeededRng(b"gen-add-roundtrip").read(sectors))
    data[8 * 5:8 * 6] = bytes(8)
    manifest, blocks = codec.split(bytes(data), s, bn_params.sector_bits)
    assert manifest.n * s == sectors
    enclave = EnclaveRegistry().create(manifest.file_id)
    cts, v_pub = cloud.encrypt_file(bn_params, enclave, manifest, blocks, SeededRng(b"enc"))
    # sampled components against double-and-add; E' of the zero block is V^r
    sealed = cloud._sealed_rows(bn_params.group, enclave, s)
    for i in (0, 5, manifest.n - 1):
        assert cts.rows_dprime[i] == [bn254._g1_mul_raw(bn254.G1_GEN, r) for r in sealed(i)]
    assert cts.rows_prime[5] == [bn254._g1_mul_raw(v_pub.raw, r) for r in sealed(5)]
    assert cloud.decrypt_file(bn_params, enclave, cts).rows == blocks.rows


def _centred_running_sum(group, count):
    # (m - count // 2) * g1 for m in [0, count), one g1_add at a time
    mul = _reference_mul(group)
    acc = mul(group.g1_gen, -(count // 2))
    running = []
    for _ in range(count):
        running.append(acc)
        acc = group.g1_add(acc, group.g1_gen)
    return running


def _lookup_window(params, bits, running):
    # lookups of (m - half) * g1 for m in [-1, 2^bits], taken from running,
    # a centred running sum wider than the window, and of a hashed point
    group = params.group
    half = 1 << (bits - 1)
    centre = len(running) // 2
    points = running[centre - half - 1:centre + half + 1]
    points.append(params.hash_to_g1(DOMAIN_BLOCK, b"dlog-miss").raw)
    return group.g1_dlog_lookup(group.g1_dlog_table(bits), points)


def test_generator_multiples_are_a_running_sum(any_params):
    # every m in [0, 2^bits) comes back from a lookup of (m - half) * g1,
    # and -(half + 1) * g1, +half * g1 and a hashed point miss; bn254 reads
    # k * g1 for k <= 128 off generator-table row 0 and every larger k as a
    # row-1 centre 256c plus or minus a row-0 entry: bits 1-7 put half
    # below 128, bits 8 at it, bits 9 end on the first centre (which, as
    # the last, adds no C + A) and bits 10 run one full centre, then the last
    running = _centred_running_sum(any_params.group, 2 * 512 + 2)
    for bits in range(1, 11):
        assert _lookup_window(any_params, bits, running) == [
            None, *range(1 << bits), None, None], bits


# sha256 over the 16-bit table's items sorted by x, each x as 32 B and its
# signed value as 3 B, big-endian, recorded from a table that walked every
# k * g1 with g1_gen_add: the table read off the generator table equals it
_BABY_STEPS_16_SHA256 = "d5313f05e2e5f12e8752d8c446dd88b637b425e1c91ddc4d349901f344209127"


def test_full_bn254_baby_step_table(monkeypatch):
    # the table decryption reads: 2^15 entries, one per +- pair, read off
    # the generator table without a g1_gen_add walk and equal, entry for
    # entry, to the pinned one; every m below 2^16 comes back from a
    # lookup of its own centred multiple; the identity at the centre is
    # half, and -(half + 1) * g1, +half * g1 and a hashed point, just past
    # either end and off the range, miss
    def no_walk(points, scalars):
        raise AssertionError("g1_dlog_table walked g1_gen_add")

    monkeypatch.setattr(bn254, "g1_gen_add", no_walk)
    table = bn254.g1_dlog_table(16)
    monkeypatch.undo()
    half = 1 << 15
    assert len(table) == half
    digest = hashlib.sha256(b"".join(x.to_bytes(32, "big") + k.to_bytes(3, "big", signed=True)
                                     for x, k in sorted(table.items())))
    assert digest.hexdigest() == _BABY_STEPS_16_SHA256
    baby, baby_bits = cloud._dlog_table(bn254, 16)
    assert baby_bits == 16
    assert baby == table
    params = setup("bn254", 16)
    running = _centred_running_sum(bn254, (1 << 16) + 2)
    assert running[half + 1] is None
    assert _lookup_window(params, 16, running) == [None, *range(1 << 16), None, None]


def test_bn254_dlog_table_refuses_bits_past_two_generator_rows():
    # rows 0 and 1 reach k = 128 * 256 = 2^15, the half of a 16-bit table
    for bits in (-1, 0, 17, 32):
        with pytest.raises(ValueError, match=r"\[1, 16\]"):
            bn254.g1_dlog_table(bits)


def test_bn254_dlog_table_refuses_colliding_keys(monkeypatch):
    # g1_dlog_lookup reads half as len(table): a row-0 entry repeated in
    # place of 2 * g1 leaves fewer keys than half: among row 0's entries
    # (bits 2), and at bits 10 among a centre's sums and differences too
    rows = bn254._generator_rows()
    low = list(rows[0])
    low[1] = low[0]
    monkeypatch.setattr(bn254, "_generator_rows", lambda: [low, *rows[1:]])
    for bits in (2, 10):
        with pytest.raises(InvariantViolation, match="not distinct"):
            bn254.g1_dlog_table(bits)


@pytest.mark.parametrize("n", [0, 1, 2, 255, 512])
def test_inverses_of_a_batch(n):
    # 255 denominators are one dlog centre's, 512 one walk chunk's; the
    # callers pass unreduced differences, so every other value is negative
    values = SeededRng(b"inverses/%d" % n).scalars(n, bn254.P, nonzero=True)
    values = [v - bn254.P if j & 1 else v for j, v in enumerate(values)]
    inverses = bn254._inverses(values)
    assert len(inverses) == n
    assert all(v * i % bn254.P == 1 for v, i in zip(values, inverses))


@pytest.mark.parametrize("zero", [0, bn254.P], ids=["0", "P"])
@pytest.mark.parametrize("at", [0, 2, 4])
def test_inverses_refuse_a_zero_anywhere(at, zero):
    values = [3, 5, 7, 11, 13]
    values[at] = zero
    with pytest.raises(ZeroDivisionError):
        bn254._inverses(values)


def test_dlog_keys_are_distinct_with_the_identity_at_the_centre(any_params):
    # the identity is the centre, half; a multiple d * g1 and its negation,
    # which on bn254 share one entry, come back as half + d and half - d;
    # on bn254 each of the half entries is a +- pair keyed on x, its value
    # the signed k whose multiple has even y
    group = any_params.group
    mul = _reference_mul(group)
    gen = group.g1_gen
    half = 1 << 11
    table = group.g1_dlog_table(12)

    def lookup(*points):
        return group.g1_dlog_lookup(table, points)

    assert lookup(group.g1_identity()) == [half]
    for d in (1, 2, 1023, 1024, 1025, half - 1):
        assert lookup(mul(gen, d), mul(gen, -d)) == [half + d, half - d], d
    assert lookup(mul(gen, half), mul(gen, -half)) == [None, 0]
    p = pool(any_params)[3]
    assert lookup(p, mul(p, -1)) == [None, None]
    if group.name == "bn254":
        assert sorted(abs(k) for k in table.values()) == list(range(1, half + 1))
        for x, k in table.items():
            px, py = mul(gen, abs(k))
            assert px == x and (py if k > 0 else bn254.P - py) % 2 == 0, k
    else:
        assert len(table) == 2 * half


_ms = st.one_of(st.integers(0, (1 << 16) - 1), st.integers(-(1 << 17), 1 << 17),
                st.integers(-2**300, 2**300), st.sampled_from([-1, 0, 1 << 15, 1 << 16]))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ms=st.lists(_ms, max_size=8), group=st.sampled_from(["toy", "bn254"]))
def test_dlog_lookup_is_m_inside_the_range_and_a_miss_outside(ms, group):
    # one batched lookup of (m - half) * g1 against the cached 16-bit table:
    # m reduced mod the order if that lands in [0, 2^16), else a miss
    params = setup(group, 16)
    backend = params.group
    mul = _reference_mul(backend)
    baby = cloud._dlog_table(backend, 16)[0]
    points = [mul(backend.g1_gen, m - (1 << 15)) for m in ms]
    order = params.order
    assert backend.g1_dlog_lookup(baby, points) == [
        m % order if m % order < 1 << 16 else None for m in ms]


# -- batched scalar draws ------------------------------------------------------

class _ScriptedRng(Rng):
    """Replays a fixed byte string, so a rejection can be forced."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self, n: int) -> bytes:
        out = self.data[self.pos:self.pos + n]
        assert len(out) == n, "script exhausted"
        self.pos += n
        return out


def _one_draw(rng, bound):
    """The draw scalars() must reproduce: one chunk read per attempt."""
    nbytes = (bound.bit_length() + 7) // 8 + 8
    limit = (1 << (8 * nbytes)) // bound * bound
    while True:
        v = int.from_bytes(rng.read(nbytes), "big")
        if v < limit:
            return v % bound


def test_scalars_reads_the_same_stream_as_single_draws():
    order = setup("bn254", 8).order
    for nonzero in (False, True):
        a, b = SeededRng(b"scalars"), SeededRng(b"scalars")
        expect = [nonzero + _one_draw(b, order - nonzero) for _ in range(37)]
        assert a.scalars(37, order, nonzero) == expect
        assert a.scalar(order, nonzero) == nonzero + _one_draw(b, order - nonzero)
        assert a.randrange(1000) == _one_draw(b, 1000)
        assert a.read(16) == b.read(16)


def test_scalars_matches_single_draws_on_rejection():
    bound = 1000                                   # not a power of two
    nbytes = (bound.bit_length() + 7) // 8 + 8
    reject = b"\xff" * nbytes                      # above the rejection limit
    chunks = [bytes([0] * (nbytes - 1) + [7]), reject, reject,
              bytes([0] * (nbytes - 2) + [3, 232]), reject, bytes([0] * (nbytes - 1) + [9])]
    script = b"".join(chunks) + b"tail-bytes"
    batched, single = _ScriptedRng(script), _ScriptedRng(script)
    assert batched.scalars(3, bound) == [_one_draw(single, bound) for _ in range(3)] == [7, 0, 9]
    assert batched.pos == single.pos == len(script) - len(b"tail-bytes")


# -- protocol output is byte-identical to the per-term implementation ---------
# Digests were computed with the per-term g1_mul/g1_add implementation that
# g1_msm replaced; they pin ciphertexts, tags, proofs and audit responses.
# They were re-pinned three times: when the audit response lost its
# ciphertext aggregates, when the proof of opening became one batched DLEQ,
# and at wire version 2, when the audit response lost Q2 and the DLEQ
# stopped hashing its folded pair (the ciphertext header's version byte and
# the proof's challenge and response changed).  Each time every other part
# hashed the same before and after the change.

WIRE_DIGESTS = {
    ("toy", 4096, 8, 16): "482e28d5d8d818fe38bdfcad867d7136da1663bed36f0e9fc3ca3a3a09577119",
    ("bn254", 64, 4, 8): "7265448fb1ebbf2bd94dc9397587ecd965d88d7c72f54823bad63bf2e4e7bd2c",
}


def _wire_digest(group, size, s, sector_bits):
    params = setup(group, sector_bits)
    rng = SeededRng(b"wire-digest/" + group.encode())
    data = rng.child("file").read(size)
    manifest, blocks = codec.split(data, s, sector_bits)
    okeys = owner.keygen(params, rng.child("owner-keys"))
    skeys = cloud.server_keygen(params, rng.child("server-keys"))
    gens, tags = owner.outsource(params, okeys, manifest, blocks, rng.child("tags"))
    enclave = EnclaveRegistry().create(manifest.file_id)
    cts, v_pub = cloud.encrypt_file(params, enclave, manifest, blocks, rng.child("enc"))
    enc_tags = cloud.gen_enc_tags(params, skeys, manifest, cts, gens.u,
                                  vgen_points(params, manifest.file_id, s))
    ch = owner.gen_challenge(manifest, 4, b"wire-digest")
    proof = cloud.prove_encryption(params, enclave, manifest, blocks, cts, tags, ch,
                                   rng.child("prove"))
    assert owner.verify_encryption_proof(params, manifest, gens.u, okeys.W, skeys.A,
                                         v_pub, ch, proof)
    resp = owner.audit_respond(params, manifest, cts, enc_tags, ch)
    h = hashlib.sha256()
    for part in (wire.encode_ciphertexts(params, cts), wire.encode_tagset(tags),
                 wire.encode_enc_tagset(enc_tags), wire.encode_proof(params, proof).encode(),
                 wire.encode_audit_response(resp).encode()):
        h.update(len(part).to_bytes(8, "big") + part)
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(WIRE_DIGESTS))
def test_protocol_output_is_byte_identical(case):
    assert _wire_digest(*case) == WIRE_DIGESTS[case]

