"""BN254 pairing internals: pinned outputs, the flat Fp12 tower against a
schoolbook reference, cyclotomic squaring and the Miller-line cache."""

import random

from sevdel import bn254
from sevdel.bn254 import FP12_ONE, Fp2, Fp12, P, R

# e(G1_GEN, G2_GEN) and e([7]G1_GEN, [11]G2_GEN), computed with the earlier
# Fp2 -> Fp6 -> Fp12 object tower, in Fp12.c order: real then imaginary
# part of the coefficient at w^0, then at w^1, ..., w^5.  A wrong map can
# still be bilinear (a power of the pairing, say), so the algebraic tests
# alone do not pin it.
E_GEN = (
    8493334370784016972005089913588211327688223499729897951716206968320726508021,
    3758435817766288188804561253838670030762970764366672594784247447067868088068,
    20049218015652006197026173611347504489508678646783216776320737476707192559881,
    18059168546148152671857026372711724379319778306792011146784665080987064164612,
    6565798094314091391201231504228224566495939541538094766881371862976727043038,
    14656606573936501743457633041048024656612227301473084805627390748872617280984,
    12145052038566888241256672223106590273978429515702193755778990643425246950730,
    17918828665069491344039743589118342552553375221610735811112289083834142789347,
    634997487638609332803583491743335852620873788902390365055086820718589720118,
    19455424343576886430889849773367397946457449073528455097210946839000147698372,
    6223602427219597392892794664899549544171383137467762280768257680446283161705,
    7484542354754424633621663080190936924481536615300815203692506276894207018007,
)
E_7_11 = (
    6781122309030430518136310426438703600513360020269964343150133550823975667182,
    10008083476687937072859955605073755052447929679716735618384994879322048140265,
    13465472219251253464003778938979121099284356694970436271847160354754160869247,
    7232884384275746759770778842864129590506859045162055916924313693456513901052,
    4063205910270452565505264083340826225766453310977559968787790983498980187430,
    1894991483835164791286964381495346080931067857103634110718898639785597290381,
    13682516450672438164699287367927804103642395648213323675342287513175690821905,
    14517711620594473265834482464892653623963333029795028620114596234359614074336,
    3433324327043180645612111338993071708176079898044653081605299920971252470310,
    19678527801725547658509052720530142039861056828683960988734317640041618593788,
    20428315566390036942480716225024607825825990235022872252204120356254148059903,
    5511350821984562322087653981371341245439728712444579729935815958935988924595,
)


def _random_fp12(rng):
    return Fp12(tuple(rng.randrange(int(P)) for _ in range(12)))


def _schoolbook_mul(a, b):
    # sum of a_i b_j w^(i+j) over Fp2 with w^6 = xi, no tower
    ca = [Fp2(a.c[2 * k], a.c[2 * k + 1]) for k in range(6)]
    cb = [Fp2(b.c[2 * k], b.c[2 * k + 1]) for k in range(6)]
    out = [Fp2(0, 0)] * 6
    for i in range(6):
        for j in range(6):
            term = ca[i].mul(cb[j])
            if i + j >= 6:
                term = term.mul_xi()
            out[(i + j) % 6] = out[(i + j) % 6].add(term)
    return Fp12(tuple(c for x in out for c in (x.c0, x.c1)))


def _easy_part(x):
    t = x.conj().mul(x.inv())
    return t.frobenius_p2().mul(t)


def test_pairing_output_pinned():
    assert tuple(bn254.pair(bn254.G1_GEN, bn254.G2_GEN).c) == E_GEN
    p = bn254._g1_mul_raw(bn254.G1_GEN, 7)
    q = bn254._g2_mul_raw(bn254.G2_GEN, 11)
    assert tuple(bn254.pair(p, q).c) == E_7_11


def test_flat_mul_and_sqr_match_schoolbook():
    rng = random.Random(12)
    for _ in range(10):
        a, b = _random_fp12(rng), _random_fp12(rng)
        assert a.mul(b) == _schoolbook_mul(a, b)
        assert a.sqr() == _schoolbook_mul(a, a)
    top = Fp12((int(P) - 1,) * 12)           # every input at its largest
    assert top.mul(top) == _schoolbook_mul(top, top)
    assert top.sqr() == _schoolbook_mul(top, top)


def test_sparse_line_product_matches_dense():
    rng = random.Random(13)
    for _ in range(10):
        f = _random_fp12(rng)
        line = tuple(rng.randrange(int(P)) for _ in range(6))
        dense = Fp12(line[:4] + (0, 0) + line[4:] + (0, 0, 0, 0))
        assert f.mul_line(line) == _schoolbook_mul(f, dense)


def test_inverse_and_conj():
    rng = random.Random(14)
    for _ in range(5):
        x = _random_fp12(rng)
        assert x.mul(x.inv()) == FP12_ONE
        assert x.pow(-3).mul(x.pow(3)) == FP12_ONE
        assert x.conj() == x.pow(int(P) ** 6)


def test_cyclotomic_sqr_matches_sqr_after_easy_part():
    rng = random.Random(15)
    for _ in range(10):
        x = _random_fp12(rng)
        t = _easy_part(x)
        assert t.cyclotomic_sqr() == t.sqr()
        # off the cyclotomic subgroup the shortcut is wrong, so the check bites
        assert x.cyclotomic_sqr() != x.sqr()
    e = bn254.pair(bn254.G1_GEN, bn254.G2_GEN)
    assert e.cyclotomic_sqr() == e.sqr()


def test_pow_u_matches_pow():
    t = _easy_part(_random_fp12(random.Random(16)))
    assert bn254._pow_u(t) == t.pow(bn254.U)


def test_pairing_output_has_order_r():
    e = bn254.pair(bn254.G1_GEN, bn254.G2_GEN)
    assert e != FP12_ONE and e.pow(int(R)) == FP12_ONE


def test_cached_miller_lines_beyond_the_cache_size():
    # more distinct G2 points than the line cache holds: a hit gives the
    # value of a miss, an evicted point is prepared again, and every value
    # is bilinear: e(P, [k]G2) = e([k]P, G2)
    lines = bn254._g2_lines
    size = lines.cache_parameters()["maxsize"]
    ks = range(2, size + 5)
    points = [bn254.g2_mul(bn254.G2_GEN, k) for k in ks]
    p = bn254._g1_mul_raw(bn254.G1_GEN, 5)
    lines.cache_clear()
    missed = [bn254.miller_loop(p, q) for q in points]
    assert lines.cache_info().misses == len(points)
    hits = lines.cache_info().hits
    for q, f in zip(points[-size:], missed[-size:]):
        assert bn254.miller_loop(p, q) == f
    assert lines.cache_info().hits == hits + size
    misses = lines.cache_info().misses
    for q, f in zip(points[:2], missed[:2]):
        assert bn254.miller_loop(p, q) == f
    assert lines.cache_info().misses == misses + 2
    for k, f in zip(ks, missed):
        assert bn254.final_exponentiation(f) == bn254.pair(
            bn254._g1_mul_raw(p, k), bn254.G2_GEN)
