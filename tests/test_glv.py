"""The GLV endomorphism inside the bn254 G1 kernel.

Constants, the scalar split, and ``g1_mul``/``g1_msm`` are checked against
plain double-and-add (``_g1_mul_raw``) and affine ``g1_add``.  The
double-and-add reference shares the Jacobian doubling ``_jac_dbl`` and the
mixed addition ``_add_affine`` with the kernel, but none of its NAF, GLV or
table code; affine ``g1_add`` shares no code with it.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sevdel import bn254

P, R = bn254.P, bn254.R
BETA, LAM = int(bn254._BETA), int(bn254._LAMBDA)
A1, B1, A2, B2 = (int(bn254._GLV_A1), int(bn254._GLV_B1),
                  int(bn254._GLV_A2), int(bn254._GLV_B2))

POINTS = [bn254.g1_hash(b"glv/" + bytes([i])) for i in range(6)]


def _raw(pt, k):
    return bn254._g1_mul_raw(pt, k % R)


def _phi(pt):
    return (BETA * pt[0] % P, pt[1])


def test_beta_is_a_nontrivial_cube_root_of_unity_mod_p():
    assert BETA != 1 and pow(BETA, 3, P) == 1


def test_lambda_is_a_primitive_cube_root_of_unity_mod_r():
    assert (LAM * LAM + LAM + 1) % R == 0


@pytest.mark.parametrize("pt", [bn254.G1_GEN, *POINTS[:3]])
def test_phi_is_multiplication_by_lambda(pt, g1_on_curve):
    assert g1_on_curve(_phi(pt))
    assert _phi(pt) == bn254._g1_mul_raw(pt, LAM)


def test_basis_is_short_and_spans_the_lattice():
    assert (A1, B1) == (147946756881789319000765030803803410728, -9931322734385697763)
    assert (A2, B2) == (9931322734385697763, 147946756881789319010696353538189108491)
    assert bn254._short_basis(R, LAM) == ((A1, B1), (A2, B2))
    assert A1 * B2 - A2 * B1 == R
    assert (A1 + B1 * LAM) % R == 0 and (A2 + B2 * LAM) % R == 0


def _check_split(k):
    k1, k2 = bn254._glv_split(k)
    assert (k1 + k2 * LAM - k) % R == 0
    assert abs(k1) < 1 << 128 and abs(k2) < 1 << 128


@settings(max_examples=500, deadline=None)
@given(k=st.integers(0, R - 1))
def test_split_property(k):
    _check_split(k)


PINNED = [0, 1, LAM, LAM - 1, LAM + 1, R - 1, R, -1, -R - 3, 2**127, 2**128 - 1,
          A1, -B1, A2, B2, (A1 + A2) // 2, (B2 - B1) // 2]


@pytest.mark.parametrize("k", PINNED)
def test_pinned_scalars(k):
    _check_split(k % R)
    pt = POINTS[0]
    assert bn254.g1_mul(pt, k) == _raw(pt, k)
    assert bn254.g1_msm([pt, POINTS[1]], [k, k + 1]) == bn254.g1_add(_raw(pt, k), _raw(POINTS[1], k + 1))


def test_g1_mul_on_the_generator_and_identity():
    for k in (5, LAM, R - 2, 2**200 + 1):
        assert bn254.g1_mul(bn254.G1_GEN, k) == _raw(bn254.G1_GEN, k)
    assert bn254.g1_mul(None, LAM) is None


# bases: hashed points and the negation of the first, so P meets -P
_BASES = [*POINTS, _raw(POINTS[0], -1)]
_scalar = st.one_of(st.integers(0, 2**16 - 1), st.integers(0, 2**128 - 1),
                    st.integers(2**253, R - 1), st.integers(-R, -1))
_terms = st.lists(st.tuples(st.integers(0, len(_BASES) - 1), _scalar), max_size=20)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(terms=_terms)
def test_msm_with_glv_matches_per_term_reference(terms):
    bases = [_BASES[i] for i, _ in terms]
    scalars = [k for _, k in terms]
    expect = None
    for b, k in zip(bases, scalars):
        expect = bn254.g1_add(expect, _raw(b, k))
    assert bn254.g1_msm(bases, scalars) == expect
    if terms:
        assert bn254.g1_mul(bases[0], scalars[0]) == _raw(bases[0], scalars[0])


def test_msm_glv_halves_cancel_across_terms():
    # lambda*P splits to (0, 1) on P and -1 to (-1, 0) on phi(P): the halves
    # land on the same digit and the accumulator meets its own negative
    p = POINTS[2]
    assert bn254.g1_msm([p, _phi(p)], [LAM, -1]) is None
    assert bn254.g1_msm([p, p, p], [LAM + 7, R - LAM, -7]) is None
