"""BN254 (alt_bn128) bilinear groups.

Asymmetric pairing e: G1 x G2 -> GT over the 254-bit Barreto-Naehrig curve
used by the Ethereum precompiles:

    G1:  y^2 = x^3 + 3           over Fp
    G2:  y^2 = x^3 + 3/(9+i)     over Fp2 = Fp[i]/(i^2+1)   (sextic D-twist)
    GT:  order-r subgroup of Fp12*

The tower is Fp2 -> Fp6 = Fp2[v]/(v^3 - xi) -> Fp12 = Fp6[w]/(w^2 - v) with
xi = 9+i, and the pairing is the optimal ate construction (NAF Miller loop
over 6u+2 followed by the Frobenius-decomposed final exponentiation).

Base-field arithmetic runs on gmpy2 integers when available; everything
degrades to plain ints otherwise.  Points are handed around in affine form
as (x, y) tuples with None for the identity; scalar multiplication works
internally in Jacobian coordinates.

Every G1 scalar multiplication goes through g1_msm (g1_mul is its one-term
case): powers of the generator use a fixed-base table, every other term
runs in one interleaved width-w NAF (Straus), where the GLV endomorphism
phi(x, y) = (beta*x, y) = lambda*(x, y) halves the length of scalars wider
than 128 bits.  The GLV constants are derived and checked at import.
_g1_mul_raw, plain double-and-add, is kept as the tests' reference.
"""

from __future__ import annotations

import hashlib
from math import isqrt

from .errors import InvalidElement, InvariantViolation

try:
    from gmpy2 import mpz, invert as _invert
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    mpz = int

    def _invert(a, m):
        return pow(a, -1, m)

# Curve parameter u and derived field/order constants.
U = 4965661367192848881
P = mpz(21888242871839275222246405745257275088696311157297823662689037894645226208583)
R = mpz(21888242871839275222246405745257275088548364400416034343698204186575808495617)
B = mpz(3)


def _check(ok, what):
    # explicit raise, so the constant checks also run under python -O
    if not ok:
        raise InvariantViolation(what)


_check(P == 36 * U**4 + 36 * U**3 + 24 * U**2 + 6 * U + 1, "P does not match u")
_check(R == 36 * U**4 + 36 * U**3 + 18 * U**2 + 6 * U + 1, "R does not match u")
_check(P % 4 == 3, "P is not 3 mod 4")  # enables the simple square-root rule

G1_GEN = (mpz(1), mpz(2))

FP_BYTES = 32
G1_BYTES = 1 + FP_BYTES
G2_BYTES = 1 + 2 * FP_BYTES


def _fp_inv(a):
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in Fp")
    return _invert(a, P)


def _fp_sqrt(a):
    """Square root mod P (P = 3 mod 4), or None if a is not a residue."""
    a = a % P
    if a == 0:
        return mpz(0)
    y = pow(a, (P + 1) // 4, P)
    return y if y * y % P == a else None


# ---------------------------------------------------------------------------
# Fp2 = Fp[i] / (i^2 + 1), elements c0 + c1*i
# ---------------------------------------------------------------------------

class Fp2:
    __slots__ = ("c0", "c1")

    def __init__(self, c0, c1):
        self.c0 = c0
        self.c1 = c1

    def __eq__(self, other):
        return self.c0 == other.c0 and self.c1 == other.c1

    def __hash__(self):
        return hash((int(self.c0), int(self.c1)))

    def __repr__(self):
        return f"Fp2({int(self.c0)}, {int(self.c1)})"

    def is_zero(self):
        return self.c0 == 0 and self.c1 == 0

    def add(self, o):
        return Fp2((self.c0 + o.c0) % P, (self.c1 + o.c1) % P)

    def sub(self, o):
        return Fp2((self.c0 - o.c0) % P, (self.c1 - o.c1) % P)

    def dbl(self):
        return Fp2(self.c0 * 2 % P, self.c1 * 2 % P)

    def neg(self):
        return Fp2(-self.c0 % P, -self.c1 % P)

    def conj(self):
        return Fp2(self.c0, -self.c1 % P)

    def mul(self, o):
        a0, a1, b0, b1 = self.c0, self.c1, o.c0, o.c1
        t0 = a0 * b0
        t1 = a1 * b1
        return Fp2((t0 - t1) % P, ((a0 + a1) * (b0 + b1) - t0 - t1) % P)

    def sqr(self):
        a0, a1 = self.c0, self.c1
        return Fp2((a0 + a1) * (a0 - a1) % P, 2 * a0 * a1 % P)

    def mul_int(self, k):
        return Fp2(self.c0 * k % P, self.c1 * k % P)

    def mul_xi(self):
        # multiply by xi = 9 + i
        a0, a1 = self.c0, self.c1
        return Fp2((9 * a0 - a1) % P, (a0 + 9 * a1) % P)

    def inv(self):
        a0, a1 = self.c0, self.c1
        t = _fp_inv((a0 * a0 + a1 * a1) % P)
        return Fp2(a0 * t % P, -a1 * t % P)

    def pow(self, e):
        out = FP2_ONE
        base = self
        while e:
            if e & 1:
                out = out.mul(base)
            base = base.sqr()
            e >>= 1
        return out

    def sqrt(self):
        """Square root in Fp2 via the norm decomposition, or None."""
        a, b = self.c0, self.c1
        if b == 0:
            y = _fp_sqrt(a)
            if y is not None:
                return Fp2(y, mpz(0))
            y = _fp_sqrt(-a % P)
            if y is not None:
                return Fp2(mpz(0), y)
            return None
        s = _fp_sqrt((a * a + b * b) % P)
        if s is None:
            return None
        inv2 = _fp_inv(mpz(2))
        d = (a + s) * inv2 % P
        x = _fp_sqrt(d)
        if x is None:
            d = (a - s) * inv2 % P
            x = _fp_sqrt(d)
            if x is None:
                return None
        y = b * _fp_inv(2 * x % P) % P
        root = Fp2(x, y)
        return root if root.sqr() == self else None


FP2_ZERO = Fp2(mpz(0), mpz(0))
FP2_ONE = Fp2(mpz(1), mpz(0))
XI = Fp2(mpz(9), mpz(1))

TWIST_B = Fp2(B, mpz(0)).mul(XI.inv())

G2_GEN = (
    Fp2(mpz(10857046999023057135944570762232829481370756359578518086990519993285655852781),
        mpz(11559732032986387107991004021392285783925812861821192530917403151452391805634)),
    Fp2(mpz(8495653923123431417604973247489272438418190587263600148770280649306958101930),
        mpz(4082367875863433681332203403145435568316851327593401208105741076214120093531)),
)

# Frobenius slot multipliers: gamma = xi^((p-1)/6); pi^2 uses its Fp norm.
_GAMMA1 = [FP2_ONE] + [XI.pow(k * (P - 1) // 6) for k in range(1, 6)]
_GAMMA2 = [g.mul(g.conj()) for g in _GAMMA1]  # real (c1 = 0) by construction


# ---------------------------------------------------------------------------
# Fp6 = Fp2[v] / (v^3 - xi), elements c0 + c1*v + c2*v^2
# ---------------------------------------------------------------------------

class Fp6:
    __slots__ = ("c0", "c1", "c2")

    def __init__(self, c0, c1, c2):
        self.c0 = c0
        self.c1 = c1
        self.c2 = c2

    def __eq__(self, other):
        return self.c0 == other.c0 and self.c1 == other.c1 and self.c2 == other.c2

    def is_zero(self):
        return self.c0.is_zero() and self.c1.is_zero() and self.c2.is_zero()

    def add(self, o):
        return Fp6(self.c0.add(o.c0), self.c1.add(o.c1), self.c2.add(o.c2))

    def sub(self, o):
        return Fp6(self.c0.sub(o.c0), self.c1.sub(o.c1), self.c2.sub(o.c2))

    def neg(self):
        return Fp6(self.c0.neg(), self.c1.neg(), self.c2.neg())

    def mul(self, o):
        a0, a1, a2 = self.c0, self.c1, self.c2
        b0, b1, b2 = o.c0, o.c1, o.c2
        t0 = a0.mul(b0)
        t1 = a1.mul(b1)
        t2 = a2.mul(b2)
        c0 = a1.add(a2).mul(b1.add(b2)).sub(t1).sub(t2).mul_xi().add(t0)
        c1 = a0.add(a1).mul(b0.add(b1)).sub(t0).sub(t1).add(t2.mul_xi())
        c2 = a0.add(a2).mul(b0.add(b2)).sub(t0).sub(t2).add(t1)
        return Fp6(c0, c1, c2)

    def sqr(self):
        a0, a1, a2 = self.c0, self.c1, self.c2
        s0 = a0.sqr()
        s1 = a0.mul(a1).dbl()
        s2 = a0.sub(a1).add(a2).sqr()
        s3 = a1.mul(a2).dbl()
        s4 = a2.sqr()
        c0 = s0.add(s3.mul_xi())
        c1 = s1.add(s4.mul_xi())
        c2 = s1.add(s2).add(s3).sub(s0).sub(s4)
        return Fp6(c0, c1, c2)

    def mul_fp2(self, k):
        return Fp6(self.c0.mul(k), self.c1.mul(k), self.c2.mul(k))

    def mul_v(self):
        # multiply by v: (c0, c1, c2) -> (xi*c2, c0, c1)
        return Fp6(self.c2.mul_xi(), self.c0, self.c1)

    def inv(self):
        a0, a1, a2 = self.c0, self.c1, self.c2
        t0 = a0.sqr()
        t1 = a1.sqr()
        t2 = a2.sqr()
        t3 = a0.mul(a1)
        t4 = a0.mul(a2)
        t5 = a1.mul(a2)
        c0 = t0.sub(t5.mul_xi())
        c1 = t2.mul_xi().sub(t3)
        c2 = t1.sub(t4)
        f = a0.mul(c0).add(a2.mul(c1).mul_xi()).add(a1.mul(c2).mul_xi()).inv()
        return Fp6(c0.mul(f), c1.mul(f), c2.mul(f))


FP6_ZERO = Fp6(FP2_ZERO, FP2_ZERO, FP2_ZERO)
FP6_ONE = Fp6(FP2_ONE, FP2_ZERO, FP2_ZERO)


# ---------------------------------------------------------------------------
# Fp12 = Fp6[w] / (w^2 - v), elements c0 + c1*w
# ---------------------------------------------------------------------------

class Fp12:
    __slots__ = ("c0", "c1")

    def __init__(self, c0, c1):
        self.c0 = c0
        self.c1 = c1

    def __eq__(self, other):
        return self.c0 == other.c0 and self.c1 == other.c1

    def __repr__(self):
        g, h = self.c0, self.c1
        coeffs = [g.c0, h.c0, g.c1, h.c1, g.c2, h.c2]
        flat = []
        for c in coeffs:
            flat += [int(c.c0), int(c.c1)]
        return f"Fp12{tuple(flat)}"

    def mul(self, o):
        t0 = self.c0.mul(o.c0)
        t1 = self.c1.mul(o.c1)
        c1 = self.c0.add(self.c1).mul(o.c0.add(o.c1)).sub(t0).sub(t1)
        return Fp12(t0.add(t1.mul_v()), c1)

    def sqr(self):
        t = self.c0.mul(self.c1)
        c0 = self.c0.add(self.c1).mul(self.c0.add(self.c1.mul_v())).sub(t).sub(t.mul_v())
        return Fp12(c0, t.add(t))

    def conj(self):
        return Fp12(self.c0, self.c1.neg())

    def inv(self):
        t = self.c0.sqr().sub(self.c1.sqr().mul_v()).inv()
        return Fp12(self.c0.mul(t), self.c1.mul(t).neg())

    def pow(self, e):
        if e < 0:
            return self.inv().pow(-e)
        out = FP12_ONE
        base = self
        while e:
            if e & 1:
                out = out.mul(base)
            base = base.sqr()
            e >>= 1
        return out

    def frobenius(self):
        g, h = self.c0, self.c1
        return Fp12(
            Fp6(g.c0.conj(),
                g.c1.conj().mul(_GAMMA1[2]),
                g.c2.conj().mul(_GAMMA1[4])),
            Fp6(h.c0.conj().mul(_GAMMA1[1]),
                h.c1.conj().mul(_GAMMA1[3]),
                h.c2.conj().mul(_GAMMA1[5])),
        )

    def frobenius_p2(self):
        g, h = self.c0, self.c1
        return Fp12(
            Fp6(g.c0,
                g.c1.mul(_GAMMA2[2]),
                g.c2.mul(_GAMMA2[4])),
            Fp6(h.c0.mul(_GAMMA2[1]),
                h.c1.mul(_GAMMA2[3]),
                h.c2.mul(_GAMMA2[5])),
        )


FP12_ONE = Fp12(FP6_ONE, FP6_ZERO)


# ---------------------------------------------------------------------------
# G1: short Weierstrass y^2 = x^3 + 3 over Fp, affine (x, y) or None
# ---------------------------------------------------------------------------

def g1_is_on_curve(pt):
    if pt is None:
        return True
    x, y = pt
    return (y * y - (x * x * x + B)) % P == 0


def g1_neg(pt):
    if pt is None:
        return None
    return (pt[0], -pt[1] % P)


def g1_add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    x1, y1 = a
    x2, y2 = b
    if x1 == x2:
        if (y1 + y2) % P == 0:
            return None
        m = (3 * x1 * x1) * _fp_inv(2 * y1 % P) % P
    else:
        m = (y2 - y1) * _fp_inv((x2 - x1) % P) % P
    x3 = (m * m - x1 - x2) % P
    y3 = (m * (x1 - x3) - y1) % P
    return (x3, y3)


def _jac_dbl(x, y, z):
    a = x * x % P
    b = y * y % P
    c = b * b % P
    d = 2 * ((x + b) * (x + b) - a - c) % P
    e = 3 * a % P
    f = e * e % P
    x3 = (f - 2 * d) % P
    y3 = (e * (d - x3) - 8 * c) % P
    z3 = 2 * y * z % P
    return x3, y3, z3


def _jac_add_affine(x1, y1, z1, x2, y2):
    # mixed addition, (x2, y2) affine
    z1z1 = z1 * z1 % P
    u2 = x2 * z1z1 % P
    s2 = y2 * z1 * z1z1 % P
    h = (u2 - x1) % P
    r = (s2 - y1) % P
    if h == 0:
        if r == 0:
            return _jac_dbl(x1, y1, z1)
        return mpz(1), mpz(1), mpz(0)
    hh = h * h % P
    hhh = h * hh % P
    v = x1 * hh % P
    x3 = (r * r - hhh - 2 * v) % P
    y3 = (r * (v - x3) - y1 * hhh) % P
    z3 = z1 * h % P
    return x3, y3, z3


def g1_mul(pt, k):
    """k * pt, as the one-term case of g1_msm."""
    return g1_msm((pt,), (k,))


def _g1_mul_raw(pt, k):
    # plain double-and-add on the unreduced k: the reference the tests
    # check g1_mul and g1_msm against
    if pt is None or k == 0:
        return None
    x2, y2 = pt
    x, y, z = None, None, None
    for bit in bin(k)[2:]:
        if x is not None:
            x, y, z = _jac_dbl(x, y, z)
        if bit == "1":
            if x is None:
                x, y, z = x2, y2, mpz(1)
            elif z == 0:
                x, y, z = x2, y2, mpz(1)
            else:
                x, y, z = _jac_add_affine(x, y, z, x2, y2)
    if z == 0:
        return None
    zi = _fp_inv(z)
    zi2 = zi * zi % P
    return (x * zi2 % P, y * zi2 * zi % P)


# -- multi-exponentiation and the generator table ------------------------------
# Accumulators below are Jacobian (x, y, z) triples or None for the
# identity; tables are affine so every addition is a mixed one.

_ONE = mpz(1)


def _to_affine(acc):
    if acc is None:
        return None
    x, y, z = acc
    zi = _fp_inv(z)
    zi2 = zi * zi % P
    return (x * zi2 % P, y * zi2 * zi % P)


def _batch_affine(points):
    """Affine forms of finite Jacobian points with one shared inversion."""
    prefix = []
    acc = _ONE
    for _, _, z in points:
        prefix.append(acc)
        acc = acc * z % P
    inv = _fp_inv(acc)
    out = [None] * len(points)
    for k in range(len(points) - 1, -1, -1):
        x, y, z = points[k]
        zi = inv * prefix[k] % P
        inv = inv * z % P
        zi2 = zi * zi % P
        out[k] = (x * zi2 % P, y * zi2 * zi % P)
    return out


def _add_affine(acc, x, y):
    """acc + (x, y) for a Jacobian-or-None accumulator."""
    if acc is None:
        return (x, y, _ONE)
    acc = _jac_add_affine(acc[0], acc[1], acc[2], x, y)
    return None if acc[2] == 0 else acc


def _wnaf(k, w):
    """(bit position, odd digit) pairs of the width-w NAF of k > 0."""
    out = []
    pos = 0
    mask, half = (1 << w) - 1, 1 << (w - 1)
    while k:
        tz = (k & -k).bit_length() - 1
        k >>= tz
        pos += tz
        d = k & mask
        if d >= half:
            d -= 1 << w
        out.append((pos, d))
        k = (k - d) >> w   # the next w - 1 digits are zero
        pos += w
    return out


def _odd_multiple_tables(points, size):
    """[P, 3P, ..., (2*size - 1)P] in affine form for every point P."""
    if size == 1:
        return [[pt] for pt in points]
    doubles = _batch_affine([_jac_dbl(x, y, _ONE) for x, y in points])
    jac = []
    for (x, y), (dx, dy) in zip(points, doubles):
        cur = (x, y, _ONE)
        jac.append(cur)
        for _ in range(size - 1):
            cur = _jac_add_affine(cur[0], cur[1], cur[2], dx, dy)
            jac.append(cur)
    flat = _batch_affine(jac)
    return [flat[k:k + size] for k in range(0, len(flat), size)]


# GLV endomorphism (Gallant, Lambert and Vanstone, CRYPTO 2001).  The curve
# has j = 0, so phi(x, y) = (beta*x, y) with beta^3 = 1 maps it to itself;
# on G1 (cofactor 1) phi is multiplication by a cube root of unity lambda
# mod R.  A scalar k splits into k1 + k2*lambda with |k1|, |k2| < 2^128 by
# rounding against a short basis of the lattice {(a, b): a + b*lambda = 0}.

def _cube_root_of_unity(n):
    """A cube root of 1 other than 1 modulo the prime n = 1 mod 3."""
    g = 2
    while pow(g, (n - 1) // 3, n) == 1:
        g += 1
    return pow(g, (n - 1) // 3, n)


def _short_basis(n, lam):
    """Vectors (a1, b1), (a2, b2) with a + b*lam = 0 mod n and determinant
    n, from the extended Euclidean algorithm on (n, lam) stopped at sqrt(n)."""
    root = isqrt(n)
    seq = [(n, 0), (lam, 1)]            # (r_i, t_i) with r_i = t_i*lam mod n
    while seq[-2][0] >= root:           # until seq[-2] is the first r below it
        (r0, t0), (r1, t1) = seq[-2], seq[-1]
        q = r0 // r1
        seq.append((r0 - q * r1, t0 - q * t1))
    (rm, tm), (r1, t1), (r2, t2) = seq[-3:]
    a1, b1 = r1, -t1
    a2, b2 = min((rm, -tm), (r2, -t2), key=lambda v: v[0] ** 2 + v[1] ** 2)
    if a1 * b2 - a2 * b1 < 0:
        a2, b2 = -a2, -b2
    return (a1, b1), (a2, b2)


def _phi_eigenvalue():
    """The cube root of unity lambda mod R with phi(G) = lambda*G."""
    lam = _cube_root_of_unity(int(R))
    phi_gen = (_BETA * G1_GEN[0] % P, G1_GEN[1])
    for cand in (lam, lam * lam % int(R)):
        if _g1_mul_raw(G1_GEN, cand) == phi_gen:
            return cand
    raise InvariantViolation("no cube root of unity mod R acts as phi on G1")


_BETA = mpz(_cube_root_of_unity(int(P)))
_check(_BETA != 1 and pow(_BETA, 3, P) == 1, "beta is not a cube root of unity mod P")
_LAMBDA = _phi_eigenvalue()
(_GLV_A1, _GLV_B1), (_GLV_A2, _GLV_B2) = _short_basis(int(R), _LAMBDA)
_check(_GLV_A1 * _GLV_B2 - _GLV_A2 * _GLV_B1 == R
       and (_GLV_A1 + _GLV_B1 * _LAMBDA) % R == 0
       and (_GLV_A2 + _GLV_B2 * _LAMBDA) % R == 0, "GLV basis does not span the lattice")
# rounding leaves |k1| <= (|a1| + |a2|)/2 and |k2| <= (|b1| + |b2|)/2
_check(max(abs(_GLV_A1) + abs(_GLV_A2), abs(_GLV_B1) + abs(_GLV_B2)) < 1 << 129,
       "GLV basis too long for 128-bit halves")


def _glv_split(k):
    """(k1, k2) with k1 + k2*lambda = k mod R and |k1|, |k2| < 2^128."""
    c1 = (2 * _GLV_B2 * k + R) // (2 * R)     # round(b2*k / R)
    c2 = (R - 2 * _GLV_B1 * k) // (2 * R)     # round(-b1*k / R)
    return k - c1 * _GLV_A1 - c2 * _GLV_A2, -c1 * _GLV_B1 - c2 * _GLV_B2


def _window_width(points, digit_bits):
    # cost in field multiplications: per point, each table entry past P
    # itself (a mixed addition and its share of the normalisation, ~20;
    # the phi copy of a table adds one per entry and is left out); per bit
    # of the scalars' halves, 1/(w+1) of a NAF digit's mixed addition
    # (~11); per call, the two inversions (~150 each) that a table beyond
    # P needs
    def cost(w):
        return (points * ((1 << (w - 2)) - 1) * 20 + digit_bits * 11 / (w + 1)
                + (300 if w > 2 else 0))
    return min(range(2, 8), key=cost)


def _straus(terms):
    """Jacobian sum of k*P over (P, k) terms, P finite, 0 < k < R.

    Interleaved width-w NAF: one doubling chain shared by every term,
    per-term tables of odd multiples normalised together.  A scalar wider
    than 128 bits runs as its GLV halves k1 on P and k2 on phi(P), whose
    table is P's with every x times beta, so the chain is half as long.
    """
    halves = []                         # (term index, on phi(P), signed scalar)
    for i, (_, k) in enumerate(terms):
        if k.bit_length() > 128:
            k1, k2 = _glv_split(k)
            halves += [(i, False, k1), (i, True, k2)]
        else:
            halves.append((i, False, k))
    sizes = [abs(k).bit_length() for _, _, k in halves]
    bits = max(sizes)
    w = _window_width(len(terms), sum(sizes))
    tables = _odd_multiple_tables([pt for pt, _ in terms], 1 << (w - 2))
    schedule = [[] for _ in range(bits + 1)]
    for i, on_phi, k in halves:
        table = tables[i]
        if on_phi:
            table = [(_BETA * x % P, y) for x, y in table]
        flip = k < 0
        for pos, d in _wnaf(abs(k), w):
            x, y = table[abs(d) >> 1]
            schedule[pos].append((x, y) if (d > 0) != flip else (x, P - y))
    acc = None
    for adds in reversed(schedule):
        if acc is not None:
            acc = _jac_dbl(acc[0], acc[1], acc[2])
        for x, y in adds:
            acc = _add_affine(acc, x, y)
    return acc


# Fixed-base table for G1_GEN: row i holds j * 2^(6i) * G for j = 1..32, so
# a scalar in signed base-64 digits [-31, 32] costs one mixed addition per
# digit and no doubling.  43 rows cover 254-bit scalars plus the top carry.
_GEN_WINDOW = 6
_gen_rows = None


def _generator_rows():
    global _gen_rows
    if _gen_rows is None:
        half = 1 << (_GEN_WINDOW - 1)
        rows = []
        bx, by = G1_GEN
        for _ in range(-(-int(R).bit_length() // _GEN_WINDOW)):
            cur = (bx, by, _ONE)
            jac = [cur]
            for _ in range(half - 1):
                cur = _jac_add_affine(cur[0], cur[1], cur[2], bx, by)
                jac.append(cur)
            row = _batch_affine(jac)
            rows.append(row)
            bx, by = _to_affine(_jac_dbl(row[-1][0], row[-1][1], _ONE))
        _gen_rows = rows
    return _gen_rows


def _add_gen_multiple(acc, k):
    """acc + k*G_GEN through the generator table; 0 <= k < R."""
    rows = _generator_rows()
    mask, half = (1 << _GEN_WINDOW) - 1, 1 << (_GEN_WINDOW - 1)
    i = 0
    while k:
        d = k & mask
        k >>= _GEN_WINDOW
        if d > half:
            d -= 1 << _GEN_WINDOW
            k += 1
        if d > 0:
            x, y = rows[i][d - 1]
            acc = _add_affine(acc, x, y)
        elif d < 0:
            x, y = rows[i][-d - 1]
            acc = _add_affine(acc, x, P - y)
        i += 1
    return acc


def g1_msm(points, scalars):
    """sum_i k_i * P_i as one multi-exponentiation.

    Scalars are reduced mod R (negative ones included); identity points
    and zero scalars drop out.  Terms on G1_GEN go through the generator
    table, the rest through Straus; one inversion normalises the result.
    """
    gen_k = 0
    terms = []
    for pt, k in zip(points, scalars, strict=True):
        k %= R
        if pt is None or k == 0:
            continue
        if pt == G1_GEN:
            gen_k += k
        else:
            terms.append((pt, k))
    acc = _straus(terms) if terms else None
    gen_k %= R
    if gen_k:
        acc = _add_gen_multiple(acc, gen_k)
    return _to_affine(acc)


def g1_gen_multiples(count):
    """k * G_GEN for k in [0, count), affine, as a running Jacobian sum
    normalised 1024 points at a time."""
    if count > 0:
        yield None
    made, cur = 1, None
    gx, gy = G1_GEN
    while made < count:
        jac = []
        for _ in range(min(1024, count - made)):
            cur = _add_affine(cur, gx, gy)
            jac.append(cur)
        made += len(jac)
        yield from _batch_affine(jac)


def g1_to_bytes(pt):
    if pt is None:
        return b"\x00" + b"\x00" * FP_BYTES
    x, y = pt
    flag = 0x03 if y & 1 else 0x02
    return bytes([flag]) + int(x).to_bytes(FP_BYTES, "big")


def g1_from_bytes(data):
    if len(data) != G1_BYTES:
        raise InvalidElement(f"G1 encoding must be {G1_BYTES} bytes")
    flag = data[0]
    body = data[1:]
    if flag == 0x00:
        if any(body):
            raise InvalidElement("nonzero payload on G1 identity encoding")
        return None
    if flag not in (0x02, 0x03):
        raise InvalidElement(f"bad G1 flag byte {flag:#x}")
    x = mpz(int.from_bytes(body, "big"))
    if x >= P:
        raise InvalidElement("G1 x-coordinate out of field range")
    y = _fp_sqrt((x * x * x + B) % P)
    if y is None:
        raise InvalidElement("G1 x-coordinate not on curve")
    if (y & 1) != (flag & 1):
        y = -y % P
    # cofactor of G1 is 1, so on-curve already implies prime-order subgroup
    return (x, y)


def g1_hash(data: bytes):
    """Deterministic try-and-increment map onto the curve."""
    for ctr in range(65536):
        h = hashlib.sha256(b"sevdel/bn254-h2c:" + data + ctr.to_bytes(2, "big")).digest()
        x = mpz(int.from_bytes(h, "big")) % P
        y = _fp_sqrt((x * x * x + B) % P)
        if y is not None and y != 0:
            if h[0] & 1:
                y = -y % P
            return (x, y)
    raise RuntimeError("hash-to-curve failed to find a point")  # pragma: no cover


# ---------------------------------------------------------------------------
# G2: twist y^2 = x^3 + 3/xi over Fp2, affine (Fp2, Fp2) or None
# ---------------------------------------------------------------------------

def g2_is_on_curve(pt):
    if pt is None:
        return True
    x, y = pt
    return y.sqr() == x.sqr().mul(x).add(TWIST_B)


def g2_neg(pt):
    if pt is None:
        return None
    return (pt[0], pt[1].neg())


def g2_add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    x1, y1 = a
    x2, y2 = b
    if x1 == x2:
        if y1.add(y2).is_zero():
            return None
        m = x1.sqr().mul_int(3).mul(y1.dbl().inv())
    else:
        m = y2.sub(y1).mul(x2.sub(x1).inv())
    x3 = m.sqr().sub(x1).sub(x2)
    y3 = m.mul(x1.sub(x3)).sub(y1)
    return (x3, y3)


def _g2_mul_raw(pt, k):
    if pt is None or k == 0:
        return None
    acc = None
    for bit in bin(k)[2:]:
        acc = g2_add(acc, acc)
        if bit == "1":
            acc = g2_add(acc, pt)
    return acc


def g2_mul(pt, k):
    return _g2_mul_raw(pt, k % R)


def g2_in_subgroup(pt):
    # the twist has composite order, so the cofactor test is not optional
    return g2_is_on_curve(pt) and _g2_mul_raw(pt, int(R)) is None


def g2_to_bytes(pt):
    if pt is None:
        return b"\x00" + b"\x00" * (2 * FP_BYTES)
    x, y = pt
    par = (y.c0 if y.c0 != 0 else y.c1) & 1
    flag = 0x03 if par else 0x02
    return bytes([flag]) + int(x.c0).to_bytes(FP_BYTES, "big") + int(x.c1).to_bytes(FP_BYTES, "big")


def g2_from_bytes(data):
    if len(data) != G2_BYTES:
        raise InvalidElement(f"G2 encoding must be {G2_BYTES} bytes")
    flag = data[0]
    body = data[1:]
    if flag == 0x00:
        if any(body):
            raise InvalidElement("nonzero payload on G2 identity encoding")
        return None
    if flag not in (0x02, 0x03):
        raise InvalidElement(f"bad G2 flag byte {flag:#x}")
    c0 = mpz(int.from_bytes(body[:FP_BYTES], "big"))
    c1 = mpz(int.from_bytes(body[FP_BYTES:], "big"))
    if c0 >= P or c1 >= P:
        raise InvalidElement("G2 x-coordinate out of field range")
    x = Fp2(c0, c1)
    y = x.sqr().mul(x).add(TWIST_B).sqrt()
    if y is None:
        raise InvalidElement("G2 x-coordinate not on twist")
    par = (y.c0 if y.c0 != 0 else y.c1) & 1
    if par != (flag & 1):
        y = y.neg()
    pt = (x, y)
    if not g2_in_subgroup(pt):
        raise InvalidElement("G2 point outside the prime-order subgroup")
    return pt


# ---------------------------------------------------------------------------
# Optimal ate pairing
# ---------------------------------------------------------------------------

def _naf(k):
    out = []
    while k > 0:
        if k & 1:
            d = 2 - (k & 3)
            out.append(d)
            k -= d
        else:
            out.append(0)
        k >>= 1
    return out


_ATE_NAF = list(reversed(_naf(6 * U + 2)))[1:]


def _line_dbl(rx, ry, rz, px, py):
    """Doubling step: returns line coeffs (a, b, c) and the doubled point.

    Jacobian doubling fused with the tangent-line evaluation at the G1
    point (px, py); formulas follow the standard BN optimal-ate recipe.
    """
    rt = rz.sqr()
    aa = rx.sqr()
    bb = ry.sqr()
    cc = bb.sqr()
    d = rx.add(bb).sqr().sub(aa).sub(cc).dbl()
    e = aa.mul_int(3)
    f = e.sqr()
    c8 = cc.dbl().dbl().dbl()
    nx = f.sub(d.dbl())
    ny = e.mul(d.sub(nx)).sub(c8)
    nz = ry.add(rz).sqr().sub(bb).sub(rt)
    a = rx.add(e).sqr().sub(aa).sub(f).sub(bb.dbl().dbl())
    b = e.mul(rt).dbl().neg().mul_int(px)
    c = nz.mul(rt).dbl().mul_int(py)
    return a, b, c, nx, ny, nz


def _line_add(rx, ry, rz, qx, qy, qy2, px, py):
    """Mixed-addition step with the chord line through R and affine Q."""
    rt = rz.sqr()
    bq = qx.mul(rt)
    d = qy.add(rz).sqr().sub(qy2).sub(rt).mul(rt)
    h = bq.sub(rx)
    i = h.sqr()
    e = i.dbl().dbl()
    j = h.mul(e)
    l1 = d.sub(ry).sub(ry)
    v = rx.mul(e)
    nx = l1.sqr().sub(j).sub(v.dbl())
    nz = rz.add(h).sqr().sub(rt).sub(i)
    ny = v.sub(nx).mul(l1).sub(ry.mul(j).dbl())
    t = qy.add(nz).sqr().sub(qy2).sub(nz.sqr())
    a = l1.mul(qx).dbl().sub(t)
    b = l1.neg().mul_int(px).dbl()
    c = nz.mul_int(py).dbl()
    return a, b, c, nx, ny, nz


def _mul_line(f, a, b, c):
    """Multiply f by the sparse line value c + b*w + a*v*w."""
    t1 = f.c1.mul(Fp6(b, a, FP2_ZERO))
    t3 = f.c0.mul_fp2(c)
    c1 = f.c0.add(f.c1).mul(Fp6(b.add(c), a, FP2_ZERO)).sub(t1).sub(t3)
    return Fp12(t3.add(t1.mul_v()), c1)


def miller_loop(p1, p2):
    """Miller loop of the optimal ate pairing; p1 in G1, p2 in G2 (affine)."""
    if p1 is None or p2 is None:
        return FP12_ONE
    px, py = p1
    qx, qy = p2
    nqy = qy.neg()
    qy2 = qy.sqr()
    f = FP12_ONE
    rx, ry, rz = qx, qy, FP2_ONE
    for d in _ATE_NAF:
        f = f.sqr()
        a, b, c, rx, ry, rz = _line_dbl(rx, ry, rz, px, py)
        f = _mul_line(f, a, b, c)
        if d == 1:
            a, b, c, rx, ry, rz = _line_add(rx, ry, rz, qx, qy, qy2, px, py)
            f = _mul_line(f, a, b, c)
        elif d == -1:
            a, b, c, rx, ry, rz = _line_add(rx, ry, rz, qx, nqy, qy2, px, py)
            f = _mul_line(f, a, b, c)
    # Frobenius correction terms: Q1 = pi(Q), Q2 = -pi^2(Q)
    q1x = qx.conj().mul(_GAMMA1[2])
    q1y = qy.conj().mul(_GAMMA1[3])
    q2x = qx.mul(_GAMMA2[2])
    q1y2 = q1y.sqr()
    a, b, c, rx, ry, rz = _line_add(rx, ry, rz, q1x, q1y, q1y2, px, py)
    f = _mul_line(f, a, b, c)
    q2y2 = qy2
    a, b, c, rx, ry, rz = _line_add(rx, ry, rz, q2x, qy, q2y2, px, py)
    f = _mul_line(f, a, b, c)
    return f


def final_exponentiation(f):
    """Map a Miller-loop value into the order-r target group."""
    # easy part: f^((p^6-1)(p^2+1))
    t = f.conj().mul(f.inv())
    t = t.frobenius_p2().mul(t)
    # hard part (Frobenius decomposition in powers of u)
    fp1 = t.frobenius()
    fp2 = t.frobenius_p2()
    fp3 = fp2.frobenius()
    fu1 = t.pow(U)
    fu2 = fu1.pow(U)
    fu3 = fu2.pow(U)
    y3 = fu1.frobenius().conj()
    fu2p = fu2.frobenius()
    fu3p = fu3.frobenius()
    y2 = fu2.frobenius_p2()
    y0 = fp1.mul(fp2).mul(fp3)
    y1 = t.conj()
    y5 = fu2.conj()
    y4 = fu1.mul(fu2p).conj()
    y6 = fu3.mul(fu3p).conj()
    t0 = y6.sqr().mul(y4).mul(y5)
    t1 = y3.mul(y5).mul(t0)
    t0 = t0.mul(y2)
    t1 = t1.sqr().mul(t0).sqr()
    t0 = t1.mul(y1)
    t1 = t1.mul(y0)
    return t0.sqr().mul(t1)


def pairing(p1, p2):
    """e(p1, p2) for p1 in G1 and p2 in G2; identity inputs map to 1."""
    if p1 is None or p2 is None:
        return FP12_ONE
    return final_exponentiation(miller_loop(p1, p2))


def gt_mul(a, b):
    return a.mul(b)


def gt_pow(a, k):
    k %= R
    return a.pow(k)
