"""BN254 (alt_bn128) bilinear groups.

Asymmetric pairing e: G1 x G2 -> GT over the 254-bit Barreto-Naehrig curve
used by the Ethereum precompiles:

    G1:  y^2 = x^3 + 3           over Fp
    G2:  y^2 = x^3 + 3/(9+i)     over Fp2 = Fp[i]/(i^2+1)   (sextic D-twist)
    GT:  order-r subgroup of Fp12*

Fp12 = Fp2[w]/(w^6 - xi) with xi = 9+i, read as the tower Fp6[w]/(w^2 - v)
over Fp6 = Fp2[v]/(v^3 - xi).  An Fp12 element is flat: a tuple of 12 ints,
the real and imaginary parts of its coefficients at w^0, ..., w^5.
Multiplication is Karatsuba over the tower with lazy reduction, one
reduction mod P per output coefficient; Miller lines are sparse
(coefficients at w^0, w^1, w^3 only).

The pairing is the optimal ate construction: a NAF Miller loop over 6u+2
with the doubling and addition steps in homogeneous projective coordinates
on ints (Costello, Lange and Naehrig, PKC 2010), whose lines depend on the
G2 argument alone and are cached for the last few G2 points, then the final
exponentiation, whose hard part raises to u three times with Granger-Scott
cyclotomic squarings (PKC 2010) over a width-4 NAF of u: a table of f, f^3,
f^5, f^7 and their conjugates, 16 multiplications in place of the plain
NAF's 23 (Scott et al., Pairing 2009).  G2 decoding checks subgroup
membership with the psi test of El Housni, Guillevic and Piellard (eprint
2022/348): [u+1]Q + psi([u]Q) + psi^2([u]Q) = psi^3([2u]Q).

g2_from_bytes keeps the last 8 decoded G2 points: its decoder _g2_decode
is a functools.lru_cache, called on the exact bytes given (any other
argument type runs uncached, through __wrapped__), as _g2_lines keeps the
last 8 points' Miller lines.  It hits while a process uses at most 8 G2
keys in rotation (g2, W and the provider keys A).  A hit is safe:
decoding is a pure function of public bytes, a hit returns the value the
first call computed, and an exception is never cached, so an encoding
refused once is checked, and refused, again on every call.  g1_hash
keeps nothing: a record's sector generators are hashed once, by the
contract that registers it.

Base-field arithmetic runs on gmpy2 integers when available; everything
degrades to plain ints otherwise.  Points are handed around in affine form
as (x, y) tuples with None for the identity; scalar multiplication works
internally in Jacobian coordinates (g2_mul by NAF double-and-add).

Hash-to-G1 rejects a candidate x on the Jacobi symbol of x^3 + 3 before it
takes a square root.  The same symbol alone validates each E'' component
of a ciphertext read back (g1_check_bytes), whose row keeps the encodings
(EncodedRow) and takes a square root only for a component a proof reads.

Every G1 scalar multiplication goes through g1_msm_rows, a batch of
multi-exponentiations over shared points whose tables are built once per
batch (g1_msm is its one-row case, g1_mul its one-term case): powers of
the generator use a fixed-base table, every other term runs in one
interleaved width-w NAF (Straus) per row, where the GLV endomorphism
phi(x, y) = (beta*x, y) = lambda*(x, y) halves the length of scalars wider
than 128 bits.  g1_gen_add walks the generator table for many scalars in
lockstep, one shared inversion per table row; g1_dlog_table, the dlog's
baby steps centred on the identity, is blocks of such walks over the
positive half, one inversion per block, keyed on x alone: one entry per
+- pair, 2^15 for a 16-bit table, signed by the parity of y.
g1_dlog_lookup reads a point's x and flips that sign by its own y-parity.
The GLV, Frobenius and psi constants and the loop digits are checked at
import by _check.  _g1_mul_raw and _g2_mul_raw, plain double-and-add, are
kept as the tests' references.

The module is the backend: groups.setup("bn254") binds the module itself
to elements and params, whose products, G2 powers and pairings call
g1_add, g2_mul and pair by name; its last section holds the names only the
group layer uses.
"""

from __future__ import annotations

import functools
import hashlib
from itertools import zip_longest
from math import isqrt

from .errors import DimensionMismatch, InvalidElement, InvariantViolation

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


_SQRT_EXP = (P + 1) // 4


def _fp_sqrt(a):
    """Square root mod P (P = 3 mod 4), or None if a is not a residue."""
    a = a % P
    if a == 0:
        return mpz(0)
    y = pow(a, _SQRT_EXP, P)
    return y if y * y % P == a else None


_INV2 = (P + 1) // 2


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
        d = (a + s) * _INV2 % P
        x = _fp_sqrt(d)
        if x is None:
            d = (a - s) * _INV2 % P
            x = _fp_sqrt(d)
            if x is None:
                return None
        y = b * _fp_inv(2 * x % P) % P
        root = Fp2(x, y)
        return root if root.sqr() == self else None


FP2_ONE = Fp2(mpz(1), mpz(0))
XI = Fp2(mpz(9), mpz(1))

TWIST_B = Fp2(B, mpz(0)).mul(XI.inv())

G2_GEN = (
    Fp2(mpz(10857046999023057135944570762232829481370756359578518086990519993285655852781),
        mpz(11559732032986387107991004021392285783925812861821192530917403151452391805634)),
    Fp2(mpz(8495653923123431417604973247489272438418190587263600148770280649306958101930),
        mpz(4082367875863433681332203403145435568316851327593401208105741076214120093531)),
)

# Frobenius multipliers.  (a*w^k)^p = conj(a) * gamma^k * w^k with
# gamma = xi^((p-1)/6), so x -> x^p scales the conjugated coefficient at w^k
# by _FROB1[k] = gamma^k, and x -> x^(p^2) scales the one at w^k by its norm
# _FROB2[k] = xi^(k(p^2-1)/6), which lies in Fp.  gamma^6 = xi^(p-1) fixes
# gamma up to a sixth root of unity, its norm up to sign, and the G2
# membership identity checked on G2_GEN below (psi uses gamma^3) the sign.
_GAMMA = Fp2(mpz(8376118865763821496583973867626364092589906065868298776909617916018768340080),
             mpz(16469823323077808223889137241176536799009286646108169935659301613961712198316))
_check(_GAMMA.sqr().mul(_GAMMA).sqr().mul(XI) == XI.conj(), "gamma^6 is not xi^(p-1)")
_gamma_powers = [FP2_ONE]
for _ in range(5):
    _gamma_powers.append(_gamma_powers[-1].mul(_GAMMA))
_FROB1 = tuple((g.c0, g.c1) for g in _gamma_powers)
_FROB2 = tuple(g.mul(g.conj()).c0 for g in _gamma_powers)
_check(_FROB2[1] == pow(82, (P - 1) // 6, P), "norm of gamma is not 82^((p-1)/6)")  # 82 = xi*conj(xi)
_check(_FROB2[3] == P - 1, "xi is a square in Fp2")  # so psi^2 negates y
# psi, the p-power map on the twist: (x, y) -> (conj(x)*gamma^2, conj(y)*gamma^3)
_PSI_X, _PSI_Y = _gamma_powers[2], _gamma_powers[3]
del _gamma_powers


# ---------------------------------------------------------------------------
# Fp12, flat.  The ints c[2k], c[2k+1] are the real and imaginary parts of
# the coefficient at w^k.  In tower terms an element is g + h*w with g, h in
# Fp6: g holds the coefficients at w^0, w^2, w^4 and h those at w^1, w^3, w^5.
# The _fp6_* and _fp4_* helpers take and return unreduced ints.
# ---------------------------------------------------------------------------

def _fp6_mul(a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5):
    """(A0 + A1 v + A2 v^2)(B0 + B1 v + B2 v^2) with Ak = a(2k) + a(2k+1) i:
    Karatsuba over Fp6, six Fp2 products."""
    p0 = a0 * b0 - a1 * b1
    p1 = a0 * b1 + a1 * b0                          # A0 B0
    q0 = a2 * b2 - a3 * b3
    q1 = a2 * b3 + a3 * b2                          # A1 B1
    r0 = a4 * b4 - a5 * b5
    r1 = a4 * b5 + a5 * b4                          # A2 B2
    x0, x1, y0, y1 = a2 + a4, a3 + a5, b2 + b4, b3 + b5
    s0 = x0 * y0 - x1 * y1 - q0 - r0
    s1 = x0 * y1 + x1 * y0 - q1 - r1                # A1 B2 + A2 B1
    x0, x1, y0, y1 = a0 + a2, a1 + a3, b0 + b2, b1 + b3
    t0 = x0 * y0 - x1 * y1 - p0 - q0
    t1 = x0 * y1 + x1 * y0 - p1 - q1                # A0 B1 + A1 B0
    x0, x1, y0, y1 = a0 + a4, a1 + a5, b0 + b4, b1 + b5
    u0 = x0 * y0 - x1 * y1 - p0 - r0
    u1 = x0 * y1 + x1 * y0 - p1 - r1                # A0 B2 + A2 B0
    return (p0 + 9 * s0 - s1, p1 + s0 + 9 * s1,     # v^3 = xi = 9 + i
            t0 + 9 * r0 - r1, t1 + r0 + 9 * r1,
            u0 + q0, u1 + q1)


def _fp6_mul_01(a0, a1, a2, a3, a4, a5, b0, b1, b2, b3):
    """(A0 + A1 v + A2 v^2)(B0 + B1 v): five Fp2 products."""
    p0 = a0 * b0 - a1 * b1
    p1 = a0 * b1 + a1 * b0                          # A0 B0
    q0 = a2 * b2 - a3 * b3
    q1 = a2 * b3 + a3 * b2                          # A1 B1
    r0 = a4 * b2 - a5 * b3
    r1 = a4 * b3 + a5 * b2                          # A2 B1
    x0, x1, y0, y1 = a0 + a2, a1 + a3, b0 + b2, b1 + b3
    return (p0 + 9 * r0 - r1, p1 + r0 + 9 * r1,
            x0 * y0 - x1 * y1 - p0 - q0, x0 * y1 + x1 * y0 - p1 - q1,
            a4 * b0 - a5 * b1 + q0, a4 * b1 + a5 * b0 + q1)


def _fp12_join(t, u, s):
    """(g + h w)(g' + h' w) from t = g g', u = h h', s = (g + h)(g' + h'):
    g g' + v h h' + (s - t - u) w, reduced; v (x0, x1, x2) = (xi x2, x0, x1)."""
    t0, t1, t2, t3, t4, t5 = t
    u0, u1, u2, u3, u4, u5 = u
    s0, s1, s2, s3, s4, s5 = s
    return Fp12(((t0 + 9 * u4 - u5) % P, (t1 + u4 + 9 * u5) % P,
                 (s0 - t0 - u0) % P, (s1 - t1 - u1) % P,
                 (t2 + u0) % P, (t3 + u1) % P,
                 (s2 - t2 - u2) % P, (s3 - t3 - u3) % P,
                 (t4 + u2) % P, (t5 + u3) % P,
                 (s4 - t4 - u4) % P, (s5 - t5 - u5) % P))


def _fp4_sqr(a0, a1, b0, b1):
    """(A + B s)^2 = (A^2 + xi B^2) + 2AB s in Fp4 = Fp2[s]/(s^2 - xi)."""
    x0 = (a0 + a1) * (a0 - a1)
    x1 = 2 * a0 * a1                                # A^2
    y0 = (b0 + b1) * (b0 - b1)
    y1 = 2 * b0 * b1                                # B^2
    c0, c1 = a0 + b0, a1 + b1
    return (x0 + 9 * y0 - y1, x1 + y0 + 9 * y1,
            (c0 + c1) * (c0 - c1) - x0 - y0, 2 * c0 * c1 - x1 - y1)


class Fp12:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __eq__(self, other):
        return self.c == other.c

    def __repr__(self):
        return f"Fp12{tuple(int(x) for x in self.c)}"

    def mul(self, o):
        g0, g1, h0, h1, g2, g3, h2, h3, g4, g5, h4, h5 = self.c
        k0, k1, l0, l1, k2, k3, l2, l3, k4, k5, l4, l5 = o.c
        return _fp12_join(
            _fp6_mul(g0, g1, g2, g3, g4, g5, k0, k1, k2, k3, k4, k5),
            _fp6_mul(h0, h1, h2, h3, h4, h5, l0, l1, l2, l3, l4, l5),
            _fp6_mul(g0 + h0, g1 + h1, g2 + h2, g3 + h3, g4 + h4, g5 + h5,
                     k0 + l0, k1 + l1, k2 + l2, k3 + l3, k4 + l4, k5 + l5))

    def mul_line(self, line):
        """Product with a sparse Miller line l0 + l1 w + l3 w^3, given as
        the six ints of l0, l1, l3 (in tower terms g' = l0, h' = l1 + l3 v)."""
        a0, a1, b0, b1, c0, c1 = line
        g0, g1, h0, h1, g2, g3, h2, h3, g4, g5, h4, h5 = self.c
        return _fp12_join(
            (g0 * a0 - g1 * a1, g0 * a1 + g1 * a0, g2 * a0 - g3 * a1,
             g2 * a1 + g3 * a0, g4 * a0 - g5 * a1, g4 * a1 + g5 * a0),
            _fp6_mul_01(h0, h1, h2, h3, h4, h5, b0, b1, c0, c1),
            _fp6_mul_01(g0 + h0, g1 + h1, g2 + h2, g3 + h3, g4 + h4, g5 + h5,
                        a0 + b0, a1 + b1, c0, c1))

    def sqr(self):
        # (g + h w)^2 = (g + h)(g + v h) - gh - v gh + 2gh w
        g0, g1, h0, h1, g2, g3, h2, h3, g4, g5, h4, h5 = self.c
        t0, t1, t2, t3, t4, t5 = _fp6_mul(g0, g1, g2, g3, g4, g5, h0, h1, h2, h3, h4, h5)
        s0, s1, s2, s3, s4, s5 = _fp6_mul(
            g0 + h0, g1 + h1, g2 + h2, g3 + h3, g4 + h4, g5 + h5,
            g0 + 9 * h4 - h5, g1 + h4 + 9 * h5, g2 + h0, g3 + h1, g4 + h2, g5 + h3)
        return Fp12(((s0 - t0 - 9 * t4 + t5) % P, (s1 - t1 - t4 - 9 * t5) % P,
                     2 * t0 % P, 2 * t1 % P,
                     (s2 - t2 - t0) % P, (s3 - t3 - t1) % P,
                     2 * t2 % P, 2 * t3 % P,
                     (s4 - t4 - t2) % P, (s5 - t5 - t3) % P,
                     2 * t4 % P, 2 * t5 % P))

    def cyclotomic_sqr(self):
        """Square of an element of the cyclotomic subgroup, the image of the
        easy part of the final exponentiation (Granger-Scott): three Fp4
        squarings, Fp4 = Fp2[s] with s = w^3, on the coefficient pairs at
        (w^0, w^3), (w^1, w^4) and (w^2, w^5)."""
        z0, z1, x0, x1, y0, y1, z2, z3, x2, x3, y2, y3 = self.c
        a0, a1, a2, a3 = _fp4_sqr(z0, z1, z2, z3)
        b0, b1, b2, b3 = _fp4_sqr(x0, x1, x2, x3)
        c0, c1, c2, c3 = _fp4_sqr(y0, y1, y2, y3)
        d0, d1 = 9 * c2 - c3, c2 + 9 * c3            # xi times the s part of the third
        return Fp12(((3 * a0 - 2 * z0) % P, (3 * a1 - 2 * z1) % P,
                     (3 * d0 + 2 * x0) % P, (3 * d1 + 2 * x1) % P,
                     (3 * b0 - 2 * y0) % P, (3 * b1 - 2 * y1) % P,
                     (3 * a2 + 2 * z2) % P, (3 * a3 + 2 * z3) % P,
                     (3 * c0 - 2 * x2) % P, (3 * c1 - 2 * x3) % P,
                     (3 * b2 + 2 * y2) % P, (3 * b3 + 2 * y3) % P))

    def conj(self):
        # x^(p^6): negate h
        g0, g1, h0, h1, g2, g3, h2, h3, g4, g5, h4, h5 = self.c
        return Fp12((g0, g1, -h0 % P, -h1 % P, g2, g3, -h2 % P, -h3 % P,
                     g4, g5, -h4 % P, -h5 % P))

    def inv(self):
        # (g + h w)^-1 = (g - h w) / (g^2 - v h^2); the Fp6 inverse of the
        # denominator m runs in Fp2 arithmetic
        g0, g1, h0, h1, g2, g3, h2, h3, g4, g5, h4, h5 = self.c
        a0, a1, a2, a3, a4, a5 = _fp6_mul(g0, g1, g2, g3, g4, g5, g0, g1, g2, g3, g4, g5)
        b0, b1, b2, b3, b4, b5 = _fp6_mul(h0, h1, h2, h3, h4, h5, h0, h1, h2, h3, h4, h5)
        m0 = Fp2((a0 - 9 * b4 + b5) % P, (a1 - b4 - 9 * b5) % P)
        m1 = Fp2((a2 - b0) % P, (a3 - b1) % P)
        m2 = Fp2((a4 - b2) % P, (a5 - b3) % P)
        n0 = m0.sqr().sub(m1.mul(m2).mul_xi())
        n1 = m2.sqr().mul_xi().sub(m0.mul(m1))
        n2 = m1.sqr().sub(m0.mul(m2))
        k = m0.mul(n0).add(m2.mul(n1).mul_xi()).add(m1.mul(n2).mul_xi()).inv()
        n0, n1, n2 = n0.mul(k), n1.mul(k), n2.mul(k)
        d = (n0.c0, n0.c1, n1.c0, n1.c1, n2.c0, n2.c1)
        x0, x1, x2, x3, x4, x5 = _fp6_mul(g0, g1, g2, g3, g4, g5, *d)
        y0, y1, y2, y3, y4, y5 = _fp6_mul(h0, h1, h2, h3, h4, h5, *d)
        return Fp12((x0 % P, x1 % P, -y0 % P, -y1 % P, x2 % P, x3 % P,
                     -y2 % P, -y3 % P, x4 % P, x5 % P, -y4 % P, -y5 % P))

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
        c = self.c
        out = []
        for k, (f0, f1) in enumerate(_FROB1):
            a, b = c[2 * k], -c[2 * k + 1]
            out += ((a * f0 - b * f1) % P, (a * f1 + b * f0) % P)
        return Fp12(tuple(out))

    def frobenius_p2(self):
        return Fp12(tuple(x * _FROB2[k >> 1] % P for k, x in enumerate(self.c)))


FP12_ONE = Fp12((mpz(1),) + (mpz(0),) * 11)


# ---------------------------------------------------------------------------
# G1: short Weierstrass y^2 = x^3 + 3 over Fp, affine (x, y) or None
# ---------------------------------------------------------------------------

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


def _batch_affine(points):
    """Affine forms of finite Jacobian points with one shared inversion."""
    partial = []
    acc = _ONE
    for _, _, z in points:
        partial.append(acc)
        acc = acc * z % P
    inv = _fp_inv(acc)
    out = [None] * len(points)
    for k in range(len(points) - 1, -1, -1):
        x, y, z = points[k]
        zi = inv * partial[k] % P
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


def _digits(pairs):
    """Digits, most significant first, of (bit position, digit) pairs."""
    out = [0] * (pairs[-1][0] + 1)
    for pos, d in pairs:
        out[pos] = d
    return out[::-1]


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
    # P needs.  A batch builds its shared tables once but pays digits in
    # every row, so its digit_bits sum over the rows: the table cost is
    # spread over them.  One call never picks w = 8, which beats w = 7
    # only above about 4200 digit bits per point; one point's halves
    # carry at most 2 * 128.
    def cost(w):
        return (points * ((1 << (w - 2)) - 1) * 20 + digit_bits * 11 / (w + 1)
                + (300 if w > 2 else 0))
    return min(range(2, 9), key=cost)


def _halves(k):
    """0 < k < R as ((signed half, on phi(P)), ...): k itself up to 128
    bits, else its GLV halves k1 on P and k2 on phi(P)."""
    if k.bit_length() <= 128:
        return ((k, False),)
    k1, k2 = _glv_split(k)
    return ((k1, False), (k2, True))


class _Tables:
    """Odd-multiple tables of finite points at one NAF width, and on
    demand the phi copy of each: the table with every x times beta."""

    def __init__(self, points, digit_bits):
        self.width = _window_width(len(points), digit_bits)
        size = 1 << (self.width - 2)
        # at most 256 Jacobian entries wait for one shared inversion
        step = max(1, 256 // size)
        self.plain = [table for k in range(0, len(points), step)
                      for table in _odd_multiple_tables(points[k:k + step], size)]
        self.phi = [None] * len(points)

    def get(self, slot, on_phi):
        if not on_phi:
            return self.plain[slot]
        table = self.phi[slot]
        if table is None:
            table = self.phi[slot] = [(_BETA * x % P, y) for x, y in self.plain[slot]]
        return table


def _straus(terms):
    """Jacobian sum, or None, of k*Q over (tables, slot, signed half k,
    on phi) terms: Q is the point behind that slot (or its phi image) and
    |k| < 2^128.

    Interleaved width-w NAF: one doubling chain shared by every term,
    each term read from its own table at that table's width.
    """
    bits = max(abs(k).bit_length() for _, _, k, _ in terms)
    schedule = [[] for _ in range(bits + 1)]
    for tables, slot, k, on_phi in terms:
        table = tables.get(slot, on_phi)
        flip = k < 0
        for pos, d in _wnaf(abs(k), tables.width):
            pt = table[abs(d) >> 1]
            schedule[pos].append(pt if (d > 0) != flip else (pt[0], P - pt[1]))
    acc = None
    for adds in reversed(schedule):
        if acc is not None:
            acc = _jac_dbl(acc[0], acc[1], acc[2])
        for x, y in adds:
            acc = _add_affine(acc, x, y)
    return acc


# Fixed-base table for G1_GEN: row i holds j * 2^(8i) * G for j = 1..128, so
# a scalar in signed base-256 digits [-128, 128] costs one addition per digit
# and no doubling.  32 rows cover 254-bit scalars plus the top carry, about
# 0.72 MiB; base 512 would take about 1.3 MiB.  The rows are built in
# lockstep: one doubling chain gives every row's 1 and 2 times its base,
# then each step adds every row's base to that row's last entry, all of a
# step's additions in one _add_affine_batch.  Two walkers read the table
# through the digits of _gen_digits: _add_gen_multiple, one scalar in
# Jacobian mixed additions, and g1_gen_add, many scalars in lockstep with
# one _add_affine_batch per row.
_GEN_WINDOW = 8
_gen_rows = None


def _add_affine_batch(starts, adds):
    """[A_t + T_t], affine, for affine points with A_t.x != T_t.x.

    Every addition's slope shares one inversion (Montgomery's
    simultaneous-inversion trick): about 6 multiplications per addition
    against 11 for a mixed Jacobian one, and no inversion per result.
    """
    dens = [tx - ax for (ax, _), (tx, _) in zip(starts, adds)]
    partial = []
    prod = _ONE
    for dx in dens:
        partial.append(prod)
        prod = prod * dx % P
    inv = _fp_inv(prod)                         # 1 / (product of every dx)
    out = [None] * len(dens)
    for t in range(len(dens) - 1, -1, -1):
        (ax, ay), (tx, ty) = starts[t], adds[t]
        m = (ty - ay) * (inv * partial[t] % P) % P
        inv = inv * dens[t] % P
        x3 = (m * m - ax - tx) % P
        out[t] = (x3, (m * (ax - x3) - ay) % P)
    return out


def _generator_rows():
    global _gen_rows
    if _gen_rows is None:
        chain = []                              # 2^(8i) * G and its double, per row
        x, y, z = G1_GEN[0], G1_GEN[1], _ONE
        for _ in range(-(-int(R).bit_length() // _GEN_WINDOW)):
            double = _jac_dbl(x, y, z)
            chain += [(x, y, z), double]
            x, y, z = double
            for _ in range(_GEN_WINDOW - 1):
                x, y, z = _jac_dbl(x, y, z)
        affine = _batch_affine(chain)
        bases = affine[0::2]
        rows = [affine[k:k + 2] for k in range(0, len(affine), 2)]
        for _ in range((1 << (_GEN_WINDOW - 1)) - 2):
            for row, pt in zip(rows, _add_affine_batch([row[-1] for row in rows], bases)):
                row.append(pt)
        _gen_rows = rows
    return _gen_rows


def _gen_digits(k):
    """Signed base-256 digits in [-128, 128] of 0 <= k < R, least
    significant first: digit i selects an entry of generator-table row i.
    Past R/2 they are those of R - k negated: -2^16 is one digit."""
    k, sign = (R - k, -1) if k > R >> 1 else (k, 1)
    mask, half = (1 << _GEN_WINDOW) - 1, 1 << (_GEN_WINDOW - 1)
    out = []
    while k:
        d = k & mask
        k >>= _GEN_WINDOW
        if d > half:
            d -= 1 << _GEN_WINDOW
            k += 1
        out.append(sign * d)
    return out


def _add_gen_multiple(acc, k):
    """acc + k*G_GEN through the generator table; 0 <= k < R."""
    for row, d in zip(_generator_rows(), _gen_digits(k)):
        if d > 0:
            x, y = row[d - 1]
            acc = _add_affine(acc, x, y)
        elif d < 0:
            x, y = row[-d - 1]
            acc = _add_affine(acc, x, P - y)
    return acc


def g1_gen_add(points, scalars):
    """[P_i + k_i * G_GEN], affine, for affine-or-None points P_i.

    Every walk over the generator table runs in lockstep, one table row at
    a time: each walk with a nonzero digit in that row does one affine
    addition, and all of the row's additions are one _add_affine_batch.
    A walk that starts at or meets the identity, or the table entry it
    adds, or its negative, is handled exactly.  Scalars are reduced mod R
    and each distinct one is recoded once; DimensionMismatch if the counts
    differ.
    """
    if len(points) != len(scalars):
        raise DimensionMismatch(f"{len(scalars)} scalars for {len(points)} points")
    accs = list(points)
    reduced = [k % R for k in scalars]
    recoded = {k: _gen_digits(k) for k in set(reduced)}
    digits = [recoded[k] for k in reduced]
    for row, col in zip(_generator_rows(), zip_longest(*digits, fillvalue=0)):
        walks, starts, adds = [], [], []            # the row's affine additions
        for j, d in enumerate(col):
            if d > 0:
                entry = row[d - 1]
            elif d < 0:
                tx, ty = row[-d - 1]
                entry = (tx, P - ty)
            else:
                continue
            acc = accs[j]
            if acc is None:
                accs[j] = entry
            elif acc[0] == entry[0]:                # a doubling, or the identity
                accs[j] = g1_add(acc, entry)
            else:
                walks.append(j)
                starts.append(acc)
                adds.append(entry)
        if walks:
            for j, pt in zip(walks, _add_affine_batch(starts, adds)):
                accs[j] = pt
    return accs


def g1_msm(points, scalars):
    """sum_i k_i * P_i as one multi-exponentiation: the one-row case of
    g1_msm_rows, every point shared.

    Scalars are reduced mod R (negative ones included); identity points
    and zero scalars drop out.  Terms on G1_GEN go through the generator
    table, the rest through Straus; one inversion normalises the result.
    """
    return g1_msm_rows(points, (((), scalars),))[0]


def g1_msm_rows(shared, rows):
    """[sum_j k_j * B_j for each row (own, scalars)], B the shared points
    followed by the row's own: one multi-exponentiation per row over
    points that every row shares.

    A row's scalars are a sequence: the first len(shared) go to the
    shared points, the rest to its own; DimensionMismatch if the count
    disagrees.  Terms
    drop out and reach the generator table as in g1_msm.  The shared
    points' tables are built once per call, their width sized for all
    rows together; a row's own points get tables sized for that row;
    one inversion normalises every row's result.
    """
    shared = list(shared)
    nshared = len(shared)
    on_gen = [pt == G1_GEN for pt in shared]
    slots = {}                          # shared index -> table slot, in slot order
    shared_bits = 0
    work = []                           # per row: generator scalar, shared halves, own terms
    for own, scalars in rows:
        if len(scalars) != nshared + len(own):
            raise DimensionMismatch(
                f"{len(scalars)} scalars for {nshared} shared and {len(own)} own points")
        gen_k = 0
        halves = []
        for j in range(nshared):
            k = scalars[j] % R
            if k == 0 or shared[j] is None:
                continue
            if on_gen[j]:
                gen_k += k
                continue
            slot = slots.setdefault(j, len(slots))
            for h, on_phi in _halves(k):
                halves.append((slot, h, on_phi))
                shared_bits += abs(h).bit_length()
        own_terms = []
        for pt, k in zip(own, scalars[nshared:]):
            k %= R
            if k == 0 or pt is None:
                continue
            if pt == G1_GEN:
                gen_k += k
            else:
                own_terms.append((pt, k))
        work.append((gen_k % R, halves, own_terms))
    tables = _Tables([shared[j] for j in slots], shared_bits) if slots else None
    accs = []
    for gen_k, halves, own_terms in work:
        terms = [(tables, slot, h, on_phi) for slot, h, on_phi in halves]
        if own_terms:
            own_halves = [(slot, h, on_phi) for slot, (_, k) in enumerate(own_terms)
                          for h, on_phi in _halves(k)]
            own_tables = _Tables([pt for pt, _ in own_terms],
                                 sum(abs(h).bit_length() for _, h, _ in own_halves))
            terms += [(own_tables, slot, h, on_phi) for slot, h, on_phi in own_halves]
        acc = _straus(terms) if terms else None
        if gen_k:
            acc = _add_gen_multiple(acc, gen_k)
        accs.append(acc)
    finite = iter(_batch_affine([acc for acc in accs if acc is not None]))
    return [None if acc is None else next(finite) for acc in accs]


_MULTIPLES_BLOCK = 1024     # 4 * 256, a single base-256 digit


def g1_dlog_table(bits):
    """The baby steps of a bounded dlog over m in [0, 2^bits), centred on
    the identity (m - half) * G_GEN, half = 2^(bits - 1): {x: s}, one
    entry per +- pair, for k in [1, half], where s = +k when y(k * G_GEN)
    is even and -k when it is odd, so s * G_GEN is the twin with even y
    (the negation map of Bernstein and Lange, INDOCRYPT 2012).

    Only k * G_GEN for k in [0, half] is walked, one block of 1024 at a
    time: block 0 is one g1_gen_add from the identity, each later block
    the one before plus 1024 * G_GEN, one addition per point and one
    inversion per block; the identity, k = 0, gets no entry."""
    half = 1 << (bits - 1)
    table = {}
    block = None
    for start in range(0, half + 1, _MULTIPLES_BLOCK):
        size = min(half + 1 - start, _MULTIPLES_BLOCK)
        block = (g1_gen_add(block[:size], [_MULTIPLES_BLOCK] * size) if start
                 else g1_gen_add([None] * size, range(size)))
        for k, pt in enumerate(block, start):
            if k:
                table[pt[0]] = -k if pt[1] & 1 else k
    return table


def g1_dlog_lookup(table, points):
    """[m or None] for affine-or-None points (m - half) * G_GEN, against a
    g1_dlog_table, which holds half entries: x(L) gives +-k, the sign
    flipped when y(L) is odd.  The identity is half; +half * G_GEN, which
    would be m = 2^bits, is a miss, as is every point off the table."""
    half = len(table)
    get = table.get
    out = []
    for pt in points:
        if pt is None:
            out.append(half)
            continue
        d = get(pt[0])
        if d is not None and pt[1] & 1:
            d = -d
        out.append(None if d is None or d == half else half + d)
    return out


def g1_to_bytes(pt):
    if pt is None:
        return b"\x00" + b"\x00" * FP_BYTES
    x, y = pt
    flag = 0x03 if y & 1 else 0x02
    return bytes([flag]) + int(x).to_bytes(FP_BYTES, "big")


def _g1_x(data):
    """The x of a compressed G1 encoding, or None for the identity, after
    every check that needs no field arithmetic: length, flag, x < P."""
    if len(data) != G1_BYTES:
        raise InvalidElement(f"G1 encoding must be {G1_BYTES} bytes")
    flag = data[0]
    if flag == 0x00:
        if any(data[1:]):
            raise InvalidElement("nonzero payload on G1 identity encoding")
        return None
    if flag not in (0x02, 0x03):
        raise InvalidElement(f"bad G1 flag byte {flag:#x}")
    x = mpz(int.from_bytes(data[1:], "big"))
    if x >= P:
        raise InvalidElement("G1 x-coordinate out of field range")
    return x


def g1_from_bytes(data):
    x = _g1_x(data)
    if x is None:
        return None
    y = _fp_sqrt((x * x * x + B) % P)
    if y is None:
        raise InvalidElement("G1 x-coordinate not on curve")
    if (y & 1) != (data[0] & 1):
        y = -y % P
    # cofactor of G1 is 1, so on-curve already implies prime-order subgroup
    return (x, y)


def g1_check_bytes(data):
    """Raise InvalidElement unless g1_from_bytes accepts data, without its
    square root: x^3 + 3 has a root iff its Jacobi symbol is 1, since it
    is never 0 (a point (x, 0) would have order 2, and G1 has odd order)."""
    x = _g1_x(data)
    if x is not None and _jacobi(x * x * x + B, P) != 1:
        raise InvalidElement("G1 x-coordinate not on curve")


def _jacobi(a, n):
    """Jacobi symbol (a/n) for odd n > 0: 1, -1, or 0 when gcd(a, n) > 1.

    Binary algorithm: strip the factors of 2 (each flips the sign when
    n = 3 or 5 mod 8), then swap by quadratic reciprocity (a flip when
    both are 3 mod 4) and reduce.
    """
    a %= n
    t = 1
    while a:
        tz = (a & -a).bit_length() - 1
        a >>= tz
        if tz & 1 and n & 7 in (3, 5):
            t = -t
        if a & n & 3 == 3:
            t = -t
        a, n = n % a, a
    return t if n == 1 else 0


class EncodedRow:
    """A decoded row of G1 components kept as their checked encodings.

    It reads like a list of points: len, row[j] and iteration; row[j]
    decodes component j the first time it is read, and only then.
    """

    __slots__ = ("encodings", "_points")

    def __init__(self, encodings):
        self.encodings = encodings
        self._points = {}

    def __len__(self):
        return len(self.encodings)

    def __getitem__(self, j):
        j = range(len(self.encodings))[j]
        points = self._points
        if j not in points:
            points[j] = g1_from_bytes(self.encodings[j])
        return points[j]

    def __iter__(self):
        return map(self.__getitem__, range(len(self.encodings)))


def g1_hash(data: bytes):
    """Deterministic try-and-increment map onto the curve.

    A candidate x whose x^3 + 3 is not a square is thrown away on its
    Jacobi symbol, so only the accepted candidate pays the square root.
    """
    for ctr in range(65536):
        h = hashlib.sha256(b"sevdel/bn254-h2c:" + data + ctr.to_bytes(2, "big")).digest()
        x = mpz(int.from_bytes(h, "big")) % P
        rhs = (x * x * x + B) % P
        if _jacobi(rhs, P) == 1:
            y = pow(rhs, _SQRT_EXP, P)
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
    # plain affine double-and-add: the reference the tests check g2_mul and
    # the subgroup test against
    if pt is None or k == 0:
        return None
    acc = None
    for bit in bin(k)[2:]:
        acc = g2_add(acc, acc)
        if bit == "1":
            acc = g2_add(acc, pt)
    return acc


def _g2_jac_dbl(x, y, z):
    a = x.sqr()
    b = y.sqr()
    c = b.sqr()
    d = x.add(b).sqr().sub(a).sub(c).dbl()
    e = a.mul_int(3)
    x3 = e.sqr().sub(d.dbl())
    return x3, e.mul(d.sub(x3)).sub(c.mul_int(8)), y.mul(z).dbl()


def _g2_jac_add_affine(x1, y1, z1, x2, y2):
    """(x1, y1, z1) + (x2, y2) for a finite Jacobian point; None for the identity."""
    z1z1 = z1.sqr()
    h = x2.mul(z1z1).sub(x1)
    r = y2.mul(z1).mul(z1z1).sub(y1)
    if h.is_zero():
        return _g2_jac_dbl(x1, y1, z1) if r.is_zero() else None
    hh = h.sqr()
    hhh = h.mul(hh)
    v = x1.mul(hh)
    x3 = r.sqr().sub(hhh).sub(v.dbl())
    return x3, r.mul(v.sub(x3)).sub(y1.mul(hhh)), z1.mul(h)


def _g2_jac_mul(pt, k):
    """k * pt for k >= 0 by NAF double-and-add in Jacobian coordinates.

    Valid on every twist point, not only on G2: the twist has odd order, so
    no doubling meets y = 0, and a sum that reaches the identity restarts.
    """
    if pt is None or k == 0:
        return None
    qx, qy = pt
    nqy = qy.neg()
    acc = None
    for d in _digits(_wnaf(k, 2)):
        if acc is not None:
            acc = _g2_jac_dbl(*acc)
        if d:
            y = qy if d > 0 else nqy
            acc = (qx, y, FP2_ONE) if acc is None else _g2_jac_add_affine(*acc, qx, y)
    if acc is None:
        return None
    x, y, z = acc
    zi = z.inv()
    zi2 = zi.sqr()
    return (x.mul(zi2), y.mul(zi2).mul(zi))


def g2_mul(pt, k):
    return _g2_jac_mul(pt, k % R)


def _psi(pt):
    """The p-power endomorphism of the twist: p * pt on G2."""
    if pt is None:
        return None
    x, y = pt
    return (x.conj().mul(_PSI_X), y.conj().mul(_PSI_Y))


def _psi2(pt):
    """psi applied twice: x scaled by xi^((p^2-1)/3), y negated."""
    if pt is None:
        return None
    x, y = pt
    return (x.mul_int(_FROB2[2]), y.neg())


def g2_in_subgroup(pt):
    """Whether a twist point lies in G2: [u+1]Q + psi([u]Q) + psi^2([u]Q)
    equals psi^3([2u]Q) exactly on G2 (the twist has composite order, so the
    test is not optional); one 63-bit scalar multiplication."""
    if not g2_is_on_curve(pt):
        return False
    uq = _g2_jac_mul(pt, U)
    lhs = g2_add(g2_add(g2_add(uq, pt), _psi(uq)), _psi2(uq))
    return lhs == _psi(_psi2(g2_add(uq, uq)))


_check(g2_in_subgroup(G2_GEN), "G2 membership identity fails on G2_GEN")


def g2_to_bytes(pt):
    if pt is None:
        return b"\x00" + b"\x00" * (2 * FP_BYTES)
    x, y = pt
    par = (y.c0 if y.c0 != 0 else y.c1) & 1
    flag = 0x03 if par else 0x02
    return bytes([flag]) + int(x.c0).to_bytes(FP_BYTES, "big") + int(x.c1).to_bytes(FP_BYTES, "big")


# The protocol's G2 points are a few long-lived keys (g2, W, A): both G2
# caches, decoded points and Miller lines, keep the last 8 of them.  That
# hits while a process uses at most 8 keys in rotation; a contract that
# audits the records of more providers in turn misses on every decode and
# pays the LRU's bookkeeping on top.  Decoding A once onto the contract's
# record would make this cache unneeded.
_G2_CACHE = 8


def g2_from_bytes(data):
    """The G2 point of a compressed encoding, or InvalidElement: length,
    flag, x < P, on the twist and in the subgroup are each checked.

    Keys are decoded again in every audit round, so _g2_decode keeps the
    last _G2_CACHE distinct bytes encodings, which hits while at most
    _G2_CACHE keys are in use; any other argument type runs uncached, and
    a refused encoding is checked again each time.
    """
    if type(data) is bytes:
        return _g2_decode(data)
    return _g2_decode.__wrapped__(data)


@functools.lru_cache(maxsize=_G2_CACHE)
def _g2_decode(data):
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

def _is_wnaf(digits, k, w):
    """Whether digits, most significant first, are a width-w NAF of k:
    every nonzero digit odd and below 2^(w-1) in absolute value, and at
    least w - 1 zeros between two of them."""
    value = 0
    last = -w                                        # index of the last nonzero digit
    for i, d in enumerate(digits):
        value = 2 * value + d
        if d:
            if d % 2 == 0 or abs(d) >= 1 << (w - 1) or i - last < w:
                return False
            last = i
    return value == k


# Miller loop digits, most significant first, without the leading 1
_ATE_NAF = _digits(_wnaf(6 * U + 2, 2))[1:]
_check(_is_wnaf([1] + _ATE_NAF, 6 * U + 2, 2), "loop digits are not the NAF of 6u+2")

# the digits _pow_u reads, most significant first: 63 digits, 14 nonzero
_U_WNAF = _digits(_wnaf(U, 4))
_check(_is_wnaf(_U_WNAF, U, 4), "exponent digits are not a width-4 NAF of u")

# 3b' for the doubling step, b' = 3/xi the twist's constant
_B3 = (TWIST_B.c0 * 3 % P, TWIST_B.c1 * 3 % P)


def _dbl_step(t):
    """2T and the tangent line at T, with px and py factored out.

    T = (X, Y, Z) in homogeneous projective coordinates as six ints; the
    formulas are those of Costello, Lange and Naehrig for a D-type twist,
    with the doubled point scaled by 4 to avoid halving.  The line at
    (px, py) is -2YZ*py + 3X^2*px w + (3b'Z^2 - Y^2) w^3; it is returned
    as the six ints of -2YZ, 3X^2 and 3b'Z^2 - Y^2.
    """
    x0, x1, y0, y1, z0, z1 = t
    b0 = (y0 + y1) * (y0 - y1) % P
    b1 = 2 * y0 * y1 % P                             # B = Y^2
    c0 = (z0 + z1) * (z0 - z1) % P
    c1 = 2 * z0 * z1 % P                             # Z^2
    e0 = (_B3[0] * c0 - _B3[1] * c1) % P
    e1 = (_B3[0] * c1 + _B3[1] * c0) % P             # E = 3b'Z^2
    h0 = 2 * (y0 * z0 - y1 * z1) % P
    h1 = 2 * (y0 * z1 + y1 * z0) % P                 # H = 2YZ
    a0 = (x0 * y0 - x1 * y1) % P
    a1 = (x0 * y1 + x1 * y0) % P                     # XY
    s0, s1 = b0 - 3 * e0, b1 - 3 * e1                # B - 3E
    g0, g1 = b0 + 3 * e0, b1 + 3 * e1                # B + 3E
    point = (2 * (a0 * s0 - a1 * s1) % P, 2 * (a0 * s1 + a1 * s0) % P,
             ((g0 + g1) * (g0 - g1) - 12 * (e0 + e1) * (e0 - e1)) % P,
             (2 * g0 * g1 - 24 * e0 * e1) % P,
             4 * (b0 * h0 - b1 * h1) % P, 4 * (b0 * h1 + b1 * h0) % P)
    line = (-h0 % P, -h1 % P,
            3 * (x0 + x1) * (x0 - x1) % P, 6 * x0 * x1 % P,
            e0 - b0, e1 - b1)
    return point, line


def _add_step(t, q):
    """T + Q for affine Q = (qx, qy), as four ints, and the line through
    them with px and py factored out: with theta = Y - qy Z and lambda =
    X - qx Z, the line at (px, py) is lambda*py - theta*px w +
    (theta qx - lambda qy) w^3, returned as the six ints of lambda,
    -theta and theta qx - lambda qy."""
    x0, x1, y0, y1, z0, z1 = t
    qx0, qx1, qy0, qy1 = q
    th0 = (y0 - qy0 * z0 + qy1 * z1) % P
    th1 = (y1 - qy0 * z1 - qy1 * z0) % P             # theta
    la0 = (x0 - qx0 * z0 + qx1 * z1) % P
    la1 = (x1 - qx0 * z1 - qx1 * z0) % P             # lambda
    c0 = (th0 + th1) * (th0 - th1) % P
    c1 = 2 * th0 * th1 % P                           # C = theta^2
    d0 = (la0 + la1) * (la0 - la1) % P
    d1 = 2 * la0 * la1 % P                           # D = lambda^2
    e0 = (la0 * d0 - la1 * d1) % P
    e1 = (la0 * d1 + la1 * d0) % P                   # E = lambda^3
    f0 = z0 * c0 - z1 * c1
    f1 = z0 * c1 + z1 * c0                           # F = Z C
    g0 = (x0 * d0 - x1 * d1) % P
    g1 = (x0 * d1 + x1 * d0) % P                     # G = X D
    h0 = (e0 + f0 - 2 * g0) % P
    h1 = (e1 + f1 - 2 * g1) % P                      # H = E + F - 2G
    u0, u1 = g0 - h0, g1 - h1
    point = ((la0 * h0 - la1 * h1) % P, (la0 * h1 + la1 * h0) % P,
             (th0 * u0 - th1 * u1 - e0 * y0 + e1 * y1) % P,
             (th0 * u1 + th1 * u0 - e0 * y1 - e1 * y0) % P,
             (z0 * e0 - z1 * e1) % P, (z0 * e1 + z1 * e0) % P)
    line = (la0, la1, -th0 % P, -th1 % P,
            (th0 * qx0 - th1 * qx1 - la0 * qy0 + la1 * qy1) % P,
            (th0 * qx1 + th1 * qx0 - la0 * qy1 - la1 * qy0) % P)
    return point, line


def _g2_ints(pt):
    x, y = pt
    return (x.c0, x.c1, y.c0, y.c1)


@functools.lru_cache(maxsize=_G2_CACHE)
def _g2_lines(qx0, qx1, qy0, qy1):
    """The Miller lines of Q = (qx0 + qx1 i, qy0 + qy1 i), px and py
    factored out, in the order the loop multiplies them in: per digit of
    6u+2 the tangent line and, for a nonzero digit, the line through Q or
    -Q; then the two Frobenius correction lines.

    They depend on Q alone, and every pairing in the protocol takes its G2
    argument from a few fixed points (g2 and the public keys), so they are
    kept for the last 8 Q (Costello and Stebila, "Fixed Argument
    Pairings", LATINCRYPT 2010).
    """
    q = (qx0, qx1, qy0, qy1)
    nq = (qx0, qx1, -qy0 % P, -qy1 % P)
    t = q + (mpz(1), mpz(0))
    lines = []
    for d in _ATE_NAF:
        t, line = _dbl_step(t)
        lines.append(line)
        if d:
            t, line = _add_step(t, q if d == 1 else nq)
            lines.append(line)
    # Frobenius correction lines through Q1 = psi(Q) and Q2 = -psi^2(Q)
    p2 = (Fp2(qx0, qx1), Fp2(qy0, qy1))
    for corr in (_psi(p2), g2_neg(_psi2(p2))):
        t, line = _add_step(t, _g2_ints(corr))
        lines.append(line)
    return tuple(lines)


def _line_at(line, px, py):
    """A line from _g2_lines evaluated at (px, py)."""
    a0, a1, b0, b1, c0, c1 = line
    return (a0 * py % P, a1 * py % P, b0 * px % P, b1 * px % P, c0, c1)


def miller_loop(p1, p2):
    """Miller loop of the optimal ate pairing; p1 in G1, p2 in G2 (affine)."""
    if p1 is None or p2 is None:
        return FP12_ONE
    px, py = p1
    lines = iter(_g2_lines(*_g2_ints(p2)))
    f = FP12_ONE
    for d in _ATE_NAF:
        f = f.sqr().mul_line(_line_at(next(lines), px, py))
        if d:
            f = f.mul_line(_line_at(next(lines), px, py))
    for line in lines:                               # the two correction lines
        f = f.mul_line(_line_at(line, px, py))
    return f


def _pow_u(f):
    """f^u for f in the cyclotomic subgroup: cyclotomic squarings over the
    width-4 NAF of u (Scott et al., Pairing 2009), whose digits read f,
    f^3, f^5, f^7 and their conjugates, the inverses there.  Three
    multiplications build the table and 13 consume the digits, against 23
    over the plain NAF; the table adds one squaring to the digits' 62."""
    f2 = f.cyclotomic_sqr()
    table = {1: f}
    for d in (3, 5, 7):
        table[d] = table[d - 2].mul(f2)
    for d in (1, 3, 5, 7):
        table[-d] = table[d].conj()
    out = table[_U_WNAF[0]]
    for d in _U_WNAF[1:]:
        out = out.cyclotomic_sqr()
        if d:
            out = out.mul(table[d])
    return out


def final_exponentiation(f):
    """Map a Miller-loop value into the order-r target group."""
    # easy part: f^((p^6-1)(p^2+1)), which lands in the cyclotomic subgroup
    t = f.conj().mul(f.inv())
    t = t.frobenius_p2().mul(t)
    # hard part (Frobenius decomposition in powers of u)
    fp1 = t.frobenius()
    fp2 = t.frobenius_p2()
    fp3 = fp2.frobenius()
    fu1 = _pow_u(t)
    fu2 = _pow_u(fu1)
    fu3 = _pow_u(fu2)
    y3 = fu1.frobenius().conj()
    fu2p = fu2.frobenius()
    fu3p = fu3.frobenius()
    y2 = fu2.frobenius_p2()
    y0 = fp1.mul(fp2).mul(fp3)
    y1 = t.conj()
    y5 = fu2.conj()
    y4 = fu1.mul(fu2p).conj()
    y6 = fu3.mul(fu3p).conj()
    t0 = y6.cyclotomic_sqr().mul(y4).mul(y5)
    t1 = y3.mul(y5).mul(t0)
    t0 = t0.mul(y2)
    t1 = t1.cyclotomic_sqr().mul(t0).cyclotomic_sqr()
    t0 = t1.mul(y1)
    t1 = t1.mul(y0)
    return t0.cyclotomic_sqr().mul(t1)


def pair(a, b):
    """e(a, b) for a in G1 and b in G2; identity inputs map to 1."""
    if a is None or b is None:
        return FP12_ONE
    return final_exponentiation(miller_loop(a, b))


# ---------------------------------------------------------------------------
# The module as group backend: groups.setup("bn254") binds it to elements and
# params, which call the kernels g1_add, g2_mul and pair by name.  g1_pow and
# g1_double_exp look their kernel up as a module global on every call, so a
# wrapper put on the kernel sees every call.
# ---------------------------------------------------------------------------

name = "bn254"
order = int(R)
scalar_bytes = 32
g1_bytes = G1_BYTES
g1_gen = G1_GEN
g2_gen = G2_GEN


def g1_identity():
    return None


def g1_pow(a, k):
    return g1_mul(a, k)


def g1_double_exp(a, x, b, y):
    return g1_msm((a, b), (x, y))


def g1_row(raws):
    # a list of points, as encryption and the E' decoder make them
    return list(raws)


def g1_row_from_bytes(data):
    # an E'' row as read back: each encoding checked on its Jacobi symbol
    # and kept, decoded only where a proof reads it
    encodings = tuple(data[k:k + G1_BYTES] for k in range(0, len(data), G1_BYTES))
    for e in encodings:
        g1_check_bytes(e)
    return EncodedRow(encodings)


def g1_row_decode(data):
    # an E' row as read back: each component decoded now, square root and
    # all, since decryption reads every one as a point
    return [g1_from_bytes(data[k:k + G1_BYTES]) for k in range(0, len(data), G1_BYTES)]


def g1_row_encodings(row):
    # a decoded row's stored encodings, or those of a row of points
    if type(row) is EncodedRow:
        return row.encodings
    return [g1_to_bytes(pt) for pt in row]
