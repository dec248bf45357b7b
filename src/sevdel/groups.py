"""Bilinear-group abstraction, scalar helpers, hash domains, system setup.

Every protocol module works against this layer.  Two backends exist:

* ``bn254`` -- the real pairing curve (see :mod:`sevdel.bn254`); default.
* ``toy``  -- an insecure oracle group for tests and fast simulation.
  Elements are their own discrete logs modulo a small prime, the group
  operation is addition of exponents and the "pairing" multiplies them.
  It satisfies exactly the same algebraic laws, which is what makes it a
  useful brute-force oracle; it offers no security whatsoever.

Element wrappers use multiplicative notation, so protocol code reads like
the scheme's equations: ``(h * u**m) ** w``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .errors import InvalidElement, UnknownDomain

# Domain-separation tags for every hash-to-G1 use in the protocol.
DOMAIN_BLOCK = b"sevdel/block"      # per-block point H(I_M || i)
DOMAIN_VGEN = b"sevdel/vgen"        # ciphertext-tag sector generators
DOMAIN_DELETE = b"sevdel/delete"    # owner-signed deletion requests

DEFAULT_HASH_DOMAINS = (DOMAIN_BLOCK, DOMAIN_VGEN, DOMAIN_DELETE)

_ELEM_SCALAR_TAG = b"sevdel/elem-scalar:"


class _Elem:
    """Group element bound to its backend; multiplicative notation."""

    __slots__ = ("group", "raw")
    kind = ""

    def __init__(self, group, raw):
        self.group = group
        self.raw = raw

    def _ops(self):
        raise NotImplementedError

    def __mul__(self, other):
        if other.group is not self.group or type(other) is not type(self):
            raise InvalidElement("group mismatch in element product")
        op, _pow, _inv, _eq, _ser = self._ops()
        return type(self)(self.group, op(self.raw, other.raw))

    def __pow__(self, k: int):
        op, pw, _inv, _eq, _ser = self._ops()
        return type(self)(self.group, pw(self.raw, k))

    def __truediv__(self, other):
        if other.group is not self.group or type(other) is not type(self):
            raise InvalidElement("group mismatch in element quotient")
        op, _pow, inv, _eq, _ser = self._ops()
        return type(self)(self.group, op(self.raw, inv(other.raw)))

    def __eq__(self, other):
        if not isinstance(other, type(self)) or other.group is not self.group:
            return NotImplemented
        op, _pow, _inv, eq, _ser = self._ops()
        return eq(self.raw, other.raw)

    def __hash__(self):
        return hash((self.kind, self.group.name, self.to_bytes()))

    def to_bytes(self) -> bytes:
        return self._ops()[4](self.raw)

    def hex(self) -> str:
        return self.to_bytes().hex()

    def __repr__(self):
        return f"{type(self).__name__}({self.group.name}, {self.hex()[:18]}..)"


class G1Elem(_Elem):
    kind = "g1"

    def _ops(self):
        g = self.group
        return g.g1_op, g.g1_pow, g.g1_inv, g.g1_eq, g.g1_to_bytes


class G2Elem(_Elem):
    kind = "g2"

    def _ops(self):
        g = self.group
        return g.g2_op, g.g2_pow, g.g2_inv, g.g2_eq, g.g2_to_bytes


class GTElem(_Elem):
    kind = "gt"

    def _ops(self):
        g = self.group
        return g.gt_op, g.gt_pow, g.gt_inv, g.gt_eq, g.gt_to_bytes


class Bn254Backend:
    """Raw-op facade over :mod:`sevdel.bn254`."""

    name = "bn254"

    def __init__(self):
        from . import bn254
        self._c = bn254
        self.order = int(bn254.R)
        self.scalar_bytes = 32
        self.g1_bytes = bn254.G1_BYTES
        self.g2_bytes = bn254.G2_BYTES
        self.g1_gen = bn254.G1_GEN
        self.g2_gen = bn254.G2_GEN

    # G1
    def g1_op(self, a, b):
        return self._c.g1_add(a, b)

    def g1_pow(self, a, k):
        if a == self.g1_gen:
            return self._c.g1_msm((a,), (k,))
        return self._c.g1_mul(a, k)

    def g1_inv(self, a):
        return self._c.g1_neg(a)

    def g1_eq(self, a, b):
        return a == b

    def g1_identity(self):
        return None

    def g1_to_bytes(self, a):
        return self._c.g1_to_bytes(a)

    def g1_from_bytes(self, data):
        return self._c.g1_from_bytes(data)

    def g1_double_exp(self, a, x, b, y):
        return self._c.g1_msm((a, b), (x, y))

    def g1_msm(self, bases, scalars):
        return self._c.g1_msm(bases, scalars)

    def g1_key(self, a):
        # 2x plus the parity of y names a point; no point maps to -1
        return -1 if a is None else 2 * a[0] + (a[1] & 1)

    def g1_gen_multiples(self, count):
        return self._c.g1_gen_multiples(count)

    def g1_hash(self, data):
        return self._c.g1_hash(data)

    # G2
    def g2_op(self, a, b):
        return self._c.g2_add(a, b)

    def g2_pow(self, a, k):
        return self._c.g2_mul(a, k)

    def g2_inv(self, a):
        return self._c.g2_neg(a)

    def g2_eq(self, a, b):
        return a == b

    def g2_to_bytes(self, a):
        return self._c.g2_to_bytes(a)

    def g2_from_bytes(self, data):
        return self._c.g2_from_bytes(data)

    # GT
    def gt_op(self, a, b):
        return self._c.gt_mul(a, b)

    def gt_pow(self, a, k):
        return self._c.gt_pow(a, k)

    def gt_inv(self, a):
        return a.conj()  # pairing outputs are unitary

    def gt_eq(self, a, b):
        return a == b

    def gt_identity(self):
        return self._c.FP12_ONE

    def gt_to_bytes(self, a):
        return hashlib.sha256(repr(a).encode()).digest()

    def pair(self, a, b):
        return self._c.pairing(a, b)


class ToyBackend:
    """Insecure exponent-arithmetic group for oracles and simulation.

    An element *is* its exponent modulo a small prime; g = 1.  The pairing
    multiplies exponents, which makes e(g1^x, g2^y) = gT^(xy) literally
    true by construction.
    """

    name = "toy"

    # smallest prime above 2^48: leaves headroom over the 32-bit sector
    # bound so out-of-range corruptions cannot wrap back into range
    ORDER = 281474976710677

    def __init__(self, order: int = ORDER):
        self.order = order
        self.scalar_bytes = 8
        self.g1_bytes = 9
        self.g2_bytes = 9
        self.g1_gen = 1
        self.g2_gen = 1

    def _op(self, a, b):
        return (a + b) % self.order

    def _pow(self, a, k):
        return a * (k % self.order) % self.order

    def _inv(self, a):
        return -a % self.order

    def _eq(self, a, b):
        return a == b

    def _to_bytes(self, a, tag):
        return tag + int(a).to_bytes(8, "big")

    def _from_bytes(self, data, tag):
        if len(data) != 9:
            raise InvalidElement("toy element encoding must be 9 bytes")
        if data[0:1] != tag:
            raise InvalidElement("wrong toy group tag byte")
        v = int.from_bytes(data[1:], "big")
        if v >= self.order:
            raise InvalidElement("toy element out of range")
        return v

    g1_op = g2_op = gt_op = _op
    g2_pow = gt_pow = _pow

    def g1_pow(self, a, k):
        # g1 = 1, so g1^k is k mod order; a product by 1 would leave every
        # stored component with a spare digit allocated (48 B, not 40 B)
        return k % self.order if a == 1 else self._pow(a, k)
    g1_inv = g2_inv = gt_inv = _inv
    g1_eq = g2_eq = gt_eq = _eq

    def g1_identity(self):
        return 0

    gt_identity = g1_identity

    def g1_to_bytes(self, a):
        return self._to_bytes(a, b"\x11")

    def g1_from_bytes(self, data):
        return self._from_bytes(data, b"\x11")

    def g2_to_bytes(self, a):
        return self._to_bytes(a, b"\x12")

    def g2_from_bytes(self, data):
        return self._from_bytes(data, b"\x12")

    def gt_to_bytes(self, a):
        return self._to_bytes(a, b"\x13")

    def g1_double_exp(self, a, x, b, y):
        return (a * x + b * y) % self.order

    def g1_msm(self, bases, scalars):
        return sum(a * k for a, k in zip(bases, scalars, strict=True)) % self.order

    def g1_key(self, a):
        return a

    def g1_gen_multiples(self, count):
        return range(count)

    def g1_hash(self, data):
        h = hashlib.sha256(b"sevdel/toy-h2c:" + data).digest()
        return int.from_bytes(h, "big") % self.order

    def pair(self, a, b):
        return a * b % self.order


_BACKENDS = {"bn254": Bn254Backend, "toy": ToyBackend}
_backend_cache: dict[str, object] = {}


def get_backend(name: str):
    if name not in _BACKENDS:
        raise ValueError(f"unknown group backend {name!r}")
    if name not in _backend_cache:
        _backend_cache[name] = _BACKENDS[name]()
    return _backend_cache[name]


@dataclass(frozen=True)
class SystemParams:
    """Public system parameters fixed at setup time."""

    group_id: str
    g1: G1Elem
    g2: G2Elem
    sector_bits: int
    hash_domains: tuple[bytes, ...] = field(default=DEFAULT_HASH_DOMAINS)

    @property
    def group(self):
        return self.g1.group

    @property
    def order(self) -> int:
        return self.group.order

    def hash_to_g1(self, domain: bytes, msg: bytes) -> G1Elem:
        if domain not in self.hash_domains:
            raise UnknownDomain(f"hash domain {domain!r} not registered")
        framed = len(domain).to_bytes(2, "big") + domain + msg
        return G1Elem(self.group, self.group.g1_hash(framed))

    def g1_identity(self) -> G1Elem:
        return G1Elem(self.group, self.group.g1_identity())

    def gt_identity(self) -> GTElem:
        return GTElem(self.group, self.group.gt_identity())

    def g1_from_bytes(self, data: bytes) -> G1Elem:
        return G1Elem(self.group, self.group.g1_from_bytes(data))

    def g1_msm(self, bases, scalars) -> G1Elem:
        """prod_i bases[i] ** scalars[i] as one multi-exponentiation."""
        group = self.group
        if any(b.group is not group for b in bases):
            raise InvalidElement("group mismatch in multi-exponentiation")
        return G1Elem(group, group.g1_msm([b.raw for b in bases], scalars))

    def g2_from_bytes(self, data: bytes) -> G2Elem:
        return G2Elem(self.group, self.group.g2_from_bytes(data))

    def digest(self) -> bytes:
        h = hashlib.sha256()
        h.update(b"sevdel/params:")
        h.update(self.group_id.encode())
        h.update(self.g1.to_bytes())
        h.update(self.g2.to_bytes())
        h.update(self.sector_bits.to_bytes(2, "big"))
        for d in self.hash_domains:
            h.update(len(d).to_bytes(2, "big") + d)
        return h.digest()


def setup(group: str = "bn254", sector_bits: int = 32) -> SystemParams:
    """Bootstrap system parameters over the named curve family."""
    if sector_bits not in (8, 16, 32):
        raise ValueError("sector_bits must be one of 8, 16, 32")
    backend = get_backend(group)
    return SystemParams(
        group_id=backend.name,
        g1=G1Elem(backend, backend.g1_gen),
        g2=G2Elem(backend, backend.g2_gen),
        sector_bits=sector_bits,
    )


def pairing(x: G1Elem, y: G2Elem) -> GTElem:
    """Bilinear map e(x, y); inputs must share a backend."""
    if x.group is not y.group:
        raise InvalidElement("pairing arguments from different groups")
    return GTElem(x.group, x.group.pair(x.raw, y.raw))


def elem_to_scalar(x: G1Elem) -> int:
    """Deterministic digest of a group element as an exponent mod p.

    The ciphertext-tag formula needs ciphertext components in exponent
    position; a group element is not a scalar, so it enters through this
    hash of its canonical encoding.
    """
    h = hashlib.sha256(_ELEM_SCALAR_TAG + x.to_bytes()).digest()
    return int.from_bytes(h, "big") % x.group.order


def scalar_to_bytes(group, v: int) -> bytes:
    if not 0 <= v < group.order:
        raise InvalidElement("scalar out of range")
    return int(v).to_bytes(group.scalar_bytes, "big")


def scalar_from_bytes(group, data: bytes) -> int:
    if len(data) != group.scalar_bytes:
        raise InvalidElement(f"scalar encoding must be {group.scalar_bytes} bytes")
    v = int.from_bytes(data, "big")
    if v >= group.order:
        raise InvalidElement("scalar out of range")
    return v


def block_point(params: SystemParams, file_id: bytes, index: int) -> G1Elem:
    """H(I_M || i): the per-block base point; index is 1-based, 8-byte BE."""
    return params.hash_to_g1(DOMAIN_BLOCK, file_id + index.to_bytes(8, "big"))


def vgen_points(params: SystemParams, file_id: bytes, s: int) -> tuple[G1Elem, ...]:
    """Sector generators for ciphertext tags, recomputable by anyone."""
    return tuple(
        params.hash_to_g1(DOMAIN_VGEN, file_id + j.to_bytes(8, "big"))
        for j in range(1, s + 1)
    )
