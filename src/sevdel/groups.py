"""Bilinear-group abstraction, scalar helpers, hash domains, system setup.

Every protocol module works against this layer.  Two backends exist:

* ``bn254`` -- the real pairing curve; the module :mod:`sevdel.bn254` is
  the backend itself.  Default.
* ``toy``  -- an insecure oracle group for tests and fast simulation.
  Elements are their own discrete logs modulo a small prime, the group
  operation is addition of exponents and the "pairing" multiplies them.
  It satisfies exactly the same algebraic laws, which is what makes it a
  useful brute-force oracle; it offers no security whatsoever.

Element wrappers use multiplicative notation for a single power, such as
``params.g2 ** w``; every product of powers in the protocol is one
multi-exponentiation, ``SystemParams.g1_msm``.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .codec import SECTOR_WIDTHS
from .errors import DimensionMismatch, InvalidElement, UnknownDomain

# Domain-separation tags for every hash-to-G1 use in the protocol.
DOMAIN_BLOCK = b"sevdel/block"      # per-block point H(I_M || i)
DOMAIN_VGEN = b"sevdel/vgen"        # ciphertext-tag sector generators
DOMAIN_DELETE = b"sevdel/delete"    # owner-signed deletion requests

HASH_DOMAINS = (DOMAIN_BLOCK, DOMAIN_VGEN, DOMAIN_DELETE)

_ELEM_SCALAR_TAG = b"sevdel/elem-scalar:"

_LITTLE_ENDIAN = sys.byteorder == "little"   # arrays hold native order; encodings are big-endian


class _Elem:
    """Group element bound to its backend; multiplicative notation.

    Elements of the same class and backend are equal when their raw values
    are: ints on toy, affine coordinates on bn254.
    """

    __slots__ = ("group", "raw")
    kind = ""

    def __init__(self, group, raw):
        self.group = group
        self.raw = raw

    def __eq__(self, other):
        if type(other) is not type(self) or other.group is not self.group:
            return NotImplemented
        return self.raw == other.raw

    def __hash__(self):
        return hash((self.kind, self.group.name, self.to_bytes()))

    def __deepcopy__(self, memo):
        # an immutable value bound to its backend, which is never copied
        return self

    def hex(self) -> str:
        return self.to_bytes().hex()

    def __repr__(self):
        return f"{type(self).__name__}({self.group.name}, {self.hex()[:18]}..)"


class G1Elem(_Elem):
    kind = "g1"

    def __mul__(self, other):
        if type(other) is not G1Elem or other.group is not self.group:
            raise InvalidElement("group mismatch in element product")
        return G1Elem(self.group, self.group.g1_add(self.raw, other.raw))

    def __pow__(self, k: int):
        return G1Elem(self.group, self.group.g1_pow(self.raw, k))

    def to_bytes(self) -> bytes:
        return self.group.g1_to_bytes(self.raw)


class G2Elem(_Elem):
    kind = "g2"

    def __pow__(self, k: int):
        return G2Elem(self.group, self.group.g2_mul(self.raw, k))

    def to_bytes(self) -> bytes:
        return self.group.g2_to_bytes(self.raw)


class ToyBackend:
    """Insecure exponent-arithmetic group for oracles and simulation.

    An element *is* its exponent modulo a small prime; g = 1.  The pairing
    multiplies exponents, which makes e(g1^x, g2^y) = gT^(xy) literally
    true by construction.
    """

    name = "toy"

    # smallest prime above 2^48: leaves headroom over the 32-bit sector
    # bound so out-of-range corruptions cannot wrap back into range
    order = 281474976710677
    scalar_bytes = 8
    g1_bytes = 9
    g1_gen = g2_gen = 1

    def g1_add(self, a, b):
        return (a + b) % self.order

    def _pow(self, a, k):
        return a * (k % self.order) % self.order

    def _to_bytes(self, a, tag):
        return tag + a.to_bytes(8, "big")

    def _from_bytes(self, data, tag):
        if len(data) != 9:
            raise InvalidElement("toy element encoding must be 9 bytes")
        if data[0:1] != tag:
            raise InvalidElement("wrong toy group tag byte")
        v = int.from_bytes(data[1:], "big")
        if v >= self.order:
            raise InvalidElement("toy element out of range")
        return v

    g1_pow = g2_mul = _pow

    def g1_identity(self):
        return 0

    def g1_to_bytes(self, a):
        return self._to_bytes(a, b"\x11")

    def g1_from_bytes(self, data):
        return self._from_bytes(data, b"\x11")

    def g2_to_bytes(self, a):
        return self._to_bytes(a, b"\x12")

    def g2_from_bytes(self, data):
        return self._from_bytes(data, b"\x12")

    def g1_double_exp(self, a, x, b, y):
        return (a * x + b * y) % self.order

    def g1_msm(self, bases, scalars):
        if len(bases) != len(scalars):
            raise DimensionMismatch(f"{len(scalars)} scalars for {len(bases)} bases")
        return sum(a * k for a, k in zip(bases, scalars)) % self.order

    def g1_msm_rows(self, shared, rows):
        # no tables to share: one g1_msm per row, rows consumed one at a time
        return [self.g1_msm([*shared, *own], scalars) for own, scalars in rows]

    def g1_gen_add(self, points, scalars):
        # P * g1^k with g1 = 1
        if len(points) != len(scalars):
            raise DimensionMismatch(f"{len(scalars)} scalars for {len(points)} points")
        return [(p + k) % self.order for p, k in zip(points, scalars)]

    def g1_row(self, raws):
        # elements lie below order < 2^49: one 8-byte slot each, against
        # 40 B for an int in a list
        return array("Q", raws)

    def g1_row_from_bytes(self, data):
        # the whole row at once: every tag byte in one slice, the tags cut
        # out with one extended-slice delete, the values read as one array
        count, rest = divmod(len(data), 9)
        if rest:
            raise InvalidElement("toy element encoding must be 9 bytes")
        if data[0::9].count(0x11) != count:
            raise InvalidElement("wrong toy group tag byte")
        values = bytearray(data)
        del values[0::9]
        # array('Q', bytes) over-allocates; its copy is right-sized
        row = array("Q", values)[:]
        if _LITTLE_ENDIAN:
            row.byteswap()
        if max(row, default=0) >= self.order:
            raise InvalidElement("toy element out of range")
        return row

    # both rows of a toy ciphertext are decoded whole
    g1_row_decode = g1_row_from_bytes

    def g1_row_encodings(self, row):
        # one big-endian blob for the row, the tag bytes interleaved by
        # slice assignment, cut into 9-byte encodings by a cached Struct
        values = array("Q", row)
        if _LITTLE_ENDIAN:
            values.byteswap()
        blob = values.tobytes()
        count = len(values)
        out = bytearray(9 * count)
        out[0::9] = b"\x11" * count
        for k in range(8):
            out[k + 1::9] = blob[k::8]
        return list(_cut_encodings(count)(out))

    def g1_dlog_table(self, bits):
        # {(m - half) * g1: m} for m in [0, 2^bits), half = 2^(bits - 1):
        # the centred range, zipped at C level, since g1 = 1 makes each
        # point its own exponent and its own key
        count = 1 << bits
        half = count // 2
        return dict(zip(chain(range(self.order - half, self.order), range(half)),
                        range(count)))

    def g1_dlog_lookup(self, table, points):
        # one C-level pass: a point is its own key
        return list(map(table.get, points))

    def g1_hash(self, data):
        h = hashlib.sha256(b"sevdel/toy-h2c:" + data).digest()
        return int.from_bytes(h, "big") % self.order

    def pair(self, a, b):
        return a * b % self.order


@lru_cache(maxsize=16)
def _cut_encodings(count):
    """unpack of count 9-byte strings, for toy rows of count components."""
    return struct.Struct("9s" * count).unpack


_TOY = ToyBackend()


def get_backend(name: str):
    """The toy instance, or the bn254 module itself, imported only here so
    a toy run never pays its import-time checks."""
    if name == "toy":
        return _TOY
    if name == "bn254":
        from . import bn254
        return bn254
    raise ValueError(f"unknown group backend {name!r}")


@dataclass(frozen=True)
class SystemParams:
    """Public system parameters fixed at setup time.  sector_bits is the
    width every file encrypted under these params must have:
    cloud.encrypt_file refuses a manifest of another, and decryption
    bounds each discrete log by it."""

    g1: G1Elem
    g2: G2Elem
    sector_bits: int

    @property
    def group(self):
        return self.g1.group

    @property
    def order(self) -> int:
        return self.group.order

    def hash_to_g1(self, domain: bytes, msg: bytes) -> G1Elem:
        if domain not in HASH_DOMAINS:
            raise UnknownDomain(f"hash domain {domain!r} not registered")
        framed = len(domain).to_bytes(2, "big") + domain + msg
        return G1Elem(self.group, self.group.g1_hash(framed))

    def g1_identity(self) -> G1Elem:
        return G1Elem(self.group, self.group.g1_identity())

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
        h.update(self.group.name.encode())
        h.update(self.g1.to_bytes())
        h.update(self.g2.to_bytes())
        h.update(self.sector_bits.to_bytes(2, "big"))
        for d in HASH_DOMAINS:
            h.update(len(d).to_bytes(2, "big") + d)
        return h.digest()


def setup(group: str = "bn254", sector_bits: int = 16) -> SystemParams:
    """Bootstrap system parameters over the named curve family.

    sector_bits is the width every file encrypted under these params
    must have been split at.  Decryption recovers each sector by a
    bounded discrete log.  On plain-int bn254 (2-vCPU host) a 16-bit
    sector is one lookup, 0.16 to 0.22 ms; a 32-bit sector x takes
    x // 2^16 giant steps shared by its chunk's misses: 0.18 to 0.22 s a
    sector over 128 random ones, about 2.2 s for a lone one near 2^32."""
    if type(sector_bits) is not int or sector_bits not in SECTOR_WIDTHS:
        raise ValueError(f"sector_bits must be one of {SECTOR_WIDTHS}")
    backend = get_backend(group)
    return SystemParams(
        g1=G1Elem(backend, backend.g1_gen),
        g2=G2Elem(backend, backend.g2_gen),
        sector_bits=sector_bits,
    )


def pairing_eq(lhs: tuple[G1Elem, G2Elem], rhs: tuple[G1Elem, G2Elem]) -> bool:
    """e(a, b) == e(c, d) for lhs = (a, b) and rhs = (c, d), the one pairing
    check of the protocol; all four arguments must share a backend."""
    (a, b), (c, d) = lhs, rhs
    group = a.group
    if any(x.group is not group for x in (b, c, d)):
        raise InvalidElement("pairing arguments from different groups")
    return group.pair(a.raw, b.raw) == group.pair(c.raw, d.raw)


def encoding_to_scalar(group, data: bytes) -> int:
    """Deterministic digest of an element encoding as an exponent mod p.

    The ciphertext-tag formula needs ciphertext components in exponent
    position; a group element is not a scalar, so it enters through this
    hash of its canonical encoding.  Any other string, an encoding of no
    element included, hashes to an unrelated exponent.
    """
    h = hashlib.sha256(_ELEM_SCALAR_TAG + data).digest()
    return int.from_bytes(h, "big") % group.order


def elem_to_scalar(x: G1Elem) -> int:
    """encoding_to_scalar of the canonical encoding of x."""
    return encoding_to_scalar(x.group, x.to_bytes())


def scalar_to_bytes(group, v: int) -> bytes:
    if not 0 <= v < group.order:
        raise InvalidElement("scalar out of range")
    return v.to_bytes(group.scalar_bytes, "big")


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
