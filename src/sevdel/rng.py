"""Randomness sources.

Protocol operations take an explicit rng so that scenario runs are
reproducible: a SeededRng drives a SHAKE-256 stream and two runs from the
same seed produce identical transcripts.  When no rng is supplied the
operations fall back to SecureRng (os entropy).
"""

from __future__ import annotations

import hashlib
import secrets

_BLOCK = 8192


def _to_seed_bytes(seed) -> bytes:
    if isinstance(seed, bytes):
        return seed
    if isinstance(seed, str):
        return seed.encode("utf-8")
    if isinstance(seed, int):
        return seed.to_bytes(16, "big", signed=False)
    if isinstance(seed, tuple):
        parts = [_to_seed_bytes(p) for p in seed]
        return b"".join(len(p).to_bytes(4, "big") + p for p in parts)
    raise TypeError(f"unsupported seed type: {type(seed)!r}")


class Rng:
    """Common sampling helpers over a raw byte stream."""

    def read(self, n: int) -> bytes:
        raise NotImplementedError

    def child(self, label: str | bytes) -> "Rng":
        raise NotImplementedError

    def _uniform(self, count: int, bound: int) -> list[int]:
        """count uniform integers in [0, bound) via rejection sampling.

        Each draw takes fixed-width chunks from the stream until one falls
        below the rejection limit.  All count chunks are read at once, and
        only rejections cost a further read, so the bytes consumed and the
        values returned are those of count separate draws.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        nbytes = (bound.bit_length() + 7) // 8 + 8
        limit = (1 << (8 * nbytes)) // bound * bound
        from_bytes = int.from_bytes
        out: list[int] = []
        while len(out) < count:
            buf = self.read((count - len(out)) * nbytes)
            for off in range(0, len(buf), nbytes):
                v = from_bytes(buf[off:off + nbytes], "big")
                if v < limit:
                    out.append(v % bound)
        return out

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling."""
        return self._uniform(1, bound)[0]

    def scalar(self, modulus: int, nonzero: bool = False) -> int:
        """Uniform residue in [0, modulus), or [1, modulus) if nonzero."""
        return self.scalars(1, modulus, nonzero)[0]

    def scalars(self, count: int, modulus: int, nonzero: bool = False) -> list[int]:
        """count scalar() draws, read from the stream in one buffer."""
        if nonzero:
            return [1 + v for v in self._uniform(count, modulus - 1)]
        return self._uniform(count, modulus)

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct values from [0, n), sampled without replacement.

        Partial Fisher-Yates; order of draws is part of the stream so the
        result is reproducible for a seeded rng.
        """
        if not 0 <= k <= n:
            raise ValueError("sample size out of range")
        picked: dict[int, int] = {}
        out = []
        for i in range(k):
            j = i + self.randrange(n - i)
            vi = picked.get(i, i)
            vj = picked.get(j, j)
            picked[j] = vi
            out.append(vj)
        return out


class SecureRng(Rng):
    """OS-entropy randomness for live (non-replayable) use."""

    def read(self, n: int) -> bytes:
        return secrets.token_bytes(n)

    def child(self, label: str | bytes) -> "SecureRng":
        return self


class SeededRng(Rng):
    """Deterministic SHAKE-256 stream; stable across platforms and runs."""

    def __init__(self, seed: int | bytes | str):
        self._seed = hashlib.sha256(b"sevdel/rng:" + _to_seed_bytes(seed)).digest()
        self._counter = 0
        self._buf = b""
        self._pos = 0

    def read(self, n: int) -> bytes:
        out = bytearray()
        while n > 0:
            if self._pos >= len(self._buf):
                block_tag = self._seed + self._counter.to_bytes(8, "big")
                self._buf = hashlib.shake_256(block_tag).digest(_BLOCK)
                self._pos = 0
                self._counter += 1
            take = min(n, len(self._buf) - self._pos)
            out += self._buf[self._pos:self._pos + take]
            self._pos += take
            n -= take
        return bytes(out)

    def child(self, label: str | bytes) -> "SeededRng":
        if isinstance(label, str):
            label = label.encode("utf-8")
        return SeededRng(self._seed + b"/" + label)


def default_rng(rng: Rng | None) -> Rng:
    return rng if rng is not None else SecureRng()
