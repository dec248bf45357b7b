"""Software enclave lifecycle: create, seal secrets, destroy irreversibly.

The simulator enforces the API contract -- no secret leaves a destroyed
enclave, and destruction zeroizes every backing buffer before the enclave
leaves its registry, after which only a caller's handle holds it.  It
cannot defend against a host that reaches around the API; that boundary
mirrors the hardware trust assumption the protocol makes about a
rational provider.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

from .errors import (
    AlreadyDestroyed,
    DuplicateEnclave,
    EnclaveDestroyed,
    InvariantViolation,
    SecretNotFound,
    UnknownFile,
)

STATE_ALIVE = "ALIVE"
STATE_DESTROYED = "DESTROYED"


@dataclass(frozen=True)
class DeletionReceipt:
    file_id: bytes
    enclave_id: str
    destroyed_at: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "file_id": self.file_id.hex(),
                "enclave_id": self.enclave_id,
                "destroyed_at": self.destroyed_at,
            },
            sort_keys=True,
        )


class Enclave:
    """One per-file enclave; serializes its own operations."""

    def __init__(self, registry: "EnclaveRegistry", enclave_id: str, file_id: bytes):
        self._registry = registry
        self.enclave_id = enclave_id
        self.file_id = file_id
        self._secrets: dict[bytes, bytearray] = {}
        self._state = STATE_ALIVE
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        return self._state

    def _require_alive(self):
        if self._state != STATE_ALIVE:
            raise EnclaveDestroyed(f"enclave {self.enclave_id} is destroyed")

    def seal(self, key: bytes, secret: bytes) -> None:
        """Seal secret under key; a secret already sealed there is
        zeroized in place before the new one replaces it."""
        with self._lock:
            self._require_alive()
            buf = bytearray(secret)
            old = self._secrets.get(key, bytearray())
            old[:] = bytes(len(old))
            self._secrets[key] = buf

    def unseal(self, key: bytes, start: int = 0, stop: int | None = None) -> bytes:
        """The secret sealed under key, or only its bytes [start, stop)."""
        with self._lock:
            self._require_alive()
            if key not in self._secrets:
                raise SecretNotFound(f"no secret sealed under {key!r}")
            with memoryview(self._secrets[key]) as view:
                return bytes(view[start:stop])

    def destroy(self) -> DeletionReceipt:
        with self._lock:
            if self._state != STATE_ALIVE:
                raise AlreadyDestroyed(f"enclave {self.enclave_id} already destroyed")
            for buf in self._secrets.values():
                buf[:] = b"\x00" * len(buf)
            self._state = STATE_DESTROYED
            if not self.verify_zeroized():
                raise InvariantViolation("zeroization failed")
            self._registry._release(self)
            return DeletionReceipt(
                file_id=self.file_id,
                enclave_id=self.enclave_id,
                destroyed_at=self._registry.now(),
            )

    def verify_zeroized(self) -> bool:
        """Post-destroy self-check: every retained buffer is all zeros."""
        if self._state != STATE_DESTROYED:
            return False
        return all(not any(buf) for buf in self._secrets.values())


class EnclaveRegistry:
    """Maps each file id to its one live enclave; a destroyed enclave
    leaves the map, so the registry holds no key material of a deleted file.

    ``clock`` supplies logical timestamps; by default an internal counter
    advances one tick per destruction so receipts stay deterministic.
    """

    def __init__(self, clock=None):
        self._clock = clock
        self._tick = 0
        self._count = 0
        self._alive: dict[bytes, Enclave] = {}
        self._lock = threading.Lock()

    def now(self) -> int:
        if self._clock is not None:
            return self._clock.now
        self._tick += 1
        return self._tick

    def create(self, file_id: bytes) -> Enclave:
        with self._lock:
            if file_id in self._alive:
                raise DuplicateEnclave(f"alive enclave already bound to {file_id.hex()[:16]}")
            enc = Enclave(self, f"enc-{file_id.hex()[:16]}-{self._count}", file_id)
            self._count += 1
            self._alive[file_id] = enc
            return enc

    def _release(self, enc: Enclave) -> None:
        # called by Enclave.destroy, under the enclave's lock, once its buffers are zeroed
        with self._lock:
            del self._alive[enc.file_id]

    def alive_for(self, file_id: bytes) -> Enclave | None:
        return self._alive.get(file_id)

    def destroy_for(self, file_id: bytes) -> DeletionReceipt:
        enc = self._alive.get(file_id)
        if enc is None:
            raise UnknownFile(f"no alive enclave bound to {file_id.hex()[:16]}")
        return enc.destroy()
