"""Spans and counts around calls into every sevdel module.

The tracer wraps public functions from outside the package: it swaps the
attribute a caller looks up (a module global, a class attribute, or an
attribute of the group backend instance) for a wrapper, and puts the
original back on ``uninstall``.  Nothing under ``src/`` is edited.

Three kinds of wrapper exist:

* ``span``  -- records a span (name, op, parent depth, start, end) and
  adds calls, total and self time to the counters;
* ``timer`` -- the same counters, but no span record; used for kernels
  that run thousands to millions of times per op (bn254 arithmetic,
  ``elem_to_scalar``) so the trace stays small;
* ``count`` -- calls only, no clock reads; used for the backend-neutral
  group operations.

Every counter is keyed by the kind of the op that was running (the root
span opened with :meth:`Tracer.op`), so a workload can report counts per
op kind.  Self time is a wrapper's duration minus the time of the wrapped
calls it made, so within one op the self times sum to the op's duration.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from sevdel import bn254, cloud, codec, contract, enclave, groups, owner, rng, wire

_clock = time.perf_counter
OUTSIDE = "outside"     # op kind of calls made between ops


class Tracer:
    def __init__(self):
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.spans: list[tuple] = []   # (name, op_index, depth, start, end, self_s)
        self.op_kind = OUTSIDE
        self.op_index = -1
        self._stack: list[list[float]] = []   # child time of each open wrapper
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _add(self, name: str, value: float) -> None:
        self.counters[(self.op_kind, name)] += value

    def _timed(self, name: str, fn, extra, record: bool):
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            returned = False
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
                returned = True
                return out
            finally:
                t1 = _clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                self._add(name + ".calls", 1)
                self._add(name + ".total_s", dur)
                self._add(name + ".self_s", dur - frame[0])
                if record:
                    self.spans.append((name, self.op_index, len(stack), t0, t1, dur - frame[0]))
                if extra is not None and returned:
                    for metric, value in extra(args, out):
                        self._add(metric, value)

        return wrapper

    def _counted(self, name: str, fn, extra):
        counters = self.counters
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            key = (self.op_kind, calls)
            counters[key] += 1
            if extra is not None:
                for metric, value in extra(args, None):
                    counters[(self.op_kind, metric)] += value
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def op(self, kind: str):
        """Root span for one op; counters inside it are keyed by ``kind``."""
        saved = self.op_kind
        self.op_index += 1
        self.op_kind, index = kind, self.op_index
        frame = [0.0]
        self._stack.append(frame)
        t0 = _clock()
        try:
            yield
        finally:
            t1 = _clock()
            self._stack.pop()
            dur = t1 - t0
            name = "op." + kind
            self._add(name + ".calls", 1)
            self._add(name + ".total_s", dur)
            self._add(name + ".self_s", dur - frame[0])
            self.spans.append((name, index, len(self._stack), t0, t1, dur - frame[0]))
            self.op_kind = saved

    # -- installation --------------------------------------------------------

    def _patch(self, target, attr: str, wrapper) -> None:
        own = vars(target)
        self._undo.append((target, attr, attr in own, own.get(attr)))
        setattr(target, attr, wrapper)

    def wrap(self, target, attr: str, name: str, mode: str, extra=None) -> None:
        fn = getattr(target, attr)
        if mode == "count":
            wrapper = self._counted(name, fn, extra)
        else:
            wrapper = self._timed(name, fn, extra, record=(mode == "span"))
        self._patch(target, attr, wrapper)

    def install(self, backend) -> None:
        """Wrap every layer; ``backend`` is the group backend instance in use."""
        w = self.wrap
        # bn254: module globals, looked up on every call by the backend
        # facade and by bn254.pairing itself.
        for fn in ("g1_mul", "miller_loop", "final_exponentiation",
                   "g2_from_bytes", "g1_hash", "g1_from_bytes"):
            w(bn254, fn, "bn254." + fn, "timer")
        for fn in ("g1_add", "g2_mul"):
            w(bn254, fn, "bn254." + fn, "count")
        # groups: backend-neutral op counts on the backend instance.
        w(backend, "g1_pow", "groups.g1_pow", "count",
          lambda args, out: (("groups.g1_pow.scalar_bits", int(args[1]).bit_length()),))
        w(backend, "g1_double_exp", "groups.g1_double_exp", "count")
        w(backend, "pair", "groups.pair", "count")
        w(groups.SystemParams, "hash_to_g1", "groups.hash_to_g1", "count")
        # elem_to_scalar is re-bound by ``from .groups import`` in its callers.
        etos = self._timed("groups.elem_to_scalar", groups.elem_to_scalar, None, record=False)
        for mod in (groups, cloud, contract):
            self._patch(mod, "elem_to_scalar", etos)
        # rng
        for cls in (rng.SeededRng, rng.SecureRng):
            w(cls, "read", "rng.read", "count",
              lambda args, out: (("rng.read.bytes", args[1]),))
        # codec
        for fn in ("split", "join"):
            w(codec, fn, "codec." + fn, "span")
        # owner, and the nizk functions it and the cloud import by name
        for fn in ("outsource", "gen_challenge", "verify_encryption_proof",
                   "audit_respond", "sign_delete_request", "verify_delete_request"):
            w(owner, fn, "owner." + fn, "span")
        w(owner, "verify_opening", "nizk.verify_opening", "span")
        w(cloud, "prove_opening", "nizk.prove_opening", "span")
        # cloud
        for fn in ("encrypt_file", "gen_enc_tags", "decrypt_file",
                   "prove_encryption", "delete_file"):
            w(cloud, fn, "cloud." + fn, "span")
        # enclave
        w(enclave.Enclave, "seal", "enclave.seal", "span",
          lambda args, out: (("enclave.seal.bytes", len(args[2])),))
        w(enclave.Enclave, "unseal", "enclave.unseal", "span",
          lambda args, out: (("enclave.unseal.bytes", len(out)),))
        w(enclave.Enclave, "destroy", "enclave.destroy", "span")
        # contract
        for fn in ("service", "agree", "register_tags", "claim", "penalty"):
            w(contract.Contract, fn, "contract." + fn, "span")
        w(contract.Contract, "audit_verify", "contract.audit_verify", "span",
          lambda args, out: (("contract.rejects", 0 if out else 1),))
        w(contract, "verify_audit_response", "contract.verify_audit_response", "span")
        # wire: encode and decode of one format share a span name
        w(wire, "encode_blocks", "wire.blocks", "span")
        w(wire, "decode_blocks", "wire.blocks", "span")
        w(wire, "encode_proof", "wire.proof", "span",
          lambda args, out: (("wire.proof.bytes", len(out)), ("wire.proof.msgs", 1)))
        w(wire, "decode_proof", "wire.proof", "span")
        w(wire, "encode_audit_response", "wire.audit_response", "span",
          lambda args, out: (("wire.audit_response.bytes", len(out)),
                             ("wire.audit_response.msgs", 1)))
        w(wire, "decode_audit_response", "wire.audit_response", "span")
        w(wire, "encode_ciphertexts", "wire.ciphertexts", "span",
          lambda args, out: (("wire.ciphertexts.bytes", len(out)),
                             ("wire.ciphertexts.sectors", args[1].n * args[1].s)))
        w(wire, "decode_ciphertexts", "wire.ciphertexts", "span")

    def uninstall(self) -> None:
        while self._undo:
            target, attr, had, orig = self._undo.pop()
            if had:
                setattr(target, attr, orig)
            else:
                delattr(target, attr)

    # -- read-out --------------------------------------------------------------

    def totals(self, kinds) -> dict[str, float]:
        """Counters summed over the op kinds named."""
        out: dict[str, float] = defaultdict(float)
        for (kind, name), value in self.counters.items():
            if kind in kinds:
                out[name] += value
        return out

    def kinds(self) -> list[str]:
        return sorted({kind for kind, _ in self.counters})
