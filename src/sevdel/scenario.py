"""Scenario engine: seeded end-to-end protocol runs with JSONL transcripts.

A scenario fixes the group, file shape, contract terms and a timeline of
actions at logical times, plus optional fault injections.  The same seed
always yields a byte-identical transcript: all randomness flows from one
SHAKE stream, time is the contract's logical clock, and every transcript
line is canonical JSON.  Bulk artifacts (file, ciphertexts, tag sets)
appear in the transcript as digests; protocol messages (challenges,
proofs, audit responses, receipts, contract log entries) appear whole.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import time as _time
from dataclasses import dataclass, field

from . import cloud, codec, owner, wire
from .contract import Contract, Ledger, LogicalClock, verify_audit_response
from .enclave import EnclaveRegistry
from .errors import (
    EnclaveDestroyed,
    InvariantViolation,
    MissingBlock,
    ScenarioError,
    SevdelError,
    UnknownFile,
)
from .groups import DOMAIN_BLOCK, DOMAIN_VGEN, SystemParams, setup, vgen_points
from .rng import SeededRng

PROVIDER = "provider"
OWNER = "owner"

_ACTIONS = (
    "setup", "service", "agree", "outsource", "encrypt", "register_tags",
    "claim", "verify_encryption", "decrypt_roundtrip", "leak", "audit",
    "delete", "refund", "penalty", "timer",
)
# the step each action needs to have run before it; encrypt needs
# outsource, which needs setup, so naming the latest one is enough
_NEEDS = {
    "service": "setup", "outsource": "setup", "encrypt": "outsource",
    "register_tags": "encrypt", "verify_encryption": "encrypt", "decrypt_roundtrip": "encrypt",
    "leak": "encrypt", "audit": "encrypt", "delete": "encrypt",
}
_FAULTS = ("skip-encryption", "tamper-block", "leak-ciphertexts", "double-delete")
_INTS = {"seed": 0, "file_size": 1, "sectors_per_block": 1, "challenge_count": 1,
         "deposit": 1, "stake": 1}       # integer fields and their least value


def _is_int(value, least: int = 0) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _is_text(value) -> bool:
    """A str without lone surrogates, which JSON admits and UTF-8 cannot encode."""
    return isinstance(value, str) and not any("\ud800" <= c <= "\udfff" for c in value)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise ScenarioError(what)


@dataclass
class Scenario:
    name: str
    seed: int
    group: str = "toy"
    file_size: int = 4096
    sectors_per_block: int = 8
    sector_bits: int = 16
    challenge_count: int = 4
    deposit: int = 1000
    stake: int = 50
    deadlines: dict = field(default_factory=lambda: {"t1": 10, "t2": 20, "t3": 30, "t4": 40})
    initial_balances: dict = field(default_factory=lambda: {PROVIDER: 5000, OWNER: 500})
    timeline: list = field(default_factory=list)
    faults: list = field(default_factory=list)
    expect: dict = field(default_factory=dict)
    file_path: str | None = None    # bytes come from disk instead of the seed

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            d = json.loads(text)
        # JSONDecodeError is a ValueError; json raises RecursionError on deep nesting
        except (ValueError, RecursionError) as exc:
            raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise ScenarioError("scenario must be a JSON object")
        unknown = set(d) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
        try:
            sc = cls(**d)
        except TypeError as exc:
            raise ScenarioError(str(exc)) from exc
        sc.validate()
        return sc

    def validate(self) -> None:
        """Raise ScenarioError unless every field has its type and range,
        so that a scenario which validates can be set up and run."""
        # the name becomes part of the transcript's file name
        _require(_is_text(self.name) and not any(c in self.name for c in "/\\\0"),
                 "name must be a string without '/', '\\' or NUL")
        for name, least in _INTS.items():
            _require(_is_int(getattr(self, name), least), f"{name} must be an integer >= {least}")
        _require(self.seed >> 128 == 0, "seed must be below 2^128")
        _require(self.group in ("bn254", "toy"), f"unknown group {self.group!r}")
        _require(_is_int(self.sector_bits) and self.sector_bits in codec.SECTOR_WIDTHS,
                 f"sector_bits must be one of {codec.SECTOR_WIDTHS}")
        _require(self.file_path is None or _is_text(self.file_path), "file_path must be a string")
        dl = self.deadlines
        _require(isinstance(dl, dict) and set(dl) == {"t1", "t2", "t3", "t4"}
                 and all(map(_is_int, dl.values())), "deadlines must map t1..t4 to integers")
        _require(dl["t1"] < dl["t2"] < dl["t3"] < dl["t4"],
                 "deadlines must satisfy T1 < T2 < T3 < T4")
        _require(isinstance(self.initial_balances, dict)
                 and all(map(_is_int, self.initial_balances.values())),
                 "initial_balances must map accounts to integers >= 0")
        _require(isinstance(self.timeline, list) and len(self.timeline) > 0,
                 "timeline must be a non-empty list")
        last = 0
        for step in self.timeline:
            _require(isinstance(step, dict) and _is_int(step.get("time"), last),
                     f"timeline step needs an integer time, not before the last one: {step}")
            _require(step.get("action") in _ACTIONS, f"unknown action in {step}")
            last = step["time"]
        _require(isinstance(self.faults, list), "faults must be a list")
        for fault in self.faults:
            _require(isinstance(fault, dict) and fault.get("type") in _FAULTS,
                     f"unknown fault {fault!r}")
            blocks = fault.get("blocks", [])
            _require(_is_int(fault.get("block", 1), 1) and isinstance(blocks, list)
                     and all(_is_int(i, 1) for i in blocks),
                     f"fault blocks must be integers >= 1: {fault!r}")
        _require(isinstance(self.expect, dict)
                 and isinstance(self.expect.get("balances", {}), dict),
                 "expect and its balances must be objects")


class Transcript:
    def __init__(self):
        self.lines: list[dict] = []
        self.verdicts: dict[str, object] = {}
        self.failures: list[str] = []
        self._seq = 0

    def emit(self, time: int, event: str, **payload) -> None:
        self._seq += 1
        self.lines.append({"seq": self._seq, "time": time, "event": event, **payload})

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_text(self) -> str:
        return "".join(json.dumps(line, sort_keys=True) + "\n" for line in self.lines)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Runner:
    def __init__(self, sc: Scenario):
        self.sc = sc
        self.rng = SeededRng(sc.seed).child(b"scenario:" + sc.name.encode())
        self.clock = LogicalClock()
        self.transcript = Transcript()
        self.params: SystemParams = setup(sc.group, sc.sector_bits)
        self.ledger = Ledger(dict(sc.initial_balances))
        self.contract = Contract(self.params, self.ledger, self.clock)
        self.registry = EnclaveRegistry(clock=self.clock)
        self.n_ref = f"file-{sc.name}"
        self.okeys = None
        self.skeys = None
        self.data = None
        self.manifest = None
        self.blocks = None
        self.gens = None
        self.tags = None
        self.enclave = None
        self.cts = None
        self.enc_tags = None
        self.leaked = None
        self.done: set[str] = set()     # actions that have run

    def fault(self, kind: str):
        for f in self.sc.faults:
            if f.get("type") == kind:
                return f
        return None

    def run(self) -> Transcript:
        tr = self.transcript
        tr.emit(0, "scenario", name=self.sc.name, seed=self.sc.seed,
                group=self.sc.group, file_size=self.sc.file_size,
                params_digest=self.contract.params_digest.hex())
        for step in self.sc.timeline:
            action = step["action"]
            need = _NEEDS.get(action)
            if need is not None and need not in self.done:
                raise ScenarioError(f"{action} at time {step['time']} needs a {need} step first")
            self.clock.advance_to(step["time"])
            getattr(self, "_do_" + action)(step)
            self.done.add(action)
        self._append_contract_log()
        self._check_expectations()
        return tr

    # -- actions --------------------------------------------------------

    def _do_setup(self, step):
        sc = self.sc
        self.okeys = owner.keygen(self.params, self.rng.child("owner-keys"))
        self.skeys = cloud.server_keygen(self.params, self.rng.child("server-keys"))
        if sc.file_path is not None:
            try:
                with open(sc.file_path, "rb") as fh:
                    self.data = fh.read()
            # ValueError: a path with a NUL byte, which JSON admits
            except (OSError, ValueError) as exc:
                raise ScenarioError(f"cannot read file_path {sc.file_path!r}: {exc}") from exc
            if not self.data:
                raise ScenarioError(f"{sc.file_path} is empty")
        else:
            self.data = self.rng.child("file").read(sc.file_size)
        self.transcript.emit(self.clock.now, "setup",
                             owner_pub=self.okeys.W.hex(),
                             provider_pub=self.skeys.A.hex(),
                             file_digest=_digest(self.data))

    def _do_service(self, step):
        dl = self.sc.deadlines
        self.contract.service(PROVIDER, self.n_ref, self.skeys.A.to_bytes(),
                              self.sc.deposit, dl["t1"], dl["t2"], dl["t3"], dl["t4"])
        self.transcript.emit(self.clock.now, "service", n=self.n_ref,
                             deposit=self.sc.deposit, deadlines=dl)

    def _do_agree(self, step):
        self.contract.agree(OWNER, self.n_ref, self.sc.stake)
        self.transcript.emit(self.clock.now, "agree", owner=OWNER, stake=self.sc.stake)

    def _do_outsource(self, step):
        sc = self.sc
        self.manifest, self.blocks = codec.split(
            self.data, sc.sectors_per_block, sc.sector_bits,
            owner_id=OWNER.encode(), file_name=sc.name.encode())
        self.gens, self.tags = owner.outsource(
            self.params, self.okeys, self.manifest, self.blocks,
            self.rng.child("outsource"))
        self.transcript.emit(self.clock.now, "outsource",
                             manifest=json.loads(self.manifest.to_json()),
                             tags_digest=_digest(wire.encode_tagset(self.tags)))

    def _do_encrypt(self, step):
        self.enclave = self.registry.create(self.manifest.file_id)
        self.cts, _ = cloud.encrypt_file(
            self.params, self.enclave, self.manifest, self.blocks,
            self.rng.child("encrypt"))
        self._apply_ciphertext_faults()
        v_gens = vgen_points(self.params, self.manifest.file_id, self.manifest.s)
        self.enc_tags = cloud.gen_enc_tags(
            self.params, self.skeys, self.manifest, self.cts, self.gens.u, v_gens)
        if self.fault("leak-ciphertexts"):
            self.leaked = self.cts
        self.transcript.emit(self.clock.now, "encrypt",
                             enclave=self.enclave.enclave_id,
                             v_pub=self.cts.v_pub.hex(),
                             ciphertext_digest=_digest(
                                 wire.encode_ciphertexts(self.params, self.cts)),
                             enc_tags_digest=_digest(
                                 wire.encode_enc_tagset(self.enc_tags)))

    def _apply_ciphertext_faults(self):
        group = self.params.group
        g1 = self.params.g1.raw
        skip = self.fault("skip-encryption")
        tamper = self.fault("tamper-block")
        skipped = skip.get("blocks", [1]) if skip else []
        tampered = [tamper.get("block", 1)] if tamper else []
        if any(i > self.manifest.n for i in skipped + tampered):
            raise ScenarioError(f"a fault names a block beyond the file's {self.manifest.n}")
        g1_row = group.g1_row
        for i in skipped:
            row = self.blocks.rows[i - 1]
            self.cts.rows_prime[i - 1] = g1_row([group.g1_pow(g1, m) for m in row])
            self.cts.rows_dprime[i - 1] = g1_row([group.g1_identity() for _ in row])
            self.transcript.emit(self.clock.now, "fault", type="skip-encryption", block=i)
        for i in tampered:
            self.cts.rows_prime[i - 1] = g1_row([
                group.g1_add(raw, g1) for raw in self.cts.rows_prime[i - 1]])
            self.transcript.emit(self.clock.now, "fault", type="tamper-block", block=i)

    def _do_register_tags(self, step):
        sigma_bytes = [e.to_bytes() for e in self.enc_tags.sigma]
        u_bytes = [e.to_bytes() for e in self.gens.u]
        self.contract.register_tags(self.n_ref, self.manifest.file_id,
                                    sigma_bytes, u_bytes)
        self.transcript.emit(self.clock.now, "register_tags", n=self.n_ref,
                             file_id=self.manifest.file_id.hex(),
                             sigma_count=len(sigma_bytes))

    def _do_claim(self, step):
        self.contract.claim(self.n_ref)
        self.transcript.emit(self.clock.now, "claim", n=self.n_ref)

    def _do_verify_encryption(self, step):
        ch = owner.gen_challenge(
            self.manifest, min(self.sc.challenge_count, self.manifest.n),
            self.rng.child("verify-challenge").read(16))
        try:
            proof = cloud.prove_encryption(
                self.params, self.enclave, self.manifest, self.blocks,
                self.cts, self.tags, ch, self.rng.child("prove"))
        except EnclaveDestroyed:
            self.transcript.emit(self.clock.now, "verify_encryption",
                                 challenge=json.loads(ch.canonical_json()),
                                 verdict="enclave-destroyed")
            self.transcript.verdicts["verify"] = "enclave-destroyed"
            return
        ok = owner.verify_encryption_proof(
            self.params, self.manifest, self.gens.u, self.okeys.W,
            self.skeys.A, self.cts.v_pub, ch, proof)
        verdict = "accept" if ok else "reject"
        self.transcript.verdicts["verify"] = verdict
        self.transcript.emit(self.clock.now, "verify_encryption",
                             challenge=json.loads(ch.canonical_json()),
                             proof=json.loads(wire.encode_proof(self.params, proof)),
                             verdict=verdict)

    def _do_decrypt_roundtrip(self, step):
        try:
            back = cloud.decrypt_file(self.params, self.enclave, self.cts)
            verdict = "match" if codec.join(self.manifest, back) == self.data else "mismatch"
        except EnclaveDestroyed:
            verdict = "enclave-destroyed"
        except SevdelError as exc:
            verdict = type(exc).__name__
        self.transcript.verdicts["roundtrip"] = verdict
        self.transcript.emit(self.clock.now, "decrypt_roundtrip", verdict=verdict)

    def _do_leak(self, step):
        self.leaked = self.cts
        self.transcript.emit(self.clock.now, "leak", note="owner obtained ciphertexts")

    def _do_audit(self, step):
        ch = owner.gen_challenge(
            self.manifest, min(self.sc.challenge_count, self.manifest.n),
            self.rng.child("audit-challenge").read(16))
        try:
            resp = owner.audit_respond(
                self.params, self.manifest, self.leaked, self.enc_tags, ch)
        except MissingBlock:
            self.transcript.verdicts["audit"] = "missing-block"
            self.transcript.emit(self.clock.now, "audit",
                                 challenge=json.loads(ch.canonical_json()),
                                 verdict="missing-block")
            return
        ok = self.contract.audit_verify(self.n_ref, OWNER, ch, resp)
        verdict = "accept" if ok else "reject"
        self.transcript.verdicts["audit"] = verdict
        self.transcript.emit(self.clock.now, "audit",
                             challenge=json.loads(ch.canonical_json()),
                             response=json.loads(wire.encode_audit_response(resp)),
                             verdict=verdict)

    def _do_delete(self, step):
        payload, sig = owner.sign_delete_request(
            self.params, self.okeys, self.manifest.file_id, self.clock.now)
        if not owner.verify_delete_request(self.params, self.okeys.W, payload, sig):
            raise ScenarioError("deletion request signature invalid")
        receipt = cloud.delete_file(self.registry, self.manifest.file_id)
        self.transcript.verdicts["delete"] = "ok"
        self.transcript.emit(self.clock.now, "delete",
                             request=json.loads(payload.decode()),
                             signature=sig.hex(),
                             receipt=json.loads(receipt.to_json()),
                             zeroized=self.enclave.verify_zeroized())
        if self.fault("double-delete"):
            try:
                cloud.delete_file(self.registry, self.manifest.file_id)
                self.transcript.verdicts["double_delete"] = "unexpected-success"
            except UnknownFile:
                self.transcript.verdicts["double_delete"] = "unknown-file"
            self.transcript.emit(self.clock.now, "delete",
                                 repeat=True,
                                 verdict=self.transcript.verdicts["double_delete"])

    def _do_refund(self, step):
        self.contract.refund(self.n_ref)
        self.transcript.emit(self.clock.now, "refund", n=self.n_ref)

    def _do_penalty(self, step):
        shares = self.contract.penalty(self.n_ref)
        self.transcript.verdicts["penalty_shares"] = shares
        self.transcript.emit(self.clock.now, "penalty", n=self.n_ref, shares=shares)

    def _do_timer(self, step):
        self.contract.timer(self.n_ref)
        self.transcript.emit(self.clock.now, "timer", n=self.n_ref)

    # -- wrap-up -----------------------------------------------------------

    def _append_contract_log(self):
        for entry in self.contract.log:
            payload = {k: v for k, v in entry.items() if k not in ("time", "seq")}
            self.transcript.emit(entry["time"], "contract",
                                 contract_seq=entry["seq"], **payload)
        self.transcript.emit(self.clock.now, "ledger",
                             balances=self.ledger.snapshot(),
                             total_funds=self.contract.total_funds())

    def _check_expectations(self):
        tr = self.transcript
        for key, want in self.sc.expect.items():
            if key == "final_state":
                got = self.contract.records[self.n_ref].state if \
                    self.n_ref in self.contract.records else "INIT"
            elif key == "balances":
                got = {acct: self.ledger.balance(acct) for acct in want}
            else:
                got = tr.verdicts.get(key)
            if got != want:
                tr.failures.append(f"expected {key}={want!r}, got {got!r}")
        tr.emit(self.clock.now, "result", ok=tr.ok, failures=tr.failures,
                verdicts={k: v for k, v in sorted(tr.verdicts.items())})


def run_scenario(scenario: Scenario) -> Transcript:
    scenario.validate()
    return _Runner(scenario).run()


# -- benchmarking -------------------------------------------------------------

BENCH_PHASES = ("tagging", "encryption", "ciphertext_tagging", "ciphertext_decode",
                "decryption", "proof_gen", "proof_verify", "audit_respond", "audit_verify")


def _quantile(values: list[float], q: float) -> float:
    vs = sorted(values)
    idx = min(int(round(q * (len(vs) - 1))), len(vs) - 1)
    return vs[idx]


def bench(
    sizes: list[int],
    reps: int = 3,
    group: str = "toy",
    s: int = 8,
    sector_bits: int = 16,
    challenge_count: int = 4,
    seed: int = 1,
) -> list[dict]:
    """Measure wall time per protocol phase for each file size.

    Returns rows {size_bytes, phase, median_s, p95_s}; two extra rows per
    size report the serialized proof and audit response sizes in bytes.
    ciphertext_decode is wire.decode_ciphertexts of the encoded matrix.
    Raises InvariantViolation when a decode, decryption, proof or audit it
    times comes out wrong (a decoded matrix must re-encode to its bytes),
    so no rejecting or broken path is ever reported as a time.  Raises
    ScenarioError for reps < 1 or no sizes, either of which would time
    nothing.
    """
    if reps < 1:
        raise ScenarioError(f"reps must be >= 1, got {reps}")
    if not sizes:
        raise ScenarioError("sizes must name at least one file size")
    rows: list[dict] = []
    for size in sizes:
        params = setup(group, sector_bits)
        rng = SeededRng(seed).child(f"bench-{size}")
        data = rng.child("file").read(size)
        manifest, blocks = codec.split(data, s, sector_bits)
        okeys = owner.keygen(params, rng.child("ok"))
        skeys = cloud.server_keygen(params, rng.child("sk"))
        ch = owner.gen_challenge(manifest, min(challenge_count, manifest.n), seed)
        cloud._dlog_table(params.group, sector_bits)   # built once, outside the timing
        times: dict[str, list[float]] = {ph: [] for ph in BENCH_PHASES}
        proof_bytes = response_bytes = 0
        v_gens = vgen_points(params, manifest.file_id, manifest.s)
        for rep in range(reps):
            registry = EnclaveRegistry()
            t0 = _time.perf_counter()
            gens, tags = owner.outsource(params, okeys, manifest, blocks,
                                         rng.child(f"t{rep}"))
            times["tagging"].append(_time.perf_counter() - t0)

            enclave = registry.create(manifest.file_id)
            t0 = _time.perf_counter()
            cts, v_pub = cloud.encrypt_file(params, enclave, manifest, blocks,
                                            rng.child(f"e{rep}"))
            times["encryption"].append(_time.perf_counter() - t0)

            t0 = _time.perf_counter()
            enc_tags = cloud.gen_enc_tags(params, skeys, manifest, cts,
                                          gens.u, v_gens)
            times["ciphertext_tagging"].append(_time.perf_counter() - t0)

            blob = wire.encode_ciphertexts(params, cts)
            t0 = _time.perf_counter()
            decoded = wire.decode_ciphertexts(params, blob)
            times["ciphertext_decode"].append(_time.perf_counter() - t0)
            if wire.encode_ciphertexts(params, decoded) != blob:
                raise InvariantViolation("bench run decoded a ciphertext matrix wrongly")

            t0 = _time.perf_counter()
            back = codec.join(manifest, cloud.decrypt_file(params, enclave, cts))
            times["decryption"].append(_time.perf_counter() - t0)
            if back != data:
                raise InvariantViolation("bench run decrypted a file wrongly")

            t0 = _time.perf_counter()
            proof = cloud.prove_encryption(params, enclave, manifest, blocks,
                                           cts, tags, ch, rng.child(f"p{rep}"))
            times["proof_gen"].append(_time.perf_counter() - t0)

            t0 = _time.perf_counter()
            ok = owner.verify_encryption_proof(params, manifest, gens.u, okeys.W,
                                               skeys.A, v_pub, ch, proof)
            times["proof_verify"].append(_time.perf_counter() - t0)
            if not ok:
                raise InvariantViolation("bench run produced a rejected proof")
            proof_bytes = len(wire.encode_proof(params, proof))

            t0 = _time.perf_counter()
            resp = owner.audit_respond(params, manifest, cts, enc_tags, ch)
            times["audit_respond"].append(_time.perf_counter() - t0)
            t0 = _time.perf_counter()
            ok = verify_audit_response(params, manifest.file_id, gens.u, v_gens, skeys.A,
                                       enc_tags.sigma, ch, resp)
            times["audit_verify"].append(_time.perf_counter() - t0)
            if not ok:
                raise InvariantViolation("bench run produced a rejected audit")
            response_bytes = len(wire.encode_audit_response(resp))
        for phase in BENCH_PHASES:
            rows.append({
                "size_bytes": size,
                "phase": phase,
                "median_s": round(_quantile(times[phase], 0.5), 6),
                "p95_s": round(_quantile(times[phase], 0.95), 6),
            })
        for phase, nbytes in (("proof_size_bytes", proof_bytes),
                              ("audit_response_size_bytes", response_bytes)):
            rows.append({"size_bytes": size, "phase": phase,
                         "median_s": nbytes, "p95_s": nbytes})
    return rows


def bench_csv(rows: list[dict]) -> str:
    out = ["size_bytes,phase,median_s,p95_s"]
    for r in rows:
        out.append(f'{r["size_bytes"]},{r["phase"]},{r["median_s"]},{r["p95_s"]}')
    return "\n".join(out) + "\n"


def _deep_size(table: dict) -> int:
    """sys.getsizeof of a dict plus that of each of its keys and values."""
    return (sys.getsizeof(table) + sum(map(sys.getsizeof, table))
            + sum(map(sys.getsizeof, table.values())))


def bench_layers(group: str = "toy", seed: int = 1) -> dict:
    """Median ms over 15 calls of the primitives under the phases, each
    through the backend: a full-width g1_mul of a hashed point (variable
    base), one of the generator (fixed-base table), g1_from_bytes,
    g1_row_from_bytes of a one-component row (on bn254 the Jacobi check
    that a decoded E'' component pays instead), g1_hash of a fresh
    message, and a pairing of a hashed point with g2 (whose Miller lines
    are cached after the first call, as for every pairing in the
    protocol); and, per component, the median of 15 calls of
    g1_row_decode of a 64-component row (the E' row decoder) and of
    g1_row_encodings of the row it decodes; and, per row, the median of 3
    calls of g1_msm_rows over 16 shared hashed points and 32 rows of full-width
    scalars, the shape of ciphertext tagging at s = 8; and, per point, the
    median of 3 calls of g1_gen_add on 512 identity starts with full-width
    scalars, the shape of an encryption or decryption chunk; and the
    median of 3 uncached builds of the bounded dlog's 16-bit baby-step
    table, the bulk of a bn254 set-up, and in MiB the deep size of one
    more: the table's own size plus that of its keys and values; and the
    median of 512 16-bit bounded dlogs, each _dlog of a one-point list
    lifted as decryption lifts it, with the table prebuilt."""
    calls = 15
    params = setup(group, 16)
    backend = params.group
    rng = SeededRng(seed).child("bench-layers")
    points = [params.hash_to_g1(DOMAIN_BLOCK, b"bench-%d" % k).raw for k in range(calls)]
    scalars = rng.scalars(calls, params.order)
    shared = [params.hash_to_g1(DOMAIN_VGEN, b"bench-%d" % j).raw for j in range(16)]
    batches = [[((), rng.scalars(16, params.order)) for _ in range(32)] for _ in range(3)]
    walks = [rng.scalars(512, params.order) for _ in range(3)]
    identities = [backend.g1_identity()] * 512
    table = cloud._dlog_table(backend, 16)
    half = 1 << (table[1] - 1)
    lifted = backend.g1_gen_add(identities, [m - half for m in rng.scalars(512, 1 << 16)])
    encodings = [backend.g1_to_bytes(pt) for pt in points]
    row_blob = b"".join(params.hash_to_g1(DOMAIN_VGEN, b"bench-row-%d" % k).to_bytes()
                        for k in range(64))
    row = backend.g1_row_decode(row_blob)
    g1, g2 = params.g1.raw, params.g2.raw

    def median_ms(fn, args):
        times = []
        for arg in args:
            t0 = _time.perf_counter()
            fn(*arg)
            times.append(_time.perf_counter() - t0)
        return round(_quantile(times, 0.5) * 1e3, 6)

    return {
        "g1_mul_variable_base_ms": median_ms(backend.g1_pow, zip(points, scalars)),
        "g1_mul_generator_ms": median_ms(backend.g1_pow, ((g1, k) for k in scalars)),
        "g1_from_bytes_ms": median_ms(backend.g1_from_bytes, ((e,) for e in encodings)),
        "g1_row_from_bytes_ms": median_ms(backend.g1_row_from_bytes, ((e,) for e in encodings)),
        "g1_row_decode_ms": round(
            median_ms(backend.g1_row_decode, [(row_blob,)] * calls) / 64, 6),
        "g1_row_encodings_ms": round(
            median_ms(backend.g1_row_encodings, [(row,)] * calls) / 64, 6),
        "g1_hash_ms": median_ms(backend.g1_hash, ((b"bench-hash-%d" % k,) for k in range(calls))),
        "pairing_ms": median_ms(backend.pair, ((pt, g2) for pt in points)),
        "g1_msm_rows_ms": round(
            median_ms(backend.g1_msm_rows, ((shared, rows) for rows in batches)) / 32, 6),
        "g1_gen_add_ms": round(
            median_ms(backend.g1_gen_add, ((identities, ks) for ks in walks)) / 512, 6),
        "dlog_table_ms": median_ms(backend.g1_dlog_table,
                                   [(cloud._BSGS_BABY_MAX_BITS,)] * 3),
        "dlog_table_mib": round(_deep_size(
            backend.g1_dlog_table(cloud._BSGS_BABY_MAX_BITS)) / 2**20, 6),
        "dlog_lookup_ms": median_ms(cloud._dlog, ((backend, table, [pt], 16) for pt in lifted)),
    }


def bench_report(rows: list[dict], layers: dict, config: dict) -> dict:
    """The machine-readable bench record: host, run settings, phase rows
    (as in the CSV) and per-primitive layer times."""
    return {
        "env": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "config": config,
        "phases": rows,
        "layers": layers,
    }
