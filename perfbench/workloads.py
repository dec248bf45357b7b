"""The three benchmark workloads and their correctness gate.

Each workload drives the public sevdel API from one thread as a closed
loop with one client: an op starts only after the previous one returned.
An op is a file lifecycle step, a verification or audit round, or a tamper
probe.  Every check raises explicitly (never ``assert``), so the gate
holds under ``python -O``.

* ``store-bn254``    -- 512 B files on bn254 through the whole lifecycle.
* ``challenge-bn254`` -- one stored file; alternating encryption-verification
  and leak-audit rounds, with tamper probes on a fixed schedule.
* ``roundtrip-toy``  -- the store lifecycle on the toy group, file sizes
  log-uniform over [1 B, 1 MiB]; measures protocol overhead.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from contextlib import nullcontext

from sevdel import cloud, codec, owner, wire
from sevdel.contract import Contract, Ledger, LogicalClock
from sevdel.enclave import EnclaveRegistry
from sevdel.errors import EnclaveDestroyed, SevdelError
from sevdel.groups import setup as group_setup, vgen_points
from sevdel.rng import SeededRng

SECTOR_BITS = 16
CHALLENGE_COUNT = 4            # c; rounds on files of fewer blocks are not timed
DEPOSIT = 1_000_000
STAKE = 1_000
PROVIDER = "provider"
OWNER_ACCOUNTS = 1024          # challenge-bn254: one fresh account per audit
# challenge-bn254's loop; the retrieve ops give its retrieve metric samples
PROBE_SCHEDULE = ("verify", "audit", "verify", "audit", "probe_proof", "retrieve",
                  "verify", "audit", "verify", "audit", "probe_audit", "retrieve")
MAX_FILE_BYTES = 1 << 20
SIZE_STRATA = 8


class Mismatch(Exception):
    """An output of the program is wrong."""


class StepFailed(Exception):
    """A step failed and was counted; the rest of its file is abandoned."""


class Recorder:
    """Op counts, failures and the timings the end-to-end metrics use.

    Times are seconds at the reference host speed (see ``hostclock``).
    """

    def __init__(self, host):
        self.host = host
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.ingest: list[tuple[int, float]] = []     # (sectors, seconds)
        self.retrieve: list[tuple[int, float]] = []
        self.verify_s: list[float] = []
        self.audit_s: list[float] = []
        self.ops_by_kind: dict[str, int] = {}
        self.sectors = 0
        self.busy_s = 0.0

    def step(self, kind: str, fn):
        """Run one op; a rejection, a wrong output or a broken invariant fails it."""
        self.attempted += 1
        self.ops_by_kind[kind] = self.ops_by_kind.get(kind, 0) + 1

        def run():
            with self.tracer.op(kind) if self.tracer is not None else nullcontext():
                return fn()

        try:
            out, dt = self.host.measure(run)
            self.busy_s += dt
            return out, dt
        # AssertionError: a broken invariant the program checks itself
        except (SevdelError, Mismatch, AssertionError) as exc:
            self.failed += 1
            self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            raise StepFailed(kind) from exc


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


@dataclasses.dataclass
class StoredFile:
    data: bytes
    manifest: object
    blocks: object          # the cloud's copy, decoded from the wire
    gens: object
    tags: object
    enclave: object
    cts: object
    enc_tags: object
    n_ref: str
    stored_cts: bytes = b""
    leaked: object = None   # the owner's copy of the ciphertexts


class Workload:
    """Shared parties and the per-file lifecycle steps."""

    name = ""
    group = ""
    s = 8

    def __init__(self, seed: int, host):
        self.rec = Recorder(host)
        # protocol randomness: sevdel's own seeded rng, handed to its calls
        self.root = SeededRng(("perfbench", self.name, seed))
        self._input_key = f"perfbench/{self.name}/{seed}/".encode()
        self.refs = 0

    # -- set-up ------------------------------------------------------------------

    def setup(self) -> None:
        self.params = group_setup(self.group, SECTOR_BITS)
        self.okeys = owner.keygen(self.params, self.root.child("owner-keys"))
        self.skeys = cloud.server_keygen(self.params, self.root.child("server-keys"))
        self.registry = EnclaveRegistry()
        self.clock = LogicalClock()
        self.ledger = Ledger({PROVIDER: 10 ** 15, **self.owner_balances()})
        self.contract = Contract(self.params, self.ledger, self.clock)
        self.funds0 = self.contract.total_funds()
        self._warm_up()

    def owner_balances(self) -> dict[str, int]:
        return {self.account(0): 10 ** 12}

    @staticmethod
    def account(k: int) -> str:
        return f"owner-{k:04d}"

    def _warm_up(self) -> None:
        """Decrypt one sector so the bounded-dlog table is built in set-up."""
        manifest, blocks = codec.split(b"\x01\x02", 1, SECTOR_BITS, file_name=b"warm-up")
        enc = self.registry.create(manifest.file_id)
        cts, _ = cloud.encrypt_file(self.params, enc, manifest, blocks, self.root.child("warm-up"))
        expect(cloud.decrypt_file(self.params, enc, cts).rows == blocks.rows,
               "warm-up decryption wrong")
        cloud.delete_file(self.registry, manifest.file_id)

    def finish(self) -> None:
        """Ops that close a run after its loop."""

    def input_bytes(self, label: str, n: int) -> bytes:
        """Benchmark inputs from the seed, drawn without calling sevdel."""
        return hashlib.shake_256(self._input_key + label.encode()).digest(n)

    def input_fraction(self, label: str) -> float:
        return int.from_bytes(self.input_bytes(label, 8), "big") / 2 ** 64

    # -- lifecycle steps ---------------------------------------------------------

    def new_ref(self) -> str:
        self.refs += 1
        return f"rec-{self.refs:06d}"

    def ingest(self, data: bytes, label: str, owner_acct: str) -> StoredFile:
        """Plaintext bytes to ciphertext tags registered with the contract."""
        params, rng = self.params, self.root.child("ingest-" + label)

        def run():
            manifest, blocks = codec.split(data, self.s, SECTOR_BITS,
                                           owner_id=owner_acct.encode(), file_name=label.encode())
            gens, tags = owner.outsource(params, self.okeys, manifest, blocks, rng.child("tags"))
            cloud_blocks = wire.decode_blocks(wire.encode_blocks(manifest, blocks))
            enc = self.registry.create(manifest.file_id)
            cts, _ = cloud.encrypt_file(params, enc, manifest, cloud_blocks, rng.child("enc"))
            v_gens = vgen_points(params, manifest.file_id, manifest.s)
            enc_tags = cloud.gen_enc_tags(params, self.skeys, manifest, cts, gens.u, v_gens)
            n_ref = self.new_ref()
            now = self.clock.now
            self.contract.service(PROVIDER, n_ref, self.skeys.A.to_bytes(), DEPOSIT,
                                  now, now + 1, now + 2, now + 3)
            self.contract.agree(owner_acct, n_ref, STAKE)
            self.contract.register_tags(n_ref, manifest.file_id,
                                        [t.to_bytes() for t in enc_tags.sigma],
                                        [u.to_bytes() for u in gens.u])
            f = StoredFile(data, manifest, cloud_blocks, gens, tags, enc, cts, enc_tags, n_ref)
            f.stored_cts = wire.encode_ciphertexts(params, cts)
            return f

        f, dt = self.rec.step("ingest", run)
        self.rec.ingest.append((f.manifest.n * f.manifest.s, dt))
        self.rec.sectors += f.manifest.n * f.manifest.s
        return f

    def retrieve(self, f: StoredFile) -> None:
        """Stored ciphertexts back to the original bytes, checked bit-exact."""
        def run():
            cts = wire.decode_ciphertexts(self.params, f.stored_cts)
            blocks = cloud.decrypt_file(self.params, f.enclave, cts)
            expect(codec.join(f.manifest, blocks) == f.data, "round-trip not bit-exact")
            return cts

        f.leaked, dt = self.rec.step("retrieve", run)
        self.rec.retrieve.append((f.manifest.n * f.manifest.s, dt))

    def challenge(self, f: StoredFile, label: str):
        count = min(CHALLENGE_COUNT, f.manifest.n)
        return owner.gen_challenge(f.manifest, count, self.input_bytes("challenge-" + label, 16))

    def honest_proof(self, f: StoredFile, label: str):
        ch = self.challenge(f, label)
        proof = cloud.prove_encryption(self.params, f.enclave, f.manifest, f.blocks, f.cts,
                                       f.tags, ch, self.root.child("prove-" + label))
        return ch, proof

    def check_proof(self, f: StoredFile, ch, proof) -> bool:
        received = wire.decode_proof(self.params, wire.encode_proof(self.params, proof))
        return owner.verify_encryption_proof(self.params, f.manifest, f.gens.u, self.okeys.W,
                                             self.skeys.A, f.cts.v_pub, ch, received)

    def verify_round(self, f: StoredFile, label: str) -> None:
        """Encryption verification: challenge to verdict; must accept."""
        def run():
            ch, proof = self.honest_proof(f, label)
            expect(self.check_proof(f, ch, proof), "honest encryption proof rejected")

        _, dt = self.rec.step("verify", run)
        if f.manifest.n >= CHALLENGE_COUNT:
            self.rec.verify_s.append(dt)

    def audit_response(self, f: StoredFile, label: str):
        ch = self.challenge(f, "audit-" + label)
        resp = owner.audit_respond(self.params, f.manifest, f.leaked, f.enc_tags, ch)
        return ch, resp

    def submit_audit(self, f: StoredFile, acct: str, ch, resp) -> bool:
        received = wire.decode_audit_response(self.params, wire.encode_audit_response(resp))
        return self.contract.audit_verify(f.n_ref, acct, ch, received)

    def audit_round(self, f: StoredFile, acct: str, label: str) -> None:
        """Leak audit: audit_respond to Contract.audit_verify; must accept."""
        def run():
            ch, resp = self.audit_response(f, label)
            expect(self.submit_audit(f, acct, ch, resp), "honest audit response rejected")

        _, dt = self.rec.step("audit", run)
        if f.manifest.n >= CHALLENGE_COUNT:
            self.rec.audit_s.append(dt)

    def claim(self, f: StoredFile) -> None:
        def run():
            self.clock.advance_to(self.contract.records[f.n_ref].t2)
            self.contract.claim(f.n_ref)

        self.rec.step("claim", run)

    def settle(self, f: StoredFile) -> None:
        """Penalty: shares plus the provider's remainder equal the deposit."""
        def run():
            rec = self.contract.records[f.n_ref]
            self.clock.advance_to(rec.t3)
            before = self.ledger.balance(PROVIDER)
            shares = self.contract.penalty(f.n_ref)
            returned = self.ledger.balance(PROVIDER) - before
            expect(sum(shares.values()) + returned == DEPOSIT,
                   f"penalty shares {sum(shares.values())} + remainder {returned} != deposit")
            expect(0 <= returned < max(len(shares), 1), "penalty remainder exceeds rounding")
            expect(sorted(shares) == sorted(rec.audited), "penalty paid to a non-auditor")
            expect(rec.escrow == 0, "escrow not emptied by penalty")
            expect(self.contract.total_funds() == self.funds0, "currency not conserved")
            expect(self.ledger.total() == self.funds0, "ledger total changed")

        self.rec.step("settle", run)

    def delete(self, f: StoredFile, label: str) -> None:
        """Owner-signed deletion; afterwards the file's secrets are gone."""
        def run():
            payload, sig = owner.sign_delete_request(self.params, self.okeys,
                                                     f.manifest.file_id, self.clock.now)
            expect(owner.verify_delete_request(self.params, self.okeys.W, payload, sig),
                   "owner deletion request rejected")
            cloud.delete_file(self.registry, f.manifest.file_id)
            try:
                cloud.decrypt_file(self.params, f.enclave, f.cts)
            except EnclaveDestroyed:
                pass
            else:
                raise Mismatch("decrypt_file succeeded after deletion")
            try:
                self.honest_proof(f, "after-delete-" + label)
            except EnclaveDestroyed:
                pass
            else:
                raise Mismatch("prove_encryption succeeded after deletion")
            expect(f.enclave.verify_zeroized(), "enclave buffers not zeroized")

        self.rec.step("delete", run)


class FileWorkload(Workload):
    """Files through the full lifecycle, one after another."""

    op_unit = "sectors"
    per_op_kinds = None          # every op kind counts toward the per-sector metrics

    def file_data(self, index: int) -> bytes:
        raise NotImplementedError

    def lifecycle(self, index: int) -> None:
        label = f"{index}"
        try:
            f = self.ingest(self.file_data(index), label, self.account(0))
            self.retrieve(f)
            self.verify_round(f, label)
            self.claim(f)
            self.audit_round(f, self.account(0), label)
            self.settle(f)
            self.delete(f, label)
        except StepFailed:
            pass

    def units(self):
        index = 0
        while True:
            yield lambda i=index: self.lifecycle(i)
            index += 1

    def trace_units(self):
        """A fixed op list, so that traced counts do not depend on speed."""
        return [lambda i=i: self.lifecycle(i) for i in range(self.trace_files)]

    def trace_ops(self) -> float:
        return self.rec.sectors


class StoreBn254(FileWorkload):
    name = "store-bn254"
    group = "bn254"
    s = 8
    trace_files = 1
    min_units = 1

    def file_data(self, index: int) -> bytes:
        return self.input_bytes(f"file-{index}", 512)


class RoundtripToy(FileWorkload):
    name = "roundtrip-toy"
    group = "toy"
    s = 64
    trace_files = 4
    min_units = 1 + 2 * SIZE_STRATA  # every run covers every size stratum twice

    def file_size(self, index: int) -> int:
        """Log-uniform over [1, 1 MiB], stratified: after a first file of the
        largest size, so that every run reaches the same peak memory, each
        run of SIZE_STRATA files takes one size from each equal slice of
        the log range, in a seeded order.  Runs on different seeds thus see
        the same spread of sizes."""
        if index == 0:
            return MAX_FILE_BYTES
        turn, pos = divmod(index - 1, SIZE_STRATA)
        order = sorted(range(SIZE_STRATA), key=lambda k: self.input_bytes(f"strata-{turn}-{k}", 8))
        u = (order[pos] + self.input_fraction(f"size-{index}")) / SIZE_STRATA
        return max(1, min(MAX_FILE_BYTES, int(math.exp(u * math.log(MAX_FILE_BYTES + 1)))))

    def file_data(self, index: int) -> bytes:
        return self.input_bytes(f"file-{index}", self.file_size(index))


class ChallengeBn254(Workload):
    name = "challenge-bn254"
    group = "bn254"
    s = 8
    op_unit = "rounds"
    per_op_kinds = ("verify", "audit")
    min_units = len(PROBE_SCHEDULE)  # every run makes both tamper probes

    def owner_balances(self) -> dict[str, int]:
        return {self.account(k): STAKE for k in range(OWNER_ACCOUNTS)}

    def setup(self) -> None:
        super().setup()
        f = self.ingest(self.input_bytes("file", 512), "file", self.account(0))
        self.retrieve(f)
        for k in range(1, OWNER_ACCOUNTS):
            self.contract.agree(self.account(k), f.n_ref, STAKE)
        self.claim(f)
        self.file = f
        self.next_account = 0

    def take_account(self) -> str:
        acct = self.account(self.next_account)
        self.next_account += 1
        return acct

    def round(self, kind: str, index: int) -> None:
        f = self.file
        label = f"{index}"
        try:
            if kind == "verify":
                self.verify_round(f, label)
            elif kind == "audit":
                self.audit_round(f, self.take_account(), label)
            elif kind == "probe_proof":
                self.probe_proof(f, label)
            elif kind == "probe_audit":
                self.probe_audit(f, self.take_account(), label)
            else:
                self.retrieve(f)
        except StepFailed:
            pass

    def probe_proof(self, f: StoredFile, label: str) -> None:
        """A proof with one aggregate q_j changed must be rejected."""
        def run():
            ch, proof = self.honest_proof(f, label)
            q = list(proof.q)
            q[0] = (q[0] + 1) % self.params.order
            forged = dataclasses.replace(proof, q=tuple(q))
            expect(not self.check_proof(f, ch, forged), "tampered proof accepted")

        self.rec.step("probe_proof", run)

    def probe_audit(self, f: StoredFile, acct: str, label: str) -> None:
        """An audit response with one revealed component swapped must be rejected."""
        def run():
            ch, resp = self.audit_response(f, label)
            i = ch.items[0][0]
            row = list(resp.revealed_prime[i])
            row[0], row[1] = row[1], row[0]
            forged = dataclasses.replace(resp, revealed_prime={**resp.revealed_prime,
                                                               i: tuple(row)})
            expect(not self.submit_audit(f, acct, ch, forged), "tampered audit accepted")

        self.rec.step("probe_audit", run)

    def units(self):
        k = 0
        # every audit and audit probe needs an account that has not audited
        while self.next_account < OWNER_ACCOUNTS:
            kind = PROBE_SCHEDULE[k % len(PROBE_SCHEDULE)]
            yield lambda kind=kind, k=k: self.round(kind, k)
            k += 1

    def trace_units(self):
        """One turn of the probe schedule, so traced counts do not depend on speed."""
        return [lambda kind=kind, k=k: self.round(kind, k)
                for k, kind in enumerate(PROBE_SCHEDULE)]

    def trace_ops(self) -> float:
        return self.rec.ops_by_kind.get("verify", 0) + self.rec.ops_by_kind.get("audit", 0)

    def finish(self) -> None:
        self.settle(self.file)


WORKLOADS = {cls.name: cls for cls in (StoreBn254, ChallengeBn254, RoundtripToy)}
