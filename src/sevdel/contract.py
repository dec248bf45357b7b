"""Deterministic in-process simulation of the storage-insurance contract.

One contract instance manages per-file service records.  The provider
escrows a deposit; owners stake acceptance; the provider registers the
ciphertext tags; within the audit window an owner who can aggregate the
*leaked* ciphertext blocks named by a fresh challenge gets her stake back
and marks the record for penalty.  After the audit window the record is
settled exactly once: refund (no accepted audit) or penalty (deposit
split pro-rata over successful auditors, remainder back to the provider).

Time is a logical integer clock advanced explicitly by the harness, and
every transition appends one line to an in-memory JSON log, so runs
replay bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field

from .errors import (
    DeadlinePassed,
    DuplicateOwner,
    DuplicateTags,
    InsufficientBalance,
    InvariantViolation,
    MalformedProof,
    UnknownOwner,
    WrongState,
    WrongWindow,
)
from .groups import (
    G2Elem,
    SystemParams,
    block_point,
    elem_to_scalar,
    pairing,
    vgen_points,
)
from .owner import AuditResponse, Challenge

STATE_INIT = "INIT"
STATE_CREATED = "CREATED"
STATE_ACCEPTED = "ACCEPTED"
STATE_CLAIMED = "CLAIMED"
STATE_UPLOADED = "UPLOADED"
STATE_FULFILLED = "FULFILLED"
STATE_UNFULFILLED = "UNFULFILLED"
STATE_FINISHED = "FINISHED"
STATE_ABORTED = "ABORTED"


class LogicalClock:
    """Monotone integer simulation time."""

    def __init__(self, start: int = 0):
        self._now = start

    @property
    def now(self) -> int:
        return self._now

    def advance(self, dt: int = 1) -> int:
        if dt < 0:
            raise ValueError("clock cannot run backwards")
        self._now += dt
        return self._now

    def advance_to(self, t: int) -> int:
        if t < self._now:
            raise ValueError(f"clock cannot move back from {self._now} to {t}")
        self._now = t
        return self._now


class Ledger:
    """Account balances in integer currency units; never negative."""

    def __init__(self, balances: dict[str, int] | None = None):
        self._balances: dict[str, int] = dict(balances or {})
        for acct, bal in self._balances.items():
            if bal < 0:
                raise ValueError(f"negative opening balance for {acct}")

    def balance(self, acct: str) -> int:
        return self._balances.get(acct, 0)

    def credit(self, acct: str, amount: int) -> None:
        if amount < 0:
            raise ValueError("negative credit")
        self._balances[acct] = self.balance(acct) + amount

    def debit(self, acct: str, amount: int) -> None:
        if amount < 0:
            raise ValueError("negative debit")
        if self.balance(acct) < amount:
            raise InsufficientBalance(f"{acct} holds {self.balance(acct)} < {amount}")
        self._balances[acct] -= amount

    def total(self) -> int:
        return sum(self._balances.values())

    def snapshot(self) -> dict[str, int]:
        return dict(self._balances)


@dataclass
class ContractRecord:
    n_ref: str
    provider: str
    provider_pub: bytes               # serialized A
    deposit: int
    t1: int
    t2: int
    t3: int
    t4: int
    state: str = STATE_CREATED
    accept_count: int = 0
    owners: dict[str, int] = field(default_factory=dict)          # owner -> stake
    owner_states: dict[str, str] = field(default_factory=dict)
    audited: list[str] = field(default_factory=list)              # RU_N, accept order
    file_id: bytes | None = None
    sigma_bytes: tuple[bytes, ...] | None = None
    u_bytes: tuple[bytes, ...] | None = None
    escrow: int = 0


def verify_audit_response(
    params: SystemParams,
    file_id: bytes,
    u: tuple,
    A: G2Elem,
    sigma: tuple,
    challenge: Challenge,
    response: AuditResponse,
) -> bool:
    """Node-side audit check over owner-revealed ciphertext components.

    Rejects unless (1) the Q1 aggregates match the revealed components,
    (2) Q2 matches the registered tags, and (3) the pairing equation
    e(Q2, g2) = e(prod_i base_i^g_i, A) holds for bases recomputed from
    the revealed components.  Only a holder of the true ciphertext blocks
    can satisfy (3), because the registered tags bind those components.
    """
    s = len(u)
    if len(response.q1_prime) != s or len(response.q1_dprime) != s:
        raise MalformedProof("audit aggregate arity mismatch")
    v_gens = vgen_points(params, file_id, s)
    rows_p, rows_pp = [], []
    for i, _ in challenge.items:
        row_p = response.revealed_prime.get(i)
        row_pp = response.revealed_dprime.get(i)
        if row_p is None or row_pp is None or len(row_p) != s or len(row_pp) != s:
            raise MalformedProof(f"revealed components missing for block {i}")
        rows_p.append(row_p)
        rows_pp.append(row_pp)
    gammas = [gamma for _, gamma in challenge.items]
    msm = params.g1_msm
    q1p = [msm([row[j] for row in rows_p], gammas) for j in range(s)]
    q1pp = [msm([row[j] for row in rows_pp], gammas) for j in range(s)]
    if q1p != list(response.q1_prime) or q1pp != list(response.q1_dprime):
        return False
    if msm([sigma[i - 1] for i in challenge.indices], gammas) != response.q2:
        return False
    # prod_i (H_i prod_j u_j^h(E'_ij) v_j^h(E''_ij))^gamma_i, with the
    # exponents of each generator summed over the challenged blocks
    e_u = [sum(g * elem_to_scalar(row[j]) for g, row in zip(gammas, rows_p)) for j in range(s)]
    e_v = [sum(g * elem_to_scalar(row[j]) for g, row in zip(gammas, rows_pp)) for j in range(s)]
    blocks = [block_point(params, file_id, i) for i in challenge.indices]
    agg_base = msm([*blocks, *u, *v_gens], [*gammas, *e_u, *e_v])
    return pairing(response.q2, params.g2) == pairing(agg_base, A)


class Contract:
    """Storage-insurance contract handle: single-writer state machine over a ledger."""

    def __init__(self, params: SystemParams, ledger: Ledger, clock: LogicalClock):
        self.params = params
        self.params_digest = params.digest()
        self.ledger = ledger
        self.clock = clock
        self.records: dict[str, ContractRecord] = {}
        self.log: list[dict] = []
        self._seq = 0
        self._lock = threading.Lock()
        self._total0 = ledger.total()

    # -- helpers ---------------------------------------------------------

    def _now(self) -> int:
        return self.clock.now

    def _record(self, n_ref: str) -> ContractRecord:
        rec = self.records.get(n_ref)
        if rec is None:
            raise WrongState(f"no service record for {n_ref}")
        return rec

    def total_funds(self) -> int:
        return self.ledger.total() + sum(r.escrow for r in self.records.values())

    @staticmethod
    def _digest_args(args: dict) -> str:
        def enc(v):
            if isinstance(v, bytes):
                return v.hex()
            if isinstance(v, (list, tuple)):
                return [enc(x) for x in v]
            if isinstance(v, dict):
                return {k: enc(x) for k, x in v.items()}
            return v
        blob = json.dumps(enc(args), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def _log(self, op: str, args: dict, before: str, after: str, delta: dict[str, int]):
        self._seq += 1
        self.log.append({
            "seq": self._seq,
            "time": self._now(),
            "op": op,
            "args_digest": self._digest_args(args),
            "state_before": before,
            "state_after": after,
            "ledger_delta": {k: v for k, v in sorted(delta.items()) if v},
        })
        if self.total_funds() != self._total0:
            raise InvariantViolation("currency conservation violated")

    def dump_log(self, fp) -> None:
        for entry in self.log:
            fp.write(json.dumps(entry, sort_keys=True) + "\n")

    # -- transitions -------------------------------------------------------

    def service(
        self,
        provider: str,
        n_ref: str,
        provider_pub: bytes,
        deposit: int,
        t1: int, t2: int, t3: int, t4: int,
    ) -> None:
        with self._lock:
            if n_ref in self.records:
                raise WrongState(f"record {n_ref} already created")
            if not t1 < t2 < t3 < t4:
                raise WrongWindow("deadlines must satisfy T1 < T2 < T3 < T4")
            if self._now() > t1:
                raise DeadlinePassed(f"service after T1={t1}")
            if deposit <= 0:
                raise InsufficientBalance("deposit must be positive")
            self.params.g2_from_bytes(provider_pub)  # validate the key now
            self.ledger.debit(provider, deposit)
            rec = ContractRecord(
                n_ref=n_ref, provider=provider, provider_pub=provider_pub,
                deposit=deposit, t1=t1, t2=t2, t3=t3, t4=t4, escrow=deposit,
            )
            self.records[n_ref] = rec
            self._log("service", {"provider": provider, "n": n_ref, "deposit": deposit,
                                  "t": [t1, t2, t3, t4]},
                      STATE_INIT, rec.state, {provider: -deposit, f"escrow:{n_ref}": deposit})

    def agree(self, owner_acct: str, n_ref: str, stake: int) -> None:
        with self._lock:
            rec = self._record(n_ref)
            if rec.state != STATE_CREATED:
                raise WrongState(f"agree in state {rec.state}")
            if not rec.t1 <= self._now() <= rec.t2:
                raise WrongWindow("agree outside [T1, T2]")
            if stake <= 0:
                raise InsufficientBalance("stake must be positive")
            if owner_acct in rec.owners:
                raise DuplicateOwner(f"{owner_acct} already accepted {n_ref}")
            self.ledger.debit(owner_acct, stake)
            rec.owners[owner_acct] = stake
            rec.owner_states[owner_acct] = STATE_ACCEPTED
            rec.accept_count += 1
            rec.escrow += stake
            self._log("agree", {"owner": owner_acct, "n": n_ref, "stake": stake},
                      rec.state, rec.state, {owner_acct: -stake, f"escrow:{n_ref}": stake})

    def register_tags(
        self,
        n_ref: str,
        file_id: bytes,
        sigma_bytes: list[bytes],
        u_bytes: list[bytes],
    ) -> None:
        """Record (I_M, Sigma) plus the owner's sector generators on-chain."""
        with self._lock:
            rec = self._record(n_ref)
            if rec.state != STATE_CREATED:
                raise WrongState(f"register_tags in state {rec.state}")
            if rec.sigma_bytes is not None:
                raise DuplicateTags(f"tags already registered for {n_ref}")
            for blob in sigma_bytes:
                self.params.g1_from_bytes(blob)
            for blob in u_bytes:
                self.params.g1_from_bytes(blob)
            rec.file_id = file_id
            rec.sigma_bytes = tuple(sigma_bytes)
            rec.u_bytes = tuple(u_bytes)
            self._log("register_tags",
                      {"n": n_ref, "file_id": file_id, "sigma": sigma_bytes, "u": u_bytes},
                      rec.state, rec.state, {})

    def registered_tags(self, n_ref: str) -> tuple[bytes, tuple[bytes, ...], tuple[bytes, ...]]:
        rec = self._record(n_ref)
        if rec.sigma_bytes is None:
            raise WrongState(f"no tags registered for {n_ref}")
        return rec.file_id, rec.sigma_bytes, rec.u_bytes

    def claim(self, n_ref: str) -> None:
        with self._lock:
            rec = self._record(n_ref)
            if rec.state != STATE_CREATED:
                raise WrongState(f"claim in state {rec.state}")
            if self._now() != rec.t2:
                raise WrongWindow(f"claim only at T2={rec.t2}")
            if not any(st == STATE_ACCEPTED for st in rec.owner_states.values()):
                raise WrongState("claim requires an accepted owner")
            if rec.sigma_bytes is None:
                raise WrongState("claim requires registered tags (data outsourcing)")
            before = rec.state
            rec.state = STATE_CLAIMED
            self._log("claim", {"n": n_ref}, before, rec.state, {})

    def audit_verify(
        self,
        n_ref: str,
        owner_acct: str,
        challenge: Challenge,
        response: AuditResponse,
    ) -> bool:
        with self._lock:
            rec = self._record(n_ref)
            if rec.state != STATE_CLAIMED:
                raise WrongState(f"audit in state {rec.state}")
            if not rec.t2 <= self._now() <= rec.t3:
                raise WrongWindow("audit outside [T2, T3]")
            if owner_acct not in rec.owners:
                raise UnknownOwner(f"{owner_acct} never accepted {n_ref}")
            if rec.owner_states[owner_acct] == STATE_UPLOADED:
                raise WrongState(f"{owner_acct} already passed an audit")
            A = self.params.g2_from_bytes(rec.provider_pub)
            sigma = tuple(self.params.g1_from_bytes(b) for b in rec.sigma_bytes)
            u = tuple(self.params.g1_from_bytes(b) for b in rec.u_bytes)
            ok = verify_audit_response(
                self.params, rec.file_id, u, A, sigma, challenge, response)
            delta: dict[str, int] = {}
            if ok:
                stake = rec.owners[owner_acct]
                rec.escrow -= stake
                self.ledger.credit(owner_acct, stake)
                rec.owner_states[owner_acct] = STATE_UPLOADED
                rec.audited.append(owner_acct)
                delta = {owner_acct: stake, f"escrow:{n_ref}": -stake}
            self._log("audit_verify",
                      {"n": n_ref, "owner": owner_acct,
                       "challenge": challenge.canonical_json(), "accepted": ok},
                      rec.state, rec.state, delta)
            return ok

    def refund(self, n_ref: str) -> None:
        """No accepted audit: deposit back to provider, stakes back to owners."""
        with self._lock:
            rec = self._record(n_ref)
            if rec.state != STATE_CLAIMED:
                raise WrongState(f"refund in state {rec.state}")
            if not rec.t3 <= self._now() <= rec.t4:
                raise WrongWindow("refund outside [T3, T4]")
            if rec.audited:
                raise WrongState("refund unavailable after an accepted audit")
            before = rec.state
            rec.state = STATE_FULFILLED
            delta: dict[str, int] = {}
            self.ledger.credit(rec.provider, rec.deposit)
            delta[rec.provider] = rec.deposit
            rec.escrow -= rec.deposit
            for owner_acct, stake in rec.owners.items():
                if rec.owner_states[owner_acct] != STATE_UPLOADED:
                    self.ledger.credit(owner_acct, stake)
                    rec.escrow -= stake
                    delta[owner_acct] = delta.get(owner_acct, 0) + stake
            delta[f"escrow:{n_ref}"] = -(rec.deposit + sum(
                stake for o, stake in rec.owners.items() if rec.owner_states[o] != STATE_UPLOADED))
            rec.state = STATE_FINISHED
            self._log("refund", {"n": n_ref}, before, rec.state, delta)

    def penalty(self, n_ref: str) -> dict[str, int]:
        """Leakage proven: split the deposit pro-rata by stake over the
        successful auditors; the remainder of the deposit goes back to the
        provider, and bystander owners get their stakes back."""
        with self._lock:
            rec = self._record(n_ref)
            if rec.state != STATE_CLAIMED:
                raise WrongState(f"penalty in state {rec.state}")
            if not rec.t3 <= self._now() <= rec.t4:
                raise WrongWindow("penalty outside [T3, T4]")
            if not rec.audited:
                raise WrongState("penalty requires an accepted audit")
            before = rec.state
            rec.state = STATE_UNFULFILLED
            total_stake = sum(rec.owners[o] for o in rec.audited)
            shares: dict[str, int] = {}
            paid = 0
            for owner_acct in rec.audited:
                share = rec.deposit * rec.owners[owner_acct] // total_stake
                shares[owner_acct] = share
                paid += share
            remainder = rec.deposit - paid
            delta: dict[str, int] = {}
            for owner_acct, share in shares.items():
                self.ledger.credit(owner_acct, share)
                delta[owner_acct] = delta.get(owner_acct, 0) + share
            self.ledger.credit(rec.provider, remainder)
            delta[rec.provider] = delta.get(rec.provider, 0) + remainder
            rec.escrow -= rec.deposit
            swept = rec.deposit
            for owner_acct, stake in rec.owners.items():
                if rec.owner_states[owner_acct] != STATE_UPLOADED:
                    self.ledger.credit(owner_acct, stake)
                    rec.escrow -= stake
                    swept += stake
                    delta[owner_acct] = delta.get(owner_acct, 0) + stake
            delta[f"escrow:{n_ref}"] = -swept
            rec.state = STATE_ABORTED
            self._log("penalty", {"n": n_ref, "shares": shares, "remainder": remainder},
                      before, rec.state, delta)
            return shares

    def timer(self, n_ref: str) -> None:
        """Escrow finalization after T4 for records never settled in window."""
        with self._lock:
            rec = self._record(n_ref)
            if self._now() <= rec.t4:
                raise WrongWindow("timer only after T4")
            if rec.state in (STATE_FINISHED, STATE_ABORTED):
                raise WrongState(f"record {n_ref} already settled")
            before = rec.state
            residual = rec.escrow
            self.ledger.credit(rec.provider, residual)
            rec.escrow = 0
            rec.state = STATE_ABORTED
            self._log("timer", {"n": n_ref}, before, rec.state,
                      {rec.provider: residual, f"escrow:{n_ref}": -residual})
