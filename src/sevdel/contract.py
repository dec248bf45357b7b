"""Deterministic in-process simulation of the storage-insurance contract.

One contract instance manages per-file service records.  The provider
escrows a deposit; owners stake acceptance; the provider registers the
ciphertext tags; within the audit window an owner who can reveal the
*leaked* ciphertext blocks named by a fresh challenge gets their stake
back and marks the record for penalty.  After the audit window the record is
settled exactly once: refund (no accepted audit) or penalty (deposit
split pro-rata over successful auditors, remainder back to the provider).

A record moves CREATED -> CLAIMED -> FINISHED (refund) or ABORTED
(penalty, or the timer after T4).  An owner's standing is derived, not
stored: accepted means a key of ``owners``, audited means a member of
``audited``.  Every escrow movement goes through ``Contract._pay``.

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
    InvalidElement,
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
    encoding_to_scalar,
    pairing_eq,
    vgen_points,
)
from .owner import AuditResponse, Challenge, check_challenge

STATE_INIT = "INIT"
STATE_CREATED = "CREATED"
STATE_CLAIMED = "CLAIMED"
STATE_FINISHED = "FINISHED"
STATE_ABORTED = "ABORTED"


def _require(ok: bool, what: str) -> None:
    """Refuse an ill-typed contract call before it reads or changes state."""
    if not ok:
        raise MalformedProof(f"ill-typed contract call: {what}")


def _ints(*values) -> bool:
    return all(isinstance(v, int) and not isinstance(v, bool) for v in values)


class LogicalClock:
    """Monotone integer simulation time."""

    def __init__(self, start: int = 0):
        self._now = start

    @property
    def now(self) -> int:
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
    owners: dict[str, int] = field(default_factory=dict)          # owner -> stake
    audited: list[str] = field(default_factory=list)              # RU_N, accept order
    file_id: bytes | None = None
    sigma_bytes: tuple[bytes, ...] | None = None
    u_bytes: tuple[bytes, ...] | None = None
    v_gens: tuple | None = None       # vgen_points(file_id, len(u_bytes)), hashed once
    escrow: int = 0


def verify_audit_response(
    params: SystemParams,
    file_id: bytes,
    u: tuple,
    v_gens: tuple,
    A: G2Elem,
    sigma: tuple,
    challenge: Challenge,
    response: AuditResponse,
) -> bool:
    """Node-side audit check over owner-revealed ciphertext components.

    Raises MalformedProof unless the challenge fits the record (see
    owner.check_challenge, with n = len(sigma)) and the response reveals
    both ciphertext rows, each of s element-encoding-long byte strings,
    for exactly the challenged indices.  Accepts iff the pairing equation
    e(Q2, g2) = e(prod_i base_i^g_i, A) holds, with Q2 = prod_i sigma_i^g_i
    aggregated here from the registered tags and the bases recomputed from
    the revealed rows and the sector generators v_gens, which the caller
    holds as vgen_points(params, file_id, s).  Only a holder of the true
    ciphertext blocks can satisfy it, because the registered tags bind the
    hash of each component's canonical encoding; the components are
    hashed, never decoded, so any other string, a non-canonical or
    off-curve one included, fails.

    The response carries no aggregates.  Q2 is a function of the
    registered tags and the challenge, both fixed here, so a Q2 sent by
    the owner could only be compared with this one and then replaced by
    it.  Ciphertext aggregates Q1'_j = prod_i E'_ij^g_i (and Q1''_j) are
    in no equation: the rows enter only through h(.), so they must be
    revealed anyway, and anyone who can produce the rows gets matching
    aggregates for free.
    """
    s = len(u)
    check_challenge(challenge, len(sigma), params.order)
    indices = set(challenge.indices)
    if not all(isinstance(rows, dict) and rows.keys() == indices
               for rows in (response.revealed_prime, response.revealed_dprime)):
        raise MalformedProof("revealed rows do not match the challenged indices")
    rows_p = [response.revealed_prime[i] for i in challenge.indices]
    rows_pp = [response.revealed_dprime[i] for i in challenge.indices]
    group = params.group
    width = group.g1_bytes
    if any(not isinstance(row, (list, tuple)) or len(row) != s
           or not all(isinstance(c, bytes) and len(c) == width for c in row)
           for row in (*rows_p, *rows_pp)):
        raise MalformedProof(f"revealed row is not {s} components of {width} bytes")
    gammas = [gamma for _, gamma in challenge.items]
    msm = params.g1_msm
    q2 = msm([sigma[i - 1] for i in challenge.indices], gammas)
    # prod_i (H_i prod_j u_j^h(E'_ij) v_j^h(E''_ij))^gamma_i, with the
    # exponents of each generator summed over the challenged blocks
    e_u = [sum(g * encoding_to_scalar(group, row[j]) for g, row in zip(gammas, rows_p))
           for j in range(s)]
    e_v = [sum(g * encoding_to_scalar(group, row[j]) for g, row in zip(gammas, rows_pp))
           for j in range(s)]
    blocks = [block_point(params, file_id, i) for i in challenge.indices]
    agg_base = msm([*blocks, *u, *v_gens], [*gammas, *e_u, *e_v])
    return pairing_eq((q2, params.g2), (agg_base, A))


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

    def _record(self, n_ref: str) -> ContractRecord:
        _require(isinstance(n_ref, str), "n_ref must be a str")
        rec = self.records.get(n_ref)
        if rec is None:
            raise WrongState(f"no service record for {n_ref}")
        return rec

    def _open(self, n_ref: str, op: str, state: str,
              window: tuple[str, str] | None = None) -> ContractRecord:
        """The record n_ref, if it is in state and, when window names two of
        its deadlines, the clock lies between them inclusive."""
        rec = self._record(n_ref)
        if rec.state != state:
            raise WrongState(f"{op} in state {rec.state}")
        if window and not getattr(rec, window[0]) <= self.clock.now <= getattr(rec, window[1]):
            raise WrongWindow(f"{op} outside [{window[0].upper()}, {window[1].upper()}]")
        return rec

    def _pay(self, rec: ContractRecord, acct: str, amount: int, delta: dict[str, int]) -> None:
        """Move amount from the record's escrow to acct, or for a negative
        amount from acct into the escrow, and add the move to delta.  The
        ledger call comes first, so a refused debit changes nothing."""
        if amount < 0:
            self.ledger.debit(acct, -amount)
        else:
            self.ledger.credit(acct, amount)
        rec.escrow -= amount
        escrow = f"escrow:{rec.n_ref}"
        delta[acct] = delta.get(acct, 0) + amount
        delta[escrow] = delta.get(escrow, 0) - amount

    def _settle(self, rec: ContractRecord, op: str, args: dict, state: str,
                payouts: list[tuple[str, int]]) -> None:
        """Pay out the whole escrow, in order, and close the record in state."""
        before = rec.state
        delta: dict[str, int] = {}
        for acct, amount in payouts:
            self._pay(rec, acct, amount, delta)
        if rec.escrow:
            raise InvariantViolation(f"{op} left {rec.escrow} in escrow for {rec.n_ref}")
        rec.state = state
        self._log(op, args, before, state, delta)

    def total_funds(self) -> int:
        return self.ledger.total() + sum(r.escrow for r in self.records.values())

    def _log(self, op: str, args: dict, before: str, after: str, delta: dict[str, int]):
        self._seq += 1
        self.log.append({
            "seq": self._seq,
            "time": self.clock.now,
            "op": op,
            "args_digest": hashlib.sha256(json.dumps(
                args, sort_keys=True, default=bytes.hex).encode()).hexdigest(),
            "state_before": before,
            "state_after": after,
            "ledger_delta": {k: v for k, v in sorted(delta.items()) if v},
        })
        if self.total_funds() != self._total0:
            raise InvariantViolation("currency conservation violated")

    # -- transitions -------------------------------------------------------

    def service(
        self,
        provider: str,
        n_ref: str,
        provider_pub: bytes,
        deposit: int,
        t1: int, t2: int, t3: int, t4: int,
    ) -> None:
        _require(isinstance(n_ref, str) and isinstance(provider, str)
                 and isinstance(provider_pub, bytes) and _ints(deposit, t1, t2, t3, t4),
                 "service takes str names, key bytes and int amount and deadlines")
        with self._lock:
            if n_ref in self.records:
                raise WrongState(f"record {n_ref} already created")
            if not t1 < t2 < t3 < t4:
                raise WrongWindow("deadlines must satisfy T1 < T2 < T3 < T4")
            if self.clock.now > t1:
                raise DeadlinePassed(f"service after T1={t1}")
            if deposit <= 0:
                raise InsufficientBalance("deposit must be positive")
            # e(., A) = 1 for an identity A: identity tags would pass any audit
            if self.params.g2_from_bytes(provider_pub) == self.params.g2 ** 0:
                raise InvalidElement("provider key A is the identity")
            rec = ContractRecord(
                n_ref=n_ref, provider=provider, provider_pub=provider_pub,
                deposit=deposit, t1=t1, t2=t2, t3=t3, t4=t4,
            )
            delta: dict[str, int] = {}
            self._pay(rec, provider, -deposit, delta)
            self.records[n_ref] = rec
            self._log("service", {"provider": provider, "n": n_ref, "deposit": deposit,
                                  "t": [t1, t2, t3, t4]},
                      STATE_INIT, rec.state, delta)

    def agree(self, owner_acct: str, n_ref: str, stake: int) -> None:
        _require(isinstance(owner_acct, str) and _ints(stake), "agree takes a str and an int")
        with self._lock:
            rec = self._open(n_ref, "agree", STATE_CREATED, ("t1", "t2"))
            if stake <= 0:
                raise InsufficientBalance("stake must be positive")
            if owner_acct in rec.owners:
                raise DuplicateOwner(f"{owner_acct} already accepted {n_ref}")
            delta: dict[str, int] = {}
            self._pay(rec, owner_acct, -stake, delta)
            rec.owners[owner_acct] = stake
            self._log("agree", {"owner": owner_acct, "n": n_ref, "stake": stake},
                      rec.state, rec.state, delta)

    def register_tags(
        self,
        n_ref: str,
        file_id: bytes,
        sigma_bytes: list[bytes],
        u_bytes: list[bytes],
    ) -> None:
        """Record (I_M, Sigma) plus the owner's generators u on-chain, and the
        sector generators v_j that I_M and s fix, hashed once for every audit."""
        _require(isinstance(file_id, bytes) and all(
            isinstance(blobs, (list, tuple)) and all(isinstance(b, bytes) for b in blobs)
            for blobs in (sigma_bytes, u_bytes)), "register_tags takes bytes and lists of bytes")
        # no audit can pass on a record without sigma or u, or under an id no manifest has
        _require(len(file_id) == 32 and sigma_bytes and u_bytes,
                 "register_tags needs a 32-byte file_id and nonempty sigma and u")
        with self._lock:
            rec = self._open(n_ref, "register_tags", STATE_CREATED)
            if rec.sigma_bytes is not None:
                raise DuplicateTags(f"tags already registered for {n_ref}")
            for blob in sigma_bytes:
                self.params.g1_from_bytes(blob)
            for blob in u_bytes:
                self.params.g1_from_bytes(blob)
            rec.file_id = file_id
            rec.sigma_bytes = tuple(sigma_bytes)
            rec.u_bytes = tuple(u_bytes)
            rec.v_gens = vgen_points(self.params, file_id, len(u_bytes))
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
            rec = self._open(n_ref, "claim", STATE_CREATED, ("t2", "t2"))
            if not rec.owners:
                raise WrongState("claim requires an accepted owner")
            if rec.sigma_bytes is None:
                raise WrongState("claim requires registered tags (data outsourcing)")
            rec.state = STATE_CLAIMED
            self._log("claim", {"n": n_ref}, STATE_CREATED, rec.state, {})

    def audit_verify(
        self,
        n_ref: str,
        owner_acct: str,
        challenge: Challenge,
        response: AuditResponse,
    ) -> bool:
        _require(isinstance(owner_acct, str) and isinstance(challenge, Challenge)
                 and isinstance(response, AuditResponse),
                 "audit_verify takes a str, a Challenge and an AuditResponse")
        with self._lock:
            rec = self._open(n_ref, "audit", STATE_CLAIMED, ("t2", "t3"))
            if owner_acct not in rec.owners:
                raise UnknownOwner(f"{owner_acct} never accepted {n_ref}")
            if owner_acct in rec.audited:
                raise WrongState(f"{owner_acct} already passed an audit")
            A = self.params.g2_from_bytes(rec.provider_pub)
            sigma = tuple(self.params.g1_from_bytes(b) for b in rec.sigma_bytes)
            u = tuple(self.params.g1_from_bytes(b) for b in rec.u_bytes)
            ok = verify_audit_response(
                self.params, rec.file_id, u, rec.v_gens, A, sigma, challenge, response)
            delta: dict[str, int] = {}
            if ok:
                self._pay(rec, owner_acct, rec.owners[owner_acct], delta)
                rec.audited.append(owner_acct)
            self._log("audit_verify",
                      {"n": n_ref, "owner": owner_acct,
                       "challenge": challenge.canonical_json(), "accepted": ok},
                      rec.state, rec.state, delta)
            return ok

    def refund(self, n_ref: str) -> None:
        """No accepted audit: deposit back to provider, stakes back to owners."""
        with self._lock:
            rec = self._open(n_ref, "refund", STATE_CLAIMED, ("t3", "t4"))
            if rec.audited:
                raise WrongState("refund unavailable after an accepted audit")
            self._settle(rec, "refund", {"n": n_ref}, STATE_FINISHED,
                         [(rec.provider, rec.deposit), *rec.owners.items()])

    def penalty(self, n_ref: str) -> dict[str, int]:
        """Leakage proven: split the deposit pro-rata by stake over the
        successful auditors; the remainder of the deposit goes back to the
        provider, and bystander owners get their stakes back."""
        with self._lock:
            rec = self._open(n_ref, "penalty", STATE_CLAIMED, ("t3", "t4"))
            if not rec.audited:
                raise WrongState("penalty requires an accepted audit")
            total_stake = sum(rec.owners[o] for o in rec.audited)
            shares = {o: rec.deposit * rec.owners[o] // total_stake for o in rec.audited}
            remainder = rec.deposit - sum(shares.values())
            self._settle(rec, "penalty", {"n": n_ref, "shares": shares, "remainder": remainder},
                         STATE_ABORTED, [*shares.items(), (rec.provider, remainder),
                                         *((o, stake) for o, stake in rec.owners.items()
                                           if o not in rec.audited)])
            return shares

    def timer(self, n_ref: str) -> None:
        """Escrow finalization after T4 for records never settled in window:
        the provider takes the residual, abandoned stakes included."""
        with self._lock:
            rec = self._record(n_ref)
            if self.clock.now <= rec.t4:
                raise WrongWindow("timer only after T4")
            if rec.state in (STATE_FINISHED, STATE_ABORTED):
                raise WrongState(f"record {n_ref} already settled")
            self._settle(rec, "timer", {"n": n_ref}, STATE_ABORTED, [(rec.provider, rec.escrow)])
