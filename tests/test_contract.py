"""Contract state machine: windows, escrow arithmetic, audit verification."""

import copy
import dataclasses
import json

import pytest

from sevdel import bn254, cloud, codec, owner, wire
from sevdel.contract import (
    Contract,
    Ledger,
    LogicalClock,
    verify_audit_response,
)
from sevdel.enclave import EnclaveRegistry
from sevdel.errors import (
    DeadlinePassed,
    DuplicateOwner,
    DuplicateTags,
    InsufficientBalance,
    InvalidElement,
    MalformedProof,
    UnknownOwner,
    WrongState,
    WrongWindow,
)
from sevdel.groups import DOMAIN_BLOCK, SystemParams, vgen_points
from sevdel.rng import SeededRng

T1, T2, T3, T4 = 10, 20, 30, 40
N = "file-1"


def _contract(params, balances=None):
    clock = LogicalClock()
    ledger = Ledger(balances or {"prov": 5000, "own": 500, "own2": 700})
    return Contract(params, ledger, clock), ledger, clock


def _provider_pub(params, seed=b"prov"):
    return cloud.server_keygen(params, SeededRng(seed)).A.to_bytes()


class _Deployment:
    """Full protocol fixture: outsourced, encrypted, tags registered."""

    def __init__(self, params, seed=b"dep", size=120, s=2):
        rng = SeededRng(seed)
        self.params = params
        self.data = rng.child("file").read(size)
        self.manifest, self.blocks = codec.split(self.data, s, params.sector_bits)
        self.okeys = owner.keygen(params, rng.child("ok"))
        self.skeys = cloud.server_keygen(params, rng.child("sk"))
        self.gens, self.tags = owner.outsource(
            params, self.okeys, self.manifest, self.blocks, rng.child("out"))
        registry = EnclaveRegistry()
        self.enclave = registry.create(self.manifest.file_id)
        self.cts, self.v_pub = cloud.encrypt_file(
            params, self.enclave, self.manifest, self.blocks, rng.child("enc"))
        self.v_gens = vgen_points(params, self.manifest.file_id, self.manifest.s)
        self.enc_tags = cloud.gen_enc_tags(
            params, self.skeys, self.manifest, self.cts, self.gens.u, self.v_gens)

    def register(self, contract):
        contract.register_tags(
            N, self.manifest.file_id,
            [e.to_bytes() for e in self.enc_tags.sigma],
            [e.to_bytes() for e in self.gens.u])

    def audit_challenge(self, seed=77, count=3):
        return owner.gen_challenge(self.manifest, min(count, self.manifest.n), seed)


def _deploy_to_claimed(params, dep):
    contract, ledger, clock = _contract(params)
    contract.service("prov", N, dep.skeys.A.to_bytes(), 1000, T1, T2, T3, T4)
    dep.register(contract)
    clock.advance_to(T1)
    contract.agree("own", N, 50)
    clock.advance_to(T2)
    contract.claim(N)
    return contract, ledger, clock


# -- service ------------------------------------------------------------------

def test_service_escrows_full_balance_boundary(toy_params):
    contract, ledger, clock = _contract(toy_params, {"prov": 1000})
    contract.service("prov", N, _provider_pub(toy_params), 1000, T1, T2, T3, T4)
    assert ledger.balance("prov") == 0
    assert contract.records[N].escrow == 1000
    assert contract.total_funds() == 1000


def test_service_insufficient_balance(toy_params):
    contract, ledger, _ = _contract(toy_params, {"prov": 999})
    with pytest.raises(InsufficientBalance):
        contract.service("prov", N, _provider_pub(toy_params), 1000, T1, T2, T3, T4)
    assert N not in contract.records
    assert ledger.balance("prov") == 999


def test_service_after_deadline(toy_params):
    contract, _, clock = _contract(toy_params)
    clock.advance_to(T1 + 1)
    with pytest.raises(DeadlinePassed):
        contract.service("prov", N, _provider_pub(toy_params), 100, T1, T2, T3, T4)


def test_service_requires_increasing_deadlines(toy_params):
    contract, _, _ = _contract(toy_params)
    with pytest.raises(WrongWindow):
        contract.service("prov", N, _provider_pub(toy_params), 100, T1, T1, T3, T4)


def test_service_duplicate_record(toy_params):
    contract, _, _ = _contract(toy_params)
    contract.service("prov", N, _provider_pub(toy_params), 100, T1, T2, T3, T4)
    with pytest.raises(WrongState):
        contract.service("prov", N, _provider_pub(toy_params), 100, T1, T2, T3, T4)


def test_service_refuses_an_identity_provider_key(any_params):
    # e(., A) = 1 for an identity A, so identity tags registered under it
    # would let an audit response of junk rows claim the stake
    contract, ledger, _ = _contract(any_params)
    balances = ledger.snapshot()
    with pytest.raises(InvalidElement):
        contract.service("prov", N, (any_params.g2 ** 0).to_bytes(), 100, T1, T2, T3, T4)
    assert contract.records == {} and contract.log == []
    assert ledger.snapshot() == balances


def test_conservation_across_ops(toy_params):
    contract, ledger, clock = _contract(toy_params)
    total0 = contract.total_funds()
    contract.service("prov", N, _provider_pub(toy_params), 1000, T1, T2, T3, T4)
    assert contract.total_funds() == total0
    clock.advance_to(T1)
    contract.agree("own", N, 50)
    assert contract.total_funds() == total0


# -- agree -----------------------------------------------------------------------

def test_agree_zero_stake_rejected(toy_params):
    contract, _, clock = _contract(toy_params)
    contract.service("prov", N, _provider_pub(toy_params), 100, T1, T2, T3, T4)
    clock.advance_to(T1)
    with pytest.raises(InsufficientBalance):
        contract.agree("own", N, 0)


def test_agree_registers_owner(toy_params):
    contract, ledger, clock = _contract(toy_params)
    contract.service("prov", N, _provider_pub(toy_params), 100, T1, T2, T3, T4)
    clock.advance_to(T1)
    contract.agree("own", N, 50)
    rec = contract.records[N]
    assert len(rec.owners) == 1
    assert rec.owners == {"own": 50}
    assert ledger.balance("own") == 450
    with pytest.raises(DuplicateOwner):
        contract.agree("own", N, 50)


def test_agree_outside_window(toy_params):
    contract, _, clock = _contract(toy_params)
    contract.service("prov", N, _provider_pub(toy_params), 100, T1, T2, T3, T4)
    with pytest.raises(WrongWindow):
        contract.agree("own", N, 50)  # before T1
    clock.advance_to(T2 + 1)
    with pytest.raises(WrongWindow):
        contract.agree("own", N, 50)


# -- claim / tags ------------------------------------------------------------------

def test_claim_only_exactly_at_t2(toy_params):
    dep = _Deployment(toy_params)
    contract, _, clock = _contract(toy_params)
    contract.service("prov", N, dep.skeys.A.to_bytes(), 100, T1, T2, T3, T4)
    dep.register(contract)
    clock.advance_to(T1)
    contract.agree("own", N, 50)
    clock.advance_to(T2 + 1)
    with pytest.raises(WrongWindow):
        contract.claim(N)


def test_claim_requires_tags_and_owner(toy_params):
    dep = _Deployment(toy_params)
    contract, _, clock = _contract(toy_params)
    contract.service("prov", N, dep.skeys.A.to_bytes(), 100, T1, T2, T3, T4)
    clock.advance_to(T1)
    contract.agree("own", N, 50)
    clock.advance_to(T2)
    with pytest.raises(WrongState):
        contract.claim(N)  # tags never registered


def test_registered_tags_roundtrip_bit_exact(toy_params):
    dep = _Deployment(toy_params)
    contract, _, _ = _contract(toy_params)
    contract.service("prov", N, dep.skeys.A.to_bytes(), 100, T1, T2, T3, T4)
    dep.register(contract)
    file_id, sigma_bytes, u_bytes = contract.registered_tags(N)
    assert file_id == dep.manifest.file_id
    assert list(sigma_bytes) == [e.to_bytes() for e in dep.enc_tags.sigma]
    assert list(u_bytes) == [e.to_bytes() for e in dep.gens.u]
    # the sector generators, hashed once at registration for every audit
    assert contract.records[N].v_gens == vgen_points(toy_params, file_id, dep.manifest.s)
    with pytest.raises(DuplicateTags):
        dep.register(contract)


def _hashed_domains(monkeypatch):
    """The domain of every SystemParams.hash_to_g1 call from here on."""
    domains = []
    hash_to_g1 = SystemParams.hash_to_g1

    def counted(self, domain, msg):
        domains.append(domain)
        return hash_to_g1(self, domain, msg)

    monkeypatch.setattr(SystemParams, "hash_to_g1", counted)
    return domains


@pytest.mark.parametrize("column", ["sigma", "u"])
def test_refused_tags_leave_the_record_without_tags_or_generators(any_dep, monkeypatch,
                                                                   column):
    # the sector generators are hashed only once sigma and u have decoded
    dep, params = any_dep, any_dep.params
    contract, _, _ = _contract(params)
    contract.service("prov", N, dep.skeys.A.to_bytes(), 100, T1, T2, T3, T4)
    blobs = {"sigma": [e.to_bytes() for e in dep.enc_tags.sigma],
             "u": [e.to_bytes() for e in dep.gens.u]}
    blobs[column][-1] = blobs[column][-1][:-1]
    domains = _hashed_domains(monkeypatch)
    with pytest.raises(InvalidElement):
        contract.register_tags(N, dep.manifest.file_id, blobs["sigma"], blobs["u"])
    assert domains == []
    rec = contract.records[N]
    assert (rec.file_id, rec.sigma_bytes, rec.u_bytes, rec.v_gens) == (None,) * 4
    with pytest.raises(WrongState):
        contract.registered_tags(N)


def test_params_digest_recorded(toy_params):
    contract, _, _ = _contract(toy_params)
    assert contract.params_digest == toy_params.digest()


def test_two_inits_independent(toy_params):
    a, ledger_a, clock_a = _contract(toy_params)
    b, ledger_b, _ = _contract(toy_params)
    a.service("prov", N, _provider_pub(toy_params), 100, T1, T2, T3, T4)
    assert N in a.records and N not in b.records
    assert ledger_a.balance("prov") == 4900
    assert ledger_b.balance("prov") == 5000


def test_log_records_each_op_and_its_ledger_delta(toy_params):
    contract, _, clock = _contract(toy_params)
    contract.service("prov", N, _provider_pub(toy_params), 100, T1, T2, T3, T4)
    clock.advance_to(T1)
    contract.agree("own", N, 50)
    # each entry is plain JSON, as the transcript writes it
    lines = [json.loads(json.dumps(entry, sort_keys=True)) for entry in contract.log]
    assert lines == contract.log
    assert [l["op"] for l in lines] == ["service", "agree"]
    assert lines[0]["ledger_delta"] == {"escrow:file-1": 100, "prov": -100}


# -- audit ------------------------------------------------------------------------

def test_audit_accepts_genuine_leak_and_returns_stake(toy_params):
    dep = _Deployment(toy_params)
    contract, ledger, clock = _deploy_to_claimed(toy_params, dep)
    clock.advance_to(25)
    ch = dep.audit_challenge()
    resp = owner.audit_respond(toy_params, dep.manifest, dep.cts, dep.enc_tags, ch)
    assert contract.audit_verify(N, "own", ch, resp)
    assert ledger.balance("own") == 500  # stake returned on acceptance
    assert contract.records[N].audited == ["own"]
    # a second audit by the same owner is refused, not double-paid
    with pytest.raises(WrongState):
        contract.audit_verify(N, "own", ch, resp)


def test_an_audit_hashes_only_its_challenged_block_points(any_dep, monkeypatch):
    # the record holds its sector generators: one audit hashes the c
    # challenged block points H(I_M || i) and no v_j
    dep, params = any_dep, any_dep.params
    contract, _, clock = _deploy_to_claimed(params, dep)
    clock.advance_to(25)
    ch = dep.audit_challenge()
    resp = owner.audit_respond(params, dep.manifest, dep.cts, dep.enc_tags, ch)
    domains = _hashed_domains(monkeypatch)
    assert contract.audit_verify(N, "own", ch, resp)
    assert domains == [DOMAIN_BLOCK] * len(ch.indices)


def test_audit_rejects_forged_sigma(toy_params):
    # the contract aggregates Q2 from the registered tags, so one forged
    # tag among the challenged ones fails the audit even for the true rows
    dep = _Deployment(toy_params)
    ch = dep.audit_challenge()
    sigma = list(dep.enc_tags.sigma)
    sigma[ch.indices[0] - 1] = sigma[ch.indices[0] - 1] * toy_params.g1
    dep.enc_tags = cloud.EncTagSet(sigma=tuple(sigma))
    contract, ledger, clock = _deploy_to_claimed(toy_params, dep)
    clock.advance_to(25)
    resp = owner.audit_respond(toy_params, dep.manifest, dep.cts, dep.enc_tags, ch)
    assert not contract.audit_verify(N, "own", ch, resp)
    assert contract.records[N].audited == []
    assert ledger.balance("own") == 450


def test_audit_rejects_wrong_window_and_unknown_owner(toy_params):
    dep = _Deployment(toy_params)
    contract, _, clock = _deploy_to_claimed(toy_params, dep)
    ch = dep.audit_challenge()
    resp = owner.audit_respond(toy_params, dep.manifest, dep.cts, dep.enc_tags, ch)
    clock.advance_to(T3 + 1)
    with pytest.raises(WrongWindow):
        contract.audit_verify(N, "own", ch, resp)


def test_audit_unknown_owner(toy_params):
    dep = _Deployment(toy_params)
    contract, _, clock = _deploy_to_claimed(toy_params, dep)
    clock.advance_to(25)
    ch = dep.audit_challenge()
    resp = owner.audit_respond(toy_params, dep.manifest, dep.cts, dep.enc_tags, ch)
    with pytest.raises(UnknownOwner):
        contract.audit_verify(N, "stranger", ch, resp)


def test_audit_random_forgery_never_passes(toy_params):
    # an owner who holds only the plaintext guesses ciphertext components:
    # 1000 guesses, zero acceptances
    dep = _Deployment(toy_params, size=40, s=1)
    ch = owner.gen_challenge(dep.manifest, 2, rng_seed=5)
    rng = SeededRng(b"forge")
    group = toy_params.group
    accepted = 0
    for _ in range(1000):
        fake_rows_p = {}
        fake_rows_pp = {}
        for i, _g in ch.items:
            fake_rows_p[i] = tuple(
                group.g1_to_bytes(group.g1_hash(rng.read(8))) for _ in range(dep.manifest.s))
            fake_rows_pp[i] = tuple(
                group.g1_to_bytes(group.g1_hash(rng.read(8))) for _ in range(dep.manifest.s))
        resp = owner.AuditResponse(revealed_prime=fake_rows_p, revealed_dprime=fake_rows_pp)
        if verify_audit_response(toy_params, dep.manifest.file_id, dep.gens.u,
                                 dep.v_gens, dep.skeys.A, dep.enc_tags.sigma, ch, resp):
            accepted += 1
    assert accepted == 0


# -- adversarial audits, both backends ------------------------------------------------

@pytest.fixture(scope="module")
def any_dep(any_params):
    return _Deployment(any_params, seed=b"adv-dep", size=48)


def _identity_rows(params, indices, s):
    return {i: tuple(params.g1_identity().to_bytes() for _ in range(s)) for i in indices}


BAD_CHALLENGES = {   # name: (items for n blocks and group order, expected reason)
    "empty": (lambda n, order: (), "empty challenge"),
    "duplicate": (lambda n, order: ((1, 5), (1, 7)), "duplicate"),
    "index-0": (lambda n, order: ((0, 5),), "outside"),
    "index-n+1": (lambda n, order: ((n + 1, 5),), "outside"),
    "coefficient-0": (lambda n, order: ((1, 0),), "coefficient .* outside"),
    "coefficient-order": (lambda n, order: ((1, order),), "zero coefficient"),
    "coefficient-negative": (lambda n, order: ((1, -31),), "coefficient .* outside"),
    "coefficient-2^128": (lambda n, order: ((1, 1 << 128),), "coefficient .* outside"),
}


def _malformed_in_itself(case, params):
    """Whether Challenge refuses the case where it is built: every case but
    those malformed only against a file's n or the group's order.  On
    bn254 the order is above 2^128, so (1, order) is one of them."""
    if case == "coefficient-order":
        return params.order >= 1 << owner.COEFF_BITS
    return case not in ("index-0", "index-n+1")


@pytest.mark.parametrize("case", sorted(BAD_CHALLENGES))
def test_verifiers_refuse_malformed_challenges(any_dep, case):
    dep, params = any_dep, any_dep.params
    make_items, reason = BAD_CHALLENGES[case]
    items = make_items(dep.manifest.n, params.order)
    s = dep.manifest.s
    if _malformed_in_itself(case, params):
        with pytest.raises(MalformedProof, match="coefficient .* outside"
                           if case == "coefficient-order" else reason):
            owner.Challenge(items=items, nonce=b"\x00" * 16)
        return
    bad = owner.Challenge(items=items, nonce=b"\x00" * 16)
    indices = {i for i, _ in items}
    # what an owner without ciphertexts would send: identities throughout
    forged = owner.AuditResponse(revealed_prime=_identity_rows(params, indices, s),
                                 revealed_dprime=_identity_rows(params, indices, s))
    with pytest.raises(MalformedProof, match=reason):
        verify_audit_response(params, dep.manifest.file_id, dep.gens.u, dep.v_gens,
                              dep.skeys.A, dep.enc_tags.sigma, bad, forged)
    with pytest.raises(MalformedProof, match=reason):
        cloud.prove_encryption(params, dep.enclave, dep.manifest, dep.blocks, dep.cts,
                               dep.tags, bad, SeededRng(b"adv-proof"))
    ch = dep.audit_challenge()
    proof = cloud.prove_encryption(params, dep.enclave, dep.manifest, dep.blocks, dep.cts,
                                   dep.tags, ch, SeededRng(b"adv-proof"))
    with pytest.raises(MalformedProof, match=reason):
        owner.verify_encryption_proof(params, dep.manifest, dep.gens.u, dep.okeys.W,
                                      dep.skeys.A, dep.v_pub, bad, proof)
    # the owner's responder holds every row, and still answers no such challenge
    with pytest.raises(MalformedProof, match=reason):
        owner.audit_respond(params, dep.manifest, dep.cts, dep.enc_tags, bad)


def test_challenge_decoder_takes_only_canonical_hex(any_dep):
    # each spelling below once decoded to a challenge the verifiers went
    # on to check; only the spelling encode_challenge writes decodes
    ch = any_dep.audit_challenge()
    text = wire.encode_challenge(ch)
    decoded = wire.decode_challenge(text)
    assert decoded == ch
    owner.check_challenge(decoded, any_dep.manifest.n, any_dep.params.order)
    good = json.loads(text)
    (i, _), *rest = good["items"]
    for coefficient in ("-1f", "0x10", " 5 ", "05", "1F", "+1f", ""):
        with pytest.raises(MalformedProof):
            wire.decode_challenge(json.dumps({**good, "items": [[i, coefficient], *rest]}))
    for nonce in ("ab cd", "AB" + good["nonce"][2:], " " + good["nonce"]):
        with pytest.raises(MalformedProof):
            wire.decode_challenge(json.dumps({**good, "nonce": nonce}))


def _at_stage(dep, stage):
    """A contract over dep in which the stage's call, well typed, is legal:
    fresh (service), created (register_tags), agreeing (agree), claimable
    (claim) or claimed (audit_verify)."""
    contract, ledger, clock = _contract(dep.params)
    if stage != "fresh":
        contract.service("prov", N, dep.skeys.A.to_bytes(), 1000, T1, T2, T3, T4)
    if stage in ("agreeing", "claimable", "claimed"):
        dep.register(contract)
        clock.advance_to(T1)
    if stage in ("claimable", "claimed"):
        contract.agree("own", N, 50)
        clock.advance_to(T2)
    if stage == "claimed":
        contract.claim(N)
        clock.advance_to(25)
    return contract, ledger


def _stage_call(dep, stage, **kw):
    """The call that is legal at stage, with the arguments in kw replaced."""
    if stage == "fresh":
        op, args = "service", dict(provider="prov", n_ref=N, provider_pub=dep.skeys.A.to_bytes(),
                                   deposit=100, t1=T1, t2=T2, t3=T3, t4=T4)
    elif stage == "created":
        op, args = "register_tags", dict(n_ref=N, file_id=dep.manifest.file_id,
                                         sigma_bytes=[e.to_bytes() for e in dep.enc_tags.sigma],
                                         u_bytes=[e.to_bytes() for e in dep.gens.u])
    elif stage == "agreeing":
        op, args = "agree", dict(owner_acct="own", n_ref=N, stake=5)
    elif stage == "claimable":
        op, args = "claim", dict(n_ref=N)
    else:
        ch = dep.audit_challenge()
        resp = owner.audit_respond(dep.params, dep.manifest, dep.cts, dep.enc_tags, ch)
        op, args = "audit_verify", dict(n_ref=N, owner_acct="own", challenge=ch, response=resp)
    return lambda contract: getattr(contract, op)(**{**args, **kw})


def _retyped(dep, index=None, coefficient=None):
    # the first challenged item with its index or coefficient replaced
    ch = dep.audit_challenge()
    (i, gamma), rest = ch.items[0], ch.items[1:]
    item = (i if index is None else index, gamma if coefficient is None else coefficient)
    return owner.Challenge(items=(item, *rest), nonce=ch.nonce)


ILL_TYPED_CALLS = {   # name: (stage, replaced arguments given the deployment)
    "service-deposit-str": ("fresh", lambda dep: {"deposit": "100"}),
    "service-deposit-float": ("fresh", lambda dep: {"deposit": 100.0}),
    "service-deposit-bool": ("fresh", lambda dep: {"deposit": True}),
    "service-deadline-str": ("fresh", lambda dep: {"t1": "a"}),
    "service-provider-pub-none": ("fresh", lambda dep: {"provider_pub": None}),
    "service-provider-pub-hex": ("fresh", lambda dep: {"provider_pub": dep.skeys.A.hex()}),
    "service-n-ref-list": ("fresh", lambda dep: {"n_ref": [N]}),
    "agree-stake-str": ("agreeing", lambda dep: {"stake": "5"}),
    "agree-stake-float": ("agreeing", lambda dep: {"stake": 5.5}),
    "agree-stake-bool": ("agreeing", lambda dep: {"stake": True}),
    "agree-owner-list": ("agreeing", lambda dep: {"owner_acct": ["own"]}),
    "register-sigma-int": ("created", lambda dep: {"sigma_bytes": [5]}),
    "register-sigma-none": ("created", lambda dep: {"sigma_bytes": None}),
    "register-u-none": ("created", lambda dep: {"u_bytes": None}),
    "register-file-id-str": ("created", lambda dep: {"file_id": dep.manifest.file_id.hex()}),
    "claim-n-ref-list": ("claimable", lambda dep: {"n_ref": [N]}),
    "audit-challenge-none": ("claimed", lambda dep: {"challenge": None}),
    "audit-response-none": ("claimed", lambda dep: {"response": None}),
    # the next three raise where the Challenge is built, before the call
    "audit-index-str": ("claimed", lambda dep: {
        "challenge": _retyped(dep, index=str(dep.audit_challenge().items[0][0]))}),
    "audit-coefficient-float": ("claimed", lambda dep: {
        "challenge": _retyped(dep, coefficient=5.0)}),
    "audit-nonce-str": ("claimed", lambda dep: {"challenge": owner.Challenge(
        items=dep.audit_challenge().items, nonce="00")}),
    "audit-owner-list": ("claimed", lambda dep: {"owner_acct": ["own"]}),
}


@pytest.mark.parametrize("case", sorted(ILL_TYPED_CALLS))
def test_ill_typed_contract_calls_raise_only_sevdel_errors(any_dep, case):
    # contract calls are untrusted input: a call of the wrong types is
    # refused with MalformedProof and changes no balance, record or log
    # line; the same call well typed then goes through
    stage, replaced = ILL_TYPED_CALLS[case]
    contract, ledger = _at_stage(any_dep, stage)
    balances, records, log = ledger.snapshot(), copy.deepcopy(contract.records), list(contract.log)
    with pytest.raises(MalformedProof):
        _stage_call(any_dep, stage, **replaced(any_dep))(contract)
    assert ledger.snapshot() == balances
    assert contract.records == records
    assert contract.log == log
    assert _stage_call(any_dep, stage)(contract) in (None, True)
    assert len(contract.log) == len(log) + 1


def test_owner_without_ciphertexts_is_not_paid(any_dep):
    # identities answer an empty or all-zero challenge on both sides of the
    # pairing equation; neither may reach a payout.  Challenge refuses an
    # empty one and a zero coefficient where they are built; a coefficient
    # that is 0 only mod the order exists below 2^128 on toy alone, and
    # the contract refuses that one before paying
    dep, params = any_dep, any_dep.params
    contract, ledger, clock = _deploy_to_claimed(params, dep)
    clock.advance_to(25)
    for items in ((), ((1, 0), (2, params.order))):
        with pytest.raises(MalformedProof):
            owner.Challenge(items=items, nonce=b"\x00" * 16)
    zero_mod_order = [owner.Challenge(items=((1, params.order), (2, 2 * params.order)),
                                      nonce=b"\x00" * 16)] \
        if 2 * params.order < 1 << owner.COEFF_BITS else []
    for ch in zero_mod_order:
        forged = owner.AuditResponse(
            revealed_prime=_identity_rows(params, ch.indices, dep.manifest.s),
            revealed_dprime=_identity_rows(params, ch.indices, dep.manifest.s))
        with pytest.raises(MalformedProof):
            contract.audit_verify(N, "own", ch, forged)
    assert contract.records[N].audited == []
    assert ledger.balance("own") == 450
    assert [e["op"] for e in contract.log] == ["service", "register_tags", "agree", "claim"]
    clock.advance_to(T3)
    with pytest.raises(WrongState):
        contract.penalty(N)


def test_audit_refuses_rows_not_matching_the_challenge(any_dep, ct_pair):
    dep, params = any_dep, any_dep.params
    ch = dep.audit_challenge()
    resp = owner.audit_respond(params, dep.manifest, dep.cts, dep.enc_tags, ch)
    extra = next(i for i in range(1, dep.manifest.n + 1) if i not in ch.indices)
    row = tuple(ct_pair(dep.cts, extra - 1, j)[0].to_bytes() for j in range(dep.manifest.s))
    first = ch.indices[0]
    dropped = {i: r for i, r in resp.revealed_dprime.items() if i != first}
    short = {**resp.revealed_prime, first: resp.revealed_prime[first][:-1]}
    for forged in (
        dataclasses.replace(resp, revealed_prime={**resp.revealed_prime, extra: row}),
        dataclasses.replace(resp, revealed_dprime=dropped),
        dataclasses.replace(resp, revealed_prime=short),
    ):
        with pytest.raises(MalformedProof):
            verify_audit_response(params, dep.manifest.file_id, dep.gens.u, dep.v_gens,
                                  dep.skeys.A, dep.enc_tags.sigma, ch, forged)


def test_audit_rejects_true_rows_misplaced_or_misaggregated(any_dep, ct_pair):
    # every component is a genuine leaked ciphertext, yet none of these
    # answers the challenge; the honest answer is accepted afterwards
    dep, params = any_dep, any_dep.params
    contract, ledger, clock = _deploy_to_claimed(params, dep)
    clock.advance_to(25)
    ch = dep.audit_challenge()
    assert len(ch.items) >= 2
    resp = owner.audit_respond(params, dep.manifest, dep.cts, dep.enc_tags, ch)
    a, b = ch.indices[:2]
    outside = next(i for i in range(1, dep.manifest.n + 1) if i not in ch.indices)

    def rows_of(k):
        pairs = [ct_pair(dep.cts, k - 1, j) for j in range(dep.manifest.s)]
        return tuple(p.to_bytes() for p, _ in pairs), tuple(d.to_bytes() for _, d in pairs)

    def with_rows(placed):
        prime, dprime = dict(resp.revealed_prime), dict(resp.revealed_dprime)
        for i, k in placed.items():
            prime[i], dprime[i] = rows_of(k)
        return dataclasses.replace(resp, revealed_prime=prime, revealed_dprime=dprime)

    forgeries = {
        "two challenged rows swapped": with_rows({a: b, b: a}),
        "a true row under the wrong index": with_rows({a: outside}),
    }
    for what, forged in forgeries.items():
        assert not contract.audit_verify(N, "own", ch, forged), what
    assert contract.records[N].audited == []
    assert ledger.balance("own") == 450
    assert contract.audit_verify(N, "own", ch, resp)
    assert ledger.balance("own") == 500


def _non_canonical(params, data):
    """Strings in place of the canonical encoding data of a point E: none is
    the encoding the ciphertext tags were made over."""
    group = params.group
    if params.group.name == "bn254":
        P = int(bn254.P)
        x = int.from_bytes(data[1:], "big")
        off = next(t for t in range(x + 1, x + 1000)
                   if pow((t ** 3 + 3) % P, (P - 1) // 2, P) == P - 1)
        return {
            "off-curve x": data[:1] + off.to_bytes(32, "big"),
            "x >= p": data[:1] + (x + P).to_bytes(32, "big"),
            "-E (parity flag flipped)": bytes([data[0] ^ 1]) + data[1:],
            "identity": group.g1_to_bytes(None),
        }
    # toy: the tag byte stands in for the curve, the value for x
    v = int.from_bytes(data[1:], "big")
    return {
        "off-curve x": b"\x12" + data[1:],
        "x >= p": data[:1] + (v + group.order).to_bytes(8, "big"),
        "-E (parity flag flipped)": group.g1_to_bytes(-v % group.order),
        "identity": group.g1_to_bytes(0),
    }


def test_audit_rejects_non_canonical_row_components(any_dep):
    # the contract hashes revealed components without decoding them; a
    # string that is not the canonical encoding of the leaked component
    # passes the wire decoder but fails the pairing equation, unpaid
    dep, params = any_dep, any_dep.params
    contract, ledger, clock = _deploy_to_claimed(params, dep)
    clock.advance_to(25)
    ch = dep.audit_challenge()
    resp = owner.audit_respond(params, dep.manifest, dep.cts, dep.enc_tags, ch)
    i = ch.indices[0]
    for column in ("revealed_prime", "revealed_dprime"):
        rows = getattr(resp, column)
        bad = _non_canonical(params, rows[i][0])
        if params.group.name == "bn254":
            # the bad strings are what they claim to be
            with pytest.raises(InvalidElement):
                params.g1_from_bytes(bad["off-curve x"])
            with pytest.raises(InvalidElement):
                params.g1_from_bytes(bad["x >= p"])
            assert params.g1_from_bytes(bad["-E (parity flag flipped)"]) == \
                params.g1_from_bytes(rows[i][0]) ** -1
        for what, data in bad.items():
            assert len(data) == params.group.g1_bytes and data != rows[i][0]
            forged = dataclasses.replace(resp, **{column: {**rows, i: (data, *rows[i][1:])}})
            received = wire.decode_audit_response(params, wire.encode_audit_response(forged))
            assert getattr(received, column)[i][0] == data
            assert not contract.audit_verify(N, "own", ch, received), (column, what)
    assert contract.records[N].audited == []
    assert ledger.balance("own") == 450
    assert [e["op"] for e in contract.log[4:]] == ["audit_verify"] * 8
    assert contract.audit_verify(N, "own", ch, resp)
    assert ledger.balance("own") == 500


def test_audit_refuses_row_components_of_the_wrong_length_or_type(any_dep):
    dep, params = any_dep, any_dep.params
    ch = dep.audit_challenge()
    resp = owner.audit_respond(params, dep.manifest, dep.cts, dep.enc_tags, ch)
    i = ch.indices[0]
    for column in ("revealed_prime", "revealed_dprime"):
        rows = getattr(resp, column)
        good = rows[i][0]
        for data in (good + b"\x00", good[:-1], b""):
            forged = dataclasses.replace(resp, **{column: {**rows, i: (data, *rows[i][1:])}})
            with pytest.raises(MalformedProof):
                wire.decode_audit_response(params, wire.encode_audit_response(forged))
            with pytest.raises(MalformedProof):
                verify_audit_response(params, dep.manifest.file_id, dep.gens.u, dep.v_gens,
                                      dep.skeys.A, dep.enc_tags.sigma, ch, forged)
        # a decoded point where an encoding belongs is refused, not hashed
        point = params.g1_from_bytes(good)
        forged = dataclasses.replace(resp, **{column: {**rows, i: (point, *rows[i][1:])}})
        with pytest.raises(MalformedProof):
            verify_audit_response(params, dep.manifest.file_id, dep.gens.u, dep.v_gens,
                                  dep.skeys.A, dep.enc_tags.sigma, ch, forged)


# -- refund / penalty / timer -------------------------------------------------------

def test_refund_restores_every_balance(toy_params):
    dep = _Deployment(toy_params)
    contract, ledger, clock = _deploy_to_claimed(toy_params, dep)
    clock.advance_to(T3)
    contract.refund(N)
    assert ledger.balance("prov") == 5000
    assert ledger.balance("own") == 500
    assert contract.records[N].state == "FINISHED"
    assert contract.records[N].escrow == 0
    assert contract.total_funds() == 6200


def test_refund_blocked_after_accepted_audit(toy_params):
    dep = _Deployment(toy_params)
    contract, _, clock = _deploy_to_claimed(toy_params, dep)
    clock.advance_to(25)
    ch = dep.audit_challenge()
    resp = owner.audit_respond(toy_params, dep.manifest, dep.cts, dep.enc_tags, ch)
    assert contract.audit_verify(N, "own", ch, resp)
    clock.advance_to(T3)
    with pytest.raises(WrongState):
        contract.refund(N)


def test_penalty_single_owner_gets_whole_deposit(toy_params):
    dep = _Deployment(toy_params)
    contract, ledger, clock = _deploy_to_claimed(toy_params, dep)
    clock.advance_to(25)
    ch = dep.audit_challenge()
    resp = owner.audit_respond(toy_params, dep.manifest, dep.cts, dep.enc_tags, ch)
    assert contract.audit_verify(N, "own", ch, resp)
    clock.advance_to(T3)
    shares = contract.penalty(N)
    assert shares == {"own": 1000}
    assert ledger.balance("own") == 500 + 1000
    assert ledger.balance("prov") == 4000
    assert contract.records[N].state == "ABORTED"
    assert contract.total_funds() == 6200


def test_penalty_requires_accepted_audit(toy_params):
    dep = _Deployment(toy_params)
    contract, _, clock = _deploy_to_claimed(toy_params, dep)
    clock.advance_to(T3)
    with pytest.raises(WrongState):
        contract.penalty(N)


def test_penalty_pro_rata_split_with_remainder(toy_params):
    # two successful auditors with stakes 50 and 700 split a 1000 deposit
    # 50/750 and 700/750; integer remainder goes back to the provider
    dep = _Deployment(toy_params)
    contract, ledger, clock = _contract(toy_params)
    contract.service("prov", N, dep.skeys.A.to_bytes(), 1000, T1, T2, T3, T4)
    dep.register(contract)
    clock.advance_to(T1)
    contract.agree("own", N, 50)
    contract.agree("own2", N, 700)
    clock.advance_to(T2)
    contract.claim(N)
    clock.advance_to(25)
    for acct, seed in (("own", 91), ("own2", 92)):
        ch = dep.audit_challenge(seed=seed)
        resp = owner.audit_respond(toy_params, dep.manifest, dep.cts, dep.enc_tags, ch)
        assert contract.audit_verify(N, acct, ch, resp)
    clock.advance_to(T3)
    shares = contract.penalty(N)
    assert shares == {"own": 1000 * 50 // 750, "own2": 1000 * 700 // 750}
    remainder = 1000 - sum(shares.values())
    assert ledger.balance("prov") == 4000 + remainder
    assert contract.total_funds() == 6200


def test_timer_sweeps_residual_escrow(toy_params):
    dep = _Deployment(toy_params)
    contract, ledger, clock = _deploy_to_claimed(toy_params, dep)
    clock.advance_to(T4)
    with pytest.raises(WrongWindow):
        contract.timer(N)  # not yet past T4
    clock.advance_to(T4 + 1)
    contract.timer(N)
    assert contract.records[N].state == "ABORTED"
    assert contract.records[N].escrow == 0
    assert ledger.balance("prov") == 5000 + 50  # deposit plus abandoned stake
    assert contract.total_funds() == 6200


def test_timer_refuses_settled_record(toy_params):
    dep = _Deployment(toy_params)
    contract, _, clock = _deploy_to_claimed(toy_params, dep)
    clock.advance_to(T3)
    contract.refund(N)
    clock.advance_to(T4 + 1)
    with pytest.raises(WrongState):
        contract.timer(N)


def _log_rows(contract):
    return [(e["op"], e["state_before"], e["state_after"], e["ledger_delta"])
            for e in contract.log]


def test_settlement_log_pinned(toy_params):
    # the literal state transitions and ledger deltas of each settlement
    dep = _Deployment(toy_params)
    E = "escrow:" + N
    opening = [
        ("service", "INIT", "CREATED", {E: 1000, "prov": -1000}),
        ("register_tags", "CREATED", "CREATED", {}),
        ("agree", "CREATED", "CREATED", {E: 50, "own": -50}),
    ]

    contract, _, clock = _deploy_to_claimed(toy_params, dep)
    clock.advance_to(T3)
    contract.refund(N)
    assert _log_rows(contract) == opening + [
        ("claim", "CREATED", "CLAIMED", {}),
        ("refund", "CLAIMED", "FINISHED", {E: -1050, "own": 50, "prov": 1000}),
    ]

    contract, _, clock = _deploy_to_claimed(toy_params, dep)
    clock.advance_to(T4 + 1)
    contract.timer(N)
    assert _log_rows(contract) == opening + [
        ("claim", "CREATED", "CLAIMED", {}),
        ("timer", "CLAIMED", "ABORTED", {E: -1050, "prov": 1050}),
    ]

    # two successful auditors, one bystander whose audit is rejected
    contract, ledger, clock = _contract(
        toy_params, {"prov": 5000, "own": 500, "own2": 700, "own3": 300})
    contract.service("prov", N, dep.skeys.A.to_bytes(), 1000, T1, T2, T3, T4)
    dep.register(contract)
    clock.advance_to(T1)
    for acct, stake in (("own", 50), ("own2", 700), ("own3", 100)):
        contract.agree(acct, N, stake)
    clock.advance_to(T2)
    contract.claim(N)
    clock.advance_to(25)
    for acct, seed in (("own", 91), ("own3", 93), ("own2", 92)):
        ch = dep.audit_challenge(seed=seed)
        resp = owner.audit_respond(toy_params, dep.manifest, dep.cts, dep.enc_tags, ch)
        if acct == "own3":   # one revealed component swapped with its neighbour
            i = ch.indices[0]
            row = resp.revealed_prime[i]
            resp.revealed_prime[i] = (row[1], row[0], *row[2:])
        assert contract.audit_verify(N, acct, ch, resp) == (acct != "own3")
    clock.advance_to(T3)
    assert contract.penalty(N) == {"own": 66, "own2": 933}
    assert _log_rows(contract) == opening + [
        ("agree", "CREATED", "CREATED", {E: 700, "own2": -700}),
        ("agree", "CREATED", "CREATED", {E: 100, "own3": -100}),
        ("claim", "CREATED", "CLAIMED", {}),
        ("audit_verify", "CLAIMED", "CLAIMED", {E: -50, "own": 50}),
        ("audit_verify", "CLAIMED", "CLAIMED", {}),
        ("audit_verify", "CLAIMED", "CLAIMED", {E: -700, "own2": 700}),
        ("penalty", "CLAIMED", "ABORTED",
         {E: -1100, "own": 66, "own2": 933, "own3": 100, "prov": 1}),
    ]
    assert ledger.snapshot() == {"prov": 4001, "own": 566, "own2": 1633, "own3": 300}


def test_transition_log_schema_and_fuzz_legality(toy_params):
    # random op/time fuzzing: failed calls never mutate state, successful
    # ones keep conservation and the log schema
    dep = _Deployment(toy_params)
    rng = SeededRng(b"contract-fuzz")
    for trial in range(60):
        contract, ledger, clock = _contract(toy_params)
        total0 = contract.total_funds()
        ops = [
            lambda: contract.service("prov", N, dep.skeys.A.to_bytes(), 100,
                                     T1, T2, T3, T4),
            lambda: contract.agree("own", N, 50),
            lambda: dep.register(contract),
            lambda: contract.claim(N),
            lambda: contract.refund(N),
            lambda: contract.penalty(N),
            lambda: contract.timer(N),
        ]
        for _ in range(12):
            clock.advance_to(clock.now + rng.randrange(7))
            before = {n: (r.state, r.escrow, dict(r.owners))
                      for n, r in contract.records.items()}
            balances_before = ledger.snapshot()
            try:
                ops[rng.randrange(len(ops))]()
            except Exception as exc:
                from sevdel.errors import ContractError
                assert isinstance(exc, ContractError), f"unexpected {exc!r}"
                after = {n: (r.state, r.escrow, dict(r.owners))
                         for n, r in contract.records.items()}
                assert after == before, "failed op mutated state"
                assert ledger.snapshot() == balances_before
            assert contract.total_funds() == total0
            for rec in contract.records.values():
                assert rec.escrow >= 0
                if rec.state in ("FINISHED", "ABORTED"):
                    assert rec.escrow == 0
        for entry in contract.log:
            assert set(entry) == {"seq", "time", "op", "args_digest",
                                  "state_before", "state_after", "ledger_delta"}
