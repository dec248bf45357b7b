"""Acceptance suite: one test per release criterion, printed pass/fail.

Heavy statistical criteria run on the exponent-oracle toy group (same
protocol code path, orders of magnitude faster); each one is accompanied
here or in the module suites by a scaled-down run on the real curve, so
both the algebra and the curve arithmetic stay covered.
"""

import math
import time
from pathlib import Path

from sevdel import cloud, codec, owner
from sevdel.contract import verify_audit_response
from sevdel.enclave import EnclaveRegistry
from sevdel.errors import EnclaveDestroyed, UnknownFile
from sevdel.groups import setup, vgen_points
from sevdel.rng import SeededRng
from sevdel.scenario import Scenario, run_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _report(num: int, desc: str, ok: bool, extra: str = ""):
    tail = f" ({extra})" if extra else ""
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'} - {desc}{tail}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def _e2e(params, rng, size=64, s=2):
    data = rng.child("file").read(size)
    manifest, blocks = codec.split(data, s, params.sector_bits)
    okeys = owner.keygen(params, rng.child("ok"))
    skeys = cloud.server_keygen(params, rng.child("sk"))
    gens, tags = owner.outsource(params, okeys, manifest, blocks, rng.child("out"))
    registry = EnclaveRegistry()
    enclave = registry.create(manifest.file_id)
    cts, v_pub = cloud.encrypt_file(params, enclave, manifest, blocks, rng.child("e"))
    return data, manifest, blocks, okeys, skeys, gens, tags, registry, enclave, cts, v_pub


def test_criterion_1_encryption_roundtrip_bulk():
    """100 random files up to 1 MiB decrypt back bit-exactly within 60 s."""
    params = setup("toy", sector_bits=16)
    rng = SeededRng(b"accept-1")
    # log-uniform sizes over [1 B, 1 MiB], plus one file at the full bound
    sizes = [1 << 20]
    for _ in range(99):
        exp = rng.randrange(21)
        lo = 1 << exp
        sizes.append(lo + rng.randrange(lo))
    start = time.perf_counter()
    total = 0
    for k, size in enumerate(sizes):
        size = min(size, 1 << 20)
        data = rng.child(f"f{k}").read(size)
        total += size
        manifest, blocks = codec.split(data, 64, 16)
        registry = EnclaveRegistry()
        enclave = registry.create(manifest.file_id)
        cts, _ = cloud.encrypt_file(params, enclave, manifest, blocks,
                                    rng.child(f"e{k}"))
        back = cloud.decrypt_file(params, enclave, cts)
        assert codec.join(manifest, back) == data, f"round-trip broke at file {k}"
        cloud.delete_file(registry, manifest.file_id)
    elapsed = time.perf_counter() - start
    _report(1, "decrypt(encrypt(file)) bit-exact on 100 files <= 1 MiB",
            elapsed < 60.0,
            f"{total / (1 << 20):.1f} MiB total in {elapsed:.1f}s")


def test_criterion_1_companion_real_curve():
    """Same round-trip property through the real pairing curve."""
    params = setup("bn254", sector_bits=8)
    rng = SeededRng(b"accept-1-bn")
    for k in range(3):
        size = 1 + rng.randrange(96)
        data = rng.child(f"f{k}").read(size)
        manifest, blocks = codec.split(data, 4, 8)
        registry = EnclaveRegistry()
        enclave = registry.create(manifest.file_id)
        cts, _ = cloud.encrypt_file(params, enclave, manifest, blocks,
                                    rng.child(f"e{k}"))
        back = cloud.decrypt_file(params, enclave, cts)
        assert codec.join(manifest, back) == data
    _report(1, "round-trip companion on bn254", True, "3 files")


def test_criterion_2_detection_rate_matches_hypergeometric():
    """1000 blocks, 10 corrupted, 100 challenged: empirical detection over
    10^4 trials within 2 points of the hypergeometric prediction."""
    n, bad, count, trials = 1000, 10, 100, 10_000
    expected = 1 - math.comb(n - bad, count) / math.comb(n, count)
    manifest = codec.FileManifest(
        file_id=b"\x02" * 32, n=n, s=1, sector_bits=16, original_len=2 * n)
    corrupted = set(range(17, 17 + bad))
    hits = 0
    for t in range(trials):
        ch = owner.gen_challenge(manifest, count, rng_seed=(b"accept-2", t))
        if corrupted & set(ch.indices):
            hits += 1
    rate = hits / trials
    # linkage: a challenge that hits a corrupted block is exactly a
    # rejected verification, checked on full protocol runs
    params = setup("toy", sector_bits=16)
    rng = SeededRng(b"accept-2-link")
    _, small_manifest, blocks, okeys, skeys, gens, tags, _, enclave, cts, v_pub = \
        _e2e(params, rng, size=40 * 2, s=1)
    group = params.group
    bad_block = 7
    cts.rows_prime[bad_block - 1] = [
        group.g1_add(raw, params.g1.raw) for raw in cts.rows_prime[bad_block - 1]]
    agree = True
    for t in range(20):
        ch = owner.gen_challenge(small_manifest, 4, rng_seed=(b"link", t))
        proof = cloud.prove_encryption(params, enclave, small_manifest, blocks,
                                       cts, tags, ch, rng.child(f"p{t}"))
        ok = owner.verify_encryption_proof(
            params, small_manifest, gens.u, okeys.W, skeys.A, v_pub, ch, proof)
        agree &= ok == (bad_block not in ch.indices)
    _report(2, "corruption detection rate matches hypergeometric oracle",
            abs(rate - expected) < 0.02 and agree,
            f"rate {rate:.4f} vs {expected:.4f}, verdict/hit agreement on 20 runs")


def _forged_row(resp, i):
    """resp with the first two revealed components of row i swapped."""
    row = resp.revealed_prime[i]
    assert row[0] != row[1]
    resp.revealed_prime[i] = (row[1], row[0], *row[2:])
    return resp


def test_criterion_3_completeness_and_soundness_probes():
    """Honest proofs accepted 100/100; each tamper probe rejected 100/100."""
    params = setup("toy", sector_bits=16)
    honest_ok = probe_fail = 0
    runs = 100
    for k in range(runs):
        rng = SeededRng((b"accept-3", k))
        data, manifest, blocks, okeys, skeys, gens, tags, registry, enclave, cts, v_pub = \
            _e2e(params, rng, size=8 * 2 * 2, s=2)
        ch = owner.gen_challenge(manifest, 4, rng_seed=(b"c3", k))
        proof = cloud.prove_encryption(params, enclave, manifest, blocks, cts,
                                       tags, ch, rng.child("p"))
        if owner.verify_encryption_proof(params, manifest, gens.u, okeys.W,
                                         skeys.A, v_pub, ch, proof):
            honest_ok += 1
        hit = ch.indices[0]
        rejected = 0

        # probe 1: forged phi on a challenged block
        phis = list(tags.phi)
        phis[hit - 1] = params.hash_to_g1(b"sevdel/block", b"forged" + k.to_bytes(2, "big"))
        p = cloud.prove_encryption(params, enclave, manifest, blocks, cts,
                                   owner.TagSet(tuple(phis)), ch, rng.child("f1"))
        rejected += not owner.verify_encryption_proof(
            params, manifest, gens.u, okeys.W, skeys.A, v_pub, ch, p)

        # probe 2: wrong public key V
        rejected += not owner.verify_encryption_proof(
            params, manifest, gens.u, okeys.W, skeys.A, v_pub * params.g1, ch, proof)

        # probe 3: challenged block left unencrypted
        group = params.group
        cts2_prime = [row[:] for row in cts.rows_prime]
        cts2_dprime = [row[:] for row in cts.rows_dprime]
        cts2_prime[hit - 1] = [group.g1_pow(params.g1.raw, m) for m in blocks.rows[hit - 1]]
        cts2_dprime[hit - 1] = [group.g1_identity() for _ in blocks.rows[hit - 1]]
        cts2 = cloud.CiphertextMatrix(rows_prime=cts2_prime, rows_dprime=cts2_dprime,
                                      v_pub=cts.v_pub, n=cts.n, s=cts.s)
        p = cloud.prove_encryption(params, enclave, manifest, blocks, cts2, tags,
                                   ch, rng.child("f3"))
        rejected += not owner.verify_encryption_proof(
            params, manifest, gens.u, okeys.W, skeys.A, v_pub, ch, p)

        # probe 4: forged row in the audit response
        v_gens = vgen_points(params, manifest.file_id, manifest.s)
        enc_tags = cloud.gen_enc_tags(params, skeys, manifest, cts, gens.u, v_gens)
        resp = _forged_row(owner.audit_respond(params, manifest, cts, enc_tags, ch), hit)
        rejected += not verify_audit_response(
            params, manifest.file_id, gens.u, v_gens, skeys.A, enc_tags.sigma, ch, resp)

        probe_fail += rejected == 4
    _report(3, "completeness 100/100 and all four probes rejected 100/100",
            honest_ok == runs and probe_fail == runs,
            f"honest {honest_ok}/{runs}, probes {probe_fail}/{runs}")


def test_criterion_3_companion_real_curve():
    """Same completeness plus one rejection per probe on bn254."""
    params = setup("bn254", sector_bits=8)
    rng = SeededRng(b"accept-3-bn")
    data, manifest, blocks, okeys, skeys, gens, tags, registry, enclave, cts, v_pub = \
        _e2e(params, rng, size=8, s=2)
    ch = owner.gen_challenge(manifest, 2, rng_seed=b"bn3")
    proof = cloud.prove_encryption(params, enclave, manifest, blocks, cts, tags,
                                   ch, rng.child("p"))
    assert owner.verify_encryption_proof(
        params, manifest, gens.u, okeys.W, skeys.A, v_pub, ch, proof)
    hit = ch.indices[0]
    phis = list(tags.phi)
    phis[hit - 1] = params.hash_to_g1(b"sevdel/block", b"bn-forged")
    p1 = cloud.prove_encryption(params, enclave, manifest, blocks, cts,
                                owner.TagSet(tuple(phis)), ch, rng.child("f1"))
    r1 = not owner.verify_encryption_proof(
        params, manifest, gens.u, okeys.W, skeys.A, v_pub, ch, p1)
    r2 = not owner.verify_encryption_proof(
        params, manifest, gens.u, okeys.W, skeys.A, v_pub * params.g1, ch, proof)
    group = params.group
    cts.rows_prime[hit - 1] = [group.g1_pow(params.g1.raw, m) for m in blocks.rows[hit - 1]]
    cts.rows_dprime[hit - 1] = [group.g1_identity() for _ in blocks.rows[hit - 1]]
    p3 = cloud.prove_encryption(params, enclave, manifest, blocks, cts, tags,
                                ch, rng.child("f3"))
    r3 = not owner.verify_encryption_proof(
        params, manifest, gens.u, okeys.W, skeys.A, v_pub, ch, p3)
    v_gens = vgen_points(params, manifest.file_id, manifest.s)
    enc_tags = cloud.gen_enc_tags(params, skeys, manifest, cts, gens.u, v_gens)
    resp = _forged_row(owner.audit_respond(params, manifest, cts, enc_tags, ch), hit)
    r4 = not verify_audit_response(
        params, manifest.file_id, gens.u, v_gens, skeys.A, enc_tags.sigma, ch, resp)
    _report(3, "real-curve companion: honest accept, four probes reject",
            r1 and r2 and r3 and r4)


def test_criterion_4_deletion_irrecoverable_fuzz(ct_pair):
    """After deletion, every decrypt/prove in 1000 random op sequences
    fails with enclave-destroyed; enclave zeroization self-check holds."""
    params = setup("toy", sector_bits=16)
    ok = True
    for k in range(1000):
        rng = SeededRng((b"accept-4", k))
        data, manifest, blocks, okeys, skeys, gens, tags, registry, enclave, cts, v_pub = \
            _e2e(params, rng, size=2 * 1 * 2, s=1)
        ch = owner.gen_challenge(manifest, 1, rng_seed=(b"c4", k))
        cloud.delete_file(registry, manifest.file_id)
        for _ in range(1 + rng.randrange(4)):
            op = rng.randrange(3)
            try:
                if op == 0:
                    cloud.decrypt_block(params, enclave, ct_pair(cts, 0, 0))
                    ok = False
                elif op == 1:
                    cloud.prove_encryption(params, enclave, manifest, blocks,
                                           cts, tags, ch)
                    ok = False
                else:
                    cloud.delete_file(registry, manifest.file_id)
                    ok = False
            except EnclaveDestroyed:
                pass
            except UnknownFile:
                pass
        ok &= enclave.verify_zeroized()
        ok &= enclave.state == "DESTROYED" and registry.alive_for(manifest.file_id) is None
    _report(4, "deleted files stay unrecoverable under 1000 op-sequence fuzz runs", ok)


def test_criterion_5_penalty_and_refund_exact():
    """Leak+audit pays the exact penalty share; no-leak refunds exactly;
    total currency is conserved to the integer unit."""
    leak = run_scenario(Scenario.from_json((SCENARIO_DIR / "leak_audit.json").read_text()))
    honest = run_scenario(Scenario.from_json((SCENARIO_DIR / "honest.json").read_text()))
    leak_ledger = [l for l in leak.lines if l["event"] == "ledger"][-1]
    honest_ledger = [l for l in honest.lines if l["event"] == "ledger"][-1]
    ok = (
        leak.ok and honest.ok
        and leak.verdicts["penalty_shares"] == {"owner": 1000}
        and leak_ledger["balances"] == {"provider": 4000, "owner": 1500}
        and leak_ledger["total_funds"] == 5500
        and honest_ledger["balances"] == {"provider": 5000, "owner": 500}
        and honest_ledger["total_funds"] == 5500
    )
    _report(5, "penalty transfers exactly; refund restores exactly; currency conserved",
            ok)


def test_criterion_6_binding_exhaustive_small_instance():
    """Toy group, n=3, s=2, sector values < 8: among all 8^6 block
    matrices only the true one passes the tag equation together with the
    NIZK for a full challenge.

    An adversarial provider bound to the honest prover algorithm is
    accepted iff its aggregates collide with the true ones under the tag
    equation; the enumeration refutes both componentwise collisions and
    collisions through the sector-generator combination, and sampled
    matrices are pushed through the full prove/verify pipeline to confirm
    the algebra matches the implementation.
    """
    params = setup("toy", sector_bits=8)
    rng = SeededRng(b"accept-6")
    data = bytes([3, 1, 7, 0, 5, 2])  # 3 blocks x 2 sectors, all values < 8
    manifest, blocks = codec.split(data, 2, 8)
    assert (manifest.n, manifest.s) == (3, 2)
    okeys = owner.keygen(params, rng.child("ok"))
    skeys = cloud.server_keygen(params, rng.child("sk"))
    gens, tags = owner.outsource(params, okeys, manifest, blocks, rng.child("out"))
    ch = owner.gen_challenge(manifest, 3, rng_seed=b"full")
    order = params.order
    coeffs = {i: l % order for i, l in ch.items}
    true_q = [sum(coeffs[i] * blocks.rows[i - 1][j] for i in coeffs) % order
              for j in range(2)]
    # u_j = g1^{x_j}: on the toy oracle the tag equation accepts aggregates
    # q' iff sum_j x_j (q'_j - q_j) = 0 mod p
    x = gens.x
    collisions = 0
    q_collisions = 0
    alternatives = []
    honest = [list(row) for row in blocks.rows]
    for code in range(8 ** 6):
        vals = [(code >> (3 * t)) & 7 for t in range(6)]
        rows = [vals[0:2], vals[2:4], vals[4:6]]
        if rows == honest:
            continue
        q = [sum(coeffs[i] * rows[i - 1][j] for i in coeffs) % order
             for j in range(2)]
        if q == true_q:
            q_collisions += 1
        if (x[0] * (q[0] - true_q[0]) + x[1] * (q[1] - true_q[1])) % order == 0:
            collisions += 1
        if code % 26000 == 0:
            alternatives.append(rows)
    # protocol-level confirmation on sampled alternatives plus the honest matrix
    pipeline_ok = True
    for rows in alternatives[:10]:
        alt = codec.BlockMatrix([codec.sector_row(params.sector_bits, row) for row in rows])
        registry = EnclaveRegistry()
        enclave = registry.create(manifest.file_id)
        cts, v_pub = cloud.encrypt_file(params, enclave, manifest, alt, rng.child("alt"))
        proof = cloud.prove_encryption(params, enclave, manifest, alt, cts, tags,
                                       ch, rng.child("altp"))
        pipeline_ok &= not owner.verify_encryption_proof(
            params, manifest, gens.u, okeys.W, skeys.A, v_pub, ch, proof)
    registry = EnclaveRegistry()
    enclave = registry.create(manifest.file_id)
    cts, v_pub = cloud.encrypt_file(params, enclave, manifest, blocks, rng.child("h"))
    proof = cloud.prove_encryption(params, enclave, manifest, blocks, cts, tags,
                                   ch, rng.child("hp"))
    pipeline_ok &= owner.verify_encryption_proof(
        params, manifest, gens.u, okeys.W, skeys.A, v_pub, ch, proof)
    _report(6, "no alternative matrix among 8^6 passes tag equation plus proof",
            collisions == 0 and q_collisions == 0 and pipeline_ok,
            f"enumerated {8**6 - 1} alternatives")


def test_criterion_7_transcript_determinism():
    """Repeated seeded scenario runs emit byte-identical transcripts."""
    ok = True
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        first = run_scenario(Scenario.from_json(path.read_text())).to_text()
        second = run_scenario(Scenario.from_json(path.read_text())).to_text()
        ok &= first == second and len(first) > 0
    _report(7, "seeded scenario transcripts are byte-identical", ok,
            f"{len(list(SCENARIO_DIR.glob('*.json')))} scenarios x 2 runs")
