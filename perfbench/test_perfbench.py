"""Tests of the benchmark itself: count determinism, pinned counts, span
nesting, and that the correctness gate catches a wrong answer.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
from hostclock import HostClock  # noqa: E402
import workloads  # noqa: E402
from sevdel import owner  # noqa: E402


def traced_run(workload: str, seed: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


@pytest.mark.parametrize("workload", ["store-bn254", "challenge-bn254", "roundtrip-toy"])
def test_traced_counts_repeat_for_a_seed(workload):
    procs = [traced_run(workload, 7), traced_run(workload, 7)]
    results = []
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        results.append(json.loads(stdout.strip().splitlines()[-1]))
    first, second = (r["metrics"] for r in results)
    counted = [m for m in first
               if m.endswith((".calls", ".bytes", ".scalar_bits", "_bytes", "_bytes_per_sector"))
               or m == "contract.rejects"]
    assert len(counted) >= 20
    assert {m: first[m] for m in counted} == {m: second[m] for m in counted}
    assert all(r["correct"] and r["failed"] == 0 for r in results)


@pytest.fixture(scope="module")
def challenge():
    wl = workloads.ChallengeBn254(3, HostClock("bn254"))
    wl.setup()
    return wl


def test_one_challenge_round_has_hand_derived_counts(challenge):
    wl, f = challenge, challenge.file
    ch, proof = wl.honest_proof(f, "pin")
    audit_ch, resp = wl.audit_response(f, "pin")
    tracer = tracing.Tracer()
    tracer.install(wl.params.group)
    try:
        with tracer.op("verify"):
            ok_verify = owner.verify_encryption_proof(
                wl.params, f.manifest, f.gens.u, wl.okeys.W, wl.skeys.A, f.cts.v_pub, ch, proof)
        with tracer.op("audit"):
            ok_audit = wl.contract.audit_verify(f.n_ref, wl.take_account(), audit_ch, resp)
    finally:
        tracer.uninstall()
    assert ok_verify and ok_audit
    verify, audit = tracer.totals(["verify"]), tracer.totals(["audit"])
    # verify_encryption_proof: one pairing equality, each side a full pairing
    assert verify["bn254.miller_loop.calls"] == 2
    assert verify["bn254.final_exponentiation.calls"] == 2
    # audit_verify: one pairing equality, provider key A decoded once,
    # n registered tags and s sector generators decoded
    assert audit["groups.pair.calls"] == 2
    assert audit["bn254.miller_loop.calls"] == 2
    assert audit["bn254.g2_from_bytes.calls"] == 1
    assert audit["bn254.g1_from_bytes.calls"] == f.manifest.n + f.manifest.s
    assert audit["contract.verify_audit_response.calls"] == 1


def test_self_times_of_a_round_sum_to_its_root_span(challenge):
    wl, f = challenge, challenge.file
    tracer = tracing.Tracer()
    tracer.install(wl.params.group)
    wl.rec.tracer = tracer
    try:
        wl.verify_round(f, "nest")
        wl.audit_round(f, wl.take_account(), "nest")
    finally:
        wl.rec.tracer = None
        tracer.uninstall()
    for kind in ("verify", "audit"):
        totals = tracer.totals([kind])
        self_sum = sum(v for m, v in totals.items() if m.endswith(".self_s"))
        assert self_sum == pytest.approx(totals[f"op.{kind}.total_s"], rel=1e-9)
    roots = {i: (s, e) for name, i, depth, s, e, _ in tracer.spans if depth == 0}
    assert len(roots) == 2
    for name, i, depth, start, end, self_s in tracer.spans:
        assert roots[i][0] <= start <= end <= roots[i][1]
        assert self_s >= 0


def test_accepting_a_tampered_proof_fails_the_run(challenge, monkeypatch):
    wl = challenge
    failed = wl.rec.failed
    monkeypatch.setattr(owner, "verify_encryption_proof", lambda *a, **k: True)
    wl.round("probe_proof", 99)
    assert wl.rec.failed == failed + 1
    assert "tampered proof accepted" in wl.rec.failures[-1]


def test_rejecting_an_honest_audit_fails_the_run(challenge, monkeypatch):
    wl = challenge
    failed = wl.rec.failed
    monkeypatch.setattr(wl.contract, "audit_verify", lambda *a, **k: False)
    wl.round("audit", 98)
    assert wl.rec.failed == failed + 1


def test_tamper_probes_are_rejected_by_the_program(challenge):
    wl = challenge
    failed = wl.rec.failed
    wl.round("probe_proof", 97)
    wl.round("probe_audit", 96)
    assert wl.rec.failed == failed


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "store-bn254", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

