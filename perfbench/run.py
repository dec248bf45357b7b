"""sevdel benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload store-bn254 --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics, measured with
tracing off; with ``--trace 1`` it runs a fixed op list twice, untraced and
traced, and prints the per-layer metrics of the traced pass.  The last
line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The lines before it give the environment, each metric with its sample
count, and any failure.  The exit code is 1 when any op failed or any
output was wrong, and 2 when the sevdel sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {"store-bn254": "bn254", "challenge-bn254": "bn254", "roundtrip-toy": "toy"}
SETUP_RUNS = 3          # set-ups per run: this process plus two fresh ones
SETUP_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("ingest_sectors_per_s", "sectors/s"),
    ("retrieve_sectors_per_s", "sectors/s"),
    ("verify_s_p50", "s"),
    ("audit_s_p50", "s"),
    ("peak_rss_mib", "MiB"),
)

# Per-op counters of the traced pass; an op is a sector on the file
# workloads and a verification or audit round on challenge-bn254.
PER_OP = (
    "bn254.g1_mul.calls", "bn254.g1_mul.self_s", "bn254.g1_add.calls", "bn254.g2_mul.calls",
    "bn254.miller_loop.calls", "bn254.miller_loop.self_s",
    "bn254.final_exponentiation.calls", "bn254.final_exponentiation.self_s",
    "bn254.g2_from_bytes.calls", "bn254.g2_from_bytes.self_s",
    "bn254.g1_hash.calls", "bn254.g1_hash.self_s",
    "bn254.g1_from_bytes.calls", "bn254.g1_from_bytes.self_s",
    "groups.g1_pow.calls", "groups.g1_pow.scalar_bits", "groups.g1_double_exp.calls",
    "groups.pair.calls", "groups.hash_to_g1.calls",
    "groups.elem_to_scalar.calls", "groups.elem_to_scalar.self_s",
    "rng.read.calls", "rng.read.bytes",
    "codec.split.self_s", "codec.join.self_s",
    "owner.outsource.self_s", "owner.verify_encryption_proof.self_s",
    "owner.audit_respond.self_s", "owner.verify_delete_request.total_s",
    "cloud.encrypt_file.self_s", "cloud.gen_enc_tags.self_s",
    "cloud.decrypt_file.self_s", "cloud.prove_encryption.self_s",
    "nizk.prove_opening.self_s", "nizk.verify_opening.self_s",
    "enclave.seal.bytes", "enclave.unseal.bytes", "enclave.destroy.total_s",
    "contract.service.self_s", "contract.register_tags.self_s",
    "contract.audit_verify.self_s", "contract.verify_audit_response.self_s",
    "wire.proof.self_s", "wire.audit_response.self_s", "wire.ciphertexts.self_s",
)


def per_op_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {"calls": "count/op", "bytes": "B/op", "scalar_bits": "bit/op"}.get(suffix, "s/op")


# -- host calibration -------------------------------------------------------------

def calibrate() -> float:
    """Milliseconds for a fixed pure-int loop; tracks host speed, not sevdel."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        x = 1
        for _ in range(100_000):
            x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


# -- set-up -------------------------------------------------------------------------

def timed_setup(name: str, seed: int, host):
    """Import sevdel and set the workload up; returns (workload, seconds)."""
    def load():
        import workloads
        wl = workloads.WORKLOADS[name](seed, host)
        wl.setup()
        return wl

    return host.measure(load)


def fresh_setup(name: str, seed: int) -> dict:
    """One set-up in a new interpreter, so no cache of this process helps it."""
    cmd = [sys.executable] + ["-O"] * sys.flags.optimize + [
        str(Path(__file__).resolve()), "--setup-only", "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_only(name: str, seed: int) -> int:
    host = HostClock(WORKLOADS[name])
    with host.sampling():
        wl, setup_s = timed_setup(name, seed, host)
    rec = wl.rec
    print(json.dumps({"setup_s": setup_s, "ingest": rec.ingest, "retrieve": rec.retrieve,
                      "attempted": rec.attempted, "failed": rec.failed,
                      "failures": rec.failures}))
    return 0


# -- runs ---------------------------------------------------------------------------

# A metric with no samples can only follow failed ops, which already make
# the run incorrect; it reads 0 there.

def rate(samples) -> float:
    seconds = sum(dt for _, dt in samples)
    return sum(n for n, _ in samples) / seconds if seconds else 0.0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(name: str, seed: int, seconds: float, out: dict) -> dict:
    """End-to-end metrics; tracing off."""
    host = HostClock(WORKLOADS[name])
    with host.sampling():
        wl, setup_s = timed_setup(name, seed, host)
        rec = wl.rec
        deadline = time.perf_counter() + seconds
        peak_rss_mib = None
        for done, unit in enumerate(wl.units()):
            if time.perf_counter() >= deadline and done >= wl.min_units:
                break
            unit()
            if peak_rss_mib is None:
                # after set-up and one op unit, so it does not grow with run length
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wl.finish()
    out["slowdown"] = host.slowdown()

    setups = [setup_s]
    ingest, retrieve = list(rec.ingest), list(rec.retrieve)
    for _ in range(SETUP_RUNS - 1):
        r = fresh_setup(name, seed)
        setups.append(r["setup_s"])
        ingest += [tuple(x) for x in r["ingest"]]
        retrieve += [tuple(x) for x in r["retrieve"]]
        rec.attempted += r["attempted"]
        rec.failed += r["failed"]
        rec.failures += r["failures"]

    out["rec"] = rec
    out["samples"] = {
        "setup_s": f"{len(setups)} set-ups",
        "ingest_sectors_per_s": f"{len(ingest)} files, {sum(n for n, _ in ingest)} sectors",
        "retrieve_sectors_per_s": f"{len(retrieve)} files, {sum(n for n, _ in retrieve)} sectors",
        "verify_s_p50": f"{len(rec.verify_s)} rounds",
        "audit_s_p50": f"{len(rec.audit_s)} rounds",
        "peak_rss_mib": "set-up and first op unit",
    }
    return {
        "setup_s": statistics.median(setups),
        "ingest_sectors_per_s": rate(ingest),
        "retrieve_sectors_per_s": rate(retrieve),
        "verify_s_p50": median(rec.verify_s),
        "audit_s_p50": median(rec.audit_s),
        "peak_rss_mib": peak_rss_mib,
    }


def traced(name: str, seed: int, out: dict) -> dict:
    """Per-layer metrics: a fixed op list untraced, then the same list traced."""
    wl, _ = timed_setup(name, seed, HostClock(WORKLOADS[name]))
    rec = wl.rec
    import tracing

    busy0 = rec.busy_s
    for unit in wl.trace_units():
        unit()
    untraced_s = rec.busy_s - busy0

    tracer = tracing.Tracer()
    ops0 = wl.trace_ops()
    tracer.install(wl.params.group)
    rec.tracer = tracer
    busy0 = rec.busy_s
    try:
        for unit in wl.trace_units():
            unit()
    finally:
        rec.tracer = None
        tracer.uninstall()
    ops = wl.trace_ops() - ops0
    traced_s = rec.busy_s - busy0
    wl.finish()

    per_op = tracer.totals(wl.per_op_kinds or
                           [k for k in tracer.kinds() if k != tracing.OUTSIDE])
    everything = tracer.totals(tracer.kinds())
    metrics = {m: per_op.get(m, 0.0) / ops for m in PER_OP}
    metrics["contract.rejects"] = everything.get("contract.rejects", 0.0)

    def mean_size(kind: str, per: str) -> float:
        n = everything.get(per, 0.0)
        return everything.get(kind, 0.0) / n if n else 0.0

    metrics["wire.proof_bytes"] = mean_size("wire.proof.bytes", "wire.proof.msgs")
    metrics["wire.audit_response_bytes"] = mean_size(
        "wire.audit_response.bytes", "wire.audit_response.msgs")
    metrics["wire.ciphertext_bytes_per_sector"] = mean_size(
        "wire.ciphertexts.bytes", "wire.ciphertexts.sectors")
    metrics["bench.trace_overhead_ratio"] = traced_s / untraced_s

    out["rec"] = rec
    out["ops"] = ops
    out["op_unit"] = wl.op_unit
    out["per_kind"] = {}
    for kind in tracer.kinds():
        totals = tracer.totals([kind])
        n = totals.get(f"op.{kind}.calls", 1)
        out["per_kind"][kind] = {"ops": n, **{m: v / n for m, v in sorted(totals.items())
                                              if v and not m.startswith("op.")}}
    out["tracer"] = tracer
    return metrics


LAYER_UNITS = {
    **{m: per_op_unit(m) for m in PER_OP},
    "contract.rejects": "count",
    "wire.proof_bytes": "B",
    "wire.audit_response_bytes": "B",
    "wire.ciphertext_bytes_per_sector": "B/sector",
    "bench.calib_ms": "ms",
    "bench.trace_overhead_ratio": "ratio",
}


def environment(args) -> dict:
    import sevdel.bn254
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "gmpy2": find_spec("gmpy2") is not None,
        "bn254_field_ints": "gmpy2.mpz" if sevdel.bn254.mpz is not int else "int",
        "nproc": os.cpu_count(),
        "optimize": sys.flags.optimize,
        "platform": platform.platform(),
    }


def write_trace(path: Path, env: dict, out: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tracer = out["tracer"]
    spans = [{"name": n, "op": i, "depth": d, "start": s, "end": e, "self_s": self_s}
             for n, i, d, s, e, self_s in tracer.spans]
    with open(path, "w") as fp:
        json.dump({"env": env, "ops": out["ops"], "per_kind": out["per_kind"],
                   "spans": spans}, fp)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sevdel benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "sevdel" / "__init__.py").is_file():
        print(f"error: sevdel sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    spec = find_spec("sevdel")
    if spec is None or not Path(spec.origin).resolve().is_relative_to(SRC):
        print("error: sevdel does not resolve to the checkout's sources", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args.workload, args.seed)

    calib_before = calibrate()
    out: dict = {}
    if args.trace:
        metrics = traced(args.workload, args.seed, out)
    else:
        metrics = measure(args.workload, args.seed, args.seconds, out)
    calib_after = calibrate()
    rec = out["rec"]
    env = environment(args)
    print(json.dumps({"env": env}))
    print(json.dumps({"host": {"calib_ms_before": calib_before, "calib_ms_after": calib_after,
                               "slowdown": out.get("slowdown")}}))

    if args.trace:
        metrics["bench.calib_ms"] = (calib_before + calib_after) / 2
        units = LAYER_UNITS
        print(json.dumps({"per_kind": out["per_kind"]}))
        trace_path = HERE / "out" / f"{args.workload}-seed{args.seed}.trace.json"
        write_trace(trace_path, env, out)
        print(f"ops {out['ops']:g} {out['op_unit']}"
              f"; spans written to {trace_path.relative_to(ROOT)}")
    else:
        units = dict(END_TO_END)
        for name, unit in END_TO_END:
            print(f"{name:24s} {metrics[name]:14.6f} {unit:10s} n={out['samples'][name]}")
    print(f"{'failed_op_ratio':24s} {rec.failed}/{rec.attempted} ops")
    for failure in rec.failures:
        print(f"FAILED {failure}")

    correct = rec.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
