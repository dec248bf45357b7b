"""Self-checks of the program raise explicitly, so python -O keeps them."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Breaks each invariant from outside the API and prints what the next
# checked operation raised.
SCRIPT = textwrap.dedent("""
    import sys
    from sevdel import cloud
    from sevdel.contract import Contract, Ledger, LogicalClock
    from sevdel.enclave import EnclaveRegistry
    from sevdel.groups import setup
    from sevdel.rng import SeededRng

    print("optimize", sys.flags.optimize)

    params = setup("toy", 16)
    ledger = Ledger({"prov": 5000})
    contract = Contract(params, ledger, LogicalClock())
    ledger.credit("mint", 1)             # currency appears outside the contract
    pub = cloud.server_keygen(params, SeededRng(b"p")).A.to_bytes()
    try:
        contract.service("prov", "n", pub, 100, 1, 2, 3, 4)
    except Exception as exc:
        print("conservation", type(exc).__name__, exc)

    class Sticky(bytearray):
        def __setitem__(self, key, value):   # ignores the zeroizing write
            pass

    enc = EnclaveRegistry().create(b"f" * 32)
    enc.seal(b"k", b"secret")
    enc._secrets[b"k"] = Sticky(b"secret")
    try:
        enc.destroy()
    except Exception as exc:
        print("zeroization", type(exc).__name__, exc)
""")


@pytest.mark.parametrize("flags", [["-O"], []])
def test_invariant_checks_raise_with_and_without_optimisation(flags):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *flags, "-c", SCRIPT],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == f"optimize {1 if flags else 0}"
    assert lines[1] == "conservation InvariantViolation currency conservation violated"
    assert lines[2] == "zeroization InvariantViolation zeroization failed"


# Runs bench with one check broken at a time and prints what it raised.
BENCH_SCRIPT = textwrap.dedent("""
    import sys
    from sevdel import cloud, owner, scenario

    print("optimize", sys.flags.optimize)

    real_decrypt = cloud.decrypt_file

    def off_by_one(*args):
        blocks = real_decrypt(*args)
        blocks.rows[0][0] ^= 1
        return blocks

    probes = [
        ("decryption", cloud, "decrypt_file", off_by_one),
        ("proof", owner, "verify_encryption_proof", lambda *args: False),
        ("audit", scenario, "verify_audit_response", lambda *args: False),
    ]
    for name, mod, attr, fake in probes:
        real = getattr(mod, attr)
        setattr(mod, attr, fake)
        try:
            scenario.bench([512], reps=1, group="toy")
            print(name, "timed")
        except Exception as exc:
            print(name, type(exc).__name__, exc)
        finally:
            setattr(mod, attr, real)
""")


@pytest.mark.parametrize("flags", [["-O"], []])
def test_bench_refuses_to_time_a_wrong_result(flags):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *flags, "-c", BENCH_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"optimize {1 if flags else 0}",
        "decryption InvariantViolation bench run decrypted a file wrongly",
        "proof InvariantViolation bench run produced a rejected proof",
        "audit InvariantViolation bench run produced a rejected audit",
    ]
