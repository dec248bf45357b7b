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


# Executes the bn254 source with one constant corrupted at a time and prints
# what its import-time checks raised; an unchanged copy must load.
P_INT = 21888242871839275222246405745257275088696311157297823662689037894645226208583
GAMMA = (8376118865763821496583973867626364092589906065868298776909617916018768340080,
         16469823323077808223889137241176536799009286646108169935659301613961712198316)
CONSTANT_MUTATIONS = [
    # a gamma that is no sixth root of xi^(p-1)
    ("gamma", str(GAMMA[0]), str(GAMMA[0] + 1)),
    # -gamma passes the sixth-power and norm checks but flips psi's y
    ("gamma_sign", f"Fp2({GAMMA[0]},\n             {GAMMA[1]})",
     f"Fp2({P_INT - GAMMA[0]},\n             {P_INT - GAMMA[1]})"),
    ("psi", "_PSI_X, _PSI_Y = _gamma_powers[2], _gamma_powers[3]",
     "_PSI_X, _PSI_Y = _gamma_powers[2], _gamma_powers[3].neg()"),
    ("ate_naf", "_ATE_NAF = _digits(_wnaf(6 * U + 2, 2))[1:]",
     "_ATE_NAF = _digits(_wnaf(6 * U + 4, 2))[1:]"),
    ("u_naf", "_U_WNAF = _digits(_wnaf(U, 4))", "_U_WNAF = _digits(_wnaf(U + 2, 4))"),
    # a width-5 NAF of u is u, but reads f^9 and beyond, which _pow_u has not built
    ("u_naf_width", "_U_WNAF = _digits(_wnaf(U, 4))", "_U_WNAF = _digits(_wnaf(U, 5))"),
]
CONSTANT_SCRIPT = textwrap.dedent("""
    import sys, types
    from pathlib import Path
    import sevdel

    print("optimize", sys.flags.optimize)
    path = Path(sevdel.__file__).with_name("bn254.py")
    source = path.read_text()

    def load(text):
        mod = types.ModuleType("sevdel._bn254_copy")
        mod.__package__ = "sevdel"
        exec(compile(text, str(path), "exec"), mod.__dict__)

    load(source)
    print("unchanged loads")
    for name, old, new in MUTATIONS:
        assert source.count(old) == 1, name
        try:
            load(source.replace(old, new))
            print(name, "loaded")
        except Exception as exc:
            print(name, type(exc).__name__, exc)
""")


@pytest.mark.parametrize("flags", [["-O"], []])
def test_bn254_constant_checks_refuse_a_corrupted_constant(flags):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = f"MUTATIONS = {CONSTANT_MUTATIONS!r}\n" + CONSTANT_SCRIPT
    proc = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"optimize {1 if flags else 0}",
        "unchanged loads",
        "gamma InvariantViolation gamma^6 is not xi^(p-1)",
        "gamma_sign InvariantViolation G2 membership identity fails on G2_GEN",
        "psi InvariantViolation G2 membership identity fails on G2_GEN",
        "ate_naf InvariantViolation loop digits are not the NAF of 6u+2",
        "u_naf InvariantViolation exponent digits are not a width-4 NAF of u",
        "u_naf_width InvariantViolation exponent digits are not a width-4 NAF of u",
    ]
