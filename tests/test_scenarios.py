"""Scenario engine, canonical regression scenarios, CLI, benchmarks."""

import hashlib
import json
import shutil
import struct
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_wire import _mutant

from sevdel.cli import main
from sevdel.errors import ScenarioError, SevdelError
from sevdel.groups import setup
from sevdel.scenario import BENCH_PHASES, Scenario, _Runner, bench, bench_csv, run_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
CANONICAL = sorted(SCENARIO_DIR.glob("*.json"))


def test_canonical_corpus_present():
    names = {p.stem for p in CANONICAL}
    assert names == {"honest", "skip_encryption", "deletion", "leak_audit"}


@pytest.mark.parametrize("path", CANONICAL, ids=lambda p: p.stem)
def test_canonical_scenarios_pass(path):
    sc = Scenario.from_json(path.read_text())
    transcript = run_scenario(sc)
    assert transcript.ok, transcript.failures


@pytest.mark.parametrize("path", CANONICAL, ids=lambda p: p.stem)
def test_transcripts_deterministic(path):
    a = run_scenario(Scenario.from_json(path.read_text())).to_text()
    b = run_scenario(Scenario.from_json(path.read_text())).to_text()
    assert a == b


def test_toy_transcripts_match_the_pinned_digests():
    # scenarios/transcripts.sha256 is in sha256sum format, one line per
    # transcript of each group; a change to any transcript byte, a wire
    # version bump included, must re-record it
    pinned = {}
    for line in (SCENARIO_DIR / "transcripts.sha256").read_text().splitlines():
        digest, name = line.split("  ")
        pinned[name] = digest
    names = [f"transcript-{Scenario.from_json(p.read_text()).name}.jsonl" for p in CANONICAL]
    assert sorted(pinned) == sorted(f"{group}/{name}" for group in ("bn254", "toy")
                                    for name in names)
    for path, name in zip(CANONICAL, names):
        text = run_scenario(Scenario.from_json(path.read_text())).to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == pinned["toy/" + name], name


def test_transcript_lines_are_json_with_monotone_seq():
    sc = Scenario.from_json((SCENARIO_DIR / "honest.json").read_text())
    text = run_scenario(sc).to_text()
    seqs = []
    for line in text.splitlines():
        entry = json.loads(line)
        assert {"seq", "time", "event"} <= set(entry)
        seqs.append(entry["seq"])
    assert seqs == sorted(seqs)


def test_unmet_expectation_fails_run():
    sc = Scenario.from_json((SCENARIO_DIR / "honest.json").read_text())
    sc.expect["verify"] = "reject"
    transcript = run_scenario(sc)
    assert not transcript.ok
    assert any("verify" in f for f in transcript.failures)


def test_scenario_validation_errors():
    with pytest.raises(ScenarioError):
        Scenario.from_json("{not json")
    with pytest.raises(ScenarioError):
        Scenario.from_json(json.dumps({"name": "x", "seed": 1, "timeline": []}))
    with pytest.raises(ScenarioError):
        Scenario.from_json(json.dumps({
            "name": "x", "seed": 1,
            "timeline": [{"time": 0, "action": "no-such-action"}]}))
    with pytest.raises(ScenarioError):
        Scenario.from_json(json.dumps({
            "name": "x", "seed": 1, "unknown_field": True,
            "timeline": [{"time": 0, "action": "setup"}]}))
    with pytest.raises(ScenarioError):
        Scenario.from_json(json.dumps({
            "name": "x", "seed": 1,
            "timeline": [{"time": 5, "action": "setup"},
                         {"time": 1, "action": "service"}]}))
    # the name is part of the transcript's file name
    for name in ("a/b", "./", "a\\b", "x\u0000y"):
        with pytest.raises(ScenarioError, match="name"):
            Scenario.from_json(_with(name=name))


HONEST = (SCENARIO_DIR / "honest.json").read_text()


def _with(**fields):
    return json.dumps({**json.loads(HONEST), **fields})


def test_scenario_parser_refuses_ill_typed_input():
    good = json.loads(HONEST)
    step = good["timeline"][0]
    bad_texts = [
        "5",
        "[[1]]",
        "[" * 100000,
        _with(timeline=[5]),
        _with(timeline=[{**step, "time": "a"}]),
        _with(timeline=[{**step, "time": -1}]),
        _with(timeline=[{**step, "time": 0.5}]),
        _with(timeline=[{**step, "action": ["setup"]}]),
        _with(timeline={"time": 0}),
        _with(faults=[3]),
        _with(faults={"type": "tamper-block"}),
        _with(faults=[{"type": "tamper-block", "block": 0}]),
        _with(faults=[{"type": "skip-encryption", "blocks": 1}]),
        _with(deadlines={**good["deadlines"], "t2": "a"}),
        _with(deadlines=[10, 20, 30, 40]),
        _with(file_size="x"),
        _with(file_size=True),
        _with(seed=-1),
        _with(seed=1 << 128),
        _with(name=5),
        _with(name="\ud800"),
        _with(group="p256"),
        _with(sector_bits=12),
        _with(sectors_per_block=0),
        _with(challenge_count=0),
        _with(deposit="1000"),
        _with(stake=None),
        _with(initial_balances={"owner": -1}),
        _with(initial_balances=[]),
        _with(expect=[]),
        _with(file_path=7),
    ]
    for text in bad_texts:
        with pytest.raises(ScenarioError):
            Scenario.from_json(text)


def test_fault_beyond_the_file_is_refused():
    for fault in ({"type": "tamper-block", "block": 10 ** 6},
                  {"type": "skip-encryption", "blocks": [1, 10 ** 6]}):
        with pytest.raises(ScenarioError, match="beyond"):
            run_scenario(Scenario.from_json(_with(faults=[fault])))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_scenario_parser_raises_only_scenario_errors(data):
    # each mutant of a canonical scenario is refused with a ScenarioError,
    # or parses into a scenario the runner can be built from
    try:
        sc = Scenario.from_json(_mutant(data, HONEST))
    except ScenarioError:
        return
    _Runner(sc)


@pytest.mark.parametrize("group", ["toy", "bn254"])
def test_faulted_rows_have_the_type_of_their_neighbours(group):
    sc = Scenario.from_json(_with(
        group=group, file_size=64, sector_bits=8,
        timeline=[{"time": 0, "action": "setup"}, {"time": 1, "action": "outsource"},
                  {"time": 2, "action": "encrypt"}],
        faults=[{"type": "skip-encryption", "blocks": [1]},
                {"type": "tamper-block", "block": 3}]))
    runner = _Runner(sc)
    runner.run()
    cts = runner.cts
    for rows in (cts.rows_prime, cts.rows_dprime):
        assert len({type(row) for row in rows}) == 1
        assert len({getattr(row, "typecode", None) for row in rows}) == 1
    assert cts.rows_prime[0] != cts.rows_prime[1] and cts.rows_prime[2] != cts.rows_prime[3]


def _timeline(*actions):
    return [{"time": t, "action": a} for t, a in enumerate(actions)]


def test_steps_refuse_to_run_before_their_prerequisites(tmp_path):
    cases = [
        _timeline("encrypt"),
        _timeline("setup", "audit"),
        _timeline("setup", "encrypt"),
        _timeline("service"),
        _timeline("outsource"),
        _timeline("setup", "outsource", "register_tags"),
        _timeline("setup", "outsource", "verify_encryption"),
        _timeline("setup", "outsource", "decrypt_roundtrip"),
        _timeline("setup", "leak"),
        _timeline("setup", "outsource", "delete"),
    ]
    for timeline in cases:
        with pytest.raises(ScenarioError, match="needs a"):
            run_scenario(Scenario.from_json(_with(timeline=timeline)))
    for path in (tmp_path / "missing.bin", tmp_path, "nul\u0000byte"):
        with pytest.raises(ScenarioError, match="file_path"):
            run_scenario(Scenario.from_json(_with(file_path=str(path))))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_reordered_and_truncated_timelines_raise_only_sevdel_errors(data):
    steps = json.loads(HONEST)["timeline"]
    order = data.draw(st.permutations(range(len(steps))))
    kept = order[:data.draw(st.integers(1, len(steps)))]
    # the actions move, the times stay in order
    timeline = [{"time": steps[t]["time"], "action": steps[k]["action"]}
                for t, k in enumerate(kept)]
    try:
        run_scenario(Scenario.from_json(_with(timeline=timeline, file_size=256)))
    except SevdelError:
        pass


def test_cli_run_scenario_exit_codes(tmp_path):
    runner = CliRunner()
    ok = runner.invoke(main, ["run-scenario", str(SCENARIO_DIR / "honest.json"),
                              "--out", str(tmp_path)])
    assert ok.exit_code == 0, ok.output
    assert (tmp_path / "transcript-honest.jsonl").exists()

    broken = dict(json.loads((SCENARIO_DIR / "honest.json").read_text()))
    broken["expect"] = {"verify": "reject"}
    bad_path = tmp_path / "broken.json"
    bad_path.write_text(json.dumps(broken))
    bad = runner.invoke(main, ["run-scenario", str(bad_path), "--out", str(tmp_path)])
    assert bad.exit_code == 1

    invalid = tmp_path / "invalid.json"
    invalid.write_text("{}")
    res = runner.invoke(main, ["run-scenario", str(invalid), "--out", str(tmp_path)])
    assert res.exit_code == 2

    # a name with a path separator is refused before the first step, even
    # where the directory it points into exists
    out = tmp_path / "named"
    (out / "a").mkdir(parents=True)
    slashed = tmp_path / "slashed.json"
    slashed.write_text(_with(name="a/b"))
    res = runner.invoke(main, ["run-scenario", str(slashed), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "error:" in res.output
    assert [p.name for p in out.rglob("*")] == ["a"]


_WRITE_COMMANDS = {   # name: command line, before --out
    "setup": ["setup", "--group", "toy"],
    "run-scenario": ["run-scenario", str(SCENARIO_DIR / "honest.json")],
    "bench": ["bench", "--group", "toy", "--sizes", "64", "--reps", "1"],
}


@pytest.mark.parametrize("command", sorted(_WRITE_COMMANDS))
def test_cli_unwritable_out_fails_cleanly(tmp_path, command):
    # an --out that names an existing file is one error line and exit
    # code 2, not a traceback with exit code 1, the code of a failed expectation
    out = tmp_path / "file"
    out.write_bytes(b"")
    res = CliRunner().invoke(main, _WRITE_COMMANDS[command] + ["--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "error:" in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    assert out.read_bytes() == b""


UNREADABLE_INPUTS = {   # name: (command line up to the input's path, what to put there)
    "run-scenario-not-utf8": (["run-scenario"], lambda p: p.write_bytes(b'{"name": "\xff"}')),
    "run-scenario-directory": (["run-scenario"], Path.mkdir),
    "outsource-file-directory": (["outsource", "--file"], Path.mkdir),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
def test_cli_unreadable_input_fails_cleanly(tmp_path, case):
    # an input file that cannot be read is one error line and exit code 2,
    # not a traceback with exit code 1, the code of a failed expectation
    runner = CliRunner()
    _, out = _artifacts(tmp_path, runner)
    command, make = UNREADABLE_INPUTS[case]
    make(tmp_path / "input")
    res = runner.invoke(main, command + [str(tmp_path / "input"), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "error:" in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception


def test_cli_artifact_pipeline(tmp_path):
    runner = CliRunner()
    demo = tmp_path / "demo.bin"
    demo.write_bytes(bytes(range(256)) * 3)
    out = tmp_path / "out"
    for args in (
        ["setup", "--group", "toy", "--out", str(out)],
        ["outsource", "--file", str(demo), "--out", str(out)],
        ["encrypt", "--out", str(out)],
    ):
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
    for name in ("params.json", "provider.json", "manifest.json", "blocks.bin",
                 "tags.bin", "owner.json", "owner_public.json", "ciphertext.bin", "enc_tags.bin",
                 "encryption.json"):
        assert (out / name).exists(), name


def _artifacts(tmp_path, runner):
    demo = tmp_path / "demo.bin"
    demo.write_bytes(bytes(range(256)))
    out = tmp_path / "out"
    for args in (["setup", "--group", "toy", "--out", str(out)],
                 ["outsource", "--file", str(demo), "--out", str(out)]):
        assert runner.invoke(main, args).exit_code == 0
    return demo, out


# the JSON edits below keep the layout the CLI writes, so each broken
# artifact fails the check its case names and not only the layout check

def _edit_json(name, edit):
    def corrupt(out):
        d = edit(json.loads((out / name).read_text()))
        (out / name).write_text(json.dumps(d, indent=2, sort_keys=True))
    return corrupt


def _drop_key(name, key):
    return _edit_json(name, lambda d: {k: v for k, v in d.items() if k != key})


def _set_keys(name, **values):
    return _edit_json(name, lambda d: {**d, **values})


def _rewrite(name, edit):
    def corrupt(out):
        (out / name).write_bytes(edit((out / name).read_bytes()))
    return corrupt


def _upper_file_id(text):
    d = json.loads(text)
    return json.dumps({**d, "file_id": d["file_id"].upper()}, sort_keys=True).encode()


def _widen_blocks(data):
    # blocks.bin's n x s as 32-bit sectors near 2^31, values that the
    # 16-bit bound of params.json and manifest.json can never decrypt
    n, s, _ = struct.unpack_from(">IIB", data)
    return struct.pack(">IIB", n, s, 32) + struct.pack(f"<{n * s}I", *range(2 ** 31, 2 ** 31 + n * s))


BROKEN_ARTIFACTS = {   # name: (command, corruption of the artifact directory)
    # params.json naming other params than the digest it carries
    "encrypt-params-digest-stale": ("encrypt", _set_keys("params.json", sector_bits=8,
                                                         params_digest="00")),
    # consistent params.json, but the manifest was split into 16-bit sectors
    "encrypt-manifest-sector-bits-disagree": ("encrypt", _set_keys(
        "params.json", sector_bits=8, params_digest=setup("toy", 8).digest().hex())),
    # blocks.bin whose header sector width disagrees with both
    "encrypt-blocks-sector-bits-disagree": ("encrypt", _rewrite("blocks.bin", _widen_blocks)),
    "encrypt-manifest-not-utf8": ("encrypt", _rewrite("manifest.json", lambda b: b"\xff" + b)),
    "encrypt-manifest-file-id-upper-case": ("encrypt", _rewrite("manifest.json", _upper_file_id)),
    # the owner cases break owner_public.json, the only owner artifact
    # encrypt reads
    "encrypt-owner-without-u": ("encrypt", _drop_key("owner_public.json", "u")),
    "encrypt-owner-u-not-hex": ("encrypt", _set_keys("owner_public.json", u=["zz"])),
    "encrypt-owner-missing": ("encrypt", lambda out: (out / "owner_public.json").unlink()),
    # owner_public.json, provider.json and params.json decode only in the
    # exact text the CLI writes: hex case and spacing, extra keys, layout
    "encrypt-owner-u-upper-case": ("encrypt", _edit_json(
        "owner_public.json", lambda d: {**d, "u": [h.upper() for h in d["u"]]})),
    "encrypt-owner-u-spaced": ("encrypt", _edit_json(
        "owner_public.json", lambda d: {**d, "u": [h[:2] + " " + h[2:] for h in d["u"]]})),
    "encrypt-owner-extra-key": ("encrypt", _set_keys("owner_public.json", note="")),
    "encrypt-owner-compact": ("encrypt", _rewrite(
        "owner_public.json", lambda b: json.dumps(json.loads(b), sort_keys=True).encode())),
    "encrypt-owner-w-upper-case": ("encrypt", _edit_json(
        "owner_public.json", lambda d: {**d, "W": d["W"].upper()})),
    "encrypt-provider-a-upper-case": ("encrypt", _edit_json(
        "provider.json", lambda d: {**d, "a": d["a"].upper()})),
    "encrypt-provider-extra-key": ("encrypt", _set_keys("provider.json", b="00")),
    "encrypt-params-compact": ("encrypt", _rewrite(
        "params.json", lambda b: json.dumps(json.loads(b), sort_keys=True).encode())),
    "encrypt-params-extra-key": ("encrypt", _set_keys("params.json", note="")),
    "encrypt-params-sector-bits-float": ("encrypt", _set_keys("params.json", sector_bits=16.0)),
    "encrypt-provider-not-json": ("encrypt", lambda out: (out / "provider.json").write_text("[")),
    "encrypt-blocks-truncated": ("encrypt", lambda out: (out / "blocks.bin").write_bytes(
        (out / "blocks.bin").read_bytes()[:5])),
    "encrypt-manifest-missing": ("encrypt", lambda out: (out / "manifest.json").unlink()),
    "outsource-params-unparsable": ("outsource", lambda out: (out / "params.json").write_text("{")),
    "outsource-params-without-group": ("outsource", _drop_key("params.json", "group")),
    "outsource-params-unknown-group": ("outsource", _set_keys("params.json", group="p256")),
    "outsource-params-bad-sector-bits": ("outsource", _set_keys("params.json", sector_bits=7)),
}


@pytest.mark.parametrize("case", sorted(BROKEN_ARTIFACTS))
def test_cli_artifact_commands_fail_cleanly(tmp_path, case):
    # a missing, unparsable or incomplete artifact is an error message and
    # exit code 2, never a traceback
    runner = CliRunner()
    demo, out = _artifacts(tmp_path, runner)
    command, corrupt = BROKEN_ARTIFACTS[case]
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    corrupt(out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} != before
    args = [command, "--out", str(out)] + (["--file", str(demo)] if command == "outsource" else [])
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "error:" in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_cli_encrypt_reads_no_owner_secret(tmp_path):
    # the provider-side encrypt reads only the owner's public W and u: with
    # owner.json, which holds w and the x_j, deleted it writes the same files
    runner = CliRunner()
    _, out = _artifacts(tmp_path, runner)
    owner_keys = json.loads((out / "owner.json").read_text())
    public = json.loads((out / "owner_public.json").read_text())
    assert public == {"W": owner_keys["W"], "u": owner_keys["u"]}
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    (copy / "owner.json").unlink()
    for d in (out, copy):
        res = runner.invoke(main, ["encrypt", "--out", str(d)])
        assert res.exit_code == 0, res.output
    for name in ("ciphertext.bin", "enc_tags.bin", "encryption.json"):
        assert (copy / name).read_bytes() == (out / name).read_bytes(), name


_TOY_BENCH = ["bench", "--group", "toy", "--sizes", "64", "--reps", "1"]
BAD_OPTIONS = {   # name: command line, before --out
    "bench-reps-0": _TOY_BENCH + ["--reps", "0"],
    "bench-sizes-0": _TOY_BENCH + ["--sizes", "0"],
    "bench-sizes-abc": _TOY_BENCH + ["--sizes", "abc"],
    "bench-sizes-empty": _TOY_BENCH + ["--sizes", ","],
    "bench-challenge-count-0": _TOY_BENCH + ["--challenge-count", "0"],
    "bench-sectors-0": _TOY_BENCH + ["--sectors", "0"],
    "bench-seed-negative": _TOY_BENCH + ["--seed", "-1"],
    "outsource-sectors-0": ["outsource", "--sectors", "0"],
    "setup-seed-negative": ["setup", "--group", "toy", "--seed", "-1"],
    "setup-seed-2^128": ["setup", "--group", "toy", "--seed", str(2 ** 128)],
}


@pytest.mark.parametrize("case", sorted(BAD_OPTIONS))
def test_cli_bad_options_fail_cleanly(tmp_path, case):
    # an option out of range is a usage error or an error line with exit
    # code 2 on every command, never a traceback
    runner = CliRunner()
    demo, out = _artifacts(tmp_path, runner)
    args = BAD_OPTIONS[case] + ["--out", str(out)]
    if args[0] == "outsource":
        args += ["--file", str(demo)]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception


def test_cli_verify_real_file(tmp_path):
    # encryption verification and a decryption round-trip over bytes read
    # from disk: the honest run with file_path naming the file
    target = tmp_path / "target.bin"
    target.write_bytes(b"the bytes that must survive" * 10)
    scenario = tmp_path / "real-file.json"
    scenario.write_text(_with(file_path=str(target)))
    res = CliRunner().invoke(main, ["run-scenario", str(scenario), "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert "verify: accept" in res.output
    assert "roundtrip: match" in res.output
    transcript = (tmp_path / "transcript-honest.jsonl").read_text()
    assert hashlib.sha256(target.read_bytes()).hexdigest() in transcript


def test_readme_cli_block_names_registered_commands():
    readme = (SCENARIO_DIR.parent / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```\n")[1]
    commands = [line.split()[1] for line in block.splitlines() if line.startswith("sevdel ")]
    assert commands and set(commands) <= set(main.commands), commands


# -- bench -------------------------------------------------------------------------

def test_bench_empty_sizes():
    # no size would leave the report without a phase
    with pytest.raises(ScenarioError, match="sizes"):
        bench([])


def test_bench_refuses_zero_reps():
    # no repetition would leave every phase without a time to report
    with pytest.raises(ScenarioError, match="reps"):
        bench([64], reps=0)


def test_bench_rows_and_csv(tmp_path):
    rows = bench([4096, 65536], reps=3, group="toy", s=8, sector_bits=16)
    by_phase = {}
    for r in rows:
        by_phase.setdefault(r["phase"], {})[r["size_bytes"]] = r["median_s"]
    # tagging cost grows with file size
    assert by_phase["tagging"][65536] >= by_phase["tagging"][4096]
    # proof size does not depend on file size for a fixed challenge
    assert by_phase["proof_size_bytes"][65536] == by_phase["proof_size_bytes"][4096]
    csv_text = bench_csv(rows)
    assert csv_text.splitlines()[0] == "size_bytes,phase,median_s,p95_s"
    assert len(csv_text.splitlines()) == len(rows) + 1


@pytest.mark.parametrize("group", ["toy", "bn254"])
def test_bench_reports_decryption(group):
    rows = bench([512], reps=1, group=group, s=8, sector_bits=16)
    phases = [r["phase"] for r in rows]
    assert phases == [*BENCH_PHASES, "proof_size_bytes", "audit_response_size_bytes"]
    for phase in ("ciphertext_decode", "decryption", "ciphertext_tagging", "audit_respond"):
        assert rows[phases.index(phase)]["median_s"] > 0
    assert rows[phases.index("audit_response_size_bytes")]["median_s"] > 0


def test_committed_bench_files_hold_parent_and_change():
    files = sorted(SCENARIO_DIR.parent.glob("BENCH_*.json"))
    assert files
    for path in files:
        record = json.loads(path.read_text())
        for side in ("parent", "change"):
            assert {"env", "config", "phases", "layers"} <= set(record[side]), (path.name, side)


def test_bench_json_writes_env_phases_and_layers(tmp_path):
    result = CliRunner().invoke(main, ["bench", "--group", "toy", "--sizes", "512",
                                       "--reps", "1", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "bench.json").read_text())
    assert set(report) == {"env", "config", "phases", "layers"}
    assert set(report["env"]) == {"python", "gmpy2", "cpu_count"}
    assert report["config"]["sizes"] == [512]
    assert [r["phase"] for r in report["phases"]] == [
        "tagging", "encryption", "ciphertext_tagging", "ciphertext_decode", "decryption",
        "proof_gen", "proof_verify", "audit_respond", "audit_verify", "proof_size_bytes",
        "audit_response_size_bytes"]
    assert set(report["layers"]) == {"g1_mul_variable_base_ms", "g1_mul_generator_ms",
                                     "g1_from_bytes_ms", "g1_row_from_bytes_ms",
                                     "g1_row_decode_ms", "g1_row_encodings_ms", "g1_hash_ms",
                                     "pairing_ms", "g1_msm_rows_ms", "g1_gen_add_ms",
                                     "dlog_table_ms", "dlog_table_mib", "dlog_lookup_ms"}
    assert all(ms > 0 for ms in report["layers"].values())
