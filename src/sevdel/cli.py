"""Command-line harness.

``setup``/``outsource``/``encrypt`` materialize protocol artifacts on
disk.  ``run-scenario`` is the one command that runs a flow --
encryption verification, deletion, a leak audit -- from a declarative
scenario file over seeded bytes or a file it names, and writes its
JSONL transcript; ``bench`` measures the phases.  An encryption key
lives only inside its in-process enclave -- by design it does not
survive the invocation, so decryption and proving happen inside one
scenario run, never across separate processes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import cloud, codec, owner, wire
from .enclave import EnclaveRegistry
from .errors import MalformedProof, SevdelError
from .groups import scalar_from_bytes, scalar_to_bytes, setup as group_setup, vgen_points
from .rng import SeededRng
from .scenario import (
    Scenario,
    bench as run_bench,
    bench_csv,
    bench_layers,
    bench_report,
    run_scenario,
)

_seed_opt = click.option("--seed", default=1, show_default=True,
                         type=click.IntRange(0, 2 ** 128 - 1), help="Deterministic run seed.")
_out_opt = click.option("--out", type=click.Path(path_type=Path), default=Path("sevdel-out"),
                        show_default=True, help="Artifact/transcript directory.")
_sectors_opt = click.option("--sectors", default=8, show_default=True,
                            type=click.IntRange(min=1), help="Sectors per block (s).")
_bits_opt = click.option("--sector-bits", default=16, show_default=True,
                         type=click.Choice([str(b) for b in codec.SECTOR_WIDTHS]),
                         help="Sector width in bits.")
_count_opt = click.option("--challenge-count", default=8, show_default=True,
                          type=click.IntRange(min=1), help="Blocks sampled per challenge.")
_group_opt = click.option("--group", default="bn254", show_default=True,
                          type=click.Choice(["bn254", "toy"]), help="Pairing backend.")


class _Main(click.Group):
    """Reports a SevdelError from any command as one error line, exit code 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SevdelError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


@click.group(cls=_Main)
def main():
    """Secure-and-verifiable deletion protocol simulator."""


def _write(out: Path, name: str, data) -> Path:
    """Write data (bytes or text) to out/name, making out if need be.
    Raises MalformedProof for a path that cannot be written (out names a
    file, a NUL in the path, no permission)."""
    path = out / name
    try:
        out.mkdir(parents=True, exist_ok=True)
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(data)
    except (OSError, ValueError) as exc:
        raise MalformedProof(f"cannot write {path}: {exc}") from exc
    return path


def _load(path: Path, parse=None):
    """The bytes of the file at path, or parse of its UTF-8 text.  Raises
    MalformedProof for a path that cannot be read (missing, a directory)
    or a text that is not UTF-8; parse raises only SevdelError."""
    try:
        data = path.read_bytes()
        if parse is None:
            return data
        text = data.decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedProof(f"cannot read {path}: {exc}") from exc
    return parse(text)


def _load_json(out: Path, name: str, build, encode):
    """The JSON artifact out/name through codec.decode_canonical: build
    of its parsed text, accepted only if encode writes that text back
    byte for byte."""
    return _load(out / name, lambda text: codec.decode_canonical(text, build, encode, name))


# each JSON artifact has one encoder (*_text), which writes it and which
# _load_json compares its reader's result (*_keys, group_setup) against;
# owner.json, which holds the owner's secrets w and x_j, has no reader:
# the provider-side encrypt reads the public W and u from owner_public.json

def _params_text(params) -> str:
    return json.dumps({"group": params.group.name, "sector_bits": params.sector_bits,
                       "params_digest": params.digest().hex()}, indent=2, sort_keys=True)


def _provider_text(params, skeys) -> str:
    return json.dumps({"a": scalar_to_bytes(params.group, skeys.a).hex(),
                       "A": skeys.A.hex()}, indent=2, sort_keys=True)


def _provider_keys(params, d) -> cloud.ServerKeyPair:
    return cloud.ServerKeyPair(a=scalar_from_bytes(params.group, bytes.fromhex(d["a"])),
                               A=params.g2_from_bytes(bytes.fromhex(d["A"])))


def _owner_text(params, okeys, gens) -> str:
    return json.dumps(
        {"w": scalar_to_bytes(params.group, okeys.w).hex(),
         "W": okeys.W.hex(),
         "x": [scalar_to_bytes(params.group, xj).hex() for xj in gens.x],
         "u": [e.hex() for e in gens.u]}, indent=2, sort_keys=True)


def _owner_public_text(public) -> str:
    W, u = public
    return json.dumps({"W": W.hex(), "u": [e.hex() for e in u]}, indent=2, sort_keys=True)


def _owner_public_keys(params, d) -> tuple:
    return (params.g2_from_bytes(bytes.fromhex(d["W"])),
            tuple(params.g1_from_bytes(bytes.fromhex(h)) for h in d["u"]))


def _load_params(out: Path):
    """The params that params.json names; MalformedProof unless the file
    is exactly what setup writes for them, params_digest included."""
    return _load_json(out, "params.json",
                      lambda d: group_setup(d["group"], d["sector_bits"]), _params_text)


@main.command()
@_group_opt
@_bits_opt
@_seed_opt
@_out_opt
def setup(group, sector_bits, seed, out):
    """Bootstrap system parameters and the provider key pair."""
    params = group_setup(group, int(sector_bits))
    skeys = cloud.server_keygen(params, SeededRng(seed).child("server-keys"))
    _write(out, "params.json", _params_text(params))
    _write(out, "provider.json", _provider_text(params, skeys))
    click.echo(f"wrote params.json and provider.json to {out}")


@main.command()
@click.option("--file", "file_path", type=click.Path(exists=True, path_type=Path),
              required=True, help="File to outsource.")
@_sectors_opt
@_seed_opt
@_out_opt
@click.option("--owner-id", default="owner", show_default=True)
def outsource(file_path, sectors, seed, out, owner_id):
    """Split the file, generate owner keys and per-block tags."""
    params = _load_params(out)
    data = _load(file_path)
    manifest, blocks = codec.split(data, sectors, params.sector_bits,
                                   owner_id=owner_id.encode(),
                                   file_name=file_path.name.encode())
    rng = SeededRng(seed)
    okeys = owner.keygen(params, rng.child("owner-keys"))
    gens, tags = owner.outsource(params, okeys, manifest, blocks, rng.child("outsource"))
    _write(out, "manifest.json", manifest.to_json())
    _write(out, "blocks.bin", wire.encode_blocks(manifest, blocks))
    _write(out, "tags.bin", wire.encode_tagset(tags))
    _write(out, "owner.json", _owner_text(params, okeys, gens))
    _write(out, "owner_public.json", _owner_public_text((okeys.W, gens.u)))
    click.echo(f"outsourced {file_path} as {manifest.n}x{manifest.s} blocks "
               f"(file id {manifest.file_id.hex()[:16]}...)")


@main.command()
@_seed_opt
@_out_opt
def encrypt(seed, out):
    """Encrypt previously outsourced blocks and tag the ciphertexts.

    The enclave (and hence the decryption key) exists only for the
    duration of this invocation; that is the deletion guarantee at work.
    """
    params = _load_params(out)
    manifest = _load(out / "manifest.json", codec.FileManifest.from_json)
    blocks = wire.decode_blocks(_load(out / "blocks.bin"))
    if manifest.sector_bits != params.sector_bits:
        raise MalformedProof(f"manifest.json: sector_bits {manifest.sector_bits} "
                             f"disagrees with params.json ({params.sector_bits})")
    _, u = _load_json(out, "owner_public.json", lambda d: _owner_public_keys(params, d),
                      _owner_public_text)
    skeys = _load_json(out, "provider.json", lambda d: _provider_keys(params, d),
                       lambda keys: _provider_text(params, keys))
    registry = EnclaveRegistry()
    enclave = registry.create(manifest.file_id)
    rng = SeededRng(seed)
    cts, v_pub = cloud.encrypt_file(params, enclave, manifest, blocks, rng.child("encrypt"))
    enc_tags = cloud.gen_enc_tags(params, skeys, manifest, cts, u,
                                  vgen_points(params, manifest.file_id, manifest.s))
    _write(out, "ciphertext.bin", wire.encode_ciphertexts(params, cts))
    _write(out, "enc_tags.bin", wire.encode_enc_tagset(enc_tags))
    _write(out, "encryption.json", json.dumps(
        {"V": v_pub.hex(), "enclave_id": enclave.enclave_id,
         "note": "the enclave and its key die with this process"},
        indent=2, sort_keys=True))
    click.echo(f"encrypted {manifest.n}x{manifest.s} sectors under enclave "
               f"{enclave.enclave_id}")


@main.command(name="run-scenario")
@click.argument("scenario_file", type=click.Path(exists=True, path_type=Path))
@_out_opt
def run_scenario_cmd(scenario_file, out):
    """Execute a declarative scenario file; exit 0 iff expectations hold."""
    sc = _load(scenario_file, Scenario.from_json)
    transcript = run_scenario(sc)
    path = _write(out, f"transcript-{sc.name}.jsonl", transcript.to_text())
    for key, value in sorted(transcript.verdicts.items()):
        click.echo(f"{key}: {value}")
    click.echo(f"transcript: {path}")
    if not transcript.ok:
        for failure in transcript.failures:
            click.echo(f"FAILED: {failure}", err=True)
        sys.exit(1)
    click.echo("ok")


def _parse_sizes(ctx, param, value):
    try:
        sizes = [int(v) for v in value.split(",") if v]
        if sizes and all(size >= 1 for size in sizes):
            return sizes
    except ValueError:
        pass
    raise click.BadParameter(f"{value!r} is not a comma-separated list of positive integers")


@main.command()
@click.option("--sizes", default="65536,1048576", show_default=True, callback=_parse_sizes,
              help="Comma-separated file sizes in bytes.")
@click.option("--reps", default=3, show_default=True, type=click.IntRange(min=1))
@click.option("--group", default="toy", show_default=True,
              type=click.Choice(["bn254", "toy"]),
              help="Backend to measure (bn254 is slow above a few KiB).")
@_sectors_opt
@_bits_opt
@_count_opt
@_seed_opt
@_out_opt
def bench(sizes, reps, group, sectors, sector_bits, challenge_count, seed, out):
    """Measure per-phase wall time and proof sizes; write CSV and JSON."""
    rows = run_bench(sizes, reps=reps, group=group, s=sectors,
                     sector_bits=int(sector_bits),
                     challenge_count=challenge_count, seed=seed)
    csv_text = bench_csv(rows)
    path = _write(out, "bench.csv", csv_text)
    click.echo(csv_text.rstrip())
    click.echo(f"wrote {path}")
    config = {"group": group, "sizes": sizes, "reps": reps, "sectors": sectors,
              "sector_bits": int(sector_bits), "challenge_count": challenge_count,
              "seed": seed}
    report = bench_report(rows, bench_layers(group, seed=seed), config)
    report_text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    click.echo(f"wrote {_write(out, 'bench.json', report_text)}")


if __name__ == "__main__":
    main()
