"""Golden CLI outputs: the sha256 of stdout for bundled and generated networks.

Each case runs one ``pktflow`` command in-process from a directory holding
copies of the bundled fixtures and the configs ``random-<seed>.json`` written
from ``gen.random_network(seed)``, so the ``network`` field of the JSON
outputs is the bare file name.  Its stdout is hashed after zeroing
``stats.wall_time_s`` (the only field that differs between runs).  The
cases are:

* ``analyze`` (text/JSON x v1/v2/ia), ``policy`` (text/JSON) and
  ``testgen --per-pair 3`` (text/JSON) from every zone of every fixture;
* ``check`` (text/JSON x v1/v2/ia) from every zone of the two small
  fixtures, which runs the exhaustive oracle and its concretization;
* ``analyze`` text x v1/v2/ia on ``random_network`` seeds 0-99, which
  exercises v2 packet splitting on NAT rules the fixtures lack;
* ``analyze --variant v2`` text and ``testgen --per-pair 3`` text from every
  zone of ``data/ring-4x4-<seed>.json`` (``perfbench/netgen.py ring 4 4
  SEED`` for seeds 1-3).  Their ``v2`` firewalls re-expand with DNAT on
  ``dp`` and a ``rest`` zone, so packets split on mixed NAT masks;
* ``analyze --variant v1`` text and JSON from every zone of
  ``data/mesh-6x8-1.json`` (``perfbench/netgen.py mesh 6 8 2 1``).  From a
  zone most filter rules test sources outside it, which the compiled filter
  path leaves out; from ``REST`` it leaves out none.

The digests in ``data/cli_golden.json`` were recorded before changes that
had to keep every byte; rendered bytes must not change with a speedup or a
refactor, nor with the interpreter's hash seed.

To record the digests again, after a deliberate change to the output:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from pktflow.cli import main
from pktflow.gen import FIXTURES, fixture_path, random_network
from pktflow.netmodel import load_network_file

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
WALL_TIME = re.compile(r'"wall_time_s": [-+.0-9eE]+')
CHECK_FIXTURES = ("fig1-small.json", "fig3-small.json")
RANDOM_SEEDS = range(100)
VARIANTS = ("v1", "v2", "ia")
RINGS = tuple(f"ring-4x4-{seed}.json" for seed in (1, 2, 3))
MESH = "mesh-6x8-1.json"


def golden_commands() -> list[str]:
    commands = []
    for fixture in FIXTURES:
        for zone in load_network_file(fixture_path(fixture)).zones:
            z = zone.name
            for fmt in ("text", "json"):
                for variant in VARIANTS:
                    commands.append(f"analyze --network {fixture} --origin {z} "
                                    f"--variant {variant} --format {fmt}")
                commands.append(f"policy --network {fixture} --zone {z} --format {fmt}")
                commands.append(f"testgen --network {fixture} --origin {z} "
                                f"--per-pair 3 --format {fmt}")
    for fixture in CHECK_FIXTURES:
        for zone in load_network_file(fixture_path(fixture)).zones:
            for fmt in ("text", "json"):
                for variant in VARIANTS:
                    commands.append(f"check --network {fixture} --origin {zone.name} "
                                    f"--variant {variant} --format {fmt}")
    for seed in RANDOM_SEEDS:
        _, origin = random_network(seed)
        for variant in VARIANTS:
            commands.append(f"analyze --network random-{seed}.json --origin {origin} "
                            f"--variant {variant} --format text")
    for ring in RINGS:
        for zone in load_network_file(GOLDEN.parent / ring).zones:
            commands.append(f"analyze --network {ring} --origin {zone.name} "
                            f"--variant v2 --format text")
            commands.append(f"testgen --network {ring} --origin {zone.name} "
                            f"--per-pair 3 --format text")
    for zone in load_network_file(GOLDEN.parent / MESH).zones:
        for fmt in ("text", "json"):
            commands.append(f"analyze --network {MESH} --origin {zone.name} "
                            f"--variant v1 --format {fmt}")
    return commands


def write_networks(directory: Path) -> None:
    """Copy the fixtures, rings and mesh and write the random configs into
    ``directory``."""
    for fixture in FIXTURES:
        shutil.copyfile(fixture_path(fixture), directory / fixture)
    for ring in (*RINGS, MESH):
        shutil.copyfile(GOLDEN.parent / ring, directory / ring)
    for seed in RANDOM_SEEDS:
        cfg, _ = random_network(seed)
        (directory / f"random-{seed}.json").write_text(json.dumps(cfg), encoding="utf-8")


def stdout_digest(command: str, directory: Path) -> str:
    """sha256 of the command's stdout, run from ``directory``."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out):
            code = main(command.split())
    finally:
        os.chdir(cwd)
    if code not in (0, 1):
        raise AssertionError(f"{command!r} exited {code}")
    text = WALL_TIME.sub('"wall_time_s": 0.0', out.getvalue())
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def networks_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("networks")
    write_networks(directory)
    return directory


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", golden_commands())
def test_cli_output_matches_golden_digest(command, networks_dir, golden):
    assert stdout_digest(command, networks_dir) == golden[command]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_networks(Path(tmp))
        digests = {c: stdout_digest(c, Path(tmp)) for c in golden_commands()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
