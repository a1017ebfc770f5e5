"""Golden CLI outputs: the sha256 of stdout for every bundled fixture and zone.

Each case runs one ``pktflow`` command in-process from the fixture directory,
so the ``network`` field of the JSON outputs is the bare file name, and
hashes its stdout after zeroing ``stats.wall_time_s`` (the only field that
differs between runs).  The digests in ``data/cli_golden.json`` were recorded
from a commit whose output was checked by hand; rendered bytes must not
change with a speedup, nor with the interpreter's hash seed.

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
import sys
from pathlib import Path

import pytest

from pktflow.cli import main
from pktflow.gen import FIXTURES, fixture_path
from pktflow.netmodel import load_network_file

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
WALL_TIME = re.compile(r'"wall_time_s": [-+.0-9eE]+')


def golden_commands() -> list[str]:
    commands = []
    for fixture in FIXTURES:
        for zone in load_network_file(fixture_path(fixture)).zones:
            z = zone.name
            for fmt in ("text", "json"):
                for variant in ("v1", "v2", "ia"):
                    commands.append(f"analyze --network {fixture} --origin {z} "
                                    f"--variant {variant} --format {fmt}")
                commands.append(f"policy --network {fixture} --zone {z} --format {fmt}")
                commands.append(f"testgen --network {fixture} --origin {z} "
                                f"--per-pair 3 --format {fmt}")
    return commands


def stdout_digest(command: str) -> str:
    """sha256 of the command's stdout, run from the fixture directory."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(fixture_path(FIXTURES[0]).parent)
    try:
        with contextlib.redirect_stdout(out):
            code = main(command.split())
    finally:
        os.chdir(cwd)
    if code not in (0, 1):
        raise AssertionError(f"{command!r} exited {code}")
    text = WALL_TIME.sub('"wall_time_s": 0.0', out.getvalue())
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command", golden_commands())
def test_cli_output_matches_golden_digest(command):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert stdout_digest(command) == golden[command]


if __name__ == "__main__":
    digests = {c: stdout_digest(c) for c in golden_commands()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
