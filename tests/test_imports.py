"""What each command loads, and the value semantics of pktflow's records.

Every command pays only for the modules it runs: each case starts a fresh
interpreter, runs one command through ``pktflow.cli.main`` and reads
``sys.modules`` afterwards.  Only modules loaded after the probe starts
count, so a module a site file preloads is not charged to pktflow.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pktflow import policy
from pktflow.engine import AbstractValue
from pktflow.gen import fixture_path
from pktflow.netmodel import FilterRule, Guard, NatRule, Zone
from pktflow.pktset import FieldValueSet, FormulaStore, HeaderLayout
from pktflow.xfer import AbstractPacket

FIG3 = str(fixture_path("fig3.json"))

PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from pktflow import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""

PACKAGE_PROBE = """
import json, sys
before = set(sys.modules)
import pktflow
bare = sorted(m for m in set(sys.modules) - before if m.startswith("pktflow."))
unresolved = [n for n in pktflow.__all__ if getattr(pktflow, n, None) is None]
undirected = sorted(set(pktflow.__all__) - set(dir(pktflow)))
from pktflow import engine, xfer
print(json.dumps([bare, unresolved, undirected, engine.__name__, xfer.__name__]))
"""


def _probe(code: str, *args: str) -> list:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("args, absent", [
    (["validate", "--network", FIG3], {"engine", "xfer", "render", "oracle", "policy", "gen"}),
    (["analyze", "--network", FIG3, "--origin", "Z1", "--variant", "v1"],
     {"oracle", "gen", "policy"}),
    (["analyze", "--network", FIG3, "--origin", "Z1", "--variant", "v2"],
     {"oracle", "gen", "policy"}),
    (["policy", "--network", FIG3, "--zone", "Z1"], {"oracle", "gen"}),
    (["check", "--trials", "2"], {"policy", "render"}),
], ids=["validate", "analyze-v1", "analyze-v2", "policy", "check-trials"])
def test_command_loads_only_what_it_runs(args, absent):
    code, loaded = _probe(PROBE, *args)
    assert code == 0
    assert "dataclasses" not in loaded
    assert not {f"pktflow.{m}" for m in absent} & set(loaded), loaded


def test_bare_package_import_loads_no_submodule():
    bare, unresolved, undirected, engine, xfer = _probe(PACKAGE_PROBE)
    assert bare == []
    assert unresolved == [] and undirected == []
    assert (engine, xfer) == ("pktflow.engine", "pktflow.xfer")


_STORE = FormulaStore(HeaderLayout((("a", 4), ("b", 4))))
_FVS = FieldValueSet("a", ((1, 2),))
_GUARD = Guard((("a", _FVS),))


@pytest.mark.parametrize("cls, fields, changed", [
    (AbstractPacket, {"curr": _STORE.true, "orig": _STORE.false, "nated": 1}, ("nated", 2)),
    (AbstractValue, {"packets": (AbstractPacket(_STORE.true),)}, ("packets", ())),
    (Guard, {"atoms": (("a", _FVS),)}, ("atoms", ())),
    (FieldValueSet, {"field": "a", "ranges": ((1, 2),), "negated": False}, ("negated", True)),
    (HeaderLayout, {"fields": (("a", 4), ("b", 4))}, ("fields", (("a", 4),))),
    (Zone, {"name": "Z", "interface": "z0", "addr": _FVS, "ports": None, "rest": False},
     ("rest", True)),
    (FilterRule, {"guard": _GUARD, "action": "DROP", "rule_id": 3}, ("action", "ACCEPT")),
    (NatRule, {"guard": _GUARD, "nat_field": "a", "action": _FVS, "rule_id": 4},
     ("rule_id", 5)),
    (policy.TestPacket, {"zone": "Z", "orig": 1, "curr": 2}, ("curr", 3)),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_records_have_value_semantics(cls, fields, changed):
    positional = cls(*fields.values())
    keyword = cls(**fields)
    assert positional == keyword
    assert hash(positional) == hash(keyword)
    name, value = changed
    assert cls(**{**fields, name: value}) != positional
