"""CLI fuzz: ``pktflow policy`` and ``pktflow analyze`` on a mutated
configuration exit 0, 1 or 2.

The configurations come from the loader fuzz's ``mutated_configs`` strategy.
For each one that loads, ``cli.main`` runs the command from every zone (and
``analyze`` in every variant) and must return an exit status, never raise:
an exception there would end the command in a traceback.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings

from pktflow.cli import main
from pktflow.engine import VARIANTS
from pktflow.netmodel import ConfigError, load_network
from test_loader_fuzz import mutated_configs


def run_from_every_zone(doc, command):
    """``command(path, zone)`` gives the argument lists to run for one zone;
    each must exit 0, 1 or 2."""
    text = json.dumps(doc)
    try:
        net = load_network(text)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        path.write_text(text, encoding="utf-8")
        for zone in net.zones:
            for argv in command(str(path), zone.name):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                assert code in (0, 1, 2), (argv, code)


@settings(max_examples=600, deadline=None)
@given(mutated_configs())
def test_policy_on_mutated_config_exits_with_a_status(doc):
    run_from_every_zone(doc, lambda path, zone: [
        ["policy", "--network", path, "--zone", zone]])


@settings(max_examples=600, deadline=None)
@given(mutated_configs())
def test_analyze_on_mutated_config_exits_with_a_status(doc):
    run_from_every_zone(doc, lambda path, zone: [
        ["analyze", "--network", path, "--origin", zone, "--variant", variant]
        for variant in VARIANTS])
