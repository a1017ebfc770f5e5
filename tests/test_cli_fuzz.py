"""CLI fuzz: ``pktflow policy``, ``analyze``, ``check`` and ``testgen`` on a
mutated configuration exit 0, 1 or 2.

The configurations come from the loader fuzz's ``mutated_configs`` strategy.
For each one that loads, ``cli.main`` runs the command from every zone (and
``analyze`` and ``check`` in every variant) and must return an exit status,
never raise: an exception there would end the command in a traceback.
``check`` on a layout wider than the oracle's default width guard must exit
2 through that guard.

Few mutated configurations load, so every command also runs on the loader
fuzz's ``revalued_configs``, which all load.  There ``check`` must exit 0
on a layout within the width guard: ``v1`` and ``v2`` are exact and ``ia``
is sound.
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
from pktflow.oracle import DEFAULT_WIDTH_GUARD
from test_loader_fuzz import mutated_configs, revalued_configs


def run_from_every_zone(doc, command):
    """``command(path, zone)`` gives the argument lists to run for one zone;
    each must exit 0, 1 or 2.  Returns the loaded network and the exit
    statuses, or None when the configuration does not load."""
    text = json.dumps(doc)
    try:
        net = load_network(text)
    except ConfigError:
        return None
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        path.write_text(text, encoding="utf-8")
        for zone in net.zones:
            for argv in command(str(path), zone.name):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                assert code in (0, 1, 2), (argv, code)
                codes.append(code)
    return net, codes


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


@settings(max_examples=600, deadline=None)
@given(mutated_configs())
def test_check_on_mutated_config_exits_with_a_status(doc):
    ran = run_from_every_zone(doc, lambda path, zone: [
        ["check", "--network", path, "--origin", zone, "--variant", variant]
        for variant in VARIANTS])
    if ran is not None:
        net, codes = ran
        if net.layout.total_bits > DEFAULT_WIDTH_GUARD:
            assert set(codes) <= {2}


@settings(max_examples=600, deadline=None)
@given(mutated_configs())
def test_testgen_on_mutated_config_exits_with_a_status(doc):
    run_from_every_zone(doc, lambda path, zone: [
        ["testgen", "--network", path, "--origin", zone]])


@settings(max_examples=150, deadline=None)
@given(revalued_configs())
def test_every_command_on_revalued_config_exits_with_a_status(doc):
    net, codes = run_from_every_zone(doc, lambda path, zone: [
        ["policy", "--network", path, "--zone", zone],
        ["testgen", "--network", path, "--origin", zone],
        *(["analyze", "--network", path, "--origin", zone, "--variant", variant]
          for variant in VARIANTS)])
    assert set(codes) <= {0, 1}
    _, codes = run_from_every_zone(doc, lambda path, zone: [
        ["check", "--network", path, "--origin", zone, "--variant", variant]
        for variant in VARIANTS])
    assert set(codes) == ({2} if net.layout.total_bits > DEFAULT_WIDTH_GUARD else {0})
