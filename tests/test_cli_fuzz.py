"""CLI fuzz: ``pktflow policy`` on a mutated configuration exits 0, 1 or 2.

The configurations come from the loader fuzz's ``mutated_configs`` strategy.
For each one that loads, ``cli.main`` runs ``policy`` from every zone and
must return an exit status, never raise: an exception there would end the
command in a traceback.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings

from pktflow.cli import main
from pktflow.netmodel import ConfigError, load_network
from test_loader_fuzz import mutated_configs


@settings(max_examples=600, deadline=None)
@given(mutated_configs())
def test_policy_on_mutated_config_exits_with_a_status(doc):
    text = json.dumps(doc)
    try:
        net = load_network(text)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        path.write_text(text, encoding="utf-8")
        for zone in net.zones:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["policy", "--network", str(path), "--zone", zone.name])
            assert code in (0, 1, 2), (zone.name, code)
