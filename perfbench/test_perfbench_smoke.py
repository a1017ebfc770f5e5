"""Smoke test of the benchmark harness at its smallest sizes.

Runs the gated and the traced path on a tiny ring and on 2 oracle trials,
and checks that the policy sweep prints what ``pktflow policy`` prints.
The full benchmark is not part of the test suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

GATED = {"wall_s", "setup_s", "peak_rss_mb", "ok_frac"}


def run_harness(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["v2-ring", "oracle-trials"])
def test_gated_run_reports_checked_metrics(workload):
    doc = run_harness(workload, 0)
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 3
    assert set(doc["metrics"]) == GATED
    assert all(m["value"] > 0 for m in doc["metrics"].values())
    assert doc["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", ["v2-ring", "oracle-trials"])
def test_traced_run_reports_every_layer(workload):
    sys.path.insert(0, str(HERE))
    try:
        from run import LAYER_METRICS
    finally:
        sys.path.remove(str(HERE))
    doc = run_harness(workload, 1)
    assert doc["correct"] is True
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    assert set(metrics) == set(LAYER_METRICS)
    assert metrics["netmodel.load_calls"] >= 1 and metrics["pktset.and_calls"] > 0
    assert metrics["engine.iterations"] > 0 and metrics["xfer.link_tf_calls"] > 0
    if workload == "oracle-trials":
        assert metrics["netmodel.load_calls"] == 2  # one load per trial
        assert metrics["oracle.states_explored"] > 0 and metrics["render.s"] == 0
    else:
        assert metrics["render.bytes"] > 0 and metrics["oracle.simulate_s"] == 0


def test_sweep_prints_what_policy_prints(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import netgen
        import sweep
        from pktflow import cli
    finally:
        del sys.path[:2]
    net = tmp_path / "ring.json"
    net.write_text(json.dumps(netgen.ring(3, 2, 5)), encoding="utf-8")

    def stdout_of(fn, argv) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert fn(argv) == 0
        return buf.getvalue()

    zones = [z["name"] for z in json.loads(net.read_text())["zones"]]
    expected = "".join(
        stdout_of(cli.main, ["policy", "--network", str(net), "--zone", z]) for z in zones
    )
    assert stdout_of(sweep.main, ["--network", str(net)]) == expected
