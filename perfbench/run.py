"""Layered benchmark of pktflow.

Gated run (tracing off): prints wall_s, setup_s, peak_rss_mb and ok_frac.

    python3 perfbench/run.py --workload v2-ring --seed 1 --seconds 25 --trace 0

Traced run: prints the per-layer metrics and the tracing overhead.

    python3 perfbench/run.py --workload v2-ring --seed 1 --seconds 25 --trace 1

Each workload's report ends in one JSON line, so for one workload the last
line of stdout is its result; ``--workload all`` runs the four in turn.
See perfbench/README.md for the workloads and what each metric measures.

Every command runs in one child process at a time, from the sources under
``src/`` of the checkout this file sits in.  Inputs are generated from
``--seed`` and written to ``perfbench/.work/`` before anything is timed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCES = HERE / "references.json"

sys.path.insert(0, str(HERE))
import netgen  # noqa: E402

WORKLOADS = ("v2-ring", "v1-mesh", "oracle-trials", "policy-sweep")


@dataclass(frozen=True)
class Sizes:
    ring: tuple[int, int]  # v2-ring: firewalls, filter rules each
    mesh: tuple[int, int, int]  # v1-mesh: firewalls, filter rules each, chords
    trials: int  # oracle-trials: trial networks per check command
    sweep: tuple[int, int]  # policy-sweep: ring firewalls, filter rules each
    setup_reps: int  # validate runs per gated run; setup_s is their median
    min_samples: int  # timed commands per run, even past --seconds


FULL = Sizes(ring=(5, 8), mesh=(12, 32, 8), trials=50, sweep=(4, 4), setup_reps=9,
             min_samples=3)
SMOKE = Sizes(ring=(3, 2), mesh=(6, 2, 1), trials=2, sweep=(3, 2), setup_reps=1,
              min_samples=1)

RUN_BUDGET_S = 170  # a run stops sampling and fails what is left past this
TRIAL_SEED_STRIDE = 100_000  # oracle-trials: seed n checks trials from n * stride
# calibrate.py's output, and its median wall time on the 2-vCPU VM the
# bounds were set on; gated times are scaled to that speed
CALIBRATION_OUTPUT = b"56516\n"
CALIBRATION_S = 0.23


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


@dataclass
class Workload:
    args: list[str]  # pktflow CLI arguments, or ["sweep", ...]
    network: Path  # the input that setup_s validates
    crosscheck: list[str] | None  # crosscheck.py arguments, run once, untimed
    expect_text: str | None = None  # exact stdout, where it is known for every seed
    reference: str | None = None  # sha256 of stdout recorded for this seed

    def sample_args(self, j: int, trials: int) -> list[str]:
        """Sample j of oracle-trials checks the j-th window of trial seeds."""
        if self.args[0] != "check":
            return self.args
        args = list(self.args)
        at = args.index("--seed") + 1
        args[at] = str(int(args[at]) + j * trials)
        return args


def _write(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
    return path


def prepare(name: str, seed: int, sizes: Sizes, work: Path) -> Workload:
    """Generate the workload's inputs from the seed and write them to ``work``."""
    if name == "v2-ring":
        net = _write(work / "ring.json", netgen.ring(*sizes.ring, seed))
        return Workload(["analyze", "--network", str(net), "--origin", "Z0"], net,
                        ["--network", str(net), "--origin", "Z0"])
    if name == "v1-mesh":
        net = _write(work / "mesh.json", netgen.mesh(*sizes.mesh, seed))
        # v2 on this mesh takes minutes, so its crosscheck leaves v2 out
        return Workload(["analyze", "--network", str(net), "--origin", "Z0",
                         "--variant", "v1"], net,
                        ["--network", str(net), "--origin", "Z0", "--no-v2"])
    if name == "oracle-trials":
        base = seed * TRIAL_SEED_STRIDE
        net = work / "trial.json"
        run_child([str(HERE / "netgen.py"), "trial", str(base)], work, stdout=net, check=True)
        return Workload(["check", "--trials", str(sizes.trials), "--seed", str(base),
                         "--variant", "v2"], net, None,
                        expect_text=f"{sizes.trials} trials (v2): all OK\n")
    if name == "policy-sweep":
        net = _write(work / "sweep.json", netgen.ring(*sizes.sweep, seed))
        return Workload(["sweep", "--network", str(net)], net,
                        ["--network", str(net), "--origin", "Z0"])
    raise SetupError(f"unknown workload {name!r}")


# ----------------------------------------------------------- child processes

ENV = dict(os.environ, PYTHONPATH=str(SRC))


@dataclass
class Result:
    wall_s: float
    rss_mb: float
    code: int
    stdout: bytes
    floor_mb: float  # the launcher's own peak RSS, below which rss_mb cannot read


def run_child(argv: list[str], work: Path, *, stdout: Path | None = None,
              timeout: float = RUN_BUDGET_S, check: bool = False) -> Result:
    """Run ``python3 argv...`` through launch.py, which times it and reads
    its peak RSS, and wait until both have ended."""
    out = stdout or work / "stdout"
    measured = work / "launch.json"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(work / "stderr"), flags, 0o644),
    ]
    launcher = [sys.executable, "-S", str(HERE / "launch.py"), str(measured), str(timeout),
                sys.executable, *argv]
    measured.unlink(missing_ok=True)
    pid = os.posix_spawn(sys.executable, launcher, ENV, file_actions=actions, setpgroup=0)
    try:
        os.waitpid(pid, 0)
    except BaseException:
        os.killpg(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if not measured.is_file():
        raise SetupError(f"launch.py recorded nothing for {' '.join(argv)}")
    m = json.loads(measured.read_text(encoding="ascii"))
    if check and m["code"] != 0:
        err = (work / "stderr").read_text(encoding="utf-8", errors="replace")
        raise SetupError(f"{' '.join(argv)} exited {m['code']}: {err.strip()[-500:]}")
    return Result(m["wall_s"], m["maxrss_kb"] / 1024, m["code"], out.read_bytes(),
                  m["floor_kb"] / 1024)


def command(args: list[str]) -> list[str]:
    if args[0] == "sweep":
        return [str(HERE / "sweep.py"), *args[1:]]
    return ["-m", "pktflow.cli", *args]


class Run:
    """Counts every command of one run and checks its output."""

    def __init__(self, wl: Workload, sizes: Sizes, work: Path, deadline: float):
        self.wl, self.sizes, self.work, self.deadline = wl, sizes, work, deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.digest = wl.reference  # the first sample's digest when none is recorded

    def child(self, argv: list[str], what: str) -> Result | None:
        """Run one command and check its exit code; None if the run's time
        budget was spent before it could start."""
        left = self.deadline - time.monotonic()
        self.attempted += 1
        if left <= 0:
            self.failures.append(f"{what}: run budget spent before it started")
            return None
        res = run_child(argv, self.work, timeout=left)
        if res.code != 0:
            err = (self.work / "stderr").read_text(encoding="utf-8", errors="replace")
            detail = err.strip() or res.stdout.decode(errors="replace").strip()
            self.failures.append(f"{what}: exit {res.code}: {detail[-300:]}")
        return res

    def sample(self, j: int, traced: Path | None = None) -> Result | None:
        """One run of the workload's command, untraced or traced, with its
        stdout checked.  A failed check is recorded, and the time still counts."""
        args = self.wl.sample_args(j, self.sizes.trials)
        argv = command(args) if traced is None else [
            str(HERE / "tracer.py"), "--out", str(traced), "--", *args]
        what = f"{'traced ' if traced else ''}sample {j}"
        res = self.child(argv, what)
        if res is None or res.code != 0:
            return res
        if self.wl.expect_text is not None:
            if res.stdout != self.wl.expect_text.encode():
                self.failures.append(f"{what}: stdout is not {self.wl.expect_text!r}")
            return res
        digest = hashlib.sha256(res.stdout).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.failures.append(f"{what}: stdout sha256 {digest[:16]} != {self.digest[:16]}")
        return res

    def setup(self) -> float | None:
        """Wall seconds of one ``pktflow validate`` of the workload's input."""
        res = self.child(["-m", "pktflow.cli", "validate", "--network", str(self.wl.network)],
                         "validate")
        if res is not None and res.code == 0 and not res.stdout.startswith(b"OK: "):
            self.failures.append("validate: output does not start with 'OK: '")
        return None if res is None else res.wall_s

    def calibrate(self) -> float | None:
        """Wall seconds of one run of calibrate.py; None if it could not run."""
        res = self.child(["-S", str(HERE / "calibrate.py")], "calibration")
        if res is None or res.code != 0:
            return None
        if res.stdout != CALIBRATION_OUTPUT:
            self.failures.append(f"calibration: stdout is not {CALIBRATION_OUTPUT!r}")
        return res.wall_s

    def crosscheck(self) -> None:
        if self.wl.crosscheck is not None:
            self.child([str(HERE / "crosscheck.py"), *self.wl.crosscheck], "crosscheck")

    def until(self, seconds: float, start: float, n: int) -> bool:
        """Whether to take another timed sample."""
        now = time.monotonic()
        return now < self.deadline and (now - start < seconds or n < self.sizes.min_samples)


def tail_text(values: list[float]) -> str:
    """The highest usual percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) >= 1000:
            cut = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p} {cut:.4f} s"
    return "no tail percentile (fewer than 20 samples)"


def gated(run: Run, seconds: float) -> tuple[dict, list[str]]:
    """Time the command and ``pktflow validate`` between calibration runs.

    Each timed command is divided by the mean of the calibrations just before
    and just after it and scaled to CALIBRATION_S, so wall_s and setup_s are
    in seconds at a fixed machine speed.
    """
    run.setup()  # warm-up: byte-compiles pktflow and fills the file cache; not timed
    cal = [run.calibrate()]
    walls, setups, rss, floor = [], [], [], 0.0  # walls and setups: (raw s, calibration index)
    reps = run.sizes.setup_reps
    start = time.monotonic()
    j = 0
    while run.until(seconds, start, len(walls)):
        # spread the setup runs over the run, as the samples are
        if len(setups) < reps and time.monotonic() - start >= len(setups) * seconds / reps:
            setups.append((run.setup(), len(cal) - 1))
        res = run.sample(j)
        j += 1
        if res is not None:
            walls.append((res.wall_s, len(cal) - 1))
            rss.append(res.rss_mb)
            floor = max(floor, res.floor_mb)
        cal.append(run.calibrate())
    while len(setups) < reps:
        setups.append((run.setup(), len(cal) - 1))
        cal.append(run.calibrate())
    run.crosscheck()
    setups = [(w, k) for w, k in setups if w is not None]
    if not walls or not setups or None in cal:
        raise SetupError("the run's time budget ran out: " + "; ".join(run.failures[:3]))

    def scaled(timed):
        return [w / ((cal[k] + cal[k + 1]) / 2) * CALIBRATION_S for w, k in timed]

    ok = run.attempted - len(run.failures)
    wall_s, setup_s = scaled(walls), scaled(setups)
    metrics = {
        "wall_s": (statistics.median(wall_s), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ok_frac": (ok / run.attempted, "frac"),
    }
    raw = [w for w, _ in walls]
    notes = [
        f"wall_s: median of {len(walls)} samples, calibrated; {tail_text(wall_s)}",
        "calibrated samples (s): " + " ".join(f"{w:.3f}" for w in wall_s),
        f"raw wall seconds: median {statistics.median(raw):.4f}, "
        f"min {min(raw):.4f}, max {max(raw):.4f}",
        f"calibration: median {statistics.median(cal):.4f} s over {len(cal)} runs "
        f"(scaled to {CALIBRATION_S} s)",
        f"setup_s: median of {len(setups)} 'pktflow validate' runs, calibrated",
        f"peak_rss_mb: median over samples; cannot read below the launcher's {floor:.1f} MB",
        f"ok_frac: {ok} of {run.attempted} commands passed their checks",
    ]
    return metrics, notes


def traced(run: Run, seconds: float) -> tuple[dict, list[str]]:
    """Alternate untraced and traced samples; per-layer metrics are medians
    over the traced samples."""
    run.setup()  # warm-up, as in the gated run
    plain, walls, layers = [], [], []
    start = time.monotonic()
    j = 0
    while run.until(seconds, start, min(len(plain), len(walls))):
        res = run.sample(j)
        if res is not None:
            plain.append(res.wall_s)
        trace_file = run.work / f"trace-{j}.json"
        res = run.sample(j, traced=trace_file)
        if res is not None:
            walls.append(res.wall_s)
            if res.code == 0:
                layers.append(json.loads(trace_file.read_text(encoding="utf-8"))["metrics"])
        j += 1
    if not plain or not layers:
        raise SetupError("no traced sample completed: " + "; ".join(run.failures[:3]))
    metrics = {name: (statistics.median(d[name] for d in layers), LAYER_UNITS[name])
               for name in layers[0]}
    metrics["trace.wall_s"] = (statistics.median(walls), "s")
    metrics["trace.untraced_wall_s"] = (statistics.median(plain), "s")
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - metrics["trace.untraced_wall_s"][0], "s")
    notes = [f"{len(walls)} traced and {len(plain)} untraced samples; "
             f"spans of the last traced sample in {trace_file}"]
    return metrics, notes


def _unit(name: str) -> str:
    if name.endswith("_s") or name == "render.s":
        return "s"
    if name == "render.bytes":
        return "B"
    if name.endswith("_ratio") or name.endswith("_per_split"):
        return "ratio"
    return "count"


LAYER_METRICS = (
    "cli.self_s", "netmodel.load_s", "netmodel.load_calls", "gen.random_network_s",
    "pktset.and_calls", "pktset.or_calls", "pktset.not_calls", "pktset.quant_calls",
    "pktset.atom_calls", "pktset.enumerate_calls", "pktset.field_ranges_calls",
    "pktset.self_s", "pktset.store_nodes", "pktset.layout_lookup_calls",
    "xfer.link_tf_calls", "xfer.link_tf_s", "xfer.rule_tf_calls", "xfer.packets_in",
    "xfer.packets_out", "xfer.unmatch_pieces_per_split", "xfer.self_s",
    "engine.iterations", "engine.joins", "engine.updates", "engine.update_ratio",
    "engine.packets_final", "engine.packets_max_node", "engine.propagate_s",
    "engine.diag_s", "engine.self_s",
    "render.s", "render.formula_fields_calls", "render.bytes",
    "policy.infer_self_s", "policy.zones",
    "oracle.simulate_s", "oracle.states_explored", "oracle.concretize_s", "oracle.pairs",
    "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
)
LAYER_UNITS = {name: _unit(name) for name in LAYER_METRICS}


def load_reference(name: str, seed: int, sizes: Sizes) -> str | None:
    if sizes != FULL or not REFERENCES.is_file():
        return None
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    if refs["sizes"] != _sizes_doc(FULL):
        raise SetupError(f"{REFERENCES.name} was recorded for other sizes; record it again")
    return refs["digests"].get(name, {}).get(str(seed))


def _sizes_doc(sizes: Sizes) -> dict:
    """The sizes that decide the recorded outputs."""
    return {"ring": list(sizes.ring), "mesh": list(sizes.mesh), "sweep": list(sizes.sweep)}


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes) -> bool:
    work = WORK / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = prepare(name, seed, sizes, work)
    wl.reference = load_reference(name, seed, sizes)
    run = Run(wl, sizes, work, time.monotonic() + RUN_BUDGET_S)
    metrics, notes = (traced if trace else gated)(run, seconds)
    ref = "recorded reference" if wl.reference else (
        "exact expected text" if wl.expect_text else "first sample (no reference for this seed)")
    print(f"== {name}  seed {seed}  {'traced' if trace else 'gated'}: "
          f"python3 {' '.join(command(wl.sample_args(0, sizes.trials)))}")
    print(f"   stdout checked against the {ref}")
    for note in notes:
        print(f"   {note}")
    for failure in run.failures:
        print(f"   FAILED {failure}")
    for key, (value, unit) in metrics.items():
        print(f"   {key:32} {value:14.6g} {unit}")
    correct = not run.failures
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return correct


def record_references(count: int) -> None:
    """Record the stdout digest of every workload for seeds 0..count-1."""
    digests: dict[str, dict[str, str]] = {}
    for name in WORKLOADS:
        if name == "oracle-trials":
            continue  # its exact stdout is known for every seed
        for seed in range(count):
            work = WORK / "record"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            wl = prepare(name, seed, FULL, work)
            res = run_child(command(wl.args), work, check=True)
            digests.setdefault(name, {})[str(seed)] = hashlib.sha256(res.stdout).hexdigest()
            print(name, seed, digests[name][str(seed)], flush=True)
    doc = {"sizes": _sizes_doc(FULL), "digests": digests}
    REFERENCES.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes, for the harness's own test")
    parser.add_argument("--record-refs", type=int, metavar="N",
                        help="record stdout digests for seeds 0..N-1 and exit")
    args = parser.parse_args(argv)
    if not (SRC / "pktflow" / "cli.py").is_file():
        print(f"run.py: no pktflow sources under {SRC}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so that run_child kills and reaps the running command
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.record_refs is not None:
            record_references(args.record_refs)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        sizes = SMOKE if args.smoke else FULL
        ok = [run_workload(n, args.seed, args.seconds, bool(args.trace), sizes) for n in names]
    except SetupError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
