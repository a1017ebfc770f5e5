"""Traced in-process run of one benchmark command.

Wraps the public names at pktflow's module boundaries, runs the command
through ``pktflow.cli.main(argv)`` (or the policy sweep), and writes the
per-layer metrics and the recorded spans to a JSON file.  The command's
stdout is captured to count its bytes, then written to the real stdout, so
the caller can check that tracing did not change it.

    python3 perfbench/tracer.py --out TRACE.json -- analyze --network NET --origin Z0
    python3 perfbench/tracer.py --out TRACE.json -- sweep --network NET

Spans are (name, start, end, parent index) for the coarse boundaries: the
CLI, loads, generation, analyses, link transfers, rendering, policy and
oracle calls.  The fine-grained kernel calls (formula operators, rule
transfers) are counted and timed, but kept out of the span list so that a
run of millions of them stays small in memory.  A layer's self time is its
spans' durations minus the time their direct child spans cover.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

from pktflow import cli, engine, netmodel, oracle, pktset, policy, render, xfer


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[list] = []  # open calls: [name, child seconds, span index]
        self.depth = Counter()  # open calls per name, to find the outermost
        self.calls = Counter()  # every call, per name
        self.outer_calls = Counter()  # outermost calls, per name
        self.total_s = Counter()  # outermost inclusive seconds, per name
        self.self_s = Counter()  # self seconds, per name
        self.counts = Counter()  # other counters
        self.max_store_nodes = 0
        self._stores: list[weakref.finalize] = []

    def timed(self, fn, name: str, *, span: bool = True, after=None):
        """``fn`` wrapped to time each call under ``name``; ``after(result,
        args, seconds)`` runs on each return."""
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            index = -1
            if span:
                index = len(tracer.spans)
                tracer.spans.append(None)  # filled in on return
            frame = [name, 0.0, index if span else (parent[2] if parent else -1)]
            tracer.stack.append(frame)
            tracer.depth[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.depth[name] -= 1
                seconds = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += seconds - frame[1]
                if not tracer.depth[name]:
                    tracer.outer_calls[name] += 1
                    tracer.total_s[name] += seconds
                if parent is not None:
                    parent[1] += seconds
                if span:
                    tracer.spans[index] = (name, start, end, parent[2] if parent else -1)
            if after is not None:
                after(result, args, seconds)
            return result

        return wrapper

    def counted(self, fn, name: str, *, after=None):
        """``fn`` wrapped to count calls only; its time stays with the caller."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def patch(self, owners, attr: str, make):
        """Replace ``attr`` on every owner that binds the same original."""
        original = getattr(owners[0], attr)
        wrapped = make(original)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the expected function")
            setattr(owner, attr, wrapped)

    def store_created(self, store):
        self._stores.append(weakref.finalize(store, self._store_done, store._var))

    def _store_done(self, nodes: list):
        self.max_store_nodes = max(self.max_store_nodes, len(nodes))

    def finish(self):
        for fin in self._stores:
            fin()


def install(tr: Tracer) -> None:
    """Wrap the public names at each module boundary."""
    c = tr.counts

    tr.patch([cli], "main", lambda f: tr.timed(f, "cli.main"))

    # netmodel: one name for the loader entry points; a nested call is not
    # an extra load
    tr.patch([netmodel, cli], "load_network_file", lambda f: tr.timed(f, "netmodel.load"))
    tr.patch([netmodel, cli], "network_from_config", lambda f: tr.timed(f, "netmodel.load"))
    tr.patch([cli], "random_network", lambda f: tr.timed(f, "gen.random_network"))

    # pktset kernel
    fine = {"__and__": "pktset.and", "__or__": "pktset.or", "__invert__": "pktset.not",
            "exists_field": "pktset.quant", "extract_field": "pktset.quant",
            "overwrite_field": "pktset.quant", "enumerate": "pktset.enumerate",
            "field_ranges": "pktset.field_ranges"}
    for attr, name in fine.items():
        tr.patch([pktset.Formula], attr, lambda f, name=name: tr.timed(f, name, span=False))
    tr.patch([pktset.FormulaStore], "atom", lambda f: tr.timed(f, "pktset.atom", span=False))
    for attr in ("index", "offset", "width", "extract_value"):
        tr.patch([pktset.HeaderLayout], attr, lambda f: tr.counted(f, "pktset.layout_lookup"))

    def init_store(f):
        def wrapper(store, *args, **kwargs):
            f(store, *args, **kwargs)
            tr.store_created(store)
        return wrapper

    tr.patch([pktset.FormulaStore], "__init__", init_store)

    # xfer
    def link_done(result, args, seconds):
        c["xfer.packets_in"] += len(args[3])
        c["xfer.packets_out"] += len(result)

    tr.patch([engine], "link_tf", lambda f: tr.timed(f, "xfer.link_tf", after=link_done))
    tr.patch([xfer], "filter_rule_tf", lambda f: tr.timed(f, "xfer.rule_tf", span=False))
    tr.patch([xfer], "nat_rule_tf", lambda f: tr.timed(f, "xfer.rule_tf", span=False))

    def pieces(result):
        c["xfer.unmatch_pieces"] += len(result)

    for lattice in (engine.V1Lattice, engine.V2Lattice, engine.IALattice):
        tr.patch([lattice], "refine_unmatch",
                 lambda f: tr.counted(f, "xfer.unmatch_splits", after=pieces))

    # engine
    def analysis_done(result, args, seconds):
        stats = result.stats
        c["engine.iterations"] += stats.iterations
        c["engine.joins"] += stats.joins
        c["engine.propagate_s"] += stats.wall_time_s
        c["engine.diag_s"] += seconds - stats.wall_time_s
        sizes = [len(v.packets) for v in result.facts.values()]
        c["engine.packets_final"] += sum(sizes)
        c["engine.packets_max_node"] = max(c["engine.packets_max_node"], max(sizes))

    def observe(node, old, new):
        c["engine.updates"] += 1

    def make_analyze(f):
        timed = tr.timed(f, "engine.analyze", after=analysis_done)

        def wrapper(*args, **kwargs):
            if kwargs.get("observer") is None:
                kwargs["observer"] = observe
            return timed(*args, **kwargs)
        return wrapper

    tr.patch([cli, policy, oracle], "analyze", make_analyze)

    # render
    for attr in ("result_to_text", "result_to_json", "formula_to_text"):
        owners = [cli, render] if attr == "formula_to_text" else [cli]
        tr.patch(owners, attr, lambda f: tr.timed(f, "render"))
    tr.patch([render], "formula_fields", lambda f: tr.counted(f, "render.formula_fields"))

    # policy
    tr.patch([cli, policy], "infer_policy", lambda f: tr.timed(f, "policy.infer"))

    # oracle
    def simulated(result, args, seconds):
        c["oracle.states_explored"] += result.states_explored

    def concretized(result, args, seconds):
        c["oracle.pairs"] += len(result)

    tr.patch([cli], "compare", lambda f: tr.timed(f, "oracle.compare"))
    tr.patch([oracle], "simulate", lambda f: tr.timed(f, "oracle.simulate", after=simulated))
    for attr in ("concretize_pairs", "concretize_currs"):
        tr.patch([oracle], attr, lambda f: tr.timed(f, "oracle.concretize", after=concretized))


PKTSET_OPS = ("pktset.and", "pktset.or", "pktset.not", "pktset.quant", "pktset.atom",
              "pktset.enumerate", "pktset.field_ranges")


def layer_metrics(tr: Tracer, out_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced command."""
    c, calls, total, own = tr.counts, tr.calls, tr.total_s, tr.self_s
    splits = c["xfer.unmatch_splits"]
    joins = c["engine.joins"]
    return {
        "cli.self_s": own["cli.main"],
        "netmodel.load_s": total["netmodel.load"],
        "netmodel.load_calls": tr.outer_calls["netmodel.load"],
        "gen.random_network_s": total["gen.random_network"],
        "pktset.and_calls": calls["pktset.and"],
        "pktset.or_calls": calls["pktset.or"],
        "pktset.not_calls": calls["pktset.not"],
        "pktset.quant_calls": calls["pktset.quant"],
        "pktset.atom_calls": calls["pktset.atom"],
        "pktset.enumerate_calls": calls["pktset.enumerate"],
        "pktset.field_ranges_calls": calls["pktset.field_ranges"],
        "pktset.self_s": sum(own[n] for n in PKTSET_OPS),
        "pktset.store_nodes": tr.max_store_nodes,
        "pktset.layout_lookup_calls": c["pktset.layout_lookup"],
        "xfer.link_tf_calls": calls["xfer.link_tf"],
        "xfer.link_tf_s": total["xfer.link_tf"],
        "xfer.rule_tf_calls": calls["xfer.rule_tf"],
        "xfer.packets_in": c["xfer.packets_in"],
        "xfer.packets_out": c["xfer.packets_out"],
        "xfer.unmatch_pieces_per_split": c["xfer.unmatch_pieces"] / splits if splits else 0.0,
        "xfer.self_s": own["xfer.link_tf"] + own["xfer.rule_tf"],
        "engine.iterations": c["engine.iterations"],
        "engine.joins": joins,
        "engine.updates": c["engine.updates"],
        "engine.update_ratio": c["engine.updates"] / joins if joins else 0.0,
        "engine.packets_final": c["engine.packets_final"],
        "engine.packets_max_node": c["engine.packets_max_node"],
        "engine.propagate_s": c["engine.propagate_s"],
        "engine.diag_s": c["engine.diag_s"],
        "engine.self_s": own["engine.analyze"],
        "render.s": total["render"],
        "render.formula_fields_calls": c["render.formula_fields"],
        "render.bytes": out_bytes,
        "policy.infer_self_s": own["policy.infer"],
        "policy.zones": calls["policy.infer"],
        "oracle.simulate_s": total["oracle.simulate"],
        "oracle.states_explored": c["oracle.states_explored"],
        "oracle.concretize_s": total["oracle.concretize"],
        "oracle.pairs": c["oracle.pairs"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tracer.py", description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="file for the metrics and spans")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="-- then pktflow CLI arguments, or 'sweep --network NET'")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    tr = Tracer()
    install(tr)
    if command[:1] == ["sweep"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import sweep

        run = tr.timed(sweep.main, "cli.main")
        command = command[1:]
    else:
        run = cli.main

    real_stdout = sys.stdout
    sys.stdout = captured = io.StringIO()
    try:
        code = run(command)
    finally:
        sys.stdout = real_stdout
    text = captured.getvalue()
    sys.stdout.write(text)
    tr.finish()

    doc = {"metrics": layer_metrics(tr, len(text.encode())), "spans": tr.spans}
    Path(args.out).write_text(json.dumps(doc), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
