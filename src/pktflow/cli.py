"""Command-line frontend.

Subcommands: ``validate`` (parse and check a configuration), ``analyze``
(fixpoint reachability), ``policy`` (per-zone accept/reject inference),
``check`` (abstract results vs the exhaustive concrete simulator, on a file
or on generated trial networks), and ``testgen`` (concrete witness packets).

Exit status: 0 success, 1 property violation (a check failed, misdelivery
diagnosed, or a non-empty policy overlap under --strict), 2 usage or
configuration errors, or output that could not be written.

``main(argv)`` runs one command and returns its exit status, so library and
test callers keep their process.  ``run()`` is the process entry of
``python -m pktflow``, ``python -m pktflow.cli`` and the installed
``pktflow`` script: it ends the process as soon as the command's output is
flushed, without the interpreter's teardown.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module
from typing import NoReturn

from .netmodel import (
    DEFAULT_WIDTH_GUARD,
    MAX_WIDTH_GUARD,
    ConfigError,
    Network,
    PktflowError,
    load_network_file,
    network_from_config,
)

# Names bound on first use, by home module, so that each command loads only
# the modules it runs.  A command binds what it calls with ``_bind`` and
# then calls it through this module's namespace, so a wrapper set on this
# module's attribute (as perfbench/tracer.py sets) is what runs.
_LAZY = {
    "analyze": "engine",
    "random_network": "gen",
    "compare": "oracle",
    "generate_test_packets": "policy",
    "infer_policy": "policy",
    "overlap_report": "policy",
    "bracket": "render",
    "data_sets": "render",
    "field_sets": "render",
    "format_field_display": "render",
    "formula_to_text": "render",
    "header_fields": "render",
    "result_to_json": "render",
    "result_to_text": "render",
}


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{home}", __package__), name)
    return value


def _bind(*names: str) -> None:
    """Bind each name here from its home module, unless it is bound already."""
    bound = globals()
    for name in names:
        if name not in bound:
            __getattr__(name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pktflow",
        description="Static packet-flow analysis for IP networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--network", required=True, help="network configuration file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write output to a file instead of stdout")
        p.add_argument("--origin", required=True, help="originating zone")
        p.add_argument(
            "--variant",
            choices=("v1", "v2", "ia"),
            default="v2",
            help="abstract lattice variant (default v2)",
        )

    p = sub.add_parser("validate", help="parse and validate a configuration")
    p.add_argument("--network", required=True)

    p = sub.add_parser("analyze", help="compute reachable packet sets per node")
    common(p)

    p = sub.add_parser("policy", help="infer a zone's accept/reject policy")
    p.add_argument("--network", required=True)
    p.add_argument("--zone", required=True, help="zone whose policy to infer")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.add_argument(
        "--strict", action="store_true",
        help="exit 1 when the accept/reject overlap is non-empty",
    )

    p = sub.add_parser("check", help="compare against the exhaustive simulator")
    p.add_argument("--network", help="network file (omit when using --trials)")
    p.add_argument("--origin", help="originating zone (with --network)")
    p.add_argument("--variant", choices=("v1", "v2", "ia"), default="v2")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.add_argument("--max-width", type=int, default=DEFAULT_WIDTH_GUARD,
                   help=f"oracle width guard in bits, at most {MAX_WIDTH_GUARD}")
    p.add_argument("--trials", type=int, help="number of generated trial networks")
    p.add_argument("--seed", type=int, help="first trial seed (with --trials; default 0)")

    p = sub.add_parser("testgen", help="generate concrete witness packets")
    common(p)
    p.add_argument("--per-pair", type=int, default=1, help="witnesses per abstract packet")
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    net = load_network_file(args.network)
    rules = sum(len(f.dnat) + len(f.filter) + len(f.snat) for f in net.firewalls)
    print(
        f"OK: {len(net.zones)} zones, {len(net.firewalls)} firewalls, "
        f"{rules} rules, {len(net.links)} links, "
        f"{net.layout.total_bits}-bit headers"
    )
    return 0


def _cmd_analyze(args) -> int:
    _bind("analyze", "result_to_json", "result_to_text")
    net = load_network_file(args.network)
    result = analyze(net, args.origin, args.variant)
    if args.format == "json":
        _emit(json.dumps(result_to_json(result, net, args.network), indent=1) + "\n", args.out)
    else:
        _emit(result_to_text(result, net), args.out)
    return 1 if result.classes.misdelivered else 0


def _cmd_policy(args) -> int:
    _bind("infer_policy", "overlap_report", "data_sets", "field_sets", "formula_to_text",
          "format_field_display")
    net = load_network_file(args.network)
    summary = infer_policy(net, args.zone)
    layout = net.layout
    if args.format == "json":
        def sets(formula):
            return data_sets(field_sets(formula, layout), layout)

        doc = {
            "schema": "pktflow-policy-1",
            "network": args.network,
            "zone": summary.zone,
            "accept": sets(summary.accept),
            "reject": sets(summary.reject),
            "overlap": None if summary.overlap.is_empty() else sets(summary.overlap),
        }
        _emit(json.dumps(doc, indent=1) + "\n", args.out)
    else:
        lines = [
            f"accept({summary.zone}) = {formula_to_text(summary.accept, layout)}",
            f"reject({summary.zone}) = {formula_to_text(summary.reject, layout)}",
        ]
        report = overlap_report(summary)
        if not report:
            lines.append(f"overlap({summary.zone}) = (empty)")
        else:
            lines.append(f"overlap({summary.zone}) = {formula_to_text(summary.overlap, layout)}")
            for name, ranges in report:
                width = layout.width(name)
                lines.append(f"  {name}: {format_field_display(ranges, width)}")
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if args.strict and not summary.overlap.is_empty() else 0


def _check_one(net: Network, origin: str, variant: str, max_width: int):
    report = compare(net, origin, variant, max_width=max_width)
    lines = []
    for d in report.nodes:
        if d.status == "equal":
            lines.append(f"{d.node}: EQUAL")
        elif d.status == "superset":
            lines.append(f"{d.node}: SUPERSET (+{len(d.extra)} headers)")
        else:
            lines.append(f"{d.node}: DIFF missing={len(d.missing)} extra={len(d.extra)}")
    n = len(report.nodes)
    if all(d.status == "equal" for d in report.nodes):
        lines.append(f"EQUAL at all {n} nodes")
    elif report.ok:
        lines.append(f"SOUND at all {n} nodes (over-approximate at "
                     f"{sum(1 for d in report.nodes if d.status != 'equal')})")
    else:
        bad = sum(1 for d in report.nodes if d.status == "diff")
        lines.append(f"FAILED at {bad} of {n} nodes")
    return report, lines


def _cmd_check(args) -> int:
    _bind("compare")
    if not 1 <= args.max_width <= MAX_WIDTH_GUARD:
        raise ConfigError(f"--max-width must be from 1 to the oracle's ceiling of "
                          f"{MAX_WIDTH_GUARD} bits, got {args.max_width}")
    if args.trials is not None:
        if args.network is not None or args.origin is not None:
            raise ConfigError(
                "--trials checks generated networks; it cannot be combined with"
                " --network or --origin"
            )
        if args.trials < 1:
            raise ConfigError(f"--trials must be at least 1, got {args.trials}")
        _bind("random_network")
        first = 0 if args.seed is None else args.seed
        failures = []
        lines = []
        for i in range(args.trials):
            seed = first + i
            cfg, origin = random_network(seed)
            net = network_from_config(cfg)
            report = compare(net, origin, args.variant, max_width=args.max_width)
            if not report.ok:
                failures.append(seed)
                bad = [d.node for d in report.nodes if d.status == "diff"]
                lines.append(f"trial seed {seed}: FAILED at {', '.join(bad)}")
        lines.append(
            f"{args.trials} trials ({args.variant}): "
            + ("all OK" if not failures else f"{len(failures)} failed {failures}")
        )
        doc = "\n".join(lines) + "\n"
        if args.format == "json":
            doc = json.dumps(
                {
                    "schema": "pktflow-check-1",
                    "variant": args.variant,
                    "trials": args.trials,
                    "seed": first,
                    "failed_seeds": failures,
                },
                indent=1,
            ) + "\n"
        _emit(doc, args.out)
        return 1 if failures else 0

    if args.seed is not None:
        raise ConfigError("--seed sets the first trial seed; it needs --trials")
    if not args.network or not args.origin:
        raise ConfigError("check needs --network and --origin (or --trials)")
    net = load_network_file(args.network)
    report, lines = _check_one(net, args.origin, args.variant, args.max_width)
    if args.format == "json":
        doc = {
            "schema": "pktflow-check-1",
            "network": args.network,
            "origin": args.origin,
            "variant": args.variant,
            "ok": report.ok,
            "nodes": [
                {
                    "node": d.node,
                    "status": d.status,
                    "missing": len(d.missing),
                    "extra": len(d.extra),
                }
                for d in report.nodes
            ],
        }
        _emit(json.dumps(doc, indent=1) + "\n", args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if report.ok else 1


def _cmd_testgen(args) -> int:
    _bind("generate_test_packets", "bracket", "data_sets", "header_fields")
    net = load_network_file(args.network)
    if args.variant != "v2":
        raise ConfigError("testgen needs the v2 variant (original-form tracking)")
    if args.per_pair < 1:
        raise ConfigError(f"--per-pair must be at least 1, got {args.per_pair}")
    witnesses = generate_test_packets(net, args.origin, args.per_pair)
    layout = net.layout
    if args.format == "json":
        doc = {
            "schema": "pktflow-testgen-1",
            "network": args.network,
            "origin": args.origin,
            "witnesses": [
                {
                    "zone": w.zone,
                    "orig": data_sets(header_fields(w.orig, layout), layout),
                    "curr": data_sets(header_fields(w.curr, layout), layout),
                }
                for w in witnesses
            ],
        }
        _emit(json.dumps(doc, indent=1) + "\n", args.out)
    else:
        lines = [
            f"{w.zone}: orig={bracket(header_fields(w.orig, layout), layout)} "
            f"arrival={bracket(header_fields(w.curr, layout), layout)}"
            for w in witnesses
        ]
        lines.append(f"{len(witnesses)} witnesses")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "analyze": _cmd_analyze,
    "policy": _cmd_policy,
    "check": _cmd_check,
    "testgen": _cmd_testgen,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PktflowError, OSError) as e:
        print(f"pktflow: error: {e}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Run ``main`` on the process's arguments, flush stdout and stderr, and
    end the process with ``main``'s code through ``os._exit``.

    The interpreter's teardown (module clean-up and the last collections)
    costs every command several milliseconds after its output is complete,
    and nothing left to run needs it: ``--out`` files are closed by
    ``main``.  An exception or ``SystemExit`` raised out of ``main`` leaves
    through the normal exit path.  Output that cannot be flushed (a reader
    that closed stdout, a full disk) exits 2 with one error line, as a
    write inside ``main`` does; ``os._exit`` then drops what is left
    unwritten, so no later flush can fail again.
    """
    code = main()
    try:
        if sys.stdout is not None:  # None when fd 1 was closed at start-up
            sys.stdout.flush()
    except OSError as e:
        print(f"pktflow: error: {e}", file=sys.stderr)
        code = 2
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
