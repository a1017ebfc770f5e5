"""Seed-independent output check: the analysis variants must agree.

At every node, the ``v1`` set must equal the OR of the ``v2`` current forms,
and it must imply the ``ia`` per-field product.  All three runs share the
network's formula store, so the sets compare as canonical formulas.

    python3 perfbench/crosscheck.py --network NET --origin ZONE [--no-v2]

``--no-v2`` leaves out the ``v2`` leg, for networks where ``v2`` does not
finish in a benchmark run.  Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys

from pktflow import analyze, load_network_file
from pktflow.engine import get_lattice


def node_sets(net, origin: str, variant: str) -> dict:
    """Per node, the union of the current forms of the variant's value."""
    result = analyze(net, origin, variant)
    lattice = get_lattice(variant, net)
    out = {}
    for node, value in result.facts.items():
        acc = net.store.false
        for p in value.packets:
            acc = acc | lattice.curr_of(p)
        out[node] = acc
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="crosscheck.py", description=__doc__.splitlines()[0])
    parser.add_argument("--network", required=True)
    parser.add_argument("--origin", required=True)
    parser.add_argument("--no-v2", action="store_true", help="skip the v1 = v2 check")
    args = parser.parse_args(argv)
    net = load_network_file(args.network)
    v1 = node_sets(net, args.origin, "v1")
    ia = node_sets(net, args.origin, "ia")
    v2 = None if args.no_v2 else node_sets(net, args.origin, "v2")
    bad = []
    for node in net.node_names():
        if v2 is not None and v1[node] != v2[node]:
            bad.append(f"{node}: v1 differs from the OR of the v2 current forms")
        if not v1[node].implies(ia[node]):
            bad.append(f"{node}: v1 does not imply the ia product")
    for line in bad:
        print(line)
    legs = "v1 <= ia" if v2 is None else "v1 = v2, v1 <= ia"
    print(f"crosscheck {'FAILED' if bad else 'OK'}: {len(net.node_names())} nodes ({legs})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
