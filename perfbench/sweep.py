"""Policy sweep: load one network once and infer every zone's policy.

This is the long-lived library use: every ``infer_policy`` call shares the
network's formula store.  The output is the concatenation of what
``pktflow policy --network NET --zone Z`` prints for each zone in order.

    python3 perfbench/sweep.py --network NET
"""

from __future__ import annotations

import argparse
import sys

# Module attributes, not imported names, so the tracer's wrappers apply.
from pktflow import netmodel, policy, render


def policy_lines(summary, layout) -> list[str]:
    """The text ``pktflow policy`` prints for one summary."""
    zone = summary.zone
    lines = [
        f"accept({zone}) = {render.formula_to_text(summary.accept, layout)}",
        f"reject({zone}) = {render.formula_to_text(summary.reject, layout)}",
    ]
    report = policy.overlap_report(summary)
    if not report:
        lines.append(f"overlap({zone}) = (empty)")
    else:
        lines.append(f"overlap({zone}) = {render.formula_to_text(summary.overlap, layout)}")
        for name, ranges in report:
            lines.append(f"  {name}: {render.format_field_display(ranges, layout.width(name))}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sweep.py", description=__doc__.splitlines()[0])
    parser.add_argument("--network", required=True)
    args = parser.parse_args(argv)
    net = netmodel.load_network_file(args.network)
    for zone in net.zones:
        summary = policy.infer_policy(net, zone.name)
        sys.stdout.write("\n".join(policy_lines(summary, net.layout)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
