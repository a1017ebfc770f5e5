"""Ground-truth concrete simulator and abstract-vs-concrete comparison.

The simulator enumerates every concrete packet an origin zone can emit and
pushes each one breadth-first through the network, branching over every NAT
rewrite value and every matching routing interface; a visited-state set makes
it terminate through cycles.  It works purely on concrete headers and rule
range checks — none of the symbolic formula machinery is involved — so it can
independently certify the abstract engine at small header widths.  Every
entry point takes a width guard (``max_width``, default 12 bits) and refuses
a wider layout; a guard above ``MAX_WIDTH_GUARD`` (16 bits) is refused too.

Concretization maps abstract values back to concrete header sets.  Variant-2
packets concretize to (curr, orig) pairs that agree on every field not yet
NATed (fields outside the packet's mask are never rewritten, so differing
values there are unrealizable); a comparison then checks both coverage (every
simulated pair is represented) and realizability (every represented pair is
simulated).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dc_field

from .engine import AbstractValue, AnalysisResult, analyze, get_lattice
from .netmodel import DROP, Network

DEFAULT_WIDTH_GUARD = 12
# The largest guard any caller may ask for.  The oracle visits all 2**width
# headers of the layout and keeps every reachable state, so a much wider
# layout would run for hours or exhaust memory; it is refused instead.
MAX_WIDTH_GUARD = 16


class WidthGuardExceeded(ValueError):
    """The layout is too wide for exhaustive concrete exploration."""


@dataclass(frozen=True)
class ConcreteState:
    node: str
    curr: int
    orig: int
    nated: int


@dataclass
class ExactResult:
    """Everything the exhaustive simulation observed."""

    per_node: dict[str, set[tuple[int, int, int]]]  # (curr, orig, nated)
    per_rule_dropped: dict[int, set[int]]  # rule id -> orig headers
    misdelivered: set[tuple[str, int]]  # (zone, curr)
    no_route: set[tuple[str, int, int]]  # (node, curr, orig)
    initial: set[int]
    states_explored: int = 0
    # rule id -> current headers, as the rule saw them
    per_rule_dropped_curr: dict[int, set[int]] = dc_field(default_factory=dict)

    def states(self, node: str) -> set[tuple[int, int, int]]:
        return self.per_node.get(node, set())

    def concrete_states(self, node: str) -> set[ConcreteState]:
        return {ConcreteState(node, c, o, k) for c, o, k in self.states(node)}

    def pairs(self, node: str) -> set[tuple[int, int]]:
        return {(c, o) for c, o, _ in self.states(node)}

    def currs(self, node: str) -> set[int]:
        return {c for c, _, _ in self.states(node)}

    def origs(self, node: str) -> set[int]:
        return {o for _, o, _ in self.states(node)}


def _initial_headers(net: Network, origin: str) -> list[int]:
    zone = net.zone(origin)
    layout = net.layout
    ports = zone.ports
    out = []
    for h in range(1 << layout.total_bits):
        if not zone.addr.contains(layout.extract_value(h, "s")):
            continue
        if ports is not None and not ports.contains(layout.extract_value(h, "sp")):
            continue
        out.append(h)
    return out


def simulate(
    net: Network,
    origin: str,
    *,
    max_width: int = DEFAULT_WIDTH_GUARD,
    max_hops: int | None = None,
) -> ExactResult:
    """Exhaustively explore every concrete flow from ``origin``.

    ``max_hops`` bounds the number of link traversals per flow (used to show
    what bounded unrolling misses); None explores to closure.
    """
    _enumeration_cap(net, max_width)
    layout = net.layout

    peers_of: dict[str, list[str]] = {}
    for i1, i2 in net.links:
        peers_of.setdefault(i1, []).append(net.node_of(i2))
        peers_of.setdefault(i2, []).append(net.node_of(i1))
    zone_names = {z.name for z in net.zones}
    zone_by_name = {z.name: z for z in net.zones}

    result = ExactResult({n: set() for n in net.node_names()}, {}, set(), set(), set())

    def record_arrival(node: str, c: int, o: int, k: int, arrival: bool = True):
        result.per_node[node].add((c, o, k))
        if arrival and node in zone_names:
            zone = zone_by_name[node]
            dst = layout.extract_value(c, "d")
            if not zone.addr.contains(dst):
                result.misdelivered.add((node, c))

    def nat_table(rules, c: int, k: int) -> list[tuple[int, int]]:
        for r in rules:
            if r.guard.matches(layout, c):
                bit = 1 << layout.index(r.nat_field)
                return [
                    (layout.with_value(c, r.nat_field, v), k | bit)
                    for v in r.action.values()
                ]
        return [(c, k)]

    def filter_table(rules, c: int, o: int) -> bool:
        for r in rules:
            if r.guard.matches(layout, c):
                if r.action == DROP:
                    result.per_rule_dropped.setdefault(r.rule_id, set()).add(o)
                    result.per_rule_dropped_curr.setdefault(r.rule_id, set()).add(c)
                    return False
                return True
        return True  # unreachable: tables end with a default rule

    queue: deque[tuple[str, int, int, int, int]] = deque()
    seen: set[tuple[str, int, int, int]] = set()

    for h in _initial_headers(net, origin):
        result.initial.add(h)
        record_arrival(origin, h, h, 0, arrival=False)
        queue.append((origin, h, h, 0, 0))
        seen.add((origin, h, h, 0))

    def deliver(node: str, c: int, o: int, k: int, hops: int):
        record_arrival(node, c, o, k)
        if node in zone_names:
            return  # zones never re-emit arrivals
        key = (node, c, o, k)
        if key not in seen:
            seen.add(key)
            queue.append((node, c, o, k, hops))

    while queue:
        node, c, o, k, hops = queue.popleft()
        result.states_explored += 1
        if max_hops is not None and hops >= max_hops:
            continue
        if node in zone_names:
            # the origin's own emission: identity transfer over its link
            iface = zone_by_name[node].interface
            for peer in peers_of[iface]:
                deliver(peer, c, o, k, hops + 1)
            continue
        fw = net.firewall(node)
        for c1, k1 in nat_table(fw.dnat, c, k):
            if not filter_table(fw.filter, c1, o):
                continue
            for c2, k2 in nat_table(fw.snat, c1, k1):
                routed = False
                for iface, guard in fw.routing:
                    if not guard.matches(layout, c2):
                        continue
                    routed = True
                    for peer in peers_of.get(iface, ()):
                        deliver(peer, c2, o, k2, hops + 1)
                if not routed:
                    result.no_route.add((node, c2, o))
    return result


# ------------------------------------------------------------ concretization

def _enumeration_cap(net: Network, max_width: int) -> int:
    if max_width > MAX_WIDTH_GUARD:
        raise WidthGuardExceeded(
            f"width guard {max_width} exceeds the oracle's ceiling of {MAX_WIDTH_GUARD} bits"
        )
    if net.layout.total_bits > max_width:
        raise WidthGuardExceeded(
            f"layout has {net.layout.total_bits} header bits, guard allows {max_width}"
        )
    return 1 << net.layout.total_bits


def concretize_currs(
    value: AbstractValue, variant: str, net: Network, *, max_width: int = DEFAULT_WIDTH_GUARD
) -> set[int]:
    """Concrete current-header set of an abstract value."""
    cap = _enumeration_cap(net, max_width)
    lattice = get_lattice(variant, net)
    out: set[int] = set()
    for p in value.packets:
        out.update(lattice.curr_of(p).enumerate(cap))
    return out


def concretize_pairs(
    value: AbstractValue, net: Network, *, max_width: int = DEFAULT_WIDTH_GUARD
) -> set[tuple[int, int]]:
    """Concrete (curr, orig) pairs of a variant-2 value.

    Within one packet, curr and orig agree on every field outside the
    packet's NAT mask; the pair set is the product filtered accordingly:
    origs are grouped by their bits outside the mask, and each curr pairs
    with the group its own bits there select.
    """
    cap = _enumeration_cap(net, max_width)
    layout = net.layout
    pairs: set[tuple[int, int]] = set()
    for p in value.packets:
        if p.orig is None:
            raise ValueError("pair concretization needs variant-2 packets")
        agree = (1 << layout.total_bits) - 1  # header bits outside the mask
        for name in layout.mask_names(p.nated):
            agree = layout.with_value(agree, name, 0)
        origs: dict[int, list[int]] = {}
        for o in p.orig.enumerate(cap):
            origs.setdefault(o & agree, []).append(o)
        for c in p.curr.enumerate(cap):
            for o in origs.get(c & agree, ()):
                pairs.add((c, o))
    return pairs


def concretize(
    value: AbstractValue, variant: str, net: Network, *, max_width: int = DEFAULT_WIDTH_GUARD
):
    """Pairs for variant 2, plain current-header sets for v1/ia."""
    if variant == "v2":
        return concretize_pairs(value, net, max_width=max_width)
    return concretize_currs(value, variant, net, max_width=max_width)


# ------------------------------------------------------------ comparison

@dataclass
class NodeDiff:
    node: str
    status: str  # "equal" | "superset" | "diff"
    missing: list = dc_field(default_factory=list)  # in oracle, not abstract
    extra: list = dc_field(default_factory=list)  # in abstract, not oracle


@dataclass
class CompareReport:
    variant: str
    origin: str
    ok: bool
    nodes: list[NodeDiff]
    result: AnalysisResult
    exact: ExactResult

    def node(self, name: str) -> NodeDiff:
        for nd in self.nodes:
            if nd.node == name:
                return nd
        raise KeyError(name)


def compare(
    net: Network,
    origin: str,
    variant: str = "v2",
    *,
    max_width: int = DEFAULT_WIDTH_GUARD,
    result: AnalysisResult | None = None,
) -> CompareReport:
    """Check an abstract run against the exhaustive simulation, node by node.

    v1: current-header sets must be equal.  v2: pair sets must be equal
    (missing pairs break coverage, extra pairs break realizability).
    ia: the abstract set must cover the oracle; a strict superset is reported
    but allowed.
    """
    _enumeration_cap(net, max_width)  # before the analysis, which may be long
    if result is None:
        result = analyze(net, origin, variant)
    exact = simulate(net, origin, max_width=max_width)
    nodes: list[NodeDiff] = []
    ok = True
    for name in net.node_names():
        got = concretize(result.facts[name], variant, net, max_width=max_width)
        want = exact.pairs(name) if variant == "v2" else exact.currs(name)
        missing = sorted(want - got)
        extra = sorted(got - want)
        if variant == "ia":
            status = "equal" if not missing and not extra else ("superset" if not missing else "diff")
            node_ok = not missing
        else:
            status = "equal" if not missing and not extra else "diff"
            node_ok = status == "equal"
        ok = ok and node_ok
        nodes.append(NodeDiff(name, status, missing, extra))
    return CompareReport(variant, origin, ok, nodes, result, exact)
