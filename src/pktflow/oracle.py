"""Ground-truth concrete simulator and abstract-vs-concrete comparison.

The simulator enumerates every concrete packet an origin zone can emit and
pushes each one breadth-first through the network, branching over every NAT
rewrite value and every matching routing interface; a visited-state set makes
it terminate through cycles.  It works purely on concrete headers and rule
range checks — none of the symbolic formula machinery is involved — so it can
independently certify the abstract engine at small header widths.  Every
entry point takes a width guard (``max_width``, default 12 bits) and refuses
a wider layout; a guard above ``MAX_WIDTH_GUARD`` (16 bits) is refused too.

``simulate`` compiles its network once per call, and the tables and memos
die with the call:

* Lookup tables.  Each guard atom, the origin zone's ``s``/``sp`` test and
  each zone's own-address test on ``d`` becomes ``(shift, mask, table)``:
  a header h passes iff ``table[h >> shift & mask]`` is 1.  The table spans
  the field's 2**width values and is filled range by range (and inverted
  for a negated set), never value by value.
* One memo per node.  A state is (node, c, o, k): current header, original
  header and NAT mask.  A firewall's DNAT, filter, SNAT and routing read only
  c; o is carried along unchanged and k is only OR-ed with the bits of the
  NAT rules that fire.  So the step from c (its drops, its deliveries with
  the NAT bits they add, its no-route headers) is the same for every (o, k),
  and it is computed once per (firewall, c) and replayed for each state.

The visited set and ``max_hops`` still apply per state, so the states
explored and the breadth-first order are those of ``reference_simulate`` in
``tests/brute.py``, which matches every guard rule by rule on each queued
state and is the semantic definition ``simulate`` is tested against.

Concretization maps abstract values back to concrete header sets.  Variant-2
packets concretize to (curr, orig) pairs that agree on every field not yet
NATed (fields outside the packet's mask are never rewritten, so differing
values there are unrealizable); a comparison then checks both coverage (every
simulated pair is represented) and realizability (every represented pair is
simulated).
"""

from __future__ import annotations

from collections import deque

from .engine import AbstractValue, AnalysisResult, analyze, get_lattice
from .netmodel import DEFAULT_WIDTH_GUARD, DROP, MAX_WIDTH_GUARD, Firewall, Guard, Network
from .pktset import FieldValueSet, HeaderLayout


class WidthGuardExceeded(ValueError):
    """The layout is too wide for exhaustive concrete exploration."""


class ExactResult:
    """Everything the exhaustive simulation observed."""

    __slots__ = ("per_node", "per_rule_dropped", "misdelivered", "no_route", "initial",
                 "states_explored", "per_rule_dropped_curr")

    def __init__(
        self,
        per_node: dict[str, set[tuple[int, int, int]]],  # (curr, orig, nated)
        per_rule_dropped: dict[int, set[int]],  # rule id -> orig headers
        misdelivered: set[tuple[str, int]],  # (zone, curr)
        no_route: set[tuple[str, int, int]],  # (node, curr, orig)
        initial: set[int],
        states_explored: int = 0,
        # rule id -> current headers, as the rule saw them
        per_rule_dropped_curr: dict[int, set[int]] | None = None,
    ):
        self.per_node = per_node
        self.per_rule_dropped = per_rule_dropped
        self.misdelivered = misdelivered
        self.no_route = no_route
        self.initial = initial
        self.states_explored = states_explored
        self.per_rule_dropped_curr = {} if per_rule_dropped_curr is None else per_rule_dropped_curr

    def _key(self) -> tuple:
        return (self.per_node, self.per_rule_dropped, self.misdelivered, self.no_route,
                self.initial, self.states_explored, self.per_rule_dropped_curr)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def states(self, node: str) -> set[tuple[int, int, int]]:
        return self.per_node.get(node, set())

    def pairs(self, node: str) -> set[tuple[int, int]]:
        return {(c, o) for c, o, _ in self.states(node)}

    def currs(self, node: str) -> set[int]:
        return {c for c, _, _ in self.states(node)}

    def origs(self, node: str) -> set[int]:
        return {o for _, o, _ in self.states(node)}


# A lookup over one field: header h has the field's value in the set iff
# table[h >> shift & mask] is 1.
Lookup = tuple[int, int, bytes]

_NEGATE = bytes([1, 0]) + bytes(254)  # bytes.translate table: 0 <-> 1


def _lookup(layout: HeaderLayout, field: str, fvs: FieldValueSet) -> Lookup:
    """``fvs.contains`` on ``field`` as a table over the field's 2**width
    values, filled range by range."""
    width = layout.width(field)
    shift = layout.total_bits - layout.offset(field) - width
    mask = (1 << width) - 1
    table = bytearray(mask + 1)
    for lo, hi in fvs.ranges:
        hi = min(hi, mask)
        if lo <= hi:
            table[lo : hi + 1] = b"\1" * (hi - lo + 1)
    if fvs.negated:
        table = table.translate(_NEGATE)
    return shift, mask, bytes(table)


def _guard_lookups(layout: HeaderLayout, guard: Guard) -> tuple[Lookup, ...]:
    return tuple(_lookup(layout, f, v) for f, v in guard.atoms)


def _matches(lookups: tuple[Lookup, ...], h: int) -> bool:
    for shift, mask, table in lookups:
        if not table[h >> shift & mask]:
            return False
    return True


def _initial_headers(net: Network, origin: str) -> list[int]:
    zone = net.zone(origin)
    layout = net.layout
    tests = [_lookup(layout, "s", zone.addr)]
    if zone.ports is not None:
        tests.append(_lookup(layout, "sp", zone.ports))
    return [h for h in range(1 << layout.total_bits) if _matches(tests, h)]


# What a node does to one current header c, whatever o and k are:
# drops [(rule id, c1)], outs [(peer, c2, NAT bits added, misdelivered)] and
# no-route [c2].  ``misdelivered`` is None when the peer is a firewall.
Step = tuple[list[tuple[int, int]], list[tuple[str, int, int, bool | None]], list[int]]


def _firewall_step(net: Network, fw: Firewall, links, arrival):
    """The firewall's DNAT -> filter -> SNAT -> routing transfer on one
    concrete header, first match per table, over compiled guards."""
    layout = net.layout

    def nat_rules(rules):
        out = []
        for r in rules:
            width = layout.width(r.nat_field)
            shift = layout.total_bits - layout.offset(r.nat_field) - width
            out.append((
                _guard_lookups(layout, r.guard),
                ~(((1 << width) - 1) << shift),
                [v << shift for v in r.action.values()],
                1 << layout.index(r.nat_field),
            ))
        return out

    dnat, snat = nat_rules(fw.dnat), nat_rules(fw.snat)
    filt = [(_guard_lookups(layout, r.guard), r.action == DROP, r.rule_id) for r in fw.filter]
    routes = [(_guard_lookups(layout, guard), links.get(iface, ())) for iface, guard in fw.routing]

    def nat(rules, c: int, bits: int) -> list[tuple[int, int]]:
        for lookups, clear, values, bit in rules:
            if _matches(lookups, c):
                kept = c & clear
                return [(kept | v, bits | bit) for v in values]
        return [(c, bits)]

    def step(c: int) -> Step:
        drops, outs, lost = [], [], []
        for c1, b1 in nat(dnat, c, 0):
            dropped = False
            for lookups, drop, rule_id in filt:
                if _matches(lookups, c1):
                    if drop:
                        drops.append((rule_id, c1))
                        dropped = True
                    break
            if dropped:
                continue
            for c2, b2 in nat(snat, c1, b1):
                routed = False
                for lookups, peers in routes:
                    if _matches(lookups, c2):
                        routed = True
                        outs.extend((peer, c2, b2, arrival(peer, c2)) for peer in peers)
                if not routed:
                    lost.append(c2)
        return drops, outs, lost

    return step


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

    links: dict[str, list[str]] = {}  # interface -> peer nodes
    for i1, i2 in net.links:
        links.setdefault(i1, []).append(net.node_of(i2))
        links.setdefault(i2, []).append(net.node_of(i1))
    # zone -> its own addresses on d: an arrival outside them is misdelivered
    delivered = {z.name: _lookup(layout, "d", z.addr) for z in net.zones}

    def arrival(peer: str, c: int) -> bool | None:
        lookup = delivered.get(peer)
        return None if lookup is None else not _matches((lookup,), c)

    steps = {fw.name: _firewall_step(net, fw, links, arrival) for fw in net.firewalls}
    # the origin's own emission is the identity transfer over its link;
    # zones never re-emit arrivals
    origin_peers = links[net.zone(origin).interface]
    steps[origin] = lambda c: ([], [(p, c, 0, arrival(p, c)) for p in origin_peers], [])
    memos: dict[str, dict[int, Step]] = {node: {} for node in steps}

    result = ExactResult({n: set() for n in net.node_names()}, {}, set(), set(), set())
    per_node = result.per_node
    dropped, dropped_curr = result.per_rule_dropped, result.per_rule_dropped_curr
    queue: deque[tuple[str, int, int, int, int]] = deque()
    seen: set[tuple[str, int, int, int]] = set()

    for h in _initial_headers(net, origin):
        result.initial.add(h)
        per_node[origin].add((h, h, 0))
        queue.append((origin, h, h, 0, 0))
        seen.add((origin, h, h, 0))

    while queue:
        node, c, o, k, hops = queue.popleft()
        result.states_explored += 1
        if max_hops is not None and hops >= max_hops:
            continue
        hops += 1
        memo = memos[node]
        entry = memo.get(c)
        if entry is None:
            entry = memo[c] = steps[node](c)
        drops, outs, lost = entry
        for rule_id, c1 in drops:
            dropped.setdefault(rule_id, set()).add(o)
            dropped_curr.setdefault(rule_id, set()).add(c1)
        for peer, c2, bits, misdelivered in outs:
            k2 = k | bits
            per_node[peer].add((c2, o, k2))
            if misdelivered is None:
                key = (peer, c2, o, k2)
                if key not in seen:
                    seen.add(key)
                    queue.append((peer, c2, o, k2, hops))
            elif misdelivered:
                result.misdelivered.add((peer, c2))
        for c2 in lost:
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

class NodeDiff:
    __slots__ = ("node", "status", "missing", "extra")

    def __init__(
        self,
        node: str,
        status: str,  # "equal" | "superset" | "diff"
        missing: list | None = None,  # in oracle, not abstract
        extra: list | None = None,  # in abstract, not oracle
    ):
        self.node = node
        self.status = status
        self.missing = [] if missing is None else missing
        self.extra = [] if extra is None else extra

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.node, self.status, self.missing, self.extra)
                == (other.node, other.status, other.missing, other.extra))

    def __repr__(self) -> str:
        return (f"NodeDiff(node={self.node!r}, status={self.status!r}, "
                f"missing={self.missing!r}, extra={self.extra!r})")


class CompareReport:
    __slots__ = ("variant", "origin", "ok", "nodes", "result", "exact")

    def __init__(self, variant: str, origin: str, ok: bool, nodes: list[NodeDiff],
                 result: AnalysisResult, exact: ExactResult):
        self.variant = variant
        self.origin = origin
        self.ok = ok
        self.nodes = nodes
        self.result = result
        self.exact = exact

    def _key(self) -> tuple:
        return self.variant, self.origin, self.ok, self.nodes, self.result, self.exact

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

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
