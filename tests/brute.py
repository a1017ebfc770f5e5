"""Brute-force reference semantics used as the independent oracle in tests.

Everything here but the reference guard splits, diagnostics, field
summary and filter compile works by exhaustive enumeration of concrete
headers and never touches the symbolic formula machinery, so it can certify
it.  ``reference_refine_match`` and ``reference_refine_unmatch`` keep the
definition of a lattice's guard split, computed from the guard alone with
plain formula operations; ``reference_no_route`` and
``reference_misdelivery`` build the diagnostics from the union of the
packets they cover; ``reference_formula_fields`` keeps the projection
definition of the per-field summary that rendering prints, and
``reference_field_summary`` the recursive pair-based walk that
``FormulaStore.field_summary`` optimizes;
``reference_accept_region`` and ``reference_filter_table_drops`` compile a
filter table over every rule, whatever the packet; and
``reference_analyze`` and ``reference_infer_policy`` run the engine on the
network's own value layout, where ``engine.analyze`` and
``policy.infer_policy`` run it in class space; ``reference_packet_policy``
takes a zone's policy from a packet ``v2`` run, where ``infer_policy``
runs relations; ``reference_render_value``,
``reference_result_to_text`` and ``reference_result_to_json`` format every
packet from scratch, where ``render`` builds each node's view once per
rendered result.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter

import sys

from pktflow import engine, render
from pktflow.engine import (
    AnalysisResult,
    AnalysisStats,
    ClassSpace,
    IALattice,
    RelationalLattice,
    V2Lattice,
    default_iteration_ceiling,
    get_lattice,
)
from pktflow.netmodel import DROP, Guard, Network, guard_to_formula
from pktflow.oracle import DEFAULT_WIDTH_GUARD, ExactResult, _enumeration_cap
from pktflow.pktset import FieldValueSet, Formula, HeaderLayout
from pktflow.policy import PolicySummary, _unions
from pktflow.render import RenderedPacket
from pktflow.xfer import AbstractPacket, record


def all_headers(layout: HeaderLayout) -> range:
    return range(1 << layout.total_bits)


def headers_where(layout: HeaderLayout, pred) -> set[int]:
    return {h for h in all_headers(layout) if pred(h)}


def formula_set(formula) -> set[int]:
    """Concrete denotation of a formula via its own enumerate (full space)."""
    return set(formula.enumerate(1 << formula.store.layout.total_bits))


def field_count(layout: HeaderLayout) -> int:
    return len(layout.fields)


def with_value(layout: HeaderLayout, header: int, name: str, value: int) -> int:
    """``header`` with field ``name`` set to ``value``."""
    width = layout.width(name)
    shift = layout.total_bits - layout.offset(name) - width
    mask = (1 << width) - 1
    assert 0 <= value <= mask, (name, value)
    return (header & ~(mask << shift)) | (value << shift)


def is_field_product(formula) -> bool:
    """True when the formula equals the conjunction of its per-field
    projections (no cross-field correlation)."""
    return all(independent for _, independent in formula.store.field_summary(formula.node))


def drop_rule_ids(net: Network) -> list[int]:
    return [r.rule_id for fw in net.firewalls for r in fw.filter if r.action == DROP]


def in_value_set(layout: HeaderLayout, header: int, fvs: FieldValueSet) -> bool:
    return fvs.contains(layout.extract_value(header, fvs.field))


def brute_overwrite(layout: HeaderLayout, headers: set[int], field: str,
                    values: FieldValueSet) -> set[int]:
    out = set()
    for h in headers:
        for v in values.values():
            out.add(with_value(layout, h, field, v))
    return out


# ------------------------------------------------------ reference oracle

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


def reference_simulate(
    net: Network,
    origin: str,
    *,
    max_width: int = DEFAULT_WIDTH_GUARD,
    max_hops: int | None = None,
) -> ExactResult:
    """The semantic definition of ``oracle.simulate``: one breadth-first
    exploration that matches every guard rule by rule on each queued state.
    ``oracle.simulate`` must return an equal ``ExactResult``, with the same
    ``states_explored``."""
    _enumeration_cap(net, max_width)
    layout = net.layout

    peers_of: dict[str, list[str]] = {}
    for i1, i2 in net.links:
        peers_of.setdefault(i1, []).append(net.node_of(i2))
        peers_of.setdefault(i2, []).append(net.node_of(i1))
    zone_names = {z.name for z in net.zones}
    zone_by_name = {z.name: z for z in net.zones}

    result = ExactResult({n: set() for n in net.node_names()}, {}, {}, set(), set(), set(), 0)
    explored = 0

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
                    (with_value(layout, c, r.nat_field, v), k | bit)
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
        explored += 1
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
    return result._replace(states_explored=explored)


# ------------------------------------------------- reference guard split

def _reduced(guard: Guard, nated: int, layout: HeaderLayout) -> Guard:
    """The atoms of ``guard`` on the fields outside the NAT mask ``nated``."""
    return Guard(tuple(a for a in guard.atoms if not nated >> layout.index(a[0]) & 1))


def reference_refine_match(lat, p: AbstractPacket, guard: Guard) -> AbstractPacket | None:
    """The semantic definition of ``lat.refine_match``: the branch of ``p``
    that matches ``guard``, or None when it is empty.  A ``v2`` packet's
    orig meets only the atoms on fields its NAT mask leaves out."""
    c = p.curr & guard_to_formula(guard, lat.store)
    if c.is_empty():
        return None
    if not isinstance(lat, V2Lattice):
        return AbstractPacket(c, None, p.nated)
    reduced = _reduced(guard, p.nated, lat.layout)
    return AbstractPacket(c, p.orig & guard_to_formula(reduced, lat.store), p.nated)


def reference_refine_unmatch(lat, p: AbstractPacket, guard: Guard) -> list[AbstractPacket]:
    """The semantic definition of ``lat.refine_unmatch``: the branches of
    ``p`` that miss ``guard``, computed from ``p`` and the guard alone.
    ``lat.refine_unmatch(p, guard, lat.refine_match(p, guard))`` must
    return equal packets in the same order."""
    store = lat.store
    gf = guard_to_formula(guard, store)
    if isinstance(lat, IALattice) and len(guard.atoms) > 1:
        # the negation of a multi-field guard is approximated as true
        return [p]
    if not isinstance(lat, V2Lattice):
        c = p.curr & ~gf
        return [] if c.is_empty() else [AbstractPacket(c, None, p.nated)]
    if (p.curr & ~gf).is_empty():
        return []
    reduced = _reduced(guard, p.nated, lat.layout)
    if len(reduced.atoms) == len(guard.atoms):
        # no atom touches a NATed field: the negation holds on orig too
        return [AbstractPacket(p.curr & ~gf, p.orig & ~gf, p.nated)]
    if not reduced.atoms:
        # guard only constrains NATed fields: says nothing about orig
        return [AbstractPacket(p.curr & ~gf, p.orig, p.nated)]
    pieces = []
    prefix_c, prefix_o = p.curr, p.orig
    for name, fvs in guard.atoms:
        atom = store.atom(fvs)
        nated = p.nated >> lat.layout.index(name) & 1
        c = prefix_c & ~atom
        if not c.is_empty():
            o = prefix_o if nated else prefix_o & ~atom
            pieces.append(AbstractPacket(c, o, p.nated))
        prefix_c = prefix_c & atom
        if not nated:
            prefix_o = prefix_o & atom
    return pieces


# ------------------------------------------------- reference diagnostics

def reference_no_route(net: Network, lat, survivors: dict) -> dict:
    """``AnalysisResult.no_route`` from the union: per firewall, the OR of
    the current forms of its latest survivors, outside the OR of its
    routing guards, when not empty."""
    out = {}
    for fw in net.firewalls:
        s = survivors.get(fw.name)
        if not s:
            continue
        cleared = net.store.false
        for p in s:
            cleared = cleared | lat.curr_of(p)
        routed = net.store.false
        for _, guard in fw.routing:
            routed = routed | guard_to_formula(guard, net.store)
        leftover = cleared & ~routed
        if not leftover.is_empty():
            out[fw.name] = leftover
    return out


def reference_misdelivery(net: Network, lat, arrivals: dict) -> dict:
    """``AnalysisResult.misdelivered`` from the union: per zone, the OR of
    the current forms of every packet that arrived at it (``arrivals``,
    zone -> packets), outside the zone's destination addresses, when not
    empty."""
    out = {}
    for zone in net.zones:
        union = net.store.false
        for p in arrivals[zone.name]:
            union = union | lat.curr_of(p)
        bad = union & ~net.zone_dst_atom(zone)
        if not bad.is_empty():
            out[zone.name] = bad
    return out


# ------------------------------------------------ reference filter compile

def reference_accept_region(table, store):
    """The headers a filter table accepts, folded backwards over every rule
    from false: an ACCEPT rule gives ``g | R``, a DROP rule ``~g & R``.
    ``p & xfer.accept_region(table, store, xfer.live_rules(table,
    store.layout, lat.screen(p.node)))`` must equal ``p &
    reference_accept_region(table, store)``."""
    region = store.false
    for rule in reversed(table):
        g = guard_to_formula(rule.guard, store)
        region = ~g & region if rule.action == DROP else g | region
    return region


def reference_filter_table_drops(table, pset, ledger: dict, lat) -> None:
    """Rule i of a filter table drops ``p & g_i & ~g_j`` for every earlier
    rule j, over every rule of the table.  ``xfer.filter_table_drops`` must
    record the same ledger entries."""
    store = lat.store
    for i, rule in enumerate(table):
        if rule.action != DROP:
            continue
        g = guard_to_formula(rule.guard, store)
        for p in pset:
            c = p.curr & g
            for earlier in table[:i]:
                if c.is_empty():
                    break
                c = c & ~guard_to_formula(earlier.guard, store)
            if not c.is_empty():
                record(ledger, rule.rule_id, lat.ledger_form(AbstractPacket(c, None, p.nated)))


# ------------------------------------------------ reference analyses

def reference_analyze(net: Network, origin: str, variant: str = "v2") -> AnalysisResult:
    """``engine.analyze`` over the network's own value layout: the result
    of a run in which every value is its own class.  ``analyze`` must equal
    it in its views, its stats (but the wall time) and its rendered bytes."""
    lattice = get_lattice(variant, net)
    facts, emitted, iterations, joins, ledger = engine._propagate(
        lattice, origin, default_iteration_ceiling(net))
    misdelivered, no_route = engine._diagnostics(lattice, emitted)
    identity = tuple(range(1 << width) for _, width in net.layout.fields)
    stats = AnalysisStats(iterations, joins, 0.0)
    return AnalysisResult(net, origin, lattice.variant, stats, ClassSpace(
        net, identity, facts, ledger, misdelivered, no_route))


def reference_infer_policy(net: Network, zone: str) -> PolicySummary:
    """A zone's policy from a relational run over the network's value
    layout, with the relations' original views and the ledger copied into
    ``net.store`` as they come; ``policy.infer_policy`` must equal it."""
    lattice = RelationalLattice(net)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, lattice.store.nbits + 1000))
    try:
        facts, _, _, _, ledger = engine._propagate(
            lattice, zone, default_iteration_ceiling(net))
    finally:
        sys.setrecursionlimit(limit)
    accept = net.store.false
    for z in net.zones:
        if z.name == zone:
            continue
        for p in facts[z.name].packets:
            accept = accept | lattice.orig_of(p)
    reject = net.store.false
    for dropped in ledger.values():
        reject = reject | dropped
    return PolicySummary(zone, accept, reject, accept & reject)


def packet_relations(lat: RelationalLattice, value) -> dict[int, Formula]:
    """A packet ``v2`` value of ``lat.net``'s layout as relations of
    ``lat.store``, one per NAT mask: the union over the value's packets of
    ``curr & orig``, ``curr`` relabelled through ``lat._from_net`` and
    ``orig`` the same way but for each NATed field, which goes onto its
    shadow (``lat._to_shadow``).  Each relation holds the (curr, orig)
    pairs of the mask's packets, and a relational run's fact at the same
    node must be these relations."""
    out: dict[int, Formula] = {}
    for p in value.packets:
        to_orig = lat._from_net
        for name in lat.layout.mask_names(p.nated):
            shadow = lat._to_shadow[name]
            to_orig = tuple(shadow[v] for v in to_orig)
        relation = p.curr.relabel(lat._from_net, lat.store) & p.orig.relabel(to_orig, lat.store)
        record(out, p.nated, relation)
    return out


def reference_packet_policy(net: Network, zone: str) -> PolicySummary:
    """A zone's policy from a packet ``analyze(net, zone, "v2")``: the
    unions of ``policy._unions`` over the packets' orig components and the
    drop ledger, read through the result's value-space views.  The
    relational ``policy.infer_policy`` must have the same accept and
    reject."""
    result = engine.analyze(net, zone, "v2")
    accept, reject = _unions(net, zone, result.facts, result.ledger, attrgetter("orig"))
    return PolicySummary(zone, accept, reject, accept & reject)


# ------------------------------------------------ reference field summary

def projection_ranges(proj, field: str) -> tuple[tuple[int, int], ...]:
    """Merged inclusive ranges of a formula that constrains no variable
    outside ``field``, such as an ``extract_field`` result."""
    store = proj.store
    off = store.layout.offset(field)
    w = store.layout.width(field)
    memo: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}

    def merged(parts: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
        out: list[tuple[int, int]] = []
        for lo, hi in parts:
            if out and lo <= out[-1][1] + 1:
                out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
        return tuple(out)

    def rec(node: int, i: int) -> tuple[tuple[int, int], ...]:
        # intervals over the field's suffix bits [i, w)
        if node == 0:
            return ()
        size = 1 << (w - i)
        if node == 1 or store._var[node] >= off + w:
            return ((0, size - 1),)
        key = (node, i)
        r = memo.get(key)
        if r is None:
            half = size >> 1
            if store._var[node] == off + i:
                left = rec(store._lo[node], i + 1)
                right = rec(store._hi[node], i + 1)
            else:  # free bit inside the field: same subtree twice
                left = right = rec(node, i + 1)
            r = merged(list(left) + [(lo + half, hi + half) for lo, hi in right])
            memo[key] = r
        return r

    return rec(proj.node, 0)


def reference_formula_fields(formula, layout: HeaderLayout) -> tuple[dict, dict]:
    """The projection definition of ``render.formula_fields``: per field,
    the value ranges of the formula's projection onto it, and whether the
    formula equals that projection AND its own quantification of the field.
    It builds formulas, so it grows the store; ``formula_fields`` must
    return equal dicts without doing so."""
    names = layout.names()
    projs = [formula.extract_field(name) for name in names]
    ranges = tuple(projection_ranges(proj, name) for proj, name in zip(projs, names))
    product = formula.store.true
    for proj in projs:
        product = product & proj
    if product == formula:
        exact = (True,) * len(names)
    else:
        exact = tuple(formula == (proj & formula.exists_field(name))
                      for proj, name in zip(projs, names))
    return dict(zip(names, ranges)), dict(zip(names, exact))


def _spread(ranges, gap: int, bits: int) -> tuple[tuple[int, int], ...]:
    """Ranges over ``bits`` low bits, repeated under each value of ``gap``
    free bits above them."""
    size = 1 << bits
    if ranges == ((0, size - 1),):
        return ((0, (size << gap) - 1),)
    out: list[tuple[int, int]] = []
    for t in range(0, size << gap, size):
        for a, b in ranges:
            if out and out[-1][1] + 1 == a + t:
                out[-1] = (out[-1][0], b + t)
            else:
                out.append((a + t, b + t))
    return tuple(out)


def _combine(pairs) -> tuple:
    """One field's ``(ranges, independent)`` over the union of several
    nodes' entries."""
    first = pairs[0][0]
    if all(r == first for r, _ in pairs):
        return first, all(ind for _, ind in pairs)
    out: list[tuple[int, int]] = []
    for a, b in sorted(x for r, _ in pairs for x in r):
        if out and a <= out[-1][1] + 1:
            if b > out[-1][1]:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return tuple(out), False


def reference_field_summary(store, node: int, cache: dict | None = None) -> tuple:
    """``FormulaStore.field_summary`` by a recursive walk over (lo, hi)
    pairs that recurses and shifts once per bit and spreads over skipped
    variables; ``cache`` (by node) is its own, not the store's.  Per field,
    ``(ranges, independent)``: the values leading from the field's entry
    nodes to its exits, and whether every entry gives the same values and
    reaches one exit."""
    cache = {} if cache is None else cache
    layout = store.layout
    spans, field_of = [], []
    for k, (name, w) in enumerate(layout.fields):
        spans.append((layout.offset(name), layout.offset(name) + w))
        field_of += [k] * w
    var, low, high = store._var, store._lo, store._hi

    def summary(node: int) -> tuple:
        s = cache.get(node)
        if s is not None:
            return s
        if node < 2:
            return tuple((((0, (1 << w) - 1),) if node else (), True) for _, w in layout.fields)
        v = var[node]
        k = field_of[v]
        off, end = spans[k]
        memo: dict[int, tuple] = {}
        exits: set[int] = set()

        def walk(n: int, v: int) -> tuple:
            half = 1 << (end - v - 1)
            ranges, one, shift = (), 0, 0
            for c in (low[n], high[n]):
                if c:
                    cv = var[c]
                    if cv >= end:
                        r, x = ((shift, shift + half - 1),), c
                        exits.add(c)
                    else:
                        m = memo.get(c)
                        if m is None:
                            m = memo[c] = walk(c, cv)
                        r, x = m
                        if cv > v + 1:
                            r = _spread(r, cv - v - 1, end - cv)
                        if shift:
                            r = tuple((a + shift, b + shift) for a, b in r)
                    if ranges and ranges[-1][1] + 1 == r[0][0]:
                        ranges = (*ranges[:-1], (ranges[-1][0], r[0][1]), *r[1:])
                    else:
                        ranges += r
                    one = x if one == 0 or one == x else -1
                shift = half
            return ranges, one

        ranges, one = walk(node, v)
        if v > off:
            ranges = _spread(ranges, v - off, end - v)
        free = tuple((((0, (1 << w) - 1),), True) for _, w in layout.fields[:k])
        if one > 0:
            tail = summary(one)[k + 1:]
        else:
            sums = [summary(x) for x in exits]
            tail = tuple(_combine([s[j] for s in sums]) for j in range(k + 1, len(spans)))
        s = cache[node] = (*free, (ranges, one > 0), *tail)
        return s

    return summary(node)


# ------------------------------------------------------ reference rendering

def reference_render_value(value, net: Network, starts=None) -> list[RenderedPacket]:
    """``render.render_value`` packet by packet: each packet's ``curr`` and
    ``orig`` read by ``formula_fields`` into fresh dicts and sorted by
    ``(str(orig), nated, str(curr))``, stable."""
    layout = net.layout
    rendered = []
    for p in value.packets:
        curr, curr_exact = render.formula_fields(p.curr, layout, starts)
        orig_sets = orig_exact = None
        if p.orig is not None:
            orig_sets, orig_exact = render.formula_fields(p.orig, layout, starts)
        rendered.append(RenderedPacket(curr, curr_exact, orig_sets, orig_exact,
                                       layout.mask_names(p.nated)))
    rendered.sort(key=lambda r: (str(r.orig), r.nated, str(r.curr)))
    return rendered


def _reference_packet_text(p: RenderedPacket, layout: HeaderLayout) -> str:
    body = render.bracket(p.curr, layout)
    if p.orig is not None:
        body += " " + render.bracket(p.orig, layout)
    approx = [f for f, ok in p.curr_exact.items() if not ok]
    if p.orig_exact:
        approx += [f for f, ok in p.orig_exact.items() if not ok and f not in approx]
    text = "<" + body + ">"
    return text + " (approx: " + ", ".join(approx) + ")" if approx else text


def reference_value_to_text(value, net: Network, starts=None) -> str:
    if value.is_bottom():
        return "(unreachable)"
    return " ".join(_reference_packet_text(p, net.layout)
                    for p in reference_render_value(value, net, starts))


def reference_result_to_text(result: AnalysisResult, net: Network) -> str:
    """``render.result_to_text`` with every fact rendered packet by packet."""
    classes = result.classes
    layout, starts = net.layout, classes.starts
    lines = [f"facts({node}) = {reference_value_to_text(classes.facts[node], net, starts)}"
             for node in net.node_names()]
    if classes.ledger:
        lines.append("")
        for rid, formula in sorted(classes.ledger.items()):
            lines.append(f"dropped({rid}) = {render.formula_to_text(formula, layout, starts)}")
    diag = [f"misdelivered({zone}) = {render.formula_to_text(f, layout, starts)}"
            for zone, f in sorted(classes.misdelivered.items())]
    diag += [f"no-route({node}) = {render.formula_to_text(f, layout, starts)}"
             for node, f in sorted(classes.no_route.items())]
    if diag:
        lines.append("")
        lines.extend(diag)
    return "\n".join(lines) + "\n"


def reference_result_to_json(result: AnalysisResult, net: Network, network_name: str) -> dict:
    """``render.result_to_json`` with every fact rendered packet by packet."""
    classes = result.classes
    layout, starts = net.layout, classes.starts
    data_sets, field_sets = render.data_sets, render.field_sets
    facts = {}
    for node in net.node_names():
        packets = []
        for p in reference_render_value(classes.facts[node], net, starts):
            entry = {"curr": data_sets(p.curr, layout), "curr_exact": p.curr_exact}
            if p.orig is not None:
                entry["orig"] = data_sets(p.orig, layout)
                entry["orig_exact"] = p.orig_exact
                entry["nated"] = list(p.nated)
            packets.append(entry)
        facts[node] = packets
    ledger, ledger_exact = {}, {}
    for rid, formula in sorted(classes.ledger.items()):
        sets, exact = render.formula_fields(formula, layout, starts)
        ledger[str(rid)] = data_sets(sets, layout)
        ledger_exact[str(rid)] = exact
    return {
        "schema": "pktflow-analysis-1",
        "network": network_name,
        "origin": result.origin,
        "variant": result.variant,
        "facts": facts,
        "ledger": ledger,
        "ledger_exact": ledger_exact,
        "diagnostics": {
            "misdelivered": {z: data_sets(field_sets(f, layout, starts), layout)
                             for z, f in sorted(classes.misdelivered.items())},
            "no_route": {n: data_sets(field_sets(f, layout, starts), layout)
                         for n, f in sorted(classes.no_route.items())},
        },
        "stats": {
            "iterations": result.stats.iterations,
            "joins": result.stats.joins,
            "wall_time_s": round(result.stats.wall_time_s, 6),
        },
    }
