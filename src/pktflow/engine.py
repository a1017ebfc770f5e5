"""Worklist fixpoint propagation with pluggable abstract lattices.

Three variants share one propagation loop:

* ``v1`` — one relational formula per node (current header forms).  The
  relational ``v2`` and ``ia`` below subclass its lattice.
* ``v2`` — sets of (curr, orig, nated) packets tracking pre-NAT originals;
  values are normalized by merging packets that share (orig, nated), OR-ing
  their curr formulas.  Keying on the NAT mask as well as orig keeps guard
  reduction correct for merged packets.
* ``ia`` — independent attributes: the product of per-field sets, held as
  one formula; guard negation is exact only for single-field guards and
  approximated as true otherwise.

``analyze_relations`` runs ``v2`` on the same loop with ``RelationalLattice``:
one relation between current and original headers per NAT mask, in a
private store.  It serves the set-level outputs (``policy.infer_policy``);
``analyze`` keeps the packet lattice, whose per-packet splitting its text
and ``testgen`` print.

Propagation: the origin zone emits its departure value once; whenever a
firewall's value grows it is re-queued.  Each expansion hands the survivors
of the firewall's DNAT, filter, and SNAT tables to the routing step of
every out-link; zones record arrivals but never re-emit.  The lattice is
finite (fixed header width), so the fixpoint is reached without widening.

Each firewall keeps a memo from every packet its tables have run to that
packet's survivors (``xfer.firewall_tf`` on the packet alone).  An
expansion runs only the packets not in the memo, and routing sees the
survivors packet by packet; a repeated packet reuses its entry.  The table
transfers act on each packet alone, so these are the survivors of one run
over the whole value, in another order, and every join and accepted update
is the same: ``stats.joins`` and ``stats.iterations`` do not depend on the
memo.  The ledger stays exact: a repeated packet would only record forms
its earlier run already recorded, and a ledger entry only grows.

Joined values are canonical (v2 packets sorted by their unique (orig, nated)
key, formulas compared by store node), so value equality is plain ``==``.
That order by node id is internal: facts, ledger and diagnostics are sets
of headers, ``testgen`` sorts its witnesses by header, and the renderer
sorts packets by their per-field sets.  So output depends neither on node
ids nor on what the store built before an analysis, and a speedup may drop
or reorder operations that create nodes.  One tie remains: ``v2`` packets
with equal per-field sets but different exactness flags print in node
order (``render.render_value``).  ``V2Lattice`` plans each split once per
(guard, NAT mask): the guard's atom tests for ``curr``, those of its
reduced guard for ``orig``, and whether it needs first-failing-atom
pieces.  A split then works on node ids and skips each conjunction of a
packet's ``curr`` or ``orig`` with a guard, its negation or one atom that
the formula's field summary settles (``settles``): when an atom admits
none of its field's values the result is empty, and when every atom admits
all of them it is the formula itself.  The summary creates no node
(``FormulaStore.field_summary``), and a guard's node and its negation are
built only for a conjunction that runs.

The diagnostics are built packet by packet, for every lattice: each packet
that arrives at a zone adds its part outside the zone's addresses, and each
survivor of a firewall's latest expansion its part outside the firewall's
routing guards (``_no_route``).  Neither builds the union of the packets,
and both equal the union's part, since ``&`` distributes over ``|``.  The
latest expansion's survivors are the ones to read: every accepted update
re-queues the firewall and an expansion never changes the expanding node's
own value, so the latest expansion saw the final value.

``v1`` and the relational lattice filter with each table's compiled accept
region (``xfer.accept_region``), over the rules each packet can meet
(``xfer.live_rules``), and record no ledger while propagating.
When the worklist is empty, each expanded firewall runs its DNAT once on
its final value and ``xfer.filter_table_drops`` records what each DROP rule
discards from it, inside ``stats.wall_time_s``.  That equals the union over
all expansions: each expansion's value is contained in the final one, which
the latest expansion saw, and DNAT and the drop sets distribute over union.
``v2`` packets and ``ia`` record the ledger rule by rule as they propagate.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from typing import NamedTuple

from .netmodel import Guard, Network, guard_to_formula, reduce_guard, zone_departure_formula
from .pktset import Formula, FormulaStore, HeaderLayout, atom_test
from .xfer import (
    AbstractPacket,
    DropLedger,
    filter_table_drops,
    firewall_tf,
    link_tf,
    nat_packet,
    nat_table_tf,
    update_original,
)


class EngineError(RuntimeError):
    pass


class IterationCeilingExceeded(EngineError):
    """The worklist ran past its configured ceiling; the run is aborted."""


class AbstractValue(NamedTuple):
    """A set of abstract packets at a node; the empty set is bottom."""

    packets: tuple = ()

    def is_bottom(self) -> bool:
        return not self.packets


BOTTOM = AbstractValue()


# --------------------------------------------------------------- lattices

def settles(summary, tests) -> bool | None:
    """What a formula's field summary says of its conjunction with the
    guard whose atoms are ``tests`` (``atom_test`` pairs): False when some
    atom admits none of its field's values (the conjunction is empty), True
    when every atom admits all of them (it is the formula), None when only
    ``&`` can tell."""
    inside = True
    for i, want in tests:
        have = summary[i][0]
        # two-pointer scans of the merged ranges: any overlap, and does
        # ``want`` hold all of ``have``
        a = b = 0
        while a < len(have) and b < len(want):
            if have[a][1] < want[b][0]:
                a += 1
            elif want[b][1] < have[a][0]:
                b += 1
            else:
                break
        else:
            return False
        if inside:
            b = 0
            for lo, hi in have:
                while b < len(want) and want[b][1] < lo:
                    b += 1
                if b == len(want) or want[b][0] > lo or want[b][1] < hi:
                    inside = False
                    break
    return True if inside else None


class _Lattice:
    variant = "?"
    # True when a guard refines a packet by plain conjunction on ``curr``,
    # so a filter table is one fixed header set (``xfer.accept_region``)
    compiles_filters = False

    def __init__(self, net: Network):
        self.net = net
        self.store = net.store
        self.layout = net.layout

    def curr_of(self, p) -> Formula:
        return p.curr

    def orig_of(self, p) -> Formula | None:
        return p.orig


class V1Lattice(_Lattice):
    """One formula per NAT mask, refined by conjunction on ``curr``; ``v1``
    sets no mask bit, so it holds one packet per node."""

    variant = "v1"
    compiles_filters = True

    def initial(self, zone_name: str) -> list[AbstractPacket]:
        return [AbstractPacket(zone_departure_formula(self.net, zone_name))]

    def refine_match(self, p: AbstractPacket, guard: Guard):
        c = p.curr & guard_to_formula(guard, self.store)
        return None if c.is_empty() else AbstractPacket(c, None, p.nated)

    def refine_unmatch(self, p: AbstractPacket, guard: Guard, matched):
        if matched is None:
            return [p]
        if matched.curr == p.curr:
            return []
        return [AbstractPacket(p.curr & ~guard_to_formula(guard, self.store), None, p.nated)]

    def apply_nat(self, p: AbstractPacket, rule) -> AbstractPacket:
        return AbstractPacket(p.curr.overwrite_field(rule.nat_field, rule.action))

    def ledger_form(self, p: AbstractPacket) -> Formula:
        return p.curr

    def join(self, packets) -> AbstractValue:
        groups: dict[int, Formula] = {}
        for p in packets:
            cur = groups.get(p.nated)
            groups[p.nated] = p.curr if cur is None else cur | p.curr
        return AbstractValue(tuple(AbstractPacket(groups[m], None, m)
                                   for m in sorted(groups) if not groups[m].is_empty()))


class V2Lattice(_Lattice):
    """curr/orig/nated packets with the keyed optimized join.

    Guard refinements touch orig only through atoms on fields that have not
    been NATed yet (those agree between curr and orig).  On the unmatched
    side a guard mixing NATed and un-NATed fields is decomposed into
    first-failing-atom pieces: negating only the un-NATed residue of such a
    guard into a single orig would either drop true originals or merge
    branches whose originals differ, losing the per-packet pair guarantee.

    Each (guard, NAT mask) is planned once per lattice (``_plan``), and the
    splits work on node ids: a ``Formula`` is built only for a returned
    packet.
    """

    variant = "v2"

    def __init__(self, net: Network):
        super().__init__(net)
        self._plans: dict = {}  # (guard, NAT mask) -> its split plan

    def initial(self, zone_name: str) -> list[AbstractPacket]:
        f = zone_departure_formula(self.net, zone_name)
        return [AbstractPacket(f, f, 0)]

    def _plan(self, guard: Guard, nated: int):
        """``(tests, orig_tests, reduced, pieces)`` for splitting packets of
        mask ``nated`` on ``guard``: the ``atom_test`` pairs of the guard's
        atoms, for ``curr``; those of the atoms on un-NATed fields, which
        form the ``reduced`` guard, for ``orig``; and, when the guard tests
        both NATed and un-NATed fields, per atom ``((test,), one-atom guard,
        NATed?)`` for the first-failing-atom pieces, else None.  Nodes are
        built by the conjunctions that need them, not here."""
        key = (guard, nated)
        plan = self._plans.get(key)
        if plan is None:
            layout = self.layout
            tests = tuple(atom_test(fvs, layout) for _, fvs in guard.atoms)
            reduced = reduce_guard(guard, nated, layout)
            if len(reduced.atoms) == len(tests):
                plan = (tests, tests, guard, None)
            elif not reduced.atoms:
                plan = (tests, (), reduced, None)
            else:
                names = layout.mask_names(nated)
                pieces = tuple(((t,), Guard((a,)), a[0] in names)
                               for t, a in zip(tests, guard.atoms))
                plan = (tests, tuple(t for (t,), _, n in pieces if not n), reduced, pieces)
            self._plans[key] = plan
        return plan

    def _meet(self, node: int, tests, guard: Guard, negated: bool = False) -> int:
        """The node of ``node & g``, or of ``node & ~g`` when ``negated``,
        where ``g`` is ``guard``'s conjunction and ``tests`` its atom tests.
        ``&`` (and ``~``) run only when the node's field summary cannot
        settle the result (``settles``); a settled result is ``node`` or
        false, and builds no node."""
        store = self.store
        inside = settles(store.field_summary(node), tests)
        if inside is None:
            g = guard_to_formula(guard, store).node
            return store._and(node, store._not(g) if negated else g)
        return node if inside != negated else 0

    def refine_match(self, p: AbstractPacket, guard: Guard):
        tests, orig_tests, reduced, _ = self._plan(guard, p.nated)
        c = self._meet(p.curr.node, tests, guard)
        if not c:
            return None
        o = self._meet(p.orig.node, orig_tests, reduced)
        return AbstractPacket(Formula(self.store, c), Formula(self.store, o), p.nated)

    def refine_unmatch(self, p: AbstractPacket, guard: Guard, matched):
        if matched is not None and matched.curr == p.curr:
            return []
        store = self.store
        tests, orig_tests, _, pieces = self._plan(guard, p.nated)
        if pieces is None:
            c = p.curr
            if matched is not None:
                g = guard_to_formula(guard, store).node
                c = Formula(store, store._and(c.node, store._not(g)))
            if not orig_tests:
                # guard only constrains NATed fields: says nothing about orig
                return [AbstractPacket(c, p.orig, p.nated)]
            # no atom touches a NATed field: the negation holds on orig too
            o = self._meet(p.orig.node, tests, guard, True)
            return [AbstractPacket(c, Formula(store, o), p.nated)]
        out = []
        prefix_c, prefix_o = p.curr.node, p.orig.node
        last = len(pieces) - 1
        for i, (test, one, nated) in enumerate(pieces):
            c = self._meet(prefix_c, test, one, True)
            if c:
                o = prefix_o if nated else self._meet(prefix_o, test, one, True)
                out.append(AbstractPacket(Formula(store, c), Formula(store, o), p.nated))
            # nothing reads the prefixes after the last atom
            if i < last:
                prefix_c = self._meet(prefix_c, test, one)
                if not nated:
                    prefix_o = self._meet(prefix_o, test, one)
        return out

    def apply_nat(self, p: AbstractPacket, rule) -> AbstractPacket:
        name = rule.nat_field
        bit = 1 << self.layout.index(name)
        p1 = update_original(p, rule, self.layout) if not p.nated & bit else p
        p2 = nat_packet(p1, rule)
        return AbstractPacket(p2.curr, p2.orig, p.nated | bit)

    def ledger_form(self, p: AbstractPacket) -> Formula:
        return p.orig

    def join(self, packets) -> AbstractValue:
        groups: dict[tuple[int, int], Formula] = {}
        for p in packets:
            key = (p.orig.node, p.nated)
            cur = groups.get(key)
            groups[key] = p.curr if cur is None else cur | p.curr
        merged = [
            AbstractPacket(curr, Formula(self.store, okey), nated)
            for (okey, nated), curr in sorted(groups.items())
        ]
        return AbstractValue(tuple(merged))


class RelationalLattice(V1Lattice):
    """``v2`` as one relation per NAT mask, in a private store.

    The store's layout puts a shadow field ``f~`` right after each field
    ``f`` that some DNAT or SNAT rule rewrites.  A packet holds a relation
    in ``curr`` and its NAT mask in ``nated``: a field outside the mask has
    one value, both current and original, on its own variables; a field in
    the mask has its current value on ``f`` and its original on ``f~``.
    Shadows of fields outside the mask are unconstrained.

    Guards conjoin on the current variables as they stand.  The first NAT
    of ``f`` renames ``f`` onto ``f~`` (order-preserving, since ``f~``
    follows ``f`` and is free) and conjoins the action; a later one
    quantifies ``f`` and conjoins it.  A join ORs the relations of each
    mask.  The original view quantifies the NATed current fields and maps
    every ``f`` and ``f~`` onto ``f`` of the network's store.  This is the
    relational product of Burch, Clarke, McMillan et al. (1990).
    """

    variant = "v2"

    def __init__(self, net: Network):
        super().__init__(net)
        rewritten = {r.nat_field for fw in net.firewalls for r in (*fw.dnat, *fw.snat)}
        names = set(self.layout.names())
        fields, shadows = [], {}
        for name, width in self.layout.fields:
            fields.append((name, width))
            if name in rewritten:
                shadow = name + "~"
                while shadow in names:
                    shadow += "~"
                shadows[name] = shadow
                fields.append((shadow, width))
        self.store = FormulaStore(HeaderLayout(tuple(fields)))
        rel = self.store.layout
        base = {name: name for name in names}
        base.update((shadow, name) for name, shadow in shadows.items())
        # a field and its shadow both land on the field of the network's store
        self._to_net = tuple(self.layout.offset(base[name]) + i
                             for name, width in rel.fields for i in range(width))
        self._from_net = tuple(rel.offset(name) + i
                               for name, width in self.layout.fields for i in range(width))
        self._to_shadow = {}
        for name in shadows:
            off, width = rel.offset(name), rel.width(name)
            self._to_shadow[name] = tuple(v + width if off <= v < off + width else v
                                          for v in range(rel.total_bits))

    def initial(self, zone_name: str) -> list[AbstractPacket]:
        f = zone_departure_formula(self.net, zone_name).relabel(self._from_net, self.store)
        return [AbstractPacket(f)]

    def apply_nat(self, p: AbstractPacket, rule) -> AbstractPacket:
        name = rule.nat_field
        bit = 1 << self.layout.index(name)
        if p.nated & bit:
            r = p.curr.overwrite_field(name, rule.action)
        else:
            r = p.curr.relabel(self._to_shadow[name]) & self.store.atom(rule.action)
        return AbstractPacket(r, None, p.nated | bit)

    def orig_of(self, p: AbstractPacket) -> Formula:
        """The original headers of a relation, in the network's store."""
        r = p.curr
        for name in self.layout.mask_names(p.nated):
            r = r.exists_field(name)
        return r.relabel(self._to_net, self.net.store)

    def ledger_form(self, p: AbstractPacket) -> Formula:
        return self.orig_of(p)


class IALattice(V1Lattice):
    """``curr`` is a product of per-field sets; a sound over-approximation
    of ``v1``.  A guard or a NAT keeps a product, and a join keeps the
    product of the per-field unions."""

    variant = "ia"
    compiles_filters = False  # the negation below is no fixed header set

    def refine_unmatch(self, p: AbstractPacket, guard: Guard, matched):
        # the negation of a multi-field guard is approximated as true
        return [p] if len(guard.atoms) > 1 else super().refine_unmatch(p, guard, matched)

    def join(self, packets) -> AbstractValue:
        union = self.store.false
        for p in packets:
            union = union | p.curr
        prod = self.store.true
        for name in self.layout.names():
            prod = prod & union.extract_field(name)
        return BOTTOM if prod.is_empty() else AbstractValue((AbstractPacket(prod),))


_LATTICES = {"v1": V1Lattice, "v2": V2Lattice, "ia": IALattice}

VARIANTS = tuple(_LATTICES)


def get_lattice(variant: str, net: Network):
    try:
        return _LATTICES[variant.lower()](net)
    except KeyError:
        raise EngineError(f"unknown analysis variant {variant!r}") from None


# --------------------------------------------------------------- results

class AnalysisStats:
    __slots__ = ("iterations", "joins", "wall_time_s")

    def __init__(self, iterations: int = 0, joins: int = 0, wall_time_s: float = 0.0):
        self.iterations = iterations
        self.joins = joins
        self.wall_time_s = wall_time_s

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.iterations, self.joins, self.wall_time_s)
                == (other.iterations, other.joins, other.wall_time_s))

    def __repr__(self) -> str:
        return (f"AnalysisStats(iterations={self.iterations!r}, joins={self.joins!r}, "
                f"wall_time_s={self.wall_time_s!r})")


class AnalysisResult:
    __slots__ = ("net", "origin", "variant", "facts", "ledger", "stats",
                 "misdelivered", "no_route")

    def __init__(
        self,
        net: Network,
        origin: str,
        variant: str,
        facts: dict[str, AbstractValue],
        ledger: DropLedger,
        stats: AnalysisStats,
        misdelivered: dict[str, Formula] | None = None,
        no_route: dict[str, Formula] | None = None,
    ):
        self.net = net
        self.origin = origin
        self.variant = variant
        self.facts = facts
        self.ledger = ledger
        self.stats = stats
        self.misdelivered = {} if misdelivered is None else misdelivered
        self.no_route = {} if no_route is None else no_route

    def _key(self) -> tuple:
        return (self.net, self.origin, self.variant, self.facts, self.ledger, self.stats,
                self.misdelivered, self.no_route)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()


def default_iteration_ceiling(net: Network) -> int:
    return 10 * max(1, len(net.links)) * (1 << min(net.layout.total_bits, 20))


def analyze(
    net: Network,
    origin: str,
    variant: str = "v2",
    *,
    worklist: str = "fifo",
    max_iterations: int | None = None,
    observer=None,
    _initial=None,
) -> AnalysisResult:
    """Run the propagation to fixpoint from ``origin`` and collect per-node
    values, the drop ledger, and diagnostics.

    ``worklist`` selects the queue discipline ("fifo" or "lifo"); the
    fixpoint is the same either way.  ``observer(node, old, new)`` is called
    on every accepted value update (used by monotonicity tests).
    """
    if not net.is_zone(origin):
        raise EngineError(f"origin {origin!r} is not a zone of the network")
    if worklist not in ("fifo", "lifo"):
        raise EngineError(f"unknown worklist discipline {worklist!r}")
    lattice = get_lattice(variant, net)
    ceiling = max_iterations if max_iterations is not None else default_iteration_ceiling(net)
    started = time.perf_counter()
    ledger = DropLedger(net.store)
    stats = AnalysisStats()
    misdelivered: dict[str, Formula] = {z.name: net.store.false for z in net.zones}
    initial_packets = lattice.initial(origin) if _initial is None else list(_initial)
    facts, survivors = _propagate(
        net, lattice, origin, initial_packets, ledger, stats,
        worklist=worklist, ceiling=ceiling, observer=observer, misdelivered=misdelivered,
    )
    stats.wall_time_s = time.perf_counter() - started
    return AnalysisResult(
        net, origin, lattice.variant, facts, ledger, stats,
        misdelivered={z: f for z, f in misdelivered.items() if not f.is_empty()},
        no_route=_no_route(net, lattice, survivors),
    )


def analyze_relations(net: Network, origin: str):
    """Run ``v2`` from ``origin`` as one relation per NAT mask.

    Returns ``(lattice, facts, ledger)``: the ``RelationalLattice`` whose
    private store holds the relations, the per-node values, and the drop
    ledger of original headers in ``net.store``.  ``lattice.orig_of`` copies
    a relation's original view into ``net.store``.  No diagnostics are
    computed.
    """
    if not net.is_zone(origin):
        raise EngineError(f"origin {origin!r} is not a zone of the network")
    lattice = RelationalLattice(net)
    ledger = DropLedger(net.store)
    # a relation over curr and shadow variables may test twice as many
    # variables as the header has, and the kernel recurses once per variable
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, lattice.store.nbits + 1000))
    try:
        facts, _ = _propagate(
            net, lattice, origin, lattice.initial(origin), ledger, AnalysisStats(),
            worklist="fifo", ceiling=default_iteration_ceiling(net), observer=None,
            misdelivered=None,
        )
    finally:
        sys.setrecursionlimit(limit)
    return lattice, facts, ledger


def _propagate(net, lattice, origin, initial_packets, ledger, stats, *,
               worklist, ceiling, observer, misdelivered):
    """The worklist loop shared by every lattice; returns the per-node values
    and each firewall's latest table survivors, and fills ``ledger``.

    ``misdelivered``, when given, collects per zone the arrivals whose
    destination lies outside the zone's addresses: an assumption-checking
    diagnostic, for such packets stay in the zone's value.  The origin's own
    departure value is not an arrival.  Each arriving packet adds only its
    own part outside the zone, which is almost always empty; that equals
    the union of the arrivals outside the zone, since ``&`` distributes over
    ``|``."""
    facts: dict[str, AbstractValue] = {n: BOTTOM for n in net.node_names()}
    facts[origin] = lattice.join(initial_packets)
    stats.joins += 1

    survivors: dict[str, list] = {}  # firewall -> table survivors, latest expansion
    # firewall -> {packet: survivors}, for each packet its tables have run
    memos: dict[str, dict] = {}
    # a compiling lattice records its ledger once, at the fixpoint
    live_ledger = None if lattice.compiles_filters else ledger
    # zone -> the headers whose destination lies outside it
    outside = {} if misdelivered is None else {
        z.name: ~net.zone_dst_atom(z) for z in net.zones}
    queue: deque[str] = deque([origin])
    queued = {origin}
    while queue:
        stats.iterations += 1
        if stats.iterations > ceiling:
            raise IterationCeilingExceeded(
                f"no fixpoint within {ceiling} node expansions "
                f"(origin {origin!r}, variant {lattice.variant!r})"
            )
        m = queue.popleft() if worklist == "fifo" else queue.pop()
        queued.discard(m)
        packets = facts[m].packets
        if not net.is_zone(m):
            fw = net.firewall(m)
            memo = memos.setdefault(m, {})
            for p in packets:
                if p not in memo:
                    memo[p] = firewall_tf(fw, [p], live_ledger, lattice)
            packets = survivors[m] = [s for p in packets for s in memo[p]]
        for own_iface, _, peer in net.out_links(m):
            out = link_tf(net, m, own_iface, packets, lattice)
            if not out:
                continue
            if peer in outside:
                for p in out:
                    misdelivered[peer] = misdelivered[peer] | (lattice.curr_of(p) & outside[peer])
            new_value = lattice.join([*facts[peer].packets, *out])
            stats.joins += 1
            if new_value == facts[peer]:
                continue
            if observer is not None:
                observer(peer, facts[peer], new_value)
            facts[peer] = new_value
            # zones record arrivals but never re-emit
            if not net.is_zone(peer) and peer not in queued:
                queue.append(peer)
                queued.add(peer)
    if lattice.compiles_filters:
        for name in survivors:
            fw = net.firewall(name)
            dnat = nat_table_tf(fw.dnat, facts[name].packets, lattice)
            filter_table_drops(fw.filter, lattice.join(dnat).packets, ledger, lattice)
    return facts, survivors


def _no_route(net: Network, lattice, survivors) -> dict[str, Formula]:
    """Packets that clear a firewall's tables but match no routing guard:
    the OR over the survivors of each one's part outside the routed set,
    equal to the survivors' union outside it."""
    out: dict[str, Formula] = {}
    for fw in net.firewalls:
        s = survivors.get(fw.name)
        if not s:
            continue
        routed = net.store.false
        for _, guard in fw.routing:
            routed = routed | guard_to_formula(guard, net.store)
        unrouted = ~routed
        leftover = net.store.false
        for p in s:
            leftover = leftover | (lattice.curr_of(p) & unrouted)
        if not leftover.is_empty():
            out[fw.name] = leftover
    return out
