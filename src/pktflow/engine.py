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
private store.  It serves the set-level outputs (``policy.infer_policy``).
``analyze`` keeps the packet lattice, whose per-packet splitting its text
and ``testgen`` print.

Both run in class space, on ``class_quotient(net)``: the network over the
per-field classes of its header values (the atomic predicates of Yang and
Lam, ICNP 2013), whose fields are a few bits wide.  That is exact: every
value set the network tests or writes is a union of classes, so two values
of one class meet every guard, NAT action and zone alike, and conjunction,
negation, quantification and union commute with the map from values to
classes.  Each class owns a run of class indices, numbered along aligned
value blocks (``_class_runs``): a class is read at its first index, and
every class formula holds the rest of its run, its spare indices, exactly
when it holds the first.  Both take their iteration ceiling from the value
network.  An ``AnalysisResult`` keeps the class values (``classes``), which
the renderer maps to value ranges through the class starts, and expands its
value-space views (``facts``, ``ledger``, ``misdelivered``, ``no_route``)
into ``net.store`` only when they are read.  A network that no field
narrows is its own class network, and the views are its values.

Propagation (``_propagate``, the one loop): the origin zone emits its
departure value once; whenever a firewall's value grows it is re-queued.
Each expansion hands the survivors of the firewall's DNAT, filter, and SNAT
tables to the routing step of every out-link; zones record arrivals but
never re-emit.  The lattice is finite (fixed header width), so the fixpoint
is reached without widening.  The queue pops first in, first out; the
fixpoint does not depend on that order, only the counts in ``stats`` do,
and the tests compare it with a last-in, first-out run.

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
with equal per-field sets but different exactness flags print in the node
order of the class network's store (``render.render_value``).
``V2Lattice`` plans each split once per (guard, NAT mask): the guard's
atom tests for ``curr``, those of its reduced guard for ``orig``, and its
unmatched pieces, one per atom for a guard mixing NATed and un-NATed
fields and one for any other guard.  Every conjunction of a split goes
through ``V2Lattice._meet``, which works on node ids and skips one that
the formula's field summary settles (``pktset.settles``): when an atom
admits none of its field's values the result is empty, and when every
atom admits all of them it is the formula itself.
The summary creates no node (``FormulaStore.field_summary``), and a guard's
node and its negation are built only for a conjunction that runs.

The diagnostics are built packet by packet, for every lattice: each packet
that arrives at a zone adds its part outside the zone's addresses, and each
survivor of a firewall's latest expansion its part outside the firewall's
routing guards (``_no_route``).  Neither builds the union of the packets,
and both equal the union's part, since ``&`` distributes over ``|``.  The
latest expansion's survivors are the ones to read: every accepted update
re-queues the firewall and an expansion never changes the expanding node's
own value, so the latest expansion saw the final value.

``v1`` and the relational lattice filter with each table's compiled accept
region (``xfer.accept_region``), over the rules each packet can meet and
their guards cofactored by what the packet's field summary settles
(``xfer.live_rules``), and record no ledger while propagating.
When the worklist is empty, each expanded firewall runs its DNAT once on
its final value and ``xfer.filter_table_drops`` records what each DROP rule
discards from it, inside ``stats.wall_time_s``.  That equals the union over
all expansions: each expansion's value is contained in the final one, which
the latest expansion saw, and DNAT and the drop sets distribute over union.
``v2`` packets and ``ia`` record the ledger rule by rule as they propagate.

The DNAT runs while the computed tables that built the final values are
warm.  Then every lattice empties its store's ``&``, ``|`` and ``~`` tables
(``FormulaStore.clear_computed``), and again after each firewall's drops,
which share no result with another firewall's; ``analyze`` does so once
more after the diagnostics.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import Mapping
from typing import NamedTuple

from .netmodel import (
    FilterRule,
    Firewall,
    Guard,
    NatRule,
    Network,
    PktflowError,
    Zone,
    guard_to_formula,
    zone_departure_formula,
)
from .pktset import FieldValueSet, Formula, FormulaStore, HeaderLayout, atom_test, settles
from .xfer import (
    AbstractPacket,
    DropLedger,
    filter_table_drops,
    firewall_tf,
    link_tf,
    nat_table_tf,
)


class EngineError(PktflowError, RuntimeError):
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
    """curr/orig/nated packets, with origin tracking and the keyed join.

    Guard refinements touch orig only through atoms on fields that have not
    been NATed yet (those agree between curr and orig), which ``_plan``
    keeps as the reduced guard; ``apply_nat`` updates orig.  On the unmatched
    side a guard mixing NATed and un-NATed fields is decomposed into
    first-failing-atom pieces: negating only the un-NATed residue of such a
    guard into a single orig would either drop true originals or merge
    branches whose originals differ, losing the per-packet pair guarantee.

    Each (guard, NAT mask) is planned once per lattice (``_plan``), every
    split conjunction goes through ``_meet`` on node ids, and a ``Formula``
    is built only for a returned packet.
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
        form the ``reduced`` guard, for ``orig``; and the unmatched pieces,
        each ``(tests, guard, NATed?)``: one per atom when the guard tests
        both NATed and un-NATed fields, else the guard itself.  Nodes are
        built by the conjunctions that need them, not here."""
        key = (guard, nated)
        plan = self._plans.get(key)
        if plan is None:
            names = self.layout.mask_names(nated)
            tests = tuple(atom_test(fvs, self.layout) for _, fvs in guard.atoms)
            reduced = Guard(tuple(a for a in guard.atoms if a[0] not in names))
            if 0 < len(reduced.atoms) < len(tests):
                pieces = tuple(((t,), Guard((a,)), a[0] in names)
                               for t, a in zip(tests, guard.atoms))
            else:
                pieces = ((tests, guard, not reduced.atoms),)
            orig_tests = tuple(t for ts, _, n in pieces if not n for t in ts)
            plan = self._plans[key] = (tests, orig_tests, reduced, pieces)
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
        pieces = self._plan(guard, p.nated)[3]
        out = []
        prefix_c, prefix_o = p.curr.node, p.orig.node
        last = len(pieces) - 1
        for i, (tests, g, nated) in enumerate(pieces):
            # matched is None: a one-piece guard misses curr whole, so its
            # negation keeps curr without an ``&``
            c = prefix_c if matched is None and not last else self._meet(prefix_c, tests, g, True)
            if c:
                o = prefix_o if nated else self._meet(prefix_o, tests, g, True)
                out.append(AbstractPacket(Formula(store, c), Formula(store, o), p.nated))
            # nothing reads the prefixes after the last atom
            if i < last:
                prefix_c = self._meet(prefix_c, tests, g)
                if not nated:
                    prefix_o = self._meet(prefix_o, tests, g)
        return out

    def apply_nat(self, p: AbstractPacket, rule) -> AbstractPacket:
        """Rewrite the rule's field in ``curr``.  On the field's first NAT,
        ``orig`` first conjoins ``curr`` projected off the fields NATed
        earlier: ``curr`` still carries the field's original values and
        their correlation with the other un-NATed fields, which must live in
        ``orig`` once ``curr`` is overwritten.  Overwriting ``orig``'s field
        alone would drop correlations that only ``orig`` holds, against
        fields NATed earlier, and admit unrealizable (curr, orig) pairs."""
        name = rule.nat_field
        bit = 1 << self.layout.index(name)
        orig = p.orig
        if not p.nated & bit:
            proj = p.curr
            for earlier in self.layout.mask_names(p.nated):
                proj = proj.exists_field(earlier)
            orig = orig & proj
        return AbstractPacket(p.curr.overwrite_field(name, rule.action), orig, p.nated | bit)

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


# ------------------------------------------------------------- class space

def _class_runs(first: list[int], width: int) -> tuple[int, ...]:
    """Per index of a ``width``-bit class field, the first value of its
    class, for the classes that begin at the ascending values ``first``.

    The index range is halved recursively.  Each split sits at the class
    whose first value has the most trailing zero bits among the splits that
    keep both halves within capacity; the dense split (lower half full)
    stays unless another beats it.  A range with one class is all that
    class's run, so aligned value blocks stay aligned blocks of indices."""
    zeros = [(c & -c).bit_length() for c in first]
    out: list[int] = []

    def place(i: int, j: int, k: int) -> None:
        # classes i..j-1 onto the next 2**k indices
        if j - i == 1 << k:
            out.extend(first[i:j])
            return
        if j - i == 1:
            out.extend((first[i],) * (1 << k))
            return
        half = 1 << (k - 1)
        lo, m = max(i + 1, j - half), min(j - 1, i + half)
        seg = zeros[lo:m + 1]
        best = max(seg)
        if best > zeros[m]:  # of the best, the one nearest the middle, lower on a tie
            m = min((lo + x for x, z in enumerate(seg) if z == best),
                    key=lambda m: abs(2 * m - i - j))
        place(i, m, k - 1)
        place(m, j, k - 1)

    place(0, len(first), width)
    del place  # break the self-reference
    return tuple(out)


def class_quotient(net: Network) -> tuple[Network, tuple]:
    """The network over the classes of its header values, and per field and
    class index the first value of the index's class.

    Each field is cut at every endpoint of every value set the network tests
    or writes: filter, NAT and routing guard atoms, NAT targets, zone
    addresses and zone ports.  ``s`` and ``d`` share one set of cuts, since
    zone addresses name both.  A field gets ``max(1, (classes - 1)
    .bit_length())`` bits, never more than its own, and holds a class index.
    Each class owns a run of indices (``_class_runs``): ``starts[k]`` has
    ``1 << width`` entries, non-decreasing from 0, and a class is read at
    its first index; the rest of its run are its spare indices.  Every
    value set maps to whole runs.  The class network has the same names,
    interfaces, links and rule ids, every value set rewritten as class
    index ranges, and a store of its own.

    When no field narrows, the quotient is ``net`` itself, each value its
    own class (``starts[k]`` is ``range(1 << width)``): building a class
    network then saves no work, and expanding into ``net.store`` is free."""
    layout = net.layout
    cuts = {name: {0} for name in layout.names()}
    cuts["d"] = cuts["s"]
    sets = [z.addr for z in net.zones] + [z.ports for z in net.zones if z.ports is not None]
    for fw in net.firewalls:
        guards = [r.guard for r in (*fw.dnat, *fw.filter, *fw.snat)]
        guards += [g for _, g in fw.routing]
        sets += [fvs for g in guards for _, fvs in g.atoms]
        sets += [r.action for r in (*fw.dnat, *fw.snat)]
    for fvs in sets:
        cut = cuts[fvs.field]
        for lo, hi in fvs.ranges:
            cut.add(lo)
            cut.add(hi + 1)
    firsts = [[c for c in cuts[name] if c < 1 << width] for name, width in layout.fields]
    widths = [max(1, (len(first) - 1).bit_length()) for first in firsts]
    if widths == [width for _, width in layout.fields]:
        return net, tuple(range(1 << width) for _, width in layout.fields)
    starts = tuple(_class_runs(sorted(first), w) for first, w in zip(firsts, widths))
    class_layout = HeaderLayout(tuple(zip(layout.names(), widths)))
    mapped: dict[FieldValueSet, FieldValueSet] = {}

    def cls(fvs: FieldValueSet) -> FieldValueSet:
        out = mapped.get(fvs)
        if out is None:
            first = starts[layout.index(fvs.field)]
            # every endpoint is a cut: lo begins a class and hi ends one
            ranges = tuple((bisect_left(first, lo), bisect_right(first, hi) - 1)
                           for lo, hi in fvs.ranges)
            out = mapped[fvs] = FieldValueSet(fvs.field, ranges)
        return out

    def guard(g: Guard) -> Guard:
        return Guard(tuple((name, cls(fvs)) for name, fvs in g.atoms))

    def nat(rules) -> tuple[NatRule, ...]:
        return tuple(NatRule(guard(r.guard), r.nat_field, cls(r.action), r.rule_id)
                     for r in rules)

    zones = tuple(
        Zone(z.name, z.interface, cls(z.addr), None if z.ports is None else cls(z.ports), z.rest)
        for z in net.zones
    )
    firewalls = tuple(
        Firewall(
            fw.name,
            fw.interfaces,
            nat(fw.dnat),
            tuple(FilterRule(guard(r.guard), r.action, r.rule_id) for r in fw.filter),
            nat(fw.snat),
            tuple((i, guard(g)) for i, g in fw.routing),
        )
        for fw in net.firewalls
    )
    return Network(class_layout, zones, firewalls, net.links), starts


# --------------------------------------------------------------- results

class AnalysisStats(NamedTuple):
    iterations: int
    joins: int
    wall_time_s: float


class ClassSpace(NamedTuple):
    """What an analysis computed, over the class indices of ``net``, the
    class network of ``class_quotient``; ``starts`` maps them to values."""

    net: Network
    starts: tuple
    facts: dict[str, AbstractValue]
    ledger: DropLedger
    misdelivered: dict[str, Formula]  # only the non-empty ones
    no_route: dict[str, Formula]


class _Facts(Mapping):
    """``AnalysisResult.facts``: the class facts, each node's value expanded
    into ``store`` when that node is first read and then kept.  It holds
    the class facts, not the result, so that it forms no reference cycle
    with it."""

    __slots__ = ("_classes", "_starts", "_store", "_values")

    def __init__(self, classes: ClassSpace, store: FormulaStore):
        self._classes = classes.facts
        self._starts = classes.starts
        self._store = store
        self._values: dict[str, AbstractValue] = {}

    def __getitem__(self, node: str) -> AbstractValue:
        value = self._values.get(node)
        if value is None:
            starts, store = self._starts, self._store
            packets = [AbstractPacket(p.curr.expand(starts, store),
                                      None if p.orig is None else p.orig.expand(starts, store),
                                      p.nated)
                       for p in self._classes[node].packets]
            if len(packets) > 1:  # v2: the join's order, by (orig, mask)
                packets.sort(key=lambda p: (p.orig.node, p.nated))
            value = self._values[node] = AbstractValue(tuple(packets))
        return value

    def __contains__(self, node) -> bool:
        return node in self._classes

    def __iter__(self):
        return iter(self._classes)

    def __len__(self) -> int:
        return len(self._classes)


class AnalysisResult:
    """An analysis of ``net`` from ``origin``.  It ran in class space, and
    ``classes`` holds what it computed.  ``facts``, ``ledger``,
    ``misdelivered`` and ``no_route`` are their views over ``net.store``:
    ``facts`` expands a node's value when that node is first read, the
    others expand whole on first read, and all keep what they expanded;
    rendering reads ``classes`` and expands nothing."""

    __slots__ = ("net", "origin", "variant", "stats", "classes", "facts",
                 "_ledger", "_misdelivered", "_no_route")

    def __init__(self, net: Network, origin: str, variant: str, stats: AnalysisStats,
                 classes: ClassSpace):
        self.net = net
        self.origin = origin
        self.variant = variant
        self.stats = stats
        self.classes = classes
        self.facts: Mapping[str, AbstractValue] = _Facts(classes, net.store)
        self._ledger = self._misdelivered = self._no_route = None

    def _expand(self, f: Formula) -> Formula:
        return f.expand(self.classes.starts, self.net.store)

    @property
    def ledger(self) -> DropLedger:
        if self._ledger is None:
            self._ledger = DropLedger(self.net.store)
            for rid, f in self.classes.ledger.items():
                self._ledger.record(rid, self._expand(f))
        return self._ledger

    @property
    def misdelivered(self) -> dict[str, Formula]:
        if self._misdelivered is None:
            self._misdelivered = {z: self._expand(f)
                                  for z, f in self.classes.misdelivered.items()}
        return self._misdelivered

    @property
    def no_route(self) -> dict[str, Formula]:
        if self._no_route is None:
            self._no_route = {n: self._expand(f) for n, f in self.classes.no_route.items()}
        return self._no_route


def default_iteration_ceiling(net: Network) -> int:
    return 10 * max(1, len(net.links)) * (1 << min(net.layout.total_bits, 20))


def analyze(net: Network, origin: str, variant: str = "v2", *, observer=None) -> AnalysisResult:
    """Run the propagation to fixpoint from ``origin`` and collect per-node
    values, the drop ledger, and diagnostics, on ``class_quotient(net)`` and
    under ``default_iteration_ceiling(net)``, of the value network.
    ``observer(node, old, new)`` is called on every accepted value update
    (used by monotonicity tests), with the class values.
    """
    if not net.is_zone(origin):
        raise EngineError(f"origin {origin!r} is not a zone of the network")
    ceiling = default_iteration_ceiling(net)
    started = time.perf_counter()
    classes, starts = class_quotient(net)
    lattice = get_lattice(variant, classes)
    facts, survivors, iterations, joins, ledger, misdelivered = _propagate(
        lattice, origin, ceiling, observer)
    stats = AnalysisStats(iterations, joins, time.perf_counter() - started)
    no_route = _no_route(classes, survivors)
    classes.store.clear_computed()
    return AnalysisResult(net, origin, lattice.variant, stats, ClassSpace(
        classes, starts, facts, ledger, misdelivered, no_route))


def analyze_relations(net: Network, origin: str):
    """Run ``v2`` from ``origin`` as one relation per NAT mask, on
    ``class_quotient(net)`` and under ``default_iteration_ceiling(net)``.

    Returns ``(lattice, facts, ledger, starts)``: the ``RelationalLattice``
    over the class network, whose private store holds the relations; the
    per-node values; the drop ledger of original headers in the class
    network's store; and the class starts, which expand a formula of that
    store into ``net.store`` (``Formula.expand``).  ``lattice.orig_of``
    copies a relation's original view into the class network's store.  No
    diagnostics are computed.
    """
    if not net.is_zone(origin):
        raise EngineError(f"origin {origin!r} is not a zone of the network")
    ceiling = default_iteration_ceiling(net)
    classes, starts = class_quotient(net)
    lattice = RelationalLattice(classes)
    # a relation over curr and shadow variables may test twice as many
    # variables as the header has, and the kernel recurses once per variable
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, lattice.store.nbits + 1000))
    try:
        facts, _, _, _, ledger, _ = _propagate(lattice, origin, ceiling)
    finally:
        sys.setrecursionlimit(limit)
    return lattice, facts, ledger, starts


def _propagate(lattice, origin: str, ceiling: int, observer=None):
    """The worklist loop shared by every lattice, over ``lattice.net`` from
    the departure value ``lattice.initial(origin)``, popping first in, first
    out.  Returns ``(facts, survivors, iterations, joins, ledger,
    misdelivered)``: the per-node values, each firewall's latest table
    survivors, the counts of node expansions and joins, the drop ledger in
    the network's store, and the misdelivery diagnostic.

    The diagnostic is kept when the lattice's packets live in the network's
    store (every lattice but the relational one), and is then per zone the
    arrivals whose destination lies outside the zone's addresses, only the
    non-empty ones: an assumption-checking diagnostic, for such packets stay
    in the zone's value.  The origin's own departure value is not an
    arrival.  Each arriving packet adds only its own part outside the zone,
    which is almost always empty; that equals the union of the arrivals
    outside the zone, since ``&`` distributes over ``|``."""
    net = lattice.net
    ledger = DropLedger(net.store)
    facts: dict[str, AbstractValue] = {n: BOTTOM for n in net.node_names()}
    facts[origin] = lattice.join(lattice.initial(origin))
    iterations, joins = 0, 1

    survivors: dict[str, list] = {}  # firewall -> table survivors, latest expansion
    # firewall -> {packet: survivors}, for each packet its tables have run
    memos: dict[str, dict] = {}
    # a compiling lattice records its ledger once, at the fixpoint
    live_ledger = None if lattice.compiles_filters else ledger
    # zone -> the headers whose destination lies outside it, when the
    # packets are formulas of the network's store
    outside = {}
    if lattice.store is net.store:
        outside = {z.name: ~net.zone_dst_atom(z) for z in net.zones}
    misdelivered = dict.fromkeys(outside, net.store.false)
    queue: deque[str] = deque([origin])
    queued = {origin}
    while queue:
        iterations += 1
        if iterations > ceiling:
            raise IterationCeilingExceeded(
                f"no fixpoint within {ceiling} node expansions "
                f"(origin {origin!r}, variant {lattice.variant!r})"
            )
        m = queue.popleft()
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
                    misdelivered[peer] = misdelivered[peer] | (p.curr & outside[peer])
            new_value = lattice.join([*facts[peer].packets, *out])
            joins += 1
            if new_value == facts[peer]:
                continue
            if observer is not None:
                observer(peer, facts[peer], new_value)
            facts[peer] = new_value
            # zones record arrivals but never re-emit
            if not net.is_zone(peer) and peer not in queued:
                queue.append(peer)
                queued.add(peer)
    dnats = []  # run while the computed tables that built the values are warm
    if lattice.compiles_filters:
        for fw in map(net.firewall, survivors):
            dnat = nat_table_tf(fw.dnat, facts[fw.name].packets, lattice)
            dnats.append((fw.filter, lattice.join(dnat).packets))
    lattice.store.clear_computed()
    for table, packets in dnats:
        filter_table_drops(table, packets, ledger, lattice)
        lattice.store.clear_computed()
    misdelivered = {z: f for z, f in misdelivered.items() if not f.is_empty()}
    return facts, survivors, iterations, joins, ledger, misdelivered


def _no_route(net: Network, survivors) -> dict[str, Formula]:
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
            leftover = leftover | (p.curr & unrouted)
        if not leftover.is_empty():
            out[fw.name] = leftover
    return out
