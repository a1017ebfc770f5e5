"""Abstract transfer functions for rules, tables, firewalls, and links.

A rule transfer splits an incoming abstract packet into a branch that matches
the rule's guard and branches that do not; the lattice object supplied by the
engine owns the packet representation and the per-branch refinement policy,
so the same table/link plumbing serves all three analysis variants.  The
split is computed once per guard: ``lat.refine_match(p, g)`` returns the
matched branch (None when it is empty), and ``lat.refine_unmatch(p, g,
matched)`` takes that branch to return the unmatched ones.  When
``matched`` is None the unmatched current set is ``p.curr``; when
``matched.curr == p.curr`` nothing is unmatched.  Neither case conjoins
``p.curr`` with the negated guard again.

Filter tables thread the unmatched branches through successive rules and
return the union of accepted branches; NAT tables additionally rewrite the
matched branch's target field.  Tables take and return packet lists in
rule-major order (rule by rule, each over the pending packets in order).  A
firewall transfer pushes a value through the firewall's DNAT, filter, and
SNAT tables in that order; a link transfer then keeps what the emitting
interface's routing guard admits.  Routing misses are not rule drops and
never reach the ledger.

A lattice that refines by plain conjunction on ``curr`` (``v1``, and the
relational ``v2`` in its own store; ``lat.compiles_filters``) sees a filter
table as a fixed header set.  ``accept_region`` compiles it once per store,
folding the rules backwards, and ``filter_region_tf`` filters each packet
with one ``&``.  Such a run records no ledger while it propagates:
``filter_table_drops`` gives the same entries from the final values, and
the engine calls it once at the fixpoint, one ``&`` per entry with a drop
region compiled once per store and live rules (``drop_regions``).  ``v2``
packets and ``ia`` keep the rule-by-rule ``filter_table_tf`` (a ``v2`` guard
refines ``orig`` too, and ``ia``'s negation is approximate).

Both compiled paths see only the rules a packet can meet, through guards
cofactored by what the packet's field summary settles (``live_rules``;
``FormulaStore.field_summary``, read without creating a node).  A rule
with an atom that admits none of the packet's values on its field matches
no header of the packet, so it is left out; an atom that admits all of
them holds on every header of the packet, so it is dropped from the guard.
Neither changes ``p & region`` nor any drop entry of ``p``, so only fewer
and smaller nodes are built.  From a zone, whose departure fixes a source
prefix, that leaves out every rule on another zone's sources and drops
every source atom that covers the zone.  A ``rest`` zone's sources are
the complement of the zones' addresses, so from it every rule on a zone's
sources is left out as well.  ``_overlapping`` reads the full guards,
which is still exact.
"""

from __future__ import annotations

from typing import NamedTuple

from .netmodel import DROP, Firewall, FilterRule, Guard, NatRule, Network, guard_to_formula
from .pktset import Formula, FormulaStore, atom_test, settles


class AbstractPacket(NamedTuple):
    """Symbolic packet summary: the current header forms, the pre-NAT
    original forms (``v2`` packets only), and the bitmask of fields
    rewritten so far.  ``v1`` holds any header set in ``curr``, ``ia`` the
    product of per-field sets, and the relational ``v2`` its relation
    between current and original headers; none of them keeps an ``orig``."""

    curr: Formula
    orig: Formula | None = None
    nated: int = 0


class DropLedger:
    """Per-DROP-rule accumulation of the forms discarded by that rule.

    Variant 2 records original (pre-NAT) forms; variants 1/ia record current
    forms.
    """

    def __init__(self, store: FormulaStore):
        self.store = store
        self._dropped: dict[int, Formula] = {}

    def record(self, rule_id: int, form: Formula) -> None:
        if form.is_empty():
            return
        prev = self._dropped.get(rule_id)
        self._dropped[rule_id] = form if prev is None else prev | form

    def dropped(self, rule_id: int) -> Formula:
        return self._dropped.get(rule_id, self.store.false)

    def rule_ids(self) -> list[int]:
        return sorted(self._dropped)

    def items(self) -> list[tuple[int, Formula]]:
        return [(rid, self._dropped[rid]) for rid in self.rule_ids()]


def filter_rule_tf(rule: FilterRule, p, ledger: DropLedger | None, lat):
    """Split ``p`` on a filtering rule.

    Returns (accepted, unmatched) tuples of packets, each possibly empty.
    The branch matching a DROP rule is recorded in the ledger and discarded.
    """
    matched = lat.refine_match(p, rule.guard)
    unmatched = tuple(lat.refine_unmatch(p, rule.guard, matched))
    if rule.action == DROP:
        if matched is not None and ledger is not None:
            ledger.record(rule.rule_id, lat.ledger_form(matched))
        return (), unmatched
    accepted = (matched,) if matched is not None else ()
    return accepted, unmatched


def filter_table_tf(table, pset, ledger: DropLedger | None, lat):
    """Thread packets through a filtering table; returns the accepted ones
    in rule-major order."""
    pending = list(pset)
    accepted: list = []
    for rule in table:
        nxt: list = []
        for p in pending:
            acc, unm = filter_rule_tf(rule, p, ledger, lat)
            accepted.extend(acc)
            nxt.extend(unm)
        pending = nxt
    return accepted


def live_rules(table, store: FormulaStore, node: int) -> tuple[tuple[int, Guard], ...]:
    """``(i, guard)`` for each rule i of ``table`` that can match a header of
    the non-false ``node``, with its guard cofactored by the node's field
    summary (``FormulaStore.field_summary``, ``settles``).  A rule with an
    atom that admits none of the node's values on its field matches none of
    the node's headers, so it is left out; an atom that admits all of them
    holds on every header, so it is dropped from the guard.  A rule that
    keeps every atom keeps its own guard."""
    summary = store.field_summary(node)
    live = []
    for i, rule in enumerate(table):
        kept = []
        for atom in rule.guard.atoms:
            inside = settles(summary, (atom_test(atom[1], store.layout),))
            if inside is False:
                break
            if inside is None:
                kept.append(atom)
        else:
            guard = rule.guard if len(kept) == len(rule.guard.atoms) else Guard(tuple(kept))
            live.append((i, guard))
    return tuple(live)


def accept_region(table, store: FormulaStore, live: tuple) -> Formula:
    """The headers that the ``live`` rules of a filter table accept, each
    through its ``(i, guard)`` pair, compiled once per store, table and
    live rules.

    The rules fold backwards from false: an ACCEPT rule gives ``g | R`` and
    a DROP rule ``~g & R``, so ``R`` holds what first-match semantics accepts
    from that rule on.  A packet that no left-out rule matches, and on which
    each guard agrees with its rule's, meets this region as it meets the
    whole table's.  The memo holds the node id, not a handle, so the store
    holds no reference to itself.
    """
    key = (table, live)
    node = store.accept_regions.get(key)
    if node is None:
        region = store.false
        for i, guard in reversed(live):
            g = guard_to_formula(guard, store)
            region = ~g & region if table[i].action == DROP else g | region
        node = store.accept_regions[key] = region.node
    return Formula(store, node)


def filter_region_tf(table, pset, lat):
    """Filter the packets of a lattice that refines by conjunction on
    ``curr``: one ``&`` per packet with the accept region of the rules it
    can meet (``live_rules``), in input order.  Equal to the union of
    ``filter_table_tf``'s pieces; records no ledger."""
    store = lat.store
    out = []
    for p in pset:
        c = p.curr & accept_region(table, store, live_rules(table, store, p.curr.node))
        if not c.is_empty():
            out.append(AbstractPacket(c, None, p.nated))
    return out


def drop_regions(table, store: FormulaStore, live: tuple) -> tuple[tuple[int, int], ...]:
    """``(rule id, node)`` for each DROP rule among the ``live`` rules of a
    filter table: the headers it drops from a packet that meets these live
    rules, its guard less each earlier live guard that can share a header
    with it (``_overlapping``).  Compiled once per store, table and live
    rules, beside ``accept_region``'s memo, and like it holds node ids."""
    key = (table, live)
    regions = store.drop_regions.get(key)
    if regions is None:
        regions = []
        for n, (i, guard) in enumerate(live):
            if table[i].action == DROP:
                near = _overlapping(table, i, store.layout)
                region = guard_to_formula(guard, store)
                for j, earlier in live[:n]:
                    if region.is_empty():
                        break
                    if j in near:
                        region = region & ~guard_to_formula(earlier, store)
                regions.append((table[i].rule_id, region.node))
        regions = store.drop_regions[key] = tuple(regions)
    return regions


def filter_table_drops(table, pset, ledger: DropLedger, lat) -> None:
    """Record in ``ledger`` what each DROP rule of a filter table discards
    from ``pset``, for a lattice that refines by conjunction on ``curr``:
    rule i drops ``p & g_i & ~g_j`` for every earlier rule j, as in the
    ledger ``filter_table_tf`` records.  Each entry is one ``&`` of ``p``
    with the rule's drop region over the rules ``p`` can meet
    (``live_rules``).  A rule that cannot match ``p`` drops nothing from it
    and leaves ``p & g_i`` unchanged, and ``g_i`` lies inside ``~g_j`` when
    rule j's guard shares no header with it, so both are skipped; each
    cofactored guard meets ``p`` as the full guard does."""
    store = lat.store
    for p in pset:
        for rule_id, node in drop_regions(table, store, live_rules(table, store, p.curr.node)):
            c = p.curr & Formula(store, node)
            if not c.is_empty():
                ledger.record(rule_id, lat.ledger_form(AbstractPacket(c, None, p.nated)))


def _overlapping(table, i: int, layout) -> frozenset[int]:
    """The indices of the rules before rule i of a filter table whose guard
    can share a header with rule i's.  A rule shares none when one of its
    atoms admits none of the values that rule i's atom on the same field
    admits; the test reads value ranges only and builds no node."""
    ours = dict(atom_test(fvs, layout) for _, fvs in table[i].guard.atoms)
    near = []
    for j in range(i):
        for _, fvs in table[j].guard.atoms:
            k, theirs = atom_test(fvs, layout)
            mine = ours.get(k)
            if mine is not None and not any(a <= d and c <= b for a, b in mine
                                            for c, d in theirs):
                break
        else:
            near.append(j)
    return frozenset(near)


def nat_rule_tf(rule: NatRule, p, lat):
    """Split ``p`` on a NAT rule; the matched branch is rewritten and leaves
    the table, the unmatched branches continue to later rules."""
    matched = lat.refine_match(p, rule.guard)
    out = (lat.apply_nat(matched, rule),) if matched is not None else ()
    return out, tuple(lat.refine_unmatch(p, rule.guard, matched))


def nat_table_tf(table, pset, lat):
    """Apply a NAT table to packets; unmatched packets pass through
    untransformed.  Returns the rewritten packets in rule-major order, then
    the passed ones."""
    pending = list(pset)
    out: list = []
    for rule in table:
        nxt: list = []
        for p in pending:
            matched, unmatched = nat_rule_tf(rule, p, lat)
            out.extend(matched)
            nxt.extend(unmatched)
        pending = nxt
    return out + pending


def firewall_tf(fw: Firewall, pset, ledger: DropLedger | None, lat):
    """Run packets through the firewall's DNAT, filter, and SNAT tables;
    returns the survivors, before routing, in rule-major order.  A lattice
    that refines by conjunction (``lat.compiles_filters``) filters with the
    table's accept region instead of rule by rule and takes no ledger: the
    engine records its drops once, at the fixpoint (``filter_table_drops``)."""
    s = nat_table_tf(fw.dnat, pset, lat)
    if lat.compiles_filters:
        s = filter_region_tf(fw.filter, s, lat)
    else:
        s = filter_table_tf(fw.filter, s, ledger, lat)
    return nat_table_tf(fw.snat, s, lat)


def link_tf(net: Network, node: str, interface: str, pset, lat):
    """Transfer a packet set from ``node`` out through ``interface``.

    Zone-side transfers are the identity (zones own no tables).  On a
    firewall, ``pset`` holds the survivors of ``firewall_tf`` and only the
    interface's routing guard applies; an interface with no routing entry
    emits nothing.
    """
    if net.is_zone(node):
        return list(pset)
    guard = net.firewall(node).routing_guard(interface)
    if guard is None:
        return []
    out = [lat.refine_match(p, guard) for p in pset]
    return [p for p in out if p is not None]
