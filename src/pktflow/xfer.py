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
the engine calls it once at the fixpoint.  ``v2`` packets and ``ia`` keep
the rule-by-rule ``filter_table_tf`` (a ``v2`` guard refines ``orig`` too,
and ``ia``'s negation is approximate).

Both compiled paths see only the rules a packet can meet (``live_rules``):
a rule whose atom on the packet's top field misses the block that field is
confined to (``FormulaStore.top_block``, read without creating a node)
matches no header of the packet.  Leaving it out changes neither ``p &
region`` nor any drop entry of ``p``, so only fewer nodes are built.  From
a zone, whose departure fixes a source prefix, that leaves out every rule
on another zone's sources; from a ``rest`` zone it leaves out none.
"""

from __future__ import annotations

from typing import NamedTuple

from .netmodel import DROP, Firewall, FilterRule, NatRule, Network, guard_to_formula
from .pktset import Formula, FormulaStore, atom_test


class AbstractPacket(NamedTuple):
    """Symbolic packet summary: the current header forms, the pre-NAT
    original forms (``v2`` packets only), and the bitmask of fields
    rewritten so far.  ``v1`` holds any header set in ``curr``, ``ia`` the
    product of per-field sets, and the relational ``v2`` its relation
    between current and original headers; none of them keeps an ``orig``."""

    curr: Formula
    orig: Formula | None = None
    nated: int = 0


def nat_packet(p: AbstractPacket, rule: NatRule) -> AbstractPacket:
    """Overwrite the rule's target field in curr with the action range;
    every other field of curr is preserved."""
    return AbstractPacket(p.curr.overwrite_field(rule.nat_field, rule.action), p.orig, p.nated)


def update_original(p: AbstractPacket, rule: NatRule, layout) -> AbstractPacket:
    """Record the target field's pre-rewrite content in orig (first NAT of
    the field only; the caller checks the mask).

    Until now the field agreed between curr and orig, so curr carries its
    original content; once curr is overwritten that knowledge must live in
    orig explicitly.  Conjoining the projection of curr that forgets only
    already-NATed fields transfers exactly the agreement's information —
    the field's values together with any correlation to other not-yet-NATed
    fields.  Overwriting orig's field component in isolation would instead
    discard correlations that only orig still carries (against fields NATed
    earlier), admitting unrealizable (curr, orig) combinations.  On
    correlation-free (per-field product) formulas this reduces to plainly
    copying the field's value set from curr into orig.
    """
    proj = p.curr
    for name in layout.mask_names(p.nated):
        proj = proj.exists_field(name)
    return AbstractPacket(p.curr, p.orig & proj, p.nated)


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


def live_rules(table, store: FormulaStore, node: int) -> tuple[int, ...]:
    """The indices of the rules of ``table`` that can match a header of the
    non-false ``node``.  A rule with an atom on the field of the node's top
    block (``FormulaStore.top_block``) that admits no value of the block
    matches none of its headers, so it is left out."""
    k, lo, hi = store.top_block(node)
    name = store.layout.fields[k][0]
    live = []
    for i, rule in enumerate(table):
        for f, fvs in rule.guard.atoms:
            if f == name:
                _, ranges = atom_test(fvs, store.layout)
                if not any(a <= hi and lo <= b for a, b in ranges):
                    break
        else:
            live.append(i)
    return tuple(live)


def accept_region(table, store: FormulaStore, live: tuple[int, ...] | None = None) -> Formula:
    """The headers that the ``live`` rules of a filter table accept (by
    default every rule), compiled once per store, table and live rules.

    The rules fold backwards from false: an ACCEPT rule gives ``g | R`` and
    a DROP rule ``~g & R``, so ``R`` holds what first-match semantics accepts
    from that rule on.  A packet that no left-out rule matches meets this
    region as it meets the whole table's.  The memo holds the node id, not a
    handle, so the store holds no reference to itself.
    """
    if live is None or len(live) == len(table):
        key, live = table, range(len(table))
    else:
        key = (table, live)
    node = store.accept_regions.get(key)
    if node is None:
        region = store.false
        for i in reversed(live):
            rule = table[i]
            g = guard_to_formula(rule.guard, store)
            region = ~g & region if rule.action == DROP else g | region
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


def filter_table_drops(table, pset, ledger: DropLedger, lat) -> None:
    """Record in ``ledger`` what each DROP rule of a filter table discards
    from ``pset``, for a lattice that refines by conjunction on ``curr``:
    rule i drops ``p & g_i & ~g_j`` for every earlier rule j.  Equal to the
    ledger ``filter_table_tf`` records for the same packets, at about half
    its cost on a final value: the fold takes two ``&`` of the whole packet
    per rule, while this form starts from the DROP rule's small ``p & g_i``
    and touches no ACCEPT rule's match.  Rules that cannot match ``p``
    (``live_rules``) drop nothing from it and leave ``p & g_i`` unchanged,
    so they are skipped, and so is every rule j whose guard shares no
    header with ``g_i`` (``_overlapping``), for then ``p & g_i`` lies
    inside ``~g_j``."""
    store = lat.store
    overlaps = store.rule_overlaps.setdefault(table, {})
    for p in pset:
        live = live_rules(table, store, p.curr.node)
        for n, i in enumerate(live):
            rule = table[i]
            if rule.action != DROP:
                continue
            near = overlaps.get(i)
            if near is None:
                near = overlaps[i] = _overlapping(table, i, store.layout)
            c = p.curr & guard_to_formula(rule.guard, store)
            for j in live[:n]:
                if c.is_empty():
                    break
                if j in near:
                    c = c & ~guard_to_formula(table[j].guard, store)
            if not c.is_empty():
                ledger.record(rule.rule_id, lat.ledger_form(AbstractPacket(c, None, p.nated)))


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
