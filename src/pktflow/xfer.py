"""Abstract transfer functions for rules, tables, firewalls, and links.

A rule transfer splits an incoming abstract packet into a branch that matches
the rule's guard and branches that do not; the lattice object supplied by the
engine owns the packet representation and the per-branch refinement policy,
so the same table/link plumbing serves all three analysis variants.

Filter tables thread the unmatched branches through successive rules and
return the union of accepted branches; NAT tables additionally rewrite the
matched branch's target field.  A firewall transfer pushes a value through
the firewall's DNAT, filter, and SNAT tables in that order, once per
expansion; a link transfer then keeps what the emitting interface's routing
guard admits.  Routing misses are not rule drops and never reach the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

from .netmodel import DROP, Firewall, FilterRule, NatRule, Network
from .pktset import Formula, FormulaStore


@dataclass(frozen=True)
class AbstractPacket:
    """Symbolic packet summary: current header forms, and (variant 2 only)
    the pre-NAT original forms plus the bitmask of fields rewritten so far.
    The relational lattice keeps its relation in ``curr`` and no ``orig``."""

    curr: Formula
    orig: Formula | None = None
    nated: int = 0


@dataclass(frozen=True)
class VectorPacket:
    """Independent-attribute summary: one formula per header field, each
    constraining only its own field's bits."""

    vec: tuple[Formula, ...]


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
        prev = self._dropped.get(rule_id, self.store.false)
        self._dropped[rule_id] = prev | form

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
    unmatched = tuple(lat.refine_unmatch(p, rule.guard))
    if rule.action == DROP:
        if matched is not None and ledger is not None:
            ledger.record(rule.rule_id, lat.ledger_form(matched))
        return (), unmatched
    accepted = (matched,) if matched is not None else ()
    return accepted, unmatched


def filter_table_tf(table, pset, ledger: DropLedger | None, lat):
    """Thread packets through a filtering table; returns the accepted set."""
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


def nat_rule_tf(rule: NatRule, p, lat):
    """Split ``p`` on a NAT rule; the matched branch is rewritten and leaves
    the table, the unmatched branches continue to later rules."""
    matched = lat.refine_match(p, rule.guard)
    out = (lat.apply_nat(matched, rule),) if matched is not None else ()
    return out, tuple(lat.refine_unmatch(p, rule.guard))


def nat_table_tf(table, pset, lat):
    """Apply a NAT table; unmatched packets pass through untransformed."""
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
    """Run a packet set through the firewall's DNAT, filter, and SNAT tables;
    returns the survivors, before routing."""
    s = nat_table_tf(fw.dnat, pset, lat)
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
