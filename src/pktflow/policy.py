"""Per-zone policy inference and test-packet witness generation.

A zone's high-level policy is the pair of formulas over original (pre-NAT)
headers: ``accept`` — what leaves the zone and reaches some other zone, and
``reject`` — what leaves the zone and gets discarded by a DROP rule.  Both
are sets, so ``infer_policy`` computes them with the relational ``v2``
engine (``engine.analyze_relations``: one BDD per NAT mask, no packet
splitting) with the zone as origin: accept is the union of the original
views of the relations at every other zone; reject is the union of the drop
ledger.  A packet ``v2`` run gives the same formulas, as the unions over
its packets' orig components; the tests compare the two through
``reference_packet_policy`` in ``tests/brute.py``.  A
non-empty overlap means the fate of a packet depends on nondeterministic
routing or NAT choices — worth an operator's attention.

The relational run is in class space: on ``engine.class_quotient(net)``,
the network over the per-field classes of its header values (the atomic
predicates of Yang and Lam, ICNP 2013), whose fields are a few bits wide.
Both unions are taken there and only they are expanded into ``net.store``
(``Formula.expand``).  That is exact: every value set the network tests or
writes is a union of classes, so two values of one class meet every guard,
NAT action and zone alike, and conjunction, ``relabel``, quantification and
union commute with the map from values to classes.

``generate_test_packets`` runs a packet ``v2`` analysis from its origin and
reads its value-space views (``AnalysisResult.facts``).
"""

from __future__ import annotations

from typing import NamedTuple

from .engine import analyze, analyze_relations
from .netmodel import Network, PktflowError
from .pktset import Formula
from .render import field_sets


class PolicyError(PktflowError, ValueError):
    pass


class PolicySummary(NamedTuple):
    """A zone's inferred policy, over original-header space."""

    zone: str
    accept: Formula
    reject: Formula
    overlap: Formula  # accept AND reject


class TestPacket(NamedTuple):
    zone: str  # destination zone the witness reaches
    orig: int  # header as it left the origin
    curr: int  # header as it arrives at the zone


def _unions(net: Network, zone: str, facts, ledger, orig_of) -> tuple[Formula, Formula]:
    """The originals that reach another zone, and those the ledger drops."""
    accept = net.store.false
    for z in net.zones:
        if z.name == zone:
            continue
        for p in facts[z.name].packets:
            accept = accept | orig_of(p)
    reject = net.store.false
    for _, dropped in ledger.items():
        reject = reject | dropped
    return accept, reject


def infer_policy(net: Network, zone: str) -> PolicySummary:
    """Infer the accept/reject policy of ``zone`` from a relational
    variant-2 run with ``zone`` as origin, in class space
    (``engine.analyze_relations``)."""
    if not net.is_zone(zone):
        raise PolicyError(f"zone {zone!r} is not a zone of the network")
    lattice, facts, ledger, starts = analyze_relations(net, zone)
    accept, reject = _unions(lattice.net, zone, facts, ledger, lattice.orig_of)
    accept, reject = accept.expand(starts, net.store), reject.expand(starts, net.store)
    return PolicySummary(zone, accept, reject, accept & reject)


def overlap_report(summary: PolicySummary) -> list[tuple[str, tuple[tuple[int, int], ...]]]:
    """Per-field value-set projections of the accept/reject overlap; empty
    list when the overlap is empty."""
    if summary.overlap.is_empty():
        return []
    return list(field_sets(summary.overlap, summary.overlap.store.layout).items())


def generate_test_packets(net: Network, origin: str, per_pair: int = 1) -> list[TestPacket]:
    """Concrete witnesses for end-to-end deliveries found by a packet
    variant-2 analysis from ``origin``.

    For every destination zone other than the origin and every abstract
    packet there, emits up to ``per_pair`` (orig, arrival) header pairs:
    the packet's smallest originals, each paired with its smallest
    compatible arrival header (compatible = equal on all fields the packet
    has not NATed).  Witnesses come zone by zone in network order, sorted
    by (orig, arrival) within a zone, so the order depends on the facts
    only and not on the store's node numbering.
    """
    if per_pair < 1:
        raise PolicyError("per_pair must be >= 1")
    result = analyze(net, origin, "v2")
    out: list[TestPacket] = []
    for z in net.zones:
        if z.name == origin:
            continue
        pairs = []
        for p in result.facts[z.name].packets:
            keep = net.layout.mask_bits(~p.nated)  # the fields it has not NATed
            for o in p.orig.enumerate(per_pair):
                arrival = p.curr.smallest_agreeing(o, keep)
                if arrival is not None:
                    pairs.append((o, arrival))
        out.extend(TestPacket(z.name, o, arrival) for o, arrival in sorted(pairs))
    return out
