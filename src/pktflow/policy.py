"""Per-zone policy inference and test-packet witness generation.

A zone's high-level policy is the pair of formulas over original (pre-NAT)
headers: ``accept`` — what leaves the zone and reaches some other zone, and
``reject`` — what leaves the zone and gets discarded by a DROP rule.  Both
are sets, so ``infer_policy`` computes them with the relational ``v2``
engine (``engine.analyze_relations``: one BDD per NAT mask, no packet
splitting) with the zone as origin: accept is the union of the original
views of the relations at every other zone; reject is the union of the drop
ledger.  Given a packet ``v2`` result instead, it takes the same unions over
the packets' orig components; both ways give the same formulas.  A
non-empty overlap means the fate of a packet depends on nondeterministic
routing or NAT choices — worth an operator's attention.

The relational run is in class space: on ``engine.class_quotient(net)``,
the network over the per-field classes of its header values (the atomic
predicates of Yang and Lam, ICNP 2013), whose fields are a few bits wide.
Both unions are taken there and only they are expanded into ``net.store``
(``Formula.expand``).  That is exact: every value set the network tests or
writes is a union of classes, so two values of one class meet every guard,
NAT action and zone alike, and conjunction, ``relabel``, quantification and
union commute with the map from values to classes.  A packet ``result``
is read through its value-space views (``AnalysisResult.facts`` and
``ledger``).
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple

from .engine import AnalysisResult, analyze, analyze_relations
from .netmodel import Network, PktflowError
from .pktset import Formula
from .render import field_sets


class PolicyError(PktflowError, ValueError):
    pass


class PolicySummary:
    """A zone's inferred policy.  Summaries are equal when their zones and
    formulas are."""

    __slots__ = ("zone", "accept", "reject", "overlap", "net", "_result")

    def __init__(
        self,
        zone: str,
        accept: Formula,  # over original-header space
        reject: Formula,  # over original-header space
        overlap: Formula,  # accept AND reject
        net: Network,
        _result: AnalysisResult | None = None,
    ):
        self.zone = zone
        self.accept = accept
        self.reject = reject
        self.overlap = overlap
        self.net = net
        self._result = _result

    def _key(self) -> tuple:
        return self.zone, self.accept, self.reject, self.overlap

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"PolicySummary(zone={self.zone!r}, accept={self.accept!r}, "
                f"reject={self.reject!r}, overlap={self.overlap!r})")

    @property
    def result(self) -> AnalysisResult:
        """The packet variant-2 run from the zone: the one the summary was
        given, or else one run on first access."""
        if self._result is None:
            self._result = analyze(self.net, self.zone, "v2")
        return self._result


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


def infer_policy(net: Network, zone: str, *, result: AnalysisResult | None = None) -> PolicySummary:
    """Infer the accept/reject policy of ``zone``: from the given variant-2
    ``result``, or else from a relational variant-2 run with ``zone`` as
    origin, in class space (``engine.analyze_relations``)."""
    if not net.is_zone(zone):
        raise PolicyError(f"zone {zone!r} is not a zone of the network")
    if result is None:
        lattice, facts, ledger, starts = analyze_relations(net, zone)
        accept, reject = _unions(lattice.net, zone, facts, ledger, lattice.orig_of)
        accept, reject = accept.expand(starts, net.store), reject.expand(starts, net.store)
    else:
        if result.variant != "v2":
            raise PolicyError("policy inference needs a variant-2 analysis (orig tracking)")
        if result.origin != zone:
            raise PolicyError(f"analysis origin {result.origin!r} does not match zone {zone!r}")
        accept, reject = _unions(net, zone, result.facts, result.ledger, attrgetter("orig"))
    return PolicySummary(zone, accept, reject, accept & reject, net, result)


def overlap_report(summary: PolicySummary) -> list[tuple[str, tuple[tuple[int, int], ...]]]:
    """Per-field value-set projections of the accept/reject overlap; empty
    list when the overlap is empty."""
    if summary.overlap.is_empty():
        return []
    return list(field_sets(summary.overlap, summary.overlap.store.layout).items())


def generate_test_packets(
    net: Network,
    origin: str,
    per_pair: int = 1,
    *,
    result: AnalysisResult | None = None,
) -> list[TestPacket]:
    """Concrete witnesses for end-to-end deliveries found by the analysis.

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
    if result is None:
        result = analyze(net, origin, "v2")
    if result.variant != "v2":
        raise PolicyError("test-packet generation needs a variant-2 analysis")
    if result.origin != origin:
        raise PolicyError(f"analysis origin {result.origin!r} does not match origin {origin!r}")
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
