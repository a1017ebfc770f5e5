"""Per-zone policy inference and test-packet witness generation.

A zone's high-level policy is the pair of formulas over original (pre-NAT)
headers: ``accept`` — what leaves the zone and reaches some other zone, and
``reject`` — what leaves the zone and gets discarded by a DROP rule.  Both
come straight out of a variant-2 run with the zone as origin: accept is the
union of the orig components recorded at every other zone; reject is the
union of the drop ledger.  A non-empty overlap means the fate of a packet
depends on nondeterministic routing or NAT choices — worth an operator's
attention.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import AnalysisResult, analyze
from .netmodel import Network
from .pktset import FieldValueSet, Formula
from .render import formula_fields


class PolicyError(ValueError):
    pass


@dataclass(frozen=True)
class PolicySummary:
    zone: str
    accept: Formula  # over original-header space
    reject: Formula  # over original-header space
    overlap: Formula  # accept AND reject
    result: AnalysisResult  # the variant-2 run the summary came from


@dataclass(frozen=True)
class TestPacket:
    zone: str  # destination zone the witness reaches
    orig: int  # header as it left the origin
    curr: int  # header as it arrives at the zone


def infer_policy(net: Network, zone: str, *, result: AnalysisResult | None = None) -> PolicySummary:
    """Infer the accept/reject policy of ``zone`` (runs a variant-2 analysis
    with ``zone`` as origin unless one is supplied)."""
    if result is None:
        result = analyze(net, zone, "v2")
    if result.variant != "v2":
        raise PolicyError("policy inference needs a variant-2 analysis (orig tracking)")
    if result.origin != zone:
        raise PolicyError(f"analysis origin {result.origin!r} does not match zone {zone!r}")
    accept = net.store.false
    for z in net.zones:
        if z.name == zone:
            continue
        for p in result.facts[z.name].packets:
            accept = accept | p.orig
    reject = net.store.false
    for _, dropped in result.ledger.items():
        reject = reject | dropped
    return PolicySummary(zone, accept, reject, accept & reject, result)


def overlap_report(summary: PolicySummary) -> list[tuple[str, tuple[tuple[int, int], ...]]]:
    """Per-field value-set projections of the accept/reject overlap; empty
    list when the overlap is empty."""
    if summary.overlap.is_empty():
        return []
    sets, _ = formula_fields(summary.overlap, summary.overlap.store.layout)
    return list(sets.items())


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
    originals are enumerated in ascending order and each is paired with its
    smallest compatible arrival header (compatible = equal on all fields the
    packet has not NATed).
    """
    if per_pair < 1:
        raise PolicyError("per_pair must be >= 1")
    if result is None:
        result = analyze(net, origin, "v2")
    if result.variant != "v2":
        raise PolicyError("test-packet generation needs a variant-2 analysis")
    layout = net.layout
    store = net.store
    out: list[TestPacket] = []
    for z in net.zones:
        if z.name == origin:
            continue
        for p in result.facts[z.name].packets:
            for o in p.orig.enumerate(per_pair):
                compatible = p.curr
                for name in layout.mask_names(~p.nated):
                    v = layout.extract_value(o, name)
                    compatible = compatible & store.atom(FieldValueSet(name, ((v, v),)))
                arrivals = compatible.enumerate(1)
                if arrivals:
                    out.append(TestPacket(z.name, o, arrivals[0]))
    return out
