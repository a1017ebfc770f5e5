"""Human- and machine-readable rendering of analysis results.

Abstract packets print as per-field value sets in bracket notation,
``[<s-set> : <d-set> : ...]``, one bracket group for current forms and, in
variant 2, a second for original forms:

    facts(Z2) = <[202.67.34.6-10 : 10.192.28.1-255] [10.192.29.1-255 : 10.192.28.1-255]>

In text output a field renders as ``true`` (unconstrained), a bare item,
``{a, b}`` for a union, or the complement form ``!{...}`` when that is
shorter.  Structured (JSON) output uses the configuration value-set grammar
instead, so every emitted set re-parses.  Per-field sets are projections; a
field whose values are entangled with other fields is flagged approximate
and the text line lists the flagged fields.  Both come from the store's
field summary (``FormulaStore.field_summary``), so rendering builds no
formula and leaves the store's node count as the analysis left it.
"""

from __future__ import annotations

from typing import NamedTuple

from .engine import AbstractValue, AnalysisResult, get_lattice
from .netmodel import Network, range_to_text
from .pktset import Formula, HeaderLayout, complement_ranges

Ranges = tuple[tuple[int, int], ...]


def format_field_display(ranges: Ranges, width: int) -> str:
    """Display form: 'true', 'false', a bare item, '{...}', or '!{...}'."""
    if ranges == ((0, (1 << width) - 1),):
        return "true"
    if not ranges:
        return "false"
    comp = complement_ranges(ranges, width)
    if len(comp) < len(ranges):
        return "!{" + ", ".join(range_to_text(lo, hi, width) for lo, hi in comp) + "}"
    items = [range_to_text(lo, hi, width) for lo, hi in ranges]
    return items[0] if len(items) == 1 else "{" + ", ".join(items) + "}"


def format_field_data(ranges: Ranges, width: int) -> str:
    """Strict value-set grammar form; parses back with parse_value_set."""
    if ranges == ((0, (1 << width) - 1),):
        return "*"
    if not ranges:
        return "!*"
    comp = complement_ranges(ranges, width)
    if len(comp) < len(ranges):
        return "!" + ",".join(range_to_text(lo, hi, width) for lo, hi in comp)
    return ",".join(range_to_text(lo, hi, width) for lo, hi in ranges)


class RenderedPacket(NamedTuple):
    curr: dict[str, Ranges]
    curr_exact: dict[str, bool]
    orig: dict[str, Ranges] | None
    orig_exact: dict[str, bool] | None
    nated: tuple[str, ...]

    def approx_fields(self) -> tuple[str, ...]:
        bad = [f for f, ok in self.curr_exact.items() if not ok]
        if self.orig_exact:
            bad += [f for f, ok in self.orig_exact.items() if not ok and f not in bad]
        return tuple(bad)


def field_sets(formula: Formula, layout: HeaderLayout) -> dict[str, Ranges]:
    """Per-field range projections alone, for output that prints no
    exactness flags: ledger lines, diagnostics and policies."""
    return {name: formula.field_ranges(name) for name in layout.names()}


def formula_fields(formula: Formula, layout: HeaderLayout) -> tuple[dict, dict]:
    """Per-field range projections plus per-field exactness flags, for fact
    packets and the JSON ledger, which print the flags.

    A field is exact when the formula does not correlate it with the other
    fields, i.e. the formula equals (projection onto the field) AND (rest).
    Both come from the store's field summary, which builds no formula;
    each call returns fresh dicts.
    """
    summary = formula.store.field_summary(formula.node)
    names = layout.names()
    return ({name: r for name, (r, _) in zip(names, summary)},
            {name: ok for name, (_, ok) in zip(names, summary)})


def render_value(value: AbstractValue, variant: str, net: Network) -> list[RenderedPacket]:
    """Deterministically ordered rendering of a node's abstract packets."""
    layout = net.layout
    lattice = get_lattice(variant, net)
    rendered = []
    for p in value.packets:
        curr, curr_exact = formula_fields(lattice.curr_of(p), layout)
        orig = lattice.orig_of(p)
        orig_sets = orig_exact = None
        if orig is not None:
            orig_sets, orig_exact = formula_fields(orig, layout)
        nated = layout.mask_names(p.nated)
        rendered.append(RenderedPacket(curr, curr_exact, orig_sets, orig_exact, nated))
    rendered.sort(key=lambda r: (str(r.orig), r.nated, str(r.curr)))
    return rendered


def header_fields(header: int, layout: HeaderLayout) -> dict[str, Ranges]:
    """Per-field view of one concrete header: a single value per field."""
    return {name: ((layout.extract_value(header, name),) * 2,) for name in layout.names()}


def bracket(sets: dict[str, Ranges], layout: HeaderLayout) -> str:
    """Text form of per-field sets: ``[<set> : <set> : ...]``."""
    return "[" + " : ".join(
        format_field_display(sets[name], width) for name, width in layout.fields
    ) + "]"


def packet_to_text(p: RenderedPacket, layout: HeaderLayout) -> str:
    body = bracket(p.curr, layout)
    if p.orig is not None:
        body += " " + bracket(p.orig, layout)
    text = "<" + body + ">"
    approx = p.approx_fields()
    if approx:
        text += " (approx: " + ", ".join(approx) + ")"
    return text


def value_to_text(value: AbstractValue, variant: str, net: Network) -> str:
    if value.is_bottom():
        return "(unreachable)"
    return " ".join(packet_to_text(p, net.layout) for p in render_value(value, variant, net))


def formula_to_text(formula: Formula, layout: HeaderLayout) -> str:
    return bracket(field_sets(formula, layout), layout)


def result_to_text(result: AnalysisResult, net: Network) -> str:
    lines = []
    for node in net.node_names():
        lines.append(f"facts({node}) = {value_to_text(result.facts[node], result.variant, net)}")
    if result.ledger.rule_ids():
        lines.append("")
        for rid, formula in result.ledger.items():
            lines.append(f"dropped({rid}) = {formula_to_text(formula, net.layout)}")
    diag = []
    for zone, formula in sorted(result.misdelivered.items()):
        diag.append(f"misdelivered({zone}) = {formula_to_text(formula, net.layout)}")
    for node, formula in sorted(result.no_route.items()):
        diag.append(f"no-route({node}) = {formula_to_text(formula, net.layout)}")
    if diag:
        lines.append("")
        lines.extend(diag)
    return "\n".join(lines) + "\n"


def data_sets(sets: dict[str, Ranges], layout: HeaderLayout) -> dict[str, str]:
    """Structured form of per-field sets, in the value-set grammar."""
    return {name: format_field_data(sets[name], width) for name, width in layout.fields}


def result_to_json(result: AnalysisResult, net: Network, network_name: str) -> dict:
    layout = net.layout
    facts = {}
    for node in net.node_names():
        packets = []
        for p in render_value(result.facts[node], result.variant, net):
            entry = {"curr": data_sets(p.curr, layout), "curr_exact": p.curr_exact}
            if p.orig is not None:
                entry["orig"] = data_sets(p.orig, layout)
                entry["orig_exact"] = p.orig_exact
                entry["nated"] = list(p.nated)
            packets.append(entry)
        facts[node] = packets
    ledger = {}
    ledger_exact = {}
    for rid, formula in result.ledger.items():
        sets, exact = formula_fields(formula, layout)
        ledger[str(rid)] = data_sets(sets, layout)
        ledger_exact[str(rid)] = exact
    diagnostics = {
        "misdelivered": {
            z: data_sets(field_sets(f, layout), layout)
            for z, f in sorted(result.misdelivered.items())
        },
        "no_route": {
            n: data_sets(field_sets(f, layout), layout)
            for n, f in sorted(result.no_route.items())
        },
    }
    return {
        "schema": "pktflow-analysis-1",
        "network": network_name,
        "origin": result.origin,
        "variant": result.variant,
        "facts": facts,
        "ledger": ledger,
        "ledger_exact": ledger_exact,
        "diagnostics": diagnostics,
        "stats": {
            "iterations": result.stats.iterations,
            "joins": result.stats.joins,
            "wall_time_s": round(result.stats.wall_time_s, 6),
        },
    }
