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

An analysis result renders from its class-space values
(``AnalysisResult.classes``): each field's class-index ranges map to value
ranges through the class starts (``value_ranges``), and the exactness flags
carry over as they are, since a class formula correlates two fields
exactly when its value-space expansion does.  So rendering a result
expands nothing into the network's store.  Each function that takes
``starts`` reads a class formula with it, and a value formula without.
"""

from __future__ import annotations

from typing import NamedTuple

from .engine import AbstractValue, AnalysisResult
from .netmodel import Network, range_to_text
from .pktset import Formula, HeaderLayout, complement_ranges

Ranges = tuple[tuple[int, int], ...]


def value_ranges(ranges: Ranges, first, width: int) -> Ranges:
    """The values of a field's classes ``ranges``, where class k begins at
    value ``first[k]`` (``engine.class_quotient``) and the field has
    ``width`` bits.  The last class runs to the field's top value and holds
    the indices past it.  Merged class ranges map to merged value ranges:
    a gap of one class is a gap of at least one value."""
    n = len(first)
    out = []
    for a, b in ranges:
        if a >= n:
            break  # indices past the last class, which ``out`` already holds
        out.append((first[a], first[b + 1] - 1 if b + 1 < n else (1 << width) - 1))
    return tuple(out)


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


def _to_values(sets: dict[str, Ranges], layout: HeaderLayout, starts) -> dict[str, Ranges]:
    """A class formula's per-field ranges as value ranges."""
    return {name: value_ranges(sets[name], first, width)
            for (name, width), first in zip(layout.fields, starts)}


def field_sets(formula: Formula, layout: HeaderLayout, starts=None) -> dict[str, Ranges]:
    """Per-field range projections alone, for output that prints no
    exactness flags: ledger lines, diagnostics and policies."""
    sets = {name: formula.field_ranges(name) for name in layout.names()}
    return sets if starts is None else _to_values(sets, layout, starts)


def formula_fields(formula: Formula, layout: HeaderLayout, starts=None) -> tuple[dict, dict]:
    """Per-field range projections plus per-field exactness flags, for fact
    packets and the JSON ledger, which print the flags.

    A field is exact when the formula does not correlate it with the other
    fields, i.e. the formula equals (projection onto the field) AND (rest).
    Both come from the store's field summary, which builds no formula;
    each call returns fresh dicts.
    """
    summary = formula.store.field_summary(formula.node)
    names = layout.names()
    sets = {name: r for name, (r, _) in zip(names, summary)}
    return (sets if starts is None else _to_values(sets, layout, starts),
            {name: ok for name, (_, ok) in zip(names, summary)})


def render_value(value: AbstractValue, net: Network, starts=None) -> list[RenderedPacket]:
    """Deterministically ordered rendering of a node's abstract packets."""
    layout = net.layout
    rendered = []
    for p in value.packets:
        curr, curr_exact = formula_fields(p.curr, layout, starts)
        orig_sets = orig_exact = None
        if p.orig is not None:
            orig_sets, orig_exact = formula_fields(p.orig, layout, starts)
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


def value_to_text(value: AbstractValue, net: Network, starts=None) -> str:
    if value.is_bottom():
        return "(unreachable)"
    return " ".join(packet_to_text(p, net.layout) for p in render_value(value, net, starts))


def formula_to_text(formula: Formula, layout: HeaderLayout, starts=None) -> str:
    return bracket(field_sets(formula, layout, starts), layout)


def result_to_text(result: AnalysisResult, net: Network) -> str:
    classes = result.classes
    layout, starts = net.layout, classes.starts
    lines = []
    for node in net.node_names():
        lines.append(f"facts({node}) = {value_to_text(classes.facts[node], net, starts)}")
    if classes.ledger.rule_ids():
        lines.append("")
        for rid, formula in classes.ledger.items():
            lines.append(f"dropped({rid}) = {formula_to_text(formula, layout, starts)}")
    diag = []
    for zone, formula in sorted(classes.misdelivered.items()):
        diag.append(f"misdelivered({zone}) = {formula_to_text(formula, layout, starts)}")
    for node, formula in sorted(classes.no_route.items()):
        diag.append(f"no-route({node}) = {formula_to_text(formula, layout, starts)}")
    if diag:
        lines.append("")
        lines.extend(diag)
    return "\n".join(lines) + "\n"


def data_sets(sets: dict[str, Ranges], layout: HeaderLayout) -> dict[str, str]:
    """Structured form of per-field sets, in the value-set grammar."""
    return {name: format_field_data(sets[name], width) for name, width in layout.fields}


def result_to_json(result: AnalysisResult, net: Network, network_name: str) -> dict:
    classes = result.classes
    layout, starts = net.layout, classes.starts
    facts = {}
    for node in net.node_names():
        packets = []
        for p in render_value(classes.facts[node], net, starts):
            entry = {"curr": data_sets(p.curr, layout), "curr_exact": p.curr_exact}
            if p.orig is not None:
                entry["orig"] = data_sets(p.orig, layout)
                entry["orig_exact"] = p.orig_exact
                entry["nated"] = list(p.nated)
            packets.append(entry)
        facts[node] = packets
    ledger = {}
    ledger_exact = {}
    for rid, formula in classes.ledger.items():
        sets, exact = formula_fields(formula, layout, starts)
        ledger[str(rid)] = data_sets(sets, layout)
        ledger_exact[str(rid)] = exact
    diagnostics = {
        "misdelivered": {
            z: data_sets(field_sets(f, layout, starts), layout)
            for z, f in sorted(classes.misdelivered.items())
        },
        "no_route": {
            n: data_sets(field_sets(f, layout, starts), layout)
            for n, f in sorted(classes.no_route.items())
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
