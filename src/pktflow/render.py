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
ranges through the class starts (``value_ranges``).  A class formula
holds whole runs of class indices, so the exactness flags carry over as
they are: it correlates two fields exactly when its value-space expansion
does.  So rendering a result expands nothing into the network's store.  Each function that takes
``starts`` reads a class formula with it, and a value formula without.

A rendered result builds each distinct node of its facts' packets into a
view once, and reuses it for every packet and every network node that
holds that node: the ``v2`` join keys packets by their original, so the
same formulas recur round a ring.  A view holds the node's field sets,
exactness flags and sort-key text and, once an output asks, its bracket
text or JSON sets.  The memo is one dict per rendered result (``views``),
keyed by node id, which also keeps each field's display string under its
(ranges, width) pair.  Node ids belong to one store, so the memo lives no
longer than the result it renders.
"""

from __future__ import annotations

from typing import NamedTuple

from .engine import AbstractValue, AnalysisResult
from .netmodel import Network, range_to_text
from .pktset import Formula, HeaderLayout, complement_ranges

Ranges = tuple[tuple[int, int], ...]


def value_ranges(ranges: Ranges, first, width: int) -> Ranges:
    """The values of a field's class-index ranges ``ranges``, where index i
    belongs to the class that begins at value ``first[i]``
    (``engine.class_quotient``) and the field has ``width`` bits.  A class
    formula holds whole runs of indices, so a range runs from a class's
    first index to the last index of a class: its values run from the
    first class's first value to the next class's, or to the field's top
    value.  Merged index ranges map to merged value ranges: a gap of one
    class is a gap of at least one value."""
    n = len(first)
    return tuple((first[a], first[b + 1] - 1 if b + 1 < n else (1 << width) - 1)
                 for a, b in ranges)


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


class _View:
    """How one node of a fact's packets prints: its field sets and
    exactness flags (``formula_fields``), the sort-key text (``str`` of the
    sets), the fields it flags approximate, and, once an output asks for
    them, its bracket text and its JSON field sets."""

    __slots__ = ("sets", "exact", "key", "loose", "text", "data")

    def __init__(self, sets: dict[str, Ranges], exact: dict[str, bool]):
        self.sets = sets
        self.exact = exact
        self.key = str(sets)
        self.loose = tuple(name for name, ok in exact.items() if not ok)
        self.text = self.data = None


def _view(formula: Formula, layout: HeaderLayout, starts, views: dict) -> _View:
    view = views.get(formula.node)
    if view is None:
        view = views[formula.node] = _View(*formula_fields(formula, layout, starts))
    return view


def _order(row: tuple) -> tuple:
    curr, orig, nated = row
    return ("None" if orig is None else orig.key, nated, curr.key)


def _rows(value: AbstractValue, layout: HeaderLayout, starts, views: dict) -> list[tuple]:
    """``(curr view, orig view or None, NATed field names)`` per packet,
    sorted by ``(str(orig), nated, str(curr))``.  The sort is stable, so
    packets with equal keys keep their order in ``value``."""
    rows = [(_view(p.curr, layout, starts, views),
             None if p.orig is None else _view(p.orig, layout, starts, views),
             layout.mask_names(p.nated))
            for p in value.packets]
    rows.sort(key=_order)
    return rows


def render_value(value: AbstractValue, net: Network, starts=None,
                 views: dict | None = None) -> list[RenderedPacket]:
    """Deterministically ordered rendering of a node's abstract packets.
    ``views`` is the memo of one rendered result (see the module
    docstring); packets that share a node share its dicts."""
    rows = _rows(value, net.layout, starts, {} if views is None else views)
    return [RenderedPacket(curr.sets, curr.exact, None if orig is None else orig.sets,
                           None if orig is None else orig.exact, nated)
            for curr, orig, nated in rows]


def header_fields(header: int, layout: HeaderLayout) -> dict[str, Ranges]:
    """Per-field view of one concrete header: a single value per field."""
    return {name: ((layout.extract_value(header, name),) * 2,) for name in layout.names()}


def bracket(sets: dict[str, Ranges], layout: HeaderLayout) -> str:
    """Text form of per-field sets: ``[<set> : <set> : ...]``."""
    return "[" + " : ".join(
        format_field_display(sets[name], width) for name, width in layout.fields
    ) + "]"


def _bracket_text(view: _View, layout: HeaderLayout, views: dict) -> str:
    """``bracket`` of a view's sets, built once per view; each field's
    display string is formatted once per (ranges, width) and kept in
    ``views`` under that pair."""
    if view.text is None:
        parts = []
        for name, width in layout.fields:
            key = (view.sets[name], width)
            part = views.get(key)
            if part is None:
                part = views[key] = format_field_display(*key)
            parts.append(part)
        view.text = "[" + " : ".join(parts) + "]"
    return view.text


def value_to_text(value: AbstractValue, net: Network, starts=None,
                  views: dict | None = None) -> str:
    """A node's packets as text, ``<curr> <orig>`` each, with the fields
    that either flags approximate; ``views`` as in ``render_value``."""
    if value.is_bottom():
        return "(unreachable)"
    layout = net.layout
    views = {} if views is None else views
    texts = []
    for curr, orig, _ in _rows(value, layout, starts, views):
        text = "<" + _bracket_text(curr, layout, views)
        approx = curr.loose
        if orig is not None:
            text += " " + _bracket_text(orig, layout, views)
            approx += tuple(name for name in orig.loose if name not in approx)
        text += ">"
        if approx:
            text += " (approx: " + ", ".join(approx) + ")"
        texts.append(text)
    return " ".join(texts)


def formula_to_text(formula: Formula, layout: HeaderLayout, starts=None) -> str:
    return bracket(field_sets(formula, layout, starts), layout)


def result_to_text(result: AnalysisResult, net: Network) -> str:
    classes = result.classes
    layout, starts = net.layout, classes.starts
    views: dict = {}  # one memo for every node: see the module docstring
    lines = []
    for node in net.node_names():
        lines.append(f"facts({node}) = {value_to_text(classes.facts[node], net, starts, views)}")
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


def _data(view: _View, layout: HeaderLayout) -> dict[str, str]:
    """A fresh copy of ``data_sets`` of a view's sets, built once per view."""
    if view.data is None:
        view.data = data_sets(view.sets, layout)
    return dict(view.data)


def result_to_json(result: AnalysisResult, net: Network, network_name: str) -> dict:
    classes = result.classes
    layout, starts = net.layout, classes.starts
    views: dict = {}
    facts = {}
    for node in net.node_names():
        packets = []
        for curr, orig, nated in _rows(classes.facts[node], layout, starts, views):
            entry = {"curr": _data(curr, layout), "curr_exact": dict(curr.exact)}
            if orig is not None:
                entry["orig"] = _data(orig, layout)
                entry["orig_exact"] = dict(orig.exact)
                entry["nated"] = list(nated)
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
