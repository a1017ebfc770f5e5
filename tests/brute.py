"""Brute-force reference semantics used as the independent oracle in tests.

Everything here works by exhaustive enumeration of concrete headers and never
touches the symbolic formula machinery, so it can certify it.
"""

from __future__ import annotations

from pktflow.pktset import FieldValueSet, HeaderLayout


def all_headers(layout: HeaderLayout) -> range:
    return range(1 << layout.total_bits)


def headers_where(layout: HeaderLayout, pred) -> set[int]:
    return {h for h in all_headers(layout) if pred(h)}


def formula_set(formula) -> set[int]:
    """Concrete denotation of a formula via its own enumerate (full space)."""
    return set(formula.enumerate(1 << formula.store.layout.total_bits))


def in_value_set(layout: HeaderLayout, header: int, fvs: FieldValueSet) -> bool:
    return fvs.contains(layout.extract_value(header, fvs.field))


def brute_overwrite(layout: HeaderLayout, headers: set[int], field: str,
                    values: FieldValueSet) -> set[int]:
    out = set()
    for h in headers:
        for v in values.values():
            out.add(layout.with_value(h, field, v))
    return out

