from __future__ import annotations

import gc
import random
import weakref
from bisect import bisect_left, bisect_right
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import (
    all_headers,
    brute_overwrite,
    field_count,
    formula_set,
    headers_where,
    in_value_set,
    is_field_product,
    reference_field_summary,
    reference_formula_fields,
    with_value,
)
from pktflow.engine import analyze
from pktflow.netmodel import load_network
from pktflow.pktset import (
    FieldValueSet,
    FormulaStore,
    HeaderLayout,
    PktsetError,
    RangeError,
    StoreMismatchError,
    UnknownFieldError,
    complement_ranges,
)
from pktflow.render import field_sets, formula_fields

DATA = Path(__file__).resolve().parent / "data"

T2X2 = HeaderLayout((("f1", 2), ("f2", 2)))


@pytest.fixture
def store():
    return FormulaStore(T2X2)


def fvs(field, *ranges):
    return FieldValueSet(field, tuple(ranges))


def outside(layout, field, *ranges):
    """The field's values outside ``ranges``, as the loader reads a '!'."""
    inside = FieldValueSet(field, tuple(ranges))
    return FieldValueSet(field, complement_ranges(inside.ranges, layout.width(field)))


# ---------------------------------------------------------------- layout

def test_layout_derived_quantities():
    assert T2X2.total_bits == 4
    assert field_count(T2X2) == 2
    assert T2X2.offset("f2") == 2
    assert T2X2.extract_value(0b1001, "f1") == 2
    assert T2X2.extract_value(0b1001, "f2") == 1
    assert with_value(T2X2, 0b1001, "f1", 0) == 0b0001


def test_layout_rejects_duplicates_and_bad_widths():
    with pytest.raises(PktsetError):
        HeaderLayout((("a", 2), ("a", 2)))
    with pytest.raises(PktsetError):
        HeaderLayout((("a", 0),))
    with pytest.raises(PktsetError):
        HeaderLayout(())


def test_unknown_field_errors(store):
    with pytest.raises(UnknownFieldError):
        T2X2.offset("nope")
    with pytest.raises(UnknownFieldError):
        store.atom(fvs("nope", (0, 1)))


# ---------------------------------------------------------------- atoms

def test_atom_range_matches_enumeration(store):
    # f1 in [2,3]: every header whose top two bits encode 2 or 3
    f = store.atom(fvs("f1", (2, 3)))
    expected = headers_where(T2X2, lambda h: T2X2.extract_value(h, "f1") in (2, 3))
    assert formula_set(f) == expected
    assert len(expected) == 8


def test_full_range_atom_is_true(store):
    assert store.atom(fvs("f1", (0, 3))) == store.true


def test_atom_equals_bitwise_construction(store):
    # (b1 and not b2) or (b1 and b2) collapses to b1, i.e. f1 in {2,3}
    b1 = store.atom(fvs("f1", (2, 3)))  # top bit of f1
    b2 = store.atom(fvs("f1", (1, 1), (3, 3)))  # bottom bit of f1
    built = (b1 & ~b2) | (b1 & b2)
    assert built == b1
    assert built == store.atom(fvs("f1", (2, 3)))


def test_atom_range_exceeding_width(store):
    with pytest.raises(RangeError):
        store.atom(fvs("f1", (0, 4)))


def test_negated_atom(store):
    pos = store.atom(fvs("f1", (2, 3)))
    neg = store.atom(outside(T2X2, "f1", (2, 3)))
    assert neg == ~pos
    # a set whose complement has fewer ranges is built from that complement
    assert store.atom(fvs("f1", (0, 0), (3, 3))) == ~store.atom(fvs("f1", (1, 2)))


def test_value_set_normalization():
    v = FieldValueSet("f1", ((2, 2), (0, 1)))
    assert v.ranges == ((0, 2),)
    with pytest.raises(RangeError):
        FieldValueSet("f1", ((3, 1),))


# ---------------------------------------------------------------- algebra

def test_contradiction_is_empty(store):
    x = store.atom(fvs("f1", (2, 3)))
    assert (x & ~x).is_empty()
    assert (x & ~x) == store.false


def test_or_identity(store):
    s = store.atom(fvs("f2", (1, 2)))
    assert (s | store.false) == s


def test_equals_commutativity(store):
    a = store.atom(fvs("f1", (0, 1)))
    b = store.atom(fvs("f2", (2, 3)))
    assert (a | b) == (b | a)
    assert (a & b) == (b & a)


def test_store_mismatch_raises(store):
    other = FormulaStore(T2X2)
    with pytest.raises(StoreMismatchError):
        store.true & other.true
    assert store.true != other.true  # == is total: distinct stores never equal


small_range = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
    lambda t: (min(t), max(t))
)
value_sets = st.builds(
    lambda field, ranges, neg: (outside(T2X2, field, *ranges) if neg
                                else FieldValueSet(field, tuple(ranges))),
    st.sampled_from(["f1", "f2"]),
    st.lists(small_range, min_size=1, max_size=2),
    st.booleans(),
)


@st.composite
def formulas(draw):
    store = draw(st.shared(st.builds(lambda: FormulaStore(T2X2)), key="store"))
    n = draw(st.integers(1, 3))
    f = store.atom(draw(value_sets))
    for _ in range(n - 1):
        g = store.atom(draw(value_sets))
        f = draw(st.sampled_from([f & g, f | g, f & ~g]))
    return f


@settings(max_examples=60, deadline=None)
@given(formulas(), formulas())
def test_de_morgan(f, g):
    assert ~(f & g) == (~f | ~g)
    assert ~(f | g) == (~f & ~g)


@settings(max_examples=40, deadline=None)
@given(formulas(), formulas())
def test_equality_agrees_with_enumeration(f, g):
    assert (f == g) == (formula_set(f) == formula_set(g))


@settings(max_examples=60, deadline=None)
@given(formulas(), value_sets)
def test_atom_and_ops_agree_with_brute_force(f, v):
    atom = f.store.atom(v)
    assert formula_set(atom) == headers_where(T2X2, lambda h: in_value_set(T2X2, h, v))
    assert formula_set(f & atom) == formula_set(f) & formula_set(atom)
    assert formula_set(f | atom) == formula_set(f) | formula_set(atom)
    assert formula_set(~f) == set(all_headers(T2X2)) - formula_set(f)


# ---------------------------------------------------------------- quantification

def two_field_curr(store):
    # top bit of f1 set, f2 equal to 1
    return store.atom(fvs("f1", (2, 3))) & store.atom(fvs("f2", (1, 1)))


def test_exists_field(store):
    curr = two_field_curr(store)
    assert curr.exists_field("f1") == store.atom(fvs("f2", (1, 1)))
    assert store.true.exists_field("f1") == store.true
    assert store.false.exists_field("f1") == store.false


def test_extract_field(store):
    curr = two_field_curr(store)
    assert curr.extract_field("f1") == store.atom(fvs("f1", (2, 3)))
    assert store.true.extract_field("f2") == store.true


def test_overwrite_field_worked_example(store):
    curr = two_field_curr(store)
    out = curr.overwrite_field("f1", fvs("f1", (0, 0)))
    assert out == store.atom(fvs("f1", (0, 0))) & store.atom(fvs("f2", (1, 1)))


def test_overwrite_empty_and_errors(store):
    assert store.false.overwrite_field("f1", fvs("f1", (1, 2))) == store.false
    with pytest.raises(RangeError):
        store.true.overwrite_field("f1", fvs("f1"))


@settings(max_examples=60, deadline=None)
@given(formulas(), st.sampled_from(["f1", "f2"]))
def test_quantifiers_commute_with_or(f, field):
    g = ~f | f.store.atom(FieldValueSet("f2", ((0, 1),)))
    assert (f | g).exists_field(field) == (f.exists_field(field) | g.exists_field(field))
    assert (f | g).extract_field(field) == (
        f.extract_field(field) | g.extract_field(field)
    )


@settings(max_examples=50, deadline=None)
@given(
    formulas(),
    st.sampled_from(["f1", "f2"]),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda t: (min(t), max(t))),
)
def test_overwrite_matches_brute_force(f, field, rng):
    v = FieldValueSet(field, (rng,))
    got = formula_set(f.overwrite_field(field, v))
    want = brute_overwrite(T2X2, formula_set(f), field, v)
    assert got == want


# ---------------------------------------------------------------- enumeration

def test_enumerate_single_vector(store):
    f = store.atom(fvs("f1", (0, 0))) & store.atom(fvs("f2", (1, 1)))
    assert f.enumerate(10) == [0b0001]


def test_enumerate_empty_and_full(store):
    assert store.false.enumerate(5) == []
    assert store.true.enumerate(16) == list(range(16))
    assert store.true.enumerate(3) == [0, 1, 2]
    with pytest.raises(PktsetError):
        store.true.enumerate(0)


def test_count(store):
    assert store.true.count() == 16
    assert store.false.count() == 0
    assert store.atom(fvs("f1", (2, 3))).count() == 8


def test_field_ranges_roundtrip(store):
    f = store.atom(fvs("f1", (1, 2)))
    assert f.field_ranges("f1") == ((1, 2),)
    assert f.field_ranges("f2") == ((0, 3),)
    g = store.atom(fvs("f2", (0, 0), (2, 2)))
    assert g.field_ranges("f2") == ((0, 0), (2, 2))
    assert store.false.field_ranges("f1") == ()


@settings(max_examples=60, deadline=None)
@given(formulas(), st.sampled_from(["f1", "f2"]))
def test_field_ranges_match_brute_force(f, field):
    want = sorted({T2X2.extract_value(h, field) for h in formula_set(f)})
    got = [v for lo, hi in f.field_ranges(field) for v in range(lo, hi + 1)]
    assert got == want


def test_is_field_product(store):
    prod = store.atom(fvs("f1", (1, 2))) & store.atom(fvs("f2", (0, 1)))
    assert is_field_product(prod)
    diag = (store.atom(fvs("f1", (0, 0))) & store.atom(fvs("f2", (0, 0)))) | (
        store.atom(fvs("f1", (1, 1))) & store.atom(fvs("f2", (1, 1)))
    )
    assert not is_field_product(diag)


def test_wide_layout_smoke():
    wide = HeaderLayout((("s", 32), ("d", 32)))
    store = FormulaStore(wide)
    a = store.atom(FieldValueSet("s", ((0x0AC01D01, 0x0AC01DFF),)))
    b = store.atom(FieldValueSet("d", ((0xD1559955, 0xD1559955),)))
    f = a & b
    assert not f.is_empty()
    assert f.field_ranges("s") == ((0x0AC01D01, 0x0AC01DFF),)
    assert f.count() == 255
    assert (f & ~a).is_empty()


# ---------------------------------------------------------------- wider layout

T3X3 = HeaderLayout((("a", 3), ("b", 3), ("c", 3)))  # 512 headers
T3X3_FIELDS = ["a", "b", "c"]

range3 = st.tuples(st.integers(0, 7), st.integers(0, 7)).map(lambda t: (min(t), max(t)))
value_sets3 = st.builds(
    lambda field, ranges, neg: (outside(T3X3, field, *ranges) if neg
                                else FieldValueSet(field, tuple(ranges))),
    st.sampled_from(T3X3_FIELDS),
    st.lists(range3, min_size=1, max_size=3),
    st.booleans(),
)
chain_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["and", "or"]), value_sets3),
        st.tuples(st.just("not")),
        st.tuples(st.just("exists"), st.sampled_from(T3X3_FIELDS)),
        st.tuples(st.just("overwrite"), st.sampled_from(T3X3_FIELDS), range3),
    ),
    max_size=8,
)


def run_chain(store, start, ops):
    """Apply ``ops`` to the atom ``start``, symbolically and on brute sets."""
    f = store.atom(start)
    want = headers_where(T3X3, lambda h: in_value_set(T3X3, h, start))
    for op in ops:
        if op[0] in ("and", "or"):
            g = store.atom(op[1])
            g_set = headers_where(T3X3, lambda h: in_value_set(T3X3, h, op[1]))
            f, want = (f & g, want & g_set) if op[0] == "and" else (f | g, want | g_set)
        elif op[0] == "not":
            f, want = ~f, set(all_headers(T3X3)) - want
        elif op[0] == "exists":
            full = FieldValueSet(op[1], ((0, 7),))
            f, want = f.exists_field(op[1]), brute_overwrite(T3X3, want, op[1], full)
        else:
            values = FieldValueSet(op[1], (op[2],))
            f = f.overwrite_field(op[1], values)
            want = brute_overwrite(T3X3, want, op[1], values)
    return f, want


def formula_of_set(store, headers):
    """The formula of a header set, built independently of any chain: one
    product term per (a, b) pair present."""
    by_ab: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for h in headers:
        a, b, c = (T3X3.extract_value(h, n) for n in T3X3_FIELDS)
        by_ab.setdefault((a, b), []).append((c, c))
    f = store.false
    for (a, b), cs in by_ab.items():
        f = f | (store.atom(fvs("a", (a, a))) & store.atom(fvs("b", (b, b)))
                 & store.atom(FieldValueSet("c", tuple(cs))))
    return f


@settings(max_examples=80, deadline=None)
@given(value_sets3, chain_ops, value_sets3, chain_ops)
def test_operation_chains_on_wider_layout(start1, ops1, start2, ops2):
    store = FormulaStore(T3X3)
    f, f_set = run_chain(store, start1, ops1)
    g, g_set = run_chain(store, start2, ops2)
    for h, h_set in ((f, f_set), (g, g_set)):
        assert formula_set(h) == h_set
        assert h.count() == len(h_set)
        for name in T3X3_FIELDS:
            got = [v for lo, hi in h.field_ranges(name) for v in range(lo, hi + 1)]
            assert got == sorted({T3X3.extract_value(x, name) for x in h_set})
        # canonicity: one node per denotation
        assert formula_of_set(store, h_set).node == h.node
    assert (f.node == g.node) == (f_set == g_set)


def brute_fields(headers: set[int], layout: HeaderLayout = T3X3) -> tuple[dict, dict]:
    """Per-field merged value ranges and exactness flags of a header set, by
    enumeration: a field is exact when the set equals the product of its
    values in the field and its projection onto the other fields."""
    ranges, exact = {}, {}
    for name, width in layout.fields:
        values = sorted({layout.extract_value(h, name) for h in headers})
        runs: list[tuple[int, int]] = []
        for v in values:
            if runs and v == runs[-1][1] + 1:
                runs[-1] = (runs[-1][0], v)
            else:
                runs.append((v, v))
        ranges[name] = tuple(runs)
        full = FieldValueSet(name, ((0, (1 << width) - 1),))
        rest = brute_overwrite(layout, headers, name, full)
        exact[name] = headers == {h for h in rest if layout.extract_value(h, name) in values}
    return ranges, exact


def assert_summary(f, want, layout):
    """The field summary of ``f`` equals the enumerated ``want`` and the
    projection reference, and reading it creates no node."""
    store = f.store
    nodes = store.node_count()
    assert field_sets(f, layout) == want[0]  # the ranges-only path
    first = formula_fields(f, layout)
    assert first == want
    assert is_field_product(f) == all(want[1].values())
    assert store.node_count() == nodes
    assert reference_formula_fields(f, layout) == want
    assert formula_fields(f, layout) == want  # from the store's cache
    # callers own the returned dicts
    name = layout.names()[0]
    first[0][name] = ()
    first[1][name] = not first[1][name]
    assert formula_fields(f, layout) == want


@settings(max_examples=80, deadline=None)
@given(value_sets3, chain_ops, value_sets3, chain_ops)
def test_formula_fields_summary_matches_brute_force(start1, ops1, start2, ops2):
    store = FormulaStore(T3X3)
    chains = [run_chain(store, start1, ops1), run_chain(store, start2, ops2)]
    for f, f_set in chains:
        want = brute_fields(f_set)
        # a product of per-field sets is exact everywhere, and only then
        product = {h for h in all_headers(T3X3) if all(
            any(lo <= T3X3.extract_value(h, n) <= hi for lo, hi in want[0][n])
            for n in T3X3_FIELDS)}
        assert all(want[1].values()) == (f_set == product)
        assert_summary(f, want, T3X3)


def test_formula_fields_summary_edge_cases():
    store = FormulaStore(T3X3)
    a = store.atom(fvs("a", (1, 2)))
    c = store.atom(fvs("c", (0, 0), (5, 6)))
    diag = store.false
    for v in range(8):
        diag = diag | (store.atom(fvs("a", (v, v))) & store.atom(fvs("c", (v, v))))
    cases = [
        store.false,
        store.true,
        c,  # skips a and b: every path enters c at its root
        a & c,  # skips b
        store.atom(outside(T3X3, "b", (3, 3))),
        diag,  # a and c correlated across the free b
        diag | store.atom(fvs("b", (7, 7))),  # b exact only on some paths
        (a & store.atom(fvs("b", (0, 3)))) | (~a & store.atom(fvs("b", (0, 3)))),
    ]
    for f in cases:
        assert_summary(f, brute_fields(formula_set(f)), T3X3)
    assert formula_fields(diag, T3X3)[1] == {"a": False, "b": True, "c": False}


# T3X3 with the shadow ``a~`` of a, as the relational v2 store lays it out
TSH = HeaderLayout((("a", 3), ("a~", 3), ("b", 3), ("c", 3)))
INTO_TSH = (0, 1, 2, 6, 7, 8, 9, 10, 11)
A_ONTO_SHADOW = (3, 4, 5, 3, 4, 5, 6, 7, 8, 9, 10, 11)


@settings(max_examples=40, deadline=None)
@given(value_sets3, chain_ops, value_sets3)
def test_formula_fields_summary_on_a_shadow_layout(start, ops, nat):
    """Relations as the relational engine holds them: the original of a on
    its shadow, a new value of a conjoined after a NAT."""
    store, shadow = FormulaStore(T3X3), FormulaStore(TSH)
    f, _ = run_chain(store, start, ops)
    copy = f.relabel(INTO_TSH, shadow)
    nat_a = FieldValueSet("a", nat.ranges)
    moved = copy.relabel(A_ONTO_SHADOW) & shadow.atom(nat_a)
    for h in (copy, moved, moved.exists_field("b")):
        assert_summary(h, brute_fields(formula_set(h), TSH), TSH)


@settings(max_examples=80, deadline=None)
@given(value_sets3, chain_ops, st.integers(1, 520))
def test_enumerate_is_the_ascending_prefix(start, ops, k):
    store = FormulaStore(T3X3)
    f, f_set = run_chain(store, start, ops)
    assert f.enumerate(k) == sorted(f_set)[:k]


def test_mask_names_decode_field_bits():
    assert T3X3.mask_names(0) == ()
    assert T3X3.mask_names(0b101) == ("a", "c")
    assert T3X3.mask_names(~0b101) == ("b",)
    assert T3X3.mask_names(~0) == ("a", "b", "c")


# three 8-bit fields: fields wide enough for long one-way chains
W3X8 = HeaderLayout((("s", 8), ("d", 8), ("p", 8)))


def wide_atom(rng, name):
    """A prefix block, a host, a plain range or a bit pattern (the values
    that fix some bits, not only leading ones) of an 8-bit field, or its
    complement about a third of the time."""
    kind = rng.randrange(4)
    if kind == 0:
        free = rng.randint(0, 6)
        lo = rng.randrange(256) >> free << free
        ranges = ((lo, lo + (1 << free) - 1),)
    elif kind == 1:
        v = rng.randrange(256)
        ranges = ((v, v),)
    elif kind == 2:
        ranges = (tuple(sorted((rng.randrange(256), rng.randrange(256)))),)
    else:
        mask, value = rng.randrange(1, 256), rng.randrange(256)
        ranges = tuple((v, v) for v in range(256) if v & mask == value & mask)
    return outside(W3X8, name, *ranges) if rng.random() < 0.3 else FieldValueSet(name, ranges)


def wide_formula(rng, store):
    """A union of one to four guards, each a conjunction of atoms on one to
    three fields."""
    f = store.false
    for _ in range(rng.randint(1, 4)):
        g = store.true
        for name in rng.sample(W3X8.names(), rng.randint(1, 3)):
            g = g & store.atom(wide_atom(rng, name))
        f = f | g
    return f


def walk_shapes(store, root):
    """The shapes the summary walk meets below ``root``: one-way chains
    (one child false, the other testing the next variable of the field)
    longer than 2 bits, chains ending at an exit or at a skipped variable,
    entry nodes with several exits, and a root below its field's first
    variable."""
    var, low, high = store._var, store._lo, store._hi
    spans = [(W3X8.offset(n), W3X8.offset(n) + w) for n, w in W3X8.fields]
    end_of = {v: end for off, end in spans for v in range(off, end)}
    shapes = set()
    if root > 1 and var[root] not in {off for off, _ in spans}:
        shapes.add("top-skip")
    seen, stack = set(), [root]
    while stack:
        n = stack.pop()
        if n < 2 or n in seen:
            continue
        seen.add(n)
        stack += [low[n], high[n]]
        end, m, length = end_of[var[n]], n, 0
        while (low[m] == 0) != (high[m] == 0):
            c = low[m] or high[m]
            if var[c] >= end:
                if length:
                    shapes.add("chain-exit")
                break
            if var[c] > var[m] + 1:
                if length:
                    shapes.add("chain-skip")
                break
            m, length = c, length + 1
        if length > 2:
            shapes.add("chain>2")
        exits, inner = set(), [n]
        while inner:
            m = inner.pop()
            if m >= 2 and var[m] < end:
                inner += [low[m], high[m]]
            elif m:
                exits.add(m)
        if len(exits) > 1:
            shapes.add("several-exits")
    return shapes


def test_field_summary_on_wide_fields_equals_references():
    """On 8-bit fields, the summary equals the recursive pair-based walk and
    the projection definition, over formulas whose walks follow long
    chains, chains that end at an exit or a skipped variable, and entries
    with several exits."""
    rng = random.Random(1800)
    seen = set()
    for _ in range(150):
        store = FormulaStore(W3X8)
        f = wide_formula(rng, store)
        nodes = store.node_count()
        got = formula_fields(f, W3X8)
        assert store.node_count() == nodes
        assert store.field_summary(f.node) == reference_field_summary(store, f.node)
        seen |= walk_shapes(store, f.node)
        assert got == reference_formula_fields(f, W3X8)
    assert seen == {"top-skip", "chain>2", "chain-exit", "chain-skip", "several-exits"}


def analysis_nodes(result):
    """The node of every fact, ledger entry and diagnostic of a result."""
    nodes = [f.node for f in result.ledger.values()]
    nodes += [f.node for f in (*result.misdelivered.values(), *result.no_route.values())]
    for value in result.facts.values():
        for p in value.packets:
            nodes += [p.curr.node] if p.orig is None else [p.curr.node, p.orig.node]
    return nodes


@pytest.mark.parametrize("name, variant", [("mesh-6x8-1.json", "v1"), ("ring-4x4-1.json", "v2")])
def test_field_summary_equals_reference_walk_after_analysis(name, variant):
    """Node for node, on what every zone's analysis prints: the summaries
    the analysis cached while it ran and those rendering reads after it."""
    text = (DATA / name).read_text(encoding="utf-8")
    checked = 0
    for zone in load_network(text).zones:
        net = load_network(text)
        result = analyze(net, zone.name, variant)
        cache: dict = {}
        for node in analysis_nodes(result):
            assert (net.store.field_summary(node)
                    == reference_field_summary(net.store, node, cache))
            checked += 1
    assert checked > 100


# ---------------------------------------------------------------- relabel

# T3X3 with a 3-bit field x between a and b: the target of a store copy
T4X3 = HeaderLayout((("a", 3), ("x", 3), ("b", 3), ("c", 3)))
A_ONTO_B = (3, 4, 5, 3, 4, 5, 6, 7, 8)  # a's variables onto b's; b is free
INTO_T4X3 = (0, 1, 2, 6, 7, 8, 9, 10, 11)


@settings(max_examples=80, deadline=None)
@given(value_sets3, chain_ops)
def test_relabel_in_store_matches_brute_force(start, ops):
    store = FormulaStore(T3X3)
    f, _ = run_chain(store, start, ops)
    f = f.exists_field("b")  # the map keeps order only on a and c
    f_set = formula_set(f)
    moved = f.relabel(A_ONTO_B)
    assert moved.store is store
    assert formula_set(moved) == headers_where(
        T3X3, lambda h: with_value(T3X3, h, "a", T3X3.extract_value(h, "b")) in f_set)
    assert moved.relabel(A_ONTO_B) == moved  # the same memo, nothing to move


@settings(max_examples=40, deadline=None)
@given(value_sets3, chain_ops)
def test_relabel_into_another_store_round_trips(start, ops):
    store, wide = FormulaStore(T3X3), FormulaStore(T4X3)
    f, f_set = run_chain(store, start, ops)
    copy = f.relabel(INTO_T4X3, wide)
    assert copy.store is wide

    def narrow(h):  # drop x
        return sum(T4X3.extract_value(h, n) << 3 * (2 - i) for i, n in enumerate(T3X3_FIELDS))

    assert formula_set(copy) == {h for h in all_headers(T4X3) if narrow(h) in f_set}
    back = tuple(INTO_T4X3.index(v) if v in INTO_T4X3 else 0 for v in range(12))
    assert copy.relabel(back, store) == f


# T3X3 as class indices into the values of a wider layout: 1-8 classes per
# field, each owning a run of the 8 indices, so spare indices occur at any
# place and must not be read
VALUES = HeaderLayout((("a", 4), ("b", 3), ("c", 5)))


@st.composite
def class_starts(draw):
    starts = []
    for _, w in VALUES.fields:
        firsts = (0, *sorted(draw(st.sets(st.integers(1, (1 << w) - 1), max_size=7))))
        cuts = sorted(draw(st.sets(st.integers(1, 7), min_size=len(firsts) - 1,
                                   max_size=len(firsts) - 1)))
        starts.append(tuple(v for v, a, b in zip(firsts, (0, *cuts), (*cuts, 8))
                            for _ in range(b - a)))
    return tuple(starts)


def reachable(store, node: int) -> set[int]:
    seen, todo = set(), [node]
    while todo:
        n = todo.pop()
        if n > 1 and n not in seen:
            seen.add(n)
            todo += [store._lo[n], store._hi[n]]
    return seen


@settings(max_examples=80, deadline=None)
@given(value_sets3, chain_ops, class_starts())
def test_expand_is_the_preimage_of_the_class_set(start, ops, starts):
    store, values = FormulaStore(T3X3), FormulaStore(VALUES)
    f, f_set = run_chain(store, start, ops)
    expanded = f.expand(starts, values)
    assert expanded.store is values

    def classes(h):
        # the first index of each field's class
        return sum(bisect_left(first, first[bisect_right(first, VALUES.extract_value(h, name)) - 1])
                   << 3 * (2 - i) for i, (first, name) in enumerate(zip(starts, T3X3_FIELDS)))

    assert formula_set(expanded) == {h for h in all_headers(VALUES) if classes(h) in f_set}
    # only the result's nodes are built
    assert values.node_count() == 2 + len(reachable(values, expanded.node))
    assert f.expand(starts, values) == expanded


@settings(max_examples=80, deadline=None)
@given(value_sets3, chain_ops, st.integers(0, 511), st.integers(0, 511))
def test_smallest_agreeing_matches_brute_force_and_adds_no_node(start, ops, header, keep):
    store = FormulaStore(T3X3)
    f, f_set = run_chain(store, start, ops)
    nodes = store.node_count()
    agreeing = [h for h in sorted(f_set) if h & keep == header & keep]
    assert f.smallest_agreeing(header, keep) == (agreeing[0] if agreeing else None)
    assert store.node_count() == nodes


def test_relabel_memo_does_not_keep_its_target_alive():
    store = FormulaStore(T3X3)
    target = FormulaStore(T4X3)
    copy = store.atom(fvs("a", (1, 2))).relabel(INTO_T4X3, target)
    assert copy.count() == 2 * 2**9
    ref = weakref.ref(target)
    del target, copy
    gc.collect()
    assert ref() is None


def test_a_freed_store_empties_its_kernel_tables_without_the_collector():
    """The kernel's closures are freed only by the cyclic collector, so the
    store empties what they hold when reference counting frees it; its
    variable list stays whole for readers that took it, such as tracers."""
    gc.disable()
    try:
        store = FormulaStore(T3X3)
        f = ~(store.atom(fvs("a", (1, 2))) & store.atom(fvs("c", (0, 5))))
        f = f | store.atom(fvs("b", (3, 3)))
        tables, var, nodes = store._tables, store._var, store.node_count()
        assert all(tables) and not f.is_empty()
        ref = weakref.ref(store)
        del store, f
        assert ref() is None
        assert not any(tables) and len(var) == nodes
    finally:
        gc.enable()


def test_recursive_walkers_leave_no_garbage_cycle():
    """Each per-call recursive walker ends its self-reference when its call
    returns, so reference counting frees its memo, and a counted formula
    does not keep its store alive."""
    store = FormulaStore(T3X3)
    f = store.atom(fvs("a", (1, 2))) & store.atom(fvs("c", (0, 5)))
    f = f | store.atom(fvs("b", (3, 3)))
    gc.collect()
    gc.disable()
    try:
        assert f.count() > 0
        assert f.enumerate(5)
        assert f.smallest_agreeing(0, 0b111) is not None
        assert f.relabel(tuple(range(9))) == f
        g = f & ~store.atom(fvs("b", (2, 6)))
        store.field_summary(g.node)
        assert gc.collect() == 0
        ref = weakref.ref(store)
        del store, f, g
        assert ref() is None
    finally:
        gc.enable()
