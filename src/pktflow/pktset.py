"""Canonical sets of packet headers as boolean functions over header bits.

A header layout partitions a fixed-width bit string into named fields.
Formulas denote subsets of the 2**total_bits possible headers and are kept
canonical in a per-layout store (reduced ordered BDDs with hash-consing), so
equality and emptiness tests on handles are O(1).

A field mask, such as the NAT mask ``nated`` of a variant-2 packet, is an int
whose bit i stands for layout field i.  ``HeaderLayout.mask_names`` is the one
decoder: it gives the masked field names in layout order, and
``mask_names(~mask)`` gives the other fields.  ``mask_bits`` gives the header
bits of the same fields.

Variable order is field-major in layout declaration order, most-significant
bit first within a field.  Headers are plain ints: variable i is bit
(total_bits - 1 - i) of the header value, so enumeration order is ascending.

A value set (``FieldValueSet``) is just the values one field admits: the
loader resolves the grammar's ``!`` (``netmodel.parse_value_set``).

Kernel invariants (``FormulaStore``):

* Node 0 is false and node 1 is true; both carry the variable ``nbits``, one
  past the last header variable, so a terminal sorts below every decision.
* Every other node n tests variable ``_var[n]`` with children ``_lo[n]``
  (bit 0) and ``_hi[n]`` (bit 1); its children test strictly larger
  variables, and ``_lo[n] != _hi[n]``.
* No two nodes share (var, lo, hi): the unique table maps each triple to its
  node, so one function has one node and equal functions have equal ids.
* Nodes are never freed or renumbered.  ``_var``, ``_lo`` and ``_hi`` are
  plain lists with one entry per node, grown in place by ``append`` and never
  replaced, so ``len(store._var)`` is the node count and a reference to the
  list taken at any time stays current.  Instrumentation relies on this.
* New nodes are numbered in creation order, and an operation creates its
  nodes in a fixed order (the low branch before the high branch), so the
  same sequence of operations gives the same node ids.
* The unique table and the ``&``/``|`` computed tables key on one packed
  int (a node pair as ``small << 32 | large``), which assumes fewer than
  2**32 nodes per store.  Quantification caches are kept per variable set.
  ``clear_computed`` empties the ``&``, ``|`` and ``~`` tables, which the
  engine does at each fixpoint and after each firewall's drops: an
  operation run again finds every node it builds in the unique table, so
  emptying a computed table moves no node id.
* The field summaries (``_summaries``, by node, filled by
  ``field_summary``), the atom cache, the quantification caches, the
  ``relabel`` and ``expand`` memos, and the guard and region memos
  (``guard_formulas``, filled by ``netmodel.guard_to_formula``;
  ``accept_regions`` and ``drop_regions``, filled by ``xfer.accept_region``
  and ``xfer.drop_regions`` and keyed by (table, live rules with their
  cofactored guards); all hold node ids) are never invalidated: they rely
  on nodes never being freed or renumbered, so a future store reset must
  clear them too.
* ``field_summary`` only reads the node lists: it creates no node, so
  reading a summary never moves the numbering of later nodes.  The walk
  carries a field's values as flat boundary tuples and steps along one-way
  chains in a loop.  ``settles`` reads a summary against a guard's atom
  tests; the ``v2`` splits (``engine.V2Lattice._meet``) and the ``v1``
  filter compile (``xfer.live_rules``) bound a node's values through it
  alone.  ``top_ranges`` is the walk's first stage, the node's top field
  only; it caches nothing, and the relational filter compile screens by it.
* A store holds no ``Formula``: ``store.false`` and ``store.true`` build
  their handles on demand and the memos hold node ids, so a store is in no
  reference cycle and reference counting frees it.  The kernel's closures
  call themselves, so only the cyclic collector frees them; the store
  empties their child lists and tables when it goes (``_var`` stays whole).
  A per-call recursive walker (``count``, ``enumerate``, ...) deletes its
  closure when it returns, so it leaves no cycle that holds its memo.

Relabelling (``Formula.relabel``) is Bryant's order-preserving ``replace``:
it rebuilds a formula with every variable v renamed to ``varmap[v]``, in the
same store or into another one, in one memoized pass per (target, varmap).
The source store keeps that memo, and holds the target only weakly.
Its precondition is that ``varmap`` keeps the order of the variables the
formula depends on (x < y implies varmap[x] < varmap[y]), so each rebuilt
node still tests a smaller variable than its children; the map need not be
injective elsewhere.  The relational ``v2`` engine uses it to move a field
onto its shadow copy and to copy original-header views back into the
network's store.

Class expansion (``Formula.expand``) reads a formula over a class layout,
whose field k holds an index into ascending runs of the values of field k
of a value layout, and builds in the value layout's store the headers whose
per-field classes the formula holds: the preimage of the class set.  A
class owns a run of indices (``engine.class_quotient``) and is read at its
first index; the rest of its run are spare indices, never a value's class.
Per field, a walk gives the runs of class indices that lead to each exit
(a node past the field, or a terminal); each run starts at the first value
of the first class whose first index it holds, a run that holds no first
index is skipped, and neighbouring runs whose exits expand to the same
node merge.
The exits are expanded first, then the field's value bits are built by
halving the value range, so only the result's nodes are created.  The memo
is kept per (target, class starts), beside ``relabel``'s.  A network that
no field narrows is its own class network (``engine.class_quotient``), so
a formula of the target's own store expands to itself.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right


class PktsetError(ValueError):
    """Base error for layout/formula misuse."""


class UnknownFieldError(PktsetError):
    pass


class RangeError(PktsetError):
    """A value range does not fit its field, or is otherwise malformed."""


class StoreMismatchError(PktsetError):
    """Two formulas from different stores were combined."""


class HeaderLayout:
    """Ordered (name, width) field declarations for a packet header.
    Layouts are equal when their fields are."""

    # _slots: name -> (index, offset, width, shift, mask), built once per
    # layout; shift and mask locate the field inside a header int.
    # _masks: the mask_names cache.
    __slots__ = ("fields", "total_bits", "_slots", "_masks")

    def __init__(self, fields: tuple[tuple[str, int], ...]):
        if not fields:
            raise PktsetError("layout needs at least one field")
        names = [n for n, _ in fields]
        if len(set(names)) != len(names):
            raise PktsetError("duplicate field names in layout")
        for name, width in fields:
            if width < 1:
                raise PktsetError(f"field {name!r} has non-positive width")
        total = sum(w for _, w in fields)
        slots = {}
        off = 0
        for i, (name, width) in enumerate(fields):
            slots[name] = (i, off, width, total - off - width, (1 << width) - 1)
            off += width
        self.fields = fields
        self.total_bits = total
        self._slots = slots
        self._masks = {}

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.fields == other.fields

    def __hash__(self) -> int:
        return hash(self.fields)

    def __repr__(self) -> str:
        return f"HeaderLayout(fields={self.fields!r})"

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.fields)

    def _slot(self, name: str) -> tuple[int, int, int, int, int]:
        try:
            return self._slots[name]
        except KeyError:
            raise UnknownFieldError(f"unknown field {name!r}") from None

    def index(self, name: str) -> int:
        return self._slot(name)[0]

    def width(self, name: str) -> int:
        return self._slot(name)[2]

    def offset(self, name: str) -> int:
        """First variable index of the field (MSB of the field)."""
        return self._slot(name)[1]

    def field_vars(self, name: str) -> range:
        _, off, w, _, _ = self._slot(name)
        return range(off, off + w)

    def mask_names(self, mask: int) -> tuple[str, ...]:
        """Names of the fields whose bit is set in a field mask (bit i is
        field i), in layout order; ``mask_names(~mask)`` gives the others."""
        names = self._masks.get(mask)
        if names is None:
            names = self._masks[mask] = tuple(
                name for i, (name, _) in enumerate(self.fields) if mask >> i & 1
            )
        return names

    def mask_bits(self, mask: int) -> int:
        """The header bits of the fields whose bit is set in a field mask,
        as an int over header values; ``mask_bits(~mask)`` gives the
        others'."""
        bits = 0
        for name in self.mask_names(mask):
            _, _, _, shift, m = self._slots[name]
            bits |= m << shift
        return bits

    def extract_value(self, header: int, name: str) -> int:
        """Field value inside a concrete header int."""
        _, _, _, shift, mask = self._slot(name)
        return (header >> shift) & mask


def _normalize_ranges(ranges) -> tuple[tuple[int, int], ...]:
    rs = sorted((int(lo), int(hi)) for lo, hi in ranges)
    for lo, hi in rs:
        if lo < 0 or hi < lo:
            raise RangeError(f"malformed range [{lo}, {hi}]")
    merged: list[tuple[int, int]] = []
    for lo, hi in rs:
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


class FieldValueSet:
    """The values one field admits, as merged inclusive ranges, so two
    spellings of one set are equal.  Its hash is computed once."""

    __slots__ = ("field", "ranges", "_hash")

    def __init__(self, field: str, ranges: tuple[tuple[int, int], ...]):
        self.field = field
        self.ranges = _normalize_ranges(ranges)
        self._hash = hash((field, self.ranges))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.ranges) == (other.field, other.ranges)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FieldValueSet(field={self.field!r}, ranges={self.ranges!r})"

    def contains(self, value: int) -> bool:
        return any(lo <= value <= hi for lo, hi in self.ranges)

    def values(self):
        for lo, hi in self.ranges:
            yield from range(lo, hi + 1)


def complement_ranges(ranges, width: int) -> tuple[tuple[int, int], ...]:
    """The values of a ``width``-bit field outside merged ``ranges``."""
    out = []
    nxt = 0
    for lo, hi in ranges:
        if lo > nxt:
            out.append((nxt, lo - 1))
        nxt = hi + 1
    if nxt <= (1 << width) - 1:
        out.append((nxt, (1 << width) - 1))
    return tuple(out)


def atom_test(fvs: FieldValueSet, layout: HeaderLayout) -> tuple[int, tuple[tuple[int, int], ...]]:
    """A guard atom as (field index, merged ranges of the values it admits)."""
    return layout.index(fvs.field), fvs.ranges


def settles(summary, tests) -> bool | None:
    """What a formula's field summary says of its conjunction with the
    guard whose atoms are ``tests`` (``atom_test`` pairs): False when some
    atom admits none of its field's values (the conjunction is empty), True
    when every atom admits all of them (it is the formula), None when only
    ``&`` can tell."""
    inside = True
    for i, want in tests:
        have = summary[i][0]
        # two-pointer scans of the merged ranges: any overlap, and does
        # ``want`` hold all of ``have``
        a = b = 0
        while a < len(have) and b < len(want):
            if have[a][1] < want[b][0]:
                a += 1
            elif want[b][1] < have[a][0]:
                b += 1
            else:
                break
        else:
            return False
        if inside:
            b = 0
            for lo, hi in have:
                while b < len(want) and want[b][1] < lo:
                    b += 1
                if b == len(want) or want[b][0] > lo or want[b][1] < hi:
                    inside = False
                    break
    return True if inside else None


def _combine(pairs) -> tuple:
    """One field's ``(ranges, independent)`` over the union of several
    nodes' entries, from each node's own pair."""
    first = pairs[0][0]
    if all(r == first for r, _ in pairs):
        return first, all(ind for _, ind in pairs)
    out: list[tuple[int, int]] = []
    for a, b in sorted(x for r, _ in pairs for x in r):
        if out and a <= out[-1][1] + 1:
            if b > out[-1][1]:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return tuple(out), False


def _kernel(var: list[int], low: list[int], high: list[int]):
    """The node operations of one store, as closures over its node lists.

    Returns ``(mk, and_, or_, not_, exists, tables)``, where ``tables``
    holds the child lists and the unique and computed tables that the
    closures share.  Each call of ``and_``/``or_``
    tests the terminal cases before it builds a cache key, and creates its
    result node inline; ``exists(a, vars_fs, vmax, cache)`` takes the cache
    of its variable set from the caller.
    """
    vshift = var[0].bit_length()  # var[0] == nbits bounds every variable
    uniq: dict[int, int] = {}  # (lo, hi, var) packed into one int -> node
    and_cache: dict[int, int] = {}
    or_cache: dict[int, int] = {}
    not_cache: dict[int, int] = {}

    def mk(v: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (lo << 32 | hi) << vshift | v
        n = uniq.get(key)
        if n is None:
            n = len(var)
            var.append(v)
            low.append(lo)
            high.append(hi)
            uniq[key] = n
        return n

    def and_(a: int, b: int) -> int:
        if a < 2:
            return b if a else 0
        if b < 2:
            return a if b else 0
        if a == b:
            return a
        key = a << 32 | b if a < b else b << 32 | a
        r = and_cache.get(key)
        if r is not None:
            return r
        va = var[a]
        vb = var[b]
        if va == vb:
            v = va
            lo = and_(low[a], low[b])
            hi = and_(high[a], high[b])
        elif va < vb:
            v = va
            lo = and_(low[a], b)
            hi = and_(high[a], b)
        else:
            v = vb
            lo = and_(a, low[b])
            hi = and_(a, high[b])
        if lo == hi:
            r = lo
        else:
            ukey = (lo << 32 | hi) << vshift | v
            r = uniq.get(ukey)
            if r is None:
                r = len(var)
                var.append(v)
                low.append(lo)
                high.append(hi)
                uniq[ukey] = r
        and_cache[key] = r
        return r

    def or_(a: int, b: int) -> int:
        if a < 2:
            return 1 if a else b
        if b < 2:
            return 1 if b else a
        if a == b:
            return a
        key = a << 32 | b if a < b else b << 32 | a
        r = or_cache.get(key)
        if r is not None:
            return r
        va = var[a]
        vb = var[b]
        if va == vb:
            v = va
            lo = or_(low[a], low[b])
            hi = or_(high[a], high[b])
        elif va < vb:
            v = va
            lo = or_(low[a], b)
            hi = or_(high[a], b)
        else:
            v = vb
            lo = or_(a, low[b])
            hi = or_(a, high[b])
        if lo == hi:
            r = lo
        else:
            ukey = (lo << 32 | hi) << vshift | v
            r = uniq.get(ukey)
            if r is None:
                r = len(var)
                var.append(v)
                low.append(lo)
                high.append(hi)
                uniq[ukey] = r
        or_cache[key] = r
        return r

    def not_(a: int) -> int:
        if a < 2:
            return 1 - a
        r = not_cache.get(a)
        if r is None:
            r = mk(var[a], not_(low[a]), not_(high[a]))
            not_cache[a] = r
            not_cache[r] = a
        return r

    def exists(a: int, vars_fs: frozenset[int], vmax: int, cache: dict[int, int]) -> int:
        if a < 2:
            return a
        v = var[a]
        if v > vmax:
            return a
        r = cache.get(a)
        if r is None:
            lo = exists(low[a], vars_fs, vmax, cache)
            hi = exists(high[a], vars_fs, vmax, cache)
            r = or_(lo, hi) if v in vars_fs else mk(v, lo, hi)
            cache[a] = r
        return r

    return mk, and_, or_, not_, exists, (low, high, uniq, and_cache, or_cache, not_cache)


class FormulaStore:
    """Canonical boolean-function store bound to one header layout.

    Handles from different stores must never be mixed; a store is not
    thread-safe and is meant to be confined to one analysis at a time.
    """

    def __init__(self, layout: HeaderLayout):
        self.layout = layout
        self.nbits = layout.total_bits
        # node 0 = false, node 1 = true
        self._var = [self.nbits, self.nbits]
        self._lo = [0, 1]
        self._hi = [0, 1]
        (self._mk, self._and, self._or, self._not, self._exists,
         self._tables) = _kernel(self._var, self._lo, self._hi)
        # (field, keep the field?) -> (quantified vars, their max, cache)
        self._quants: dict[tuple[str, bool], tuple[frozenset[int], int, dict[int, int]]] = {}
        self._quant_caches: dict[frozenset[int], dict[int, int]] = {}
        self._atom_cache: dict[tuple, int] = {}
        # Guard -> node, filled by netmodel.guard_to_formula
        self.guard_formulas: dict = {}
        # filter table -> node of the headers it accepts, filled by
        # xfer.accept_region
        self.accept_regions: dict = {}
        # (filter table, live rules) -> (rule id, drop region node) of each
        # DROP rule, filled by xfer.drop_regions
        self.drop_regions: dict = {}
        # node -> its field_summary; the terminals' are filled in here
        free = tuple((((0, (1 << w) - 1),), True) for _, w in layout.fields)
        self._summaries: dict[int, tuple] = {0: (((), True),) * len(free), 1: free}
        self._free = free
        # first and end variable of each field, and the field of each variable
        self._spans = tuple((layout.offset(n), layout.offset(n) + w) for n, w in layout.fields)
        self._field_of = [i for i, (_, w) in enumerate(layout.fields) for _ in range(w)]
        # target store -> varmap (or class starts) -> node memo of
        # Formula.relabel (or Formula.expand); weak, so that a copy into a
        # short-lived store does not keep it alive
        self._relabels: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def __del__(self):
        for table in self._tables:
            table.clear()

    def clear_computed(self) -> None:
        """Empty the ``&``, ``|`` and ``~`` computed tables.  An operation
        run again rebuilds only nodes the store holds, so no node id moves."""
        for table in self._tables[3:]:
            table.clear()

    # handles are built on demand: a store that held a Formula would be in a
    # reference cycle with it, and only the cyclic collector could free it
    @property
    def false(self) -> "Formula":
        return Formula(self, 0)

    @property
    def true(self) -> "Formula":
        return Formula(self, 1)

    def _quantify(self, a: int, field: str, keep: bool) -> int:
        """Existentially quantify the field's variables, or, when ``keep``,
        every variable outside the field."""
        q = self._quants.get((field, keep))
        if q is None:
            inside = set(self.layout.field_vars(field))
            vs = frozenset(set(range(self.nbits)) - inside if keep else inside)
            cache = self._quant_caches.setdefault(vs, {})
            q = self._quants[(field, keep)] = (vs, max(vs, default=-1), cache)
        return self._exists(a, *q)

    # -- field summaries --------------------------------------------------

    def field_summary(self, node: int) -> tuple:
        """Per field of the layout, in order, the pair ``(ranges,
        independent)``: the merged inclusive ranges of the field's values
        over the node's headers, and whether the node equals the conjunction
        of that value set with its own projection onto the other fields.

        One walk per field, creating no node: paths enter a field at its
        entry nodes and leave it at non-false exit nodes (a node past the
        field, or a terminal, is its own exit).  The ranges are the union
        over entries of the values that lead to an exit; the field is
        independent exactly when every entry gives the same ranges and
        reaches one exit.  The node's own field is walked from the node,
        with a memo for that call; every later field is read from the
        summaries of the exits, which are cached in the store by node like
        the node's own.  The walk carries values as flat boundaries
        ``(start, stop, start, stop, ...)``, stop exclusive, so the halves
        of a node join by concatenation and shift by one ``map``.  A
        one-way chain (one child false, the other testing the next variable
        of the field) is followed in a loop and shifted once at its end.
        The pairs are built once per summary.
        """
        s = self._summaries.get(node)
        if s is None:
            s = self._summarize(node)
        return s

    def top_ranges(self, node: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        """``(k, ranges)`` for a non-terminal node: the field k of its top
        variable, and the merged inclusive ranges of that field's values
        over the node's headers, as in its ``field_summary``.  This is the
        first stage of the summary's walk: it creates no node, reads no
        exit's summary and caches nothing."""
        k, ranges, _, _ = self._walk_top(node)
        return k, ranges

    def _summarize(self, node: int) -> tuple:
        k, ranges, one, exits = self._walk_top(node)
        if one > 0:
            tail = self.field_summary(one)[k + 1:]
        else:
            sums = [self.field_summary(x) for x in exits]
            tail = tuple(_combine([s[j] for s in sums]) for j in range(k + 1, len(self._spans)))
        s = self._summaries[node] = (*self._free[:k], (ranges, one > 0), *tail)
        return s

    def _walk_top(self, node: int) -> tuple:
        # the top field k, its ranges, their one exit (-1 when there are
        # several) and the set of exits
        var, low, high = self._var, self._lo, self._hi
        k = self._field_of[var[node]]
        off, end = self._spans[k]
        memo: dict[int, tuple] = {}
        exits: set[int] = set()

        def spread(b: tuple, v: int, u: int) -> tuple:
            # boundaries b of the bits from u on, under free bits v..u-1
            while u > v:
                u -= 1
                t = tuple(map((1 << (end - u - 1)).__add__, b))
                b = b[:-1] + t[1:] if b[-1] == t[0] else b + t
            return b

        def walk(n: int) -> tuple:
            # the boundaries of the values over the field's bits from the
            # node's variable on, and their one exit (-1 when there are
            # several); each node of a one-way chain adds a prefix bit
            v, prefix = var[n], 0
            while (low[n] == 0 or high[n] == 0) and var[low[n] or high[n]] == v + 1 < end:
                prefix = prefix << 1 | (low[n] == 0)
                n, v = low[n] or high[n], v + 1
            half = 1 << (end - v - 1)
            r, one = (), 0
            for c, shift in ((low[n], 0), (high[n], half)):
                if c:
                    cv = var[c]
                    if cv >= end:
                        b, x = (shift, shift + half), c
                        exits.add(c)
                    else:
                        if c not in memo:
                            memo[c] = walk(c)
                        b, x = memo[c]
                        if cv > v + 1:
                            b = spread(b, v + 1, cv)
                        if shift:
                            b = tuple(map(shift.__add__, b))
                    r = r[:-1] + b[1:] if r and r[-1] == b[0] else r + b
                    one = x if one == 0 or one == x else -1
            if prefix:
                r = tuple(map((prefix << (end - v)).__add__, r))
            return r, one

        r, one = walk(node)
        del walk  # break the self-reference
        r = spread(r, off, var[node])
        return k, tuple(zip(r[::2], map((-1).__add__, r[1::2]))), one, exits

    # -- range atoms -------------------------------------------------------

    def _bits_bound(self, off: int, w: int, value: int, ge: int) -> int:
        """The values of the field at ``off`` that are >= ``value`` when
        ``ge`` is 1, and <= it when ``ge`` is 0."""
        node = 1
        for i in range(w - 1, -1, -1):
            if value >> (w - 1 - i) & 1:
                node = self._mk(off + i, 1 - ge, node)
            else:
                node = self._mk(off + i, node, ge)
        return node

    def atom(self, fvs: FieldValueSet) -> Formula:
        """Formula holding exactly when the field value lies in the range
        union.  It is built from the ranges or from their complement,
        whichever has fewer ranges (the ranges on a tie), and complemented in
        the second case."""
        key = (fvs.field, fvs.ranges)
        node = self._atom_cache.get(key)
        if node is None:
            off = self.layout.offset(fvs.field)
            w = self.layout.width(fvs.field)
            limit = (1 << w) - 1
            if fvs.ranges and fvs.ranges[-1][1] > limit:  # merged: the last ends highest
                lo, hi = fvs.ranges[-1]
                raise RangeError(f"range [{lo}, {hi}] exceeds {w}-bit field {fvs.field!r}")
            comp = complement_ranges(fvs.ranges, w)
            flip = len(comp) < len(fvs.ranges)
            node = 0
            for lo, hi in comp if flip else fvs.ranges:
                node = self._or(node, self._and(self._bits_bound(off, w, lo, 1),
                                                self._bits_bound(off, w, hi, 0)))
            if flip:
                node = self._not(node)
            self._atom_cache[key] = node
        return Formula(self, node)

    # -- stats --------------------------------------------------------------

    def node_count(self) -> int:
        return len(self._var)


class Formula:
    """Immutable handle into a FormulaStore; denotes a set of headers.

    Combine with ``&``, ``|``, ``~``.  Equality is semantic (canonical store),
    and mixing handles from different stores raises StoreMismatchError.
    """

    __slots__ = ("store", "node")

    def __init__(self, store: FormulaStore, node: int):
        self.store = store
        self.node = node

    def _peer(self, other: "Formula") -> int:
        if not isinstance(other, Formula):
            raise TypeError(f"expected Formula, got {type(other).__name__}")
        if other.store is not self.store:
            raise StoreMismatchError("formulas belong to different stores/layouts")
        return other.node

    def __and__(self, other: "Formula") -> "Formula":
        return Formula(self.store, self.store._and(self.node, self._peer(other)))

    def __or__(self, other: "Formula") -> "Formula":
        return Formula(self.store, self.store._or(self.node, self._peer(other)))

    def __invert__(self) -> "Formula":
        return Formula(self.store, self.store._not(self.node))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return other.store is self.store and self.node == other.node

    def __hash__(self) -> int:
        return hash((id(self.store), self.node))

    def __repr__(self) -> str:
        if self.node == 0:
            return "<Formula false>"
        if self.node == 1:
            return "<Formula true>"
        return f"<Formula node={self.node} count={self.count()}>"

    def is_empty(self) -> bool:
        return self.node == 0

    def implies(self, other: "Formula") -> bool:
        return (self & ~other).is_empty()

    # -- field operations ---------------------------------------------------

    def exists_field(self, field: str) -> "Formula":
        """Existentially quantify the field's bits; result is independent of it."""
        return Formula(self.store, self.store._quantify(self.node, field, False))

    def extract_field(self, field: str) -> "Formula":
        """Project onto one field: the set of that field's values occurring in
        the denotation, all other fields unconstrained."""
        return Formula(self.store, self.store._quantify(self.node, field, True))

    def overwrite_field(self, field: str, values: FieldValueSet) -> "Formula":
        """Replace the field with a fresh value drawn from ``values``.

        Exact relational overwrite: the new value is independent of the old.
        """
        if not values.ranges:
            raise RangeError("overwrite needs a non-empty value set")
        if values.field != field:
            values = FieldValueSet(field, values.ranges)
        return self.exists_field(field) & self.store.atom(values)

    def relabel(self, varmap: tuple[int, ...], target: FormulaStore | None = None) -> "Formula":
        """The formula with each variable v renamed to ``varmap[v]``, built in
        ``target`` (default: this store).  ``varmap`` must keep the order of
        the variables the formula depends on; see the module docstring."""
        src = self.store
        target = src if target is None else target
        memos = src._relabels.setdefault(target, {})
        memo = memos.get(varmap)
        if memo is None:
            memo = memos[varmap] = {0: 0, 1: 1}
        var, low, high, mk = src._var, src._lo, src._hi, target._mk

        def rec(a: int) -> int:
            r = memo.get(a)
            if r is None:
                r = memo[a] = mk(varmap[var[a]], rec(low[a]), rec(high[a]))
            return r

        node = rec(self.node)
        del rec  # break the self-reference
        return Formula(target, node)

    def expand(self, starts: tuple[tuple[int, ...], ...], target: FormulaStore) -> "Formula":
        """The headers of ``target``'s layout whose classes form a header of
        this formula, built in ``target``; see the module docstring.
        ``starts[k][i]`` is the first value of the class of index i of field
        k, non-decreasing from 0 with one entry per index; field k of this
        store's layout holds the class index.
        A formula of ``target`` itself is over the values, each its own
        class, and is its own expansion."""
        src = self.store
        if src is target:
            return self
        memos = src._relabels.setdefault(target, {})
        memo = memos.get(starts)
        if memo is None:
            memo = memos[starts] = {0: 0, 1: 1}
        var, low, high, field_of, spans = src._var, src._lo, src._hi, src._field_of, src._spans
        mk = target._mk
        runs_of: dict[int, list] = {}

        def repeat(runs: list, times: int, period: int) -> list:
            # the runs of ``times`` copies of a pattern of 2**period indices
            if times == 1 or len(runs) == 1:
                return runs
            out = []
            for j in range(0, times << period, 1 << period):
                for s, x in runs:
                    if not out or out[-1][1] != x:
                        out.append((j + s, x))
            return out

        def walk(n: int, end: int) -> list:
            # (first index, exit) runs over the field's bits from var[n] on
            v = var[n]
            out = []
            for c, base in ((low[n], 0), (high[n], 1 << (end - v - 1))):
                cv = var[c]
                if cv >= end:
                    runs = [(0, c)]
                else:
                    runs = runs_of.get(c)
                    if runs is None:
                        runs = runs_of[c] = walk(c, end)
                    runs = repeat(runs, 1 << (cv - v - 1), end - cv)
                for s, x in runs:
                    if not out or out[-1][1] != x:
                        out.append((base + s, x))
            return out

        def rec(n: int) -> int:
            r = memo.get(n)
            if r is not None:
                return r
            k = field_of[var[n]]
            off, end = spans[k]
            first = starts[k]
            runs = repeat(walk(n, end), 1 << (var[n] - off), end - var[n])
            values, exits = [], []
            for r, (s, x) in enumerate(runs):
                if s and first[s - 1] == first[s]:
                    # a spare index: read the next class, if the run holds it
                    s = bisect_right(first, first[s])
                    if s == len(first) or r + 1 < len(runs) and s >= runs[r + 1][0]:
                        continue
                t = rec(x)
                if not exits or exits[-1] != t:
                    values.append(first[s])
                    exits.append(t)
            toff, tend = target._spans[k]

            def build(i: int, v: int, lo: int) -> int:
                # the values lo.. that share the bits before variable v; run
                # i holds lo
                size = 1 << (tend - v)
                if i + 1 == len(values) or values[i + 1] >= lo + size:
                    return exits[i]
                half = size >> 1
                a = build(i, v + 1, lo)
                j = i
                while j + 1 < len(values) and values[j + 1] <= lo + half:
                    j += 1
                return mk(v, a, build(j, v + 1, lo + half))

            r = memo[n] = build(0, toff, 0)
            del build  # break the self-reference
            return r

        node = rec(self.node)
        del rec, walk  # break the self-references
        return Formula(target, node)

    # -- concretization -----------------------------------------------------

    def smallest_agreeing(self, header: int, keep: int) -> int | None:
        """The smallest header in the set that agrees with ``header`` on every
        bit set in ``keep``, or None.  A cofactor walk: it creates no node."""
        var, low, high = self.store._var, self.store._lo, self.store._hi
        top = self.store.nbits - 1
        sat: dict[int, bool] = {0: False, 1: True}

        def feasible(node: int) -> bool:
            r = sat.get(node)
            if r is None:
                shift = top - var[node]
                if keep >> shift & 1:
                    r = feasible(high[node] if header >> shift & 1 else low[node])
                else:
                    r = feasible(low[node]) or feasible(high[node])
                sat[node] = r
            return r

        out = header & keep  # the free bits the walk never tests stay 0
        node = self.node if feasible(self.node) else 0
        while node > 1:
            shift = top - var[node]
            if keep >> shift & 1:
                node = high[node] if header >> shift & 1 else low[node]
            elif feasible(low[node]):
                node = low[node]
            else:
                out |= 1 << shift
                node = high[node]
        del feasible  # break the self-reference
        return out if node else None

    def enumerate(self, limit: int) -> list[int]:
        """Up to ``limit`` satisfying headers, ascending."""
        if limit < 1:
            raise PktsetError("enumeration limit must be >= 1")
        var, low, high = self.store._var, self.store._lo, self.store._hi
        out: list[int] = []

        def rec(node: int, v: int, prefix: int):
            # ``prefix`` fixes the variables before v; the variables from v
            # up to the node's own are free, so loop over their completions
            if node == 0 or len(out) >= limit:
                return
            top = var[node]
            base = prefix << (top - v)
            if node == 1:
                out.extend(range(base, base + min(1 << (top - v), limit - len(out))))
                return
            for k in range(1 << (top - v)):
                p = (base | k) << 1
                rec(low[node], top + 1, p)
                rec(high[node], top + 1, p | 1)
                if len(out) >= limit:
                    return

        rec(self.node, 0, 0)
        del rec  # break the self-reference
        return out

    def count(self) -> int:
        """Number of satisfying headers."""
        var, low, high = self.store._var, self.store._lo, self.store._hi
        memo: dict[int, int] = {0: 0, 1: 1}

        def rec(node: int) -> int:
            r = memo.get(node)
            if r is None:
                v, lo, hi = var[node], low[node], high[node]
                r = memo[node] = (rec(lo) << (var[lo] - v - 1)) + (rec(hi) << (var[hi] - v - 1))
            return r

        n = rec(self.node) << var[self.node]
        del rec  # break the self-reference
        return n

    def field_ranges(self, field: str) -> tuple[tuple[int, int], ...]:
        """The projected field value set as merged inclusive ranges."""
        return self.store.field_summary(self.node)[self.store.layout.index(field)][0]
