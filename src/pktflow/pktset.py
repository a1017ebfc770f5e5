"""Canonical sets of packet headers as boolean functions over header bits.

A header layout partitions a fixed-width bit string into named fields.
Formulas denote subsets of the 2**total_bits possible headers and are kept
canonical in a per-layout store (reduced ordered BDDs with hash-consing), so
equality and emptiness tests on handles are O(1).

A field mask, such as the NAT mask ``nated`` of a variant-2 packet, is an int
whose bit i stands for layout field i.  ``HeaderLayout.mask_names`` is the one
decoder: it gives the masked field names in layout order, and
``mask_names(~mask)`` gives the other fields.

Variable order is field-major in layout declaration order, most-significant
bit first within a field.  Headers are plain ints: variable i is bit
(total_bits - 1 - i) of the header value, so enumeration order is ascending.

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
* The field summaries (``_summaries``, by node, filled by
  ``field_summary``), the atom cache, the quantification caches, the
  ``relabel`` memos, and the guard and accept-region memos
  (``guard_formulas``, filled by ``netmodel.guard_to_formula``, and
  ``accept_regions``, filled by ``xfer.accept_region`` and keyed by the
  table, or by (table, live rule indices) when some rules are left out,
  which hold node ids) are never invalidated: they rely on nodes never
  being freed or renumbered, so a future store reset must clear them too.
* ``field_summary`` and ``top_block`` only read the node lists: they
  create no node, so reading a summary or a block never moves the
  numbering of later nodes.
* A store holds no ``Formula``: ``store.false`` and ``store.true`` build
  their handles on demand and the memos hold node ids, so a store is in no
  reference cycle and reference counting frees it.

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
"""

from __future__ import annotations

import weakref


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

    @property
    def field_count(self) -> int:
        return len(self.fields)

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

    def extract_value(self, header: int, name: str) -> int:
        """Field value inside a concrete header int."""
        _, _, _, shift, mask = self._slot(name)
        return (header >> shift) & mask

    def with_value(self, header: int, name: str, value: int) -> int:
        _, _, _, shift, mask = self._slot(name)
        if not 0 <= value <= mask:
            raise RangeError(f"value {value} does not fit field {name!r}")
        return (header & ~(mask << shift)) | (value << shift)


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
    """Union of inclusive integer ranges of one field, optionally negated.
    Its hash is computed once, as a guard's is."""

    __slots__ = ("field", "ranges", "negated", "_hash")

    def __init__(self, field: str, ranges: tuple[tuple[int, int], ...], negated: bool = False):
        self.field = field
        self.ranges = _normalize_ranges(ranges)
        self.negated = negated
        self._hash = hash((field, self.ranges, negated))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.ranges, self.negated) == (other.field, other.ranges, other.negated)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (f"FieldValueSet(field={self.field!r}, ranges={self.ranges!r}, "
                f"negated={self.negated!r})")

    def contains(self, value: int) -> bool:
        inside = any(lo <= value <= hi for lo, hi in self.ranges)
        return inside != self.negated

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
    ranges = fvs.ranges
    if fvs.negated:
        ranges = complement_ranges(ranges, layout.width(fvs.field))
    return layout.index(fvs.field), ranges


def _spread(ranges, gap: int, bits: int) -> tuple[tuple[int, int], ...]:
    """Ranges over ``bits`` low bits, repeated under each value of ``gap``
    free bits above them."""
    size = 1 << bits
    if ranges == ((0, size - 1),):
        return ((0, (size << gap) - 1),)
    out: list[tuple[int, int]] = []
    for t in range(0, size << gap, size):
        for a, b in ranges:
            if out and out[-1][1] + 1 == a + t:
                out[-1] = (out[-1][0], b + t)
            else:
                out.append((a + t, b + t))
    return tuple(out)


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

    Returns ``(mk, and_, or_, not_, exists)``.  Each call of ``and_``/``or_``
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

    return mk, and_, or_, not_, exists


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
        self._mk, self._and, self._or, self._not, self._exists = _kernel(
            self._var, self._lo, self._hi
        )
        # (field, keep the field?) -> (quantified vars, their max, cache)
        self._quants: dict[tuple[str, bool], tuple[frozenset[int], int, dict[int, int]]] = {}
        self._quant_caches: dict[frozenset[int], dict[int, int]] = {}
        self._atom_cache: dict[tuple, int] = {}
        # Guard -> node, filled by netmodel.guard_to_formula
        self.guard_formulas: dict = {}
        # filter table -> node of the headers it accepts, filled by
        # xfer.accept_region
        self.accept_regions: dict = {}
        # filter table -> {DROP rule index: the earlier rules whose guards
        # can share a header with it}, filled by xfer.filter_table_drops
        self.rule_overlaps: dict = {}
        # node -> its field_summary; the terminals' are filled in here
        free = tuple((((0, (1 << w) - 1),), True) for _, w in layout.fields)
        self._summaries: dict[int, tuple] = {0: (((), True),) * len(free), 1: free}
        self._free = free
        # first and end variable of each field, and the field of each variable
        self._spans = tuple((layout.offset(n), layout.offset(n) + w) for n, w in layout.fields)
        self._field_of = [i for i, (_, w) in enumerate(layout.fields) for _ in range(w)]
        # target store -> varmap -> node memo of Formula.relabel; weak, so
        # that a copy into a short-lived store does not keep it alive
        self._relabels: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

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
        the node's own.
        """
        s = self._summaries.get(node)
        if s is None:
            s = self._summarize(node)
        return s

    def _summarize(self, node: int) -> tuple:
        var, low, high = self._var, self._lo, self._hi
        v = var[node]
        k = self._field_of[v]
        off, end = self._spans[k]
        memo: dict[int, tuple] = {}
        exits: set[int] = set()

        def walk(n: int, v: int) -> tuple:
            # the values over the field's bits from v on, and the one exit
            # they lead to (-1 when there are several)
            half = 1 << (end - v - 1)
            ranges, one, shift = (), 0, 0
            for c in (low[n], high[n]):
                if c:
                    cv = var[c]
                    if cv >= end:
                        r, x = ((shift, shift + half - 1),), c
                        exits.add(c)
                    else:
                        m = memo.get(c)
                        if m is None:
                            m = memo[c] = walk(c, cv)
                        r, x = m
                        if cv > v + 1:
                            r = _spread(r, cv - v - 1, end - cv)
                        if shift:
                            r = tuple((a + shift, b + shift) for a, b in r)
                    if ranges and ranges[-1][1] + 1 == r[0][0]:
                        ranges = (*ranges[:-1], (ranges[-1][0], r[0][1]), *r[1:])
                    else:
                        ranges += r
                    one = x if one == 0 or one == x else -1
                shift = half
            return ranges, one

        ranges, one = walk(node, v)
        if v > off:
            ranges = _spread(ranges, v - off, end - v)
        if one > 0:
            tail = self.field_summary(one)[k + 1:]
        else:
            sums = [self.field_summary(x) for x in exits]
            tail = tuple(_combine([s[j] for s in sums]) for j in range(k + 1, len(self._spans)))
        s = self._summaries[node] = (*self._free[:k], (ranges, one > 0), *tail)
        return s

    def top_block(self, node: int) -> tuple[int, int, int]:
        """``(k, lo, hi)``: every header of a non-false node has its value of
        field k, the field of the node's top variable, in ``[lo, hi]``.  The
        block fixes the bits read along the one-way path from the node (a
        node whose other child is false) up to the first branch or skipped
        variable; later bits are free.  A walk that creates no node."""
        var, low, high = self._var, self._lo, self._hi
        k = self._field_of[var[node]] if node > 1 else 0
        v, end = self._spans[k]
        value = 0
        while v < end and var[node] == v:
            if low[node] == 0:
                value = value << 1 | 1
                node = high[node]
            elif high[node] == 0:
                value <<= 1
                node = low[node]
            else:
                break
            v += 1
        free = end - v
        return k, value << free, (value + 1 << free) - 1

    # -- range atoms -------------------------------------------------------

    def _bits_ge(self, off: int, w: int, value: int) -> int:
        node = 1
        for i in range(w - 1, -1, -1):
            bit = (value >> (w - 1 - i)) & 1
            var = off + i
            if bit:
                node = self._mk(var, 0, node)
            else:
                node = self._mk(var, node, 1)
        return node

    def _bits_le(self, off: int, w: int, value: int) -> int:
        node = 1
        for i in range(w - 1, -1, -1):
            bit = (value >> (w - 1 - i)) & 1
            var = off + i
            if bit:
                node = self._mk(var, 1, node)
            else:
                node = self._mk(var, node, 0)
        return node

    def atom(self, fvs: FieldValueSet) -> Formula:
        """Formula holding exactly when the field value lies in (or outside,
        if negated) the range union."""
        key = (fvs.field, fvs.ranges, fvs.negated)
        node = self._atom_cache.get(key)
        if node is None:
            off = self.layout.offset(fvs.field)
            w = self.layout.width(fvs.field)
            limit = (1 << w) - 1
            node = 0
            for lo, hi in fvs.ranges:
                if hi > limit:
                    raise RangeError(
                        f"range [{lo}, {hi}] exceeds {w}-bit field {fvs.field!r}"
                    )
                node = self._or(node, self._and(self._bits_ge(off, w, lo),
                                                self._bits_le(off, w, hi)))
            if fvs.negated:
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
        if values.negated or not values.ranges:
            raise RangeError("overwrite needs a non-negated, non-empty value set")
        if values.field != field:
            values = FieldValueSet(field, values.ranges, values.negated)
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

        return Formula(target, rec(self.node))

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

        if not feasible(self.node):
            return None
        out = header & keep  # the free bits the walk never tests stay 0
        node = self.node
        while node > 1:
            shift = top - var[node]
            if keep >> shift & 1:
                node = high[node] if header >> shift & 1 else low[node]
            elif feasible(low[node]):
                node = low[node]
            else:
                out |= 1 << shift
                node = high[node]
        return out

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
        return out

    def count(self) -> int:
        """Number of satisfying headers."""
        store = self.store
        memo: dict[int, int] = {0: 0, 1: 1}

        def rec(node: int) -> int:
            r = memo.get(node)
            if r is None:
                v = store._var[node]
                lo, hi = store._lo[node], store._hi[node]
                r = (rec(lo) << (store._var[lo] - v - 1)) + (
                    rec(hi) << (store._var[hi] - v - 1)
                )
                memo[node] = r
            return r

        top = store._var[self.node] if self.node > 1 else store.nbits
        return rec(self.node) << top

    def field_ranges(self, field: str) -> tuple[tuple[int, int], ...]:
        """The projected field value set as merged inclusive ranges."""
        return self.store.field_summary(self.node)[self.store.layout.index(field)][0]

    def is_field_product(self) -> bool:
        """True when the formula equals the conjunction of its per-field
        projections (no cross-field correlation)."""
        return all(independent for _, independent in self.store.field_summary(self.node))
