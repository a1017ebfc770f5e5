"""Network data model: zones, firewalls, rule tables, links, config loading.

Configurations are JSON documents (see data/SCHEMA.md).  A loaded Network is
immutable, fully validated, and owns the formula store for its header layout;
all symbolic analyses over one Network share that store and must therefore
run one at a time.

Conventions: the layout must declare address fields named ``s`` (source) and
``d`` (destination) of equal width; optional ``sp``/``dp`` port fields are
recognized by name.  SNAT rules may write s/sp, DNAT rules d/dp.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter
from typing import NamedTuple

from .pktset import (
    FieldValueSet,
    Formula,
    FormulaStore,
    HeaderLayout,
    PktsetError,
    UnknownFieldError,
    complement_ranges,
)

DROP = "DROP"
ACCEPT = "ACCEPT"

PRESET_LAYOUTS = {
    "addr2": (("s", 32), ("d", 32)),
    "ipv4lite": (("s", 32), ("sp", 16), ("d", 32), ("dp", 16)),
}

SCHEMA_VERSION = 1

# The formula kernel recurses once per header variable, so a wider header
# would overflow Python's default recursion limit.
MAX_HEADER_BITS = 512

# The oracle's width guards, kept here so that building the CLI's argument
# parser loads no oracle.  DEFAULT_WIDTH_GUARD is the default; MAX_WIDTH_GUARD
# is the largest guard any caller may ask for.  The oracle visits all
# 2**width headers of the layout and keeps every reachable state, so a much
# wider layout would run for hours or exhaust memory; it is refused instead.
DEFAULT_WIDTH_GUARD = 12
MAX_WIDTH_GUARD = 16


class PktflowError(Exception):
    """An error that the CLI reports as one line and exit status 2."""


class ConfigError(PktflowError, ValueError):
    """Configuration parse or validation failure."""


# ------------------------------------------------------------- value sets

_DOTTED = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


def _quad(text: str, ctx: str) -> int:
    m = _DOTTED.match(text)
    if not m:
        raise ConfigError(f"{ctx}: bad dotted-quad literal {text!r}")
    parts = [int(g) for g in m.groups()]
    if any(p > 255 for p in parts):
        raise ConfigError(f"{ctx}: octet out of range in {text!r}")
    return (parts[0] << 24) | (parts[1] << 16) | (parts[2] << 8) | parts[3]


def _parse_item(item: str, width: int, ctx: str) -> tuple[int, int]:
    item = item.strip()
    limit = (1 << width) - 1
    if item == "*":
        return (0, limit)
    if "." in item:
        if width != 32:
            raise ConfigError(f"{ctx}: dotted-quad literal on a {width}-bit field")
        m = re.match(r"^(\d+\.\d+\.\d+)\.\[(\d+)-(\d+)\]$", item)
        if m:  # bracket shorthand for a last-octet range
            lo = _quad(f"{m.group(1)}.{m.group(2)}", ctx)
            hi = _quad(f"{m.group(1)}.{m.group(3)}", ctx)
            return (lo, hi)
        if "/" in item:
            base_text, _, plen_text = item.partition("/")
            base = _quad(base_text, ctx)
            try:
                plen = int(plen_text)
            except ValueError:
                raise ConfigError(f"{ctx}: bad prefix length in {item!r}") from None
            if not 0 <= plen <= 32:
                raise ConfigError(f"{ctx}: bad prefix length in {item!r}")
            mask = ((1 << plen) - 1) << (32 - plen) if plen else 0
            lo = base & mask
            return (lo, lo | (~mask & 0xFFFFFFFF))
        if "-" in item:
            lo_text, _, hi_text = item.partition("-")
            lo = _quad(lo_text.strip(), ctx)
            hi_text = hi_text.strip()
            if "." in hi_text:
                hi = _quad(hi_text, ctx)
            else:  # last-octet shorthand: a.b.c.d-e
                try:
                    last = int(hi_text)
                except ValueError:
                    raise ConfigError(f"{ctx}: bad range end {hi_text!r}") from None
                if last > 255:
                    raise ConfigError(f"{ctx}: last octet {last} out of range")
                hi = (lo & 0xFFFFFF00) | last
            return (lo, hi)
        v = _quad(item, ctx)
        return (v, v)
    try:
        if "-" in item:
            lo_text, _, hi_text = item.partition("-")
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(item)
    except ValueError:
        raise ConfigError(f"{ctx}: bad value literal {item!r}") from None
    if lo < 0 or hi > limit:
        raise ConfigError(f"{ctx}: value range {item!r} exceeds {width}-bit field")
    return (lo, hi)


def parse_value_set(text: str, field: str, width: int, ctx: str = "value set") -> FieldValueSet:
    """Parse 'a.b.c.d', 'a.b.c.d-e', dotted ranges, CIDR, ints, comma unions
    and '*' into the FieldValueSet of the values they admit.  A leading '!'
    is resolved here, to the complement against the field's width.

    ``width`` is the field's width: an integer past it is rejected, and
    dotted literals are accepted on 32-bit fields only."""
    if not isinstance(text, str) or not text.strip():
        raise ConfigError(f"{ctx}: empty value set")
    text = text.strip()
    complement = text.startswith("!")
    if complement:
        text = text[1:].strip()
    items = [i for i in text.split(",") if i.strip()]
    if not items:
        raise ConfigError(f"{ctx}: empty value set")
    ranges = tuple(_parse_item(i, width, ctx) for i in items)
    for lo, hi in ranges:
        if hi < lo:
            raise ConfigError(f"{ctx}: inverted range {lo}-{hi}")
    fvs = FieldValueSet(field, ranges)
    return FieldValueSet(field, complement_ranges(fvs.ranges, width)) if complement else fvs


def value_set_to_text(fvs: FieldValueSet, width: int) -> str:
    """Inverse of parse_value_set: the set's ranges, in the compact dotted
    notation on 32-bit fields, and '!*' for the empty set."""
    return ",".join(range_to_text(lo, hi, width) for lo, hi in fvs.ranges) or "!*"


def _dotted(v: int) -> str:
    return f"{(v >> 24) & 255}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}"


def range_to_text(lo: int, hi: int, width: int) -> str:
    """One value-set item: dotted quads (with last-octet shorthand) on
    32-bit fields, plain integers otherwise."""
    if width != 32:
        return str(lo) if lo == hi else f"{lo}-{hi}"
    lo_s = _dotted(lo)
    if lo == hi:
        return lo_s
    if (lo >> 8) == (hi >> 8):
        return f"{lo_s}-{hi & 0xFF}"
    return f"{lo_s}-{_dotted(hi)}"


# ------------------------------------------------------------- rule model

class Guard:
    """Conjunction of per-field value-set constraints; no atoms means true.

    A guard keys the store's and the lattices' memos, so its hash is
    computed once."""

    __slots__ = ("atoms", "_hash")

    def __init__(self, atoms: tuple[tuple[str, FieldValueSet], ...] = ()):
        self.atoms = atoms
        self._hash = hash(atoms)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Guard(atoms={self.atoms!r})"

    def fields(self) -> tuple[str, ...]:
        return tuple(f for f, _ in self.atoms)

    def is_true(self) -> bool:
        return not self.atoms

    def matches(self, layout: HeaderLayout, header: int) -> bool:
        return all(v.contains(layout.extract_value(header, f)) for f, v in self.atoms)


def guard_to_formula(guard: Guard, store: FormulaStore) -> Formula:
    """The conjunction of the guard's atoms, built once per store and guard
    value."""
    node = store.guard_formulas.get(guard)
    if node is None:
        f = store.true
        for _, fvs in guard.atoms:
            f = f & store.atom(fvs)
        node = store.guard_formulas[guard] = f.node
    return Formula(store, node)


class FilterRule(NamedTuple):
    guard: Guard
    action: str  # DROP | ACCEPT
    rule_id: int


class NatRule(NamedTuple):
    guard: Guard
    nat_field: str
    action: FieldValueSet  # non-empty, written without '!'
    rule_id: int


class Firewall(NamedTuple):
    name: str
    interfaces: tuple[str, ...]
    dnat: tuple[NatRule, ...]
    filter: tuple[FilterRule, ...]
    snat: tuple[NatRule, ...]
    routing: tuple[tuple[str, Guard], ...]  # interface -> guard, partial

    def routing_guard(self, interface: str) -> Guard | None:
        for i, g in self.routing:
            if i == interface:
                return g
        return None


class Zone(NamedTuple):
    name: str
    interface: str
    addr: FieldValueSet  # over the source-address field; rebind for d
    ports: FieldValueSet | None = None  # over sp, optional
    rest: bool = False  # declared as complement of all other zones


class Network:
    """A loaded network and a fresh formula store of its layout, which the
    network owns.  Networks are equal when their layouts, zones, firewalls
    and links are."""

    # _zone, _firewall, _node_of and _out_links are lookups built once from
    # the other fields
    __slots__ = ("layout", "zones", "firewalls", "links", "store",
                 "_zone", "_firewall", "_node_of", "_out_links")

    def __init__(
        self,
        layout: HeaderLayout,
        zones: tuple[Zone, ...],
        firewalls: tuple[Firewall, ...],
        links: tuple[tuple[str, str], ...],
    ):
        self.layout = layout
        self.zones = zones
        self.firewalls = firewalls
        self.links = links
        self.store = FormulaStore(layout)
        node_of = {z.interface: z.name for z in zones}
        for f in firewalls:
            node_of.update((i, f.name) for i in f.interfaces)
        out: dict[str, list[tuple[str, str, str]]] = {n: [] for n in self.node_names()}
        for i1, i2 in links:
            n1, n2 = node_of[i1], node_of[i2]
            out[n1].append((i1, i2, n2))
            out[n2].append((i2, i1, n1))
        self._zone = {z.name: z for z in zones}
        self._firewall = {f.name: f for f in firewalls}
        self._node_of = node_of
        self._out_links = {n: tuple(v) for n, v in out.items()}

    def _key(self) -> tuple:
        return self.layout, self.zones, self.firewalls, self.links

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    # -- topology helpers ---------------------------------------------------

    def zone(self, name: str) -> Zone:
        try:
            return self._zone[name]
        except KeyError:
            raise ConfigError(f"unknown zone {name!r}") from None

    def firewall(self, name: str) -> Firewall:
        try:
            return self._firewall[name]
        except KeyError:
            raise ConfigError(f"unknown firewall {name!r}") from None

    def node_names(self) -> tuple[str, ...]:
        return tuple(z.name for z in self.zones) + tuple(f.name for f in self.firewalls)

    def is_zone(self, name: str) -> bool:
        return name in self._zone

    def node_of(self, interface: str) -> str:
        try:
            return self._node_of[interface]
        except KeyError:
            raise ConfigError(f"interface {interface!r} belongs to no node") from None

    def out_links(self, node: str) -> tuple[tuple[str, str, str], ...]:
        """(own interface, peer interface, peer node) for each link at node."""
        return self._out_links.get(node, ())

    def zone_src_atom(self, zone: Zone) -> Formula:
        f = self.store.atom(zone.addr)
        if zone.ports is not None:
            f = f & self.store.atom(zone.ports)
        return f

    def zone_dst_atom(self, zone: Zone) -> Formula:
        return self.store.atom(FieldValueSet("d", zone.addr.ranges))


# ------------------------------------------------------------- loading

def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _string(raw, ctx: str) -> str:
    """A name from the configuration; only a JSON string is one."""
    if not isinstance(raw, str):
        try:
            shown = json.dumps(raw)
        except (TypeError, ValueError):  # a value that JSON has no form for
            shown = repr(raw)
        raise ConfigError(f"{ctx}: expected a string, got {shown}")
    return raw


def _objects(raw, ctx: str) -> list[dict]:
    _require(
        isinstance(raw, list) and all(isinstance(e, dict) for e in raw),
        f"{ctx}: expected an array of objects",
    )
    return raw


def _parse_layout(raw) -> HeaderLayout:
    if isinstance(raw, str):
        _require(raw in PRESET_LAYOUTS, f"unknown layout preset {raw!r}")
        return HeaderLayout(PRESET_LAYOUTS[raw])
    _require(isinstance(raw, list) and raw, "layout: expected preset name or field list")
    fields = []
    for entry in raw:
        _require(
            isinstance(entry, dict) and "name" in entry and "width" in entry,
            "layout: each field needs 'name' and 'width'",
        )
        width = entry["width"]
        _require(
            isinstance(width, int) and not isinstance(width, bool),
            f"layout: width of field {entry['name']!r} must be an integer",
        )
        fields.append((_string(entry["name"], "layout: field name"), width))
    total = sum(w for _, w in fields)
    _require(
        total <= MAX_HEADER_BITS,
        f"layout: {total}-bit headers exceed the limit of {MAX_HEADER_BITS} bits",
    )
    try:
        return HeaderLayout(tuple(fields))
    except PktsetError as e:
        raise ConfigError(f"layout: {e}") from None


def _parse_guard(raw, layout: HeaderLayout, ctx: str) -> Guard:
    _require(isinstance(raw, dict), f"{ctx}: guard must be an object")
    atoms = []
    for fname, text in raw.items():
        try:
            width = layout.width(fname)
        except UnknownFieldError:
            raise ConfigError(f"{ctx}: guard on unknown field {fname!r}") from None
        atoms.append((fname, parse_value_set(text, fname, width, f"{ctx}.{fname}")))
    atoms.sort(key=lambda a: layout.index(a[0]))
    return Guard(tuple(atoms))


def _explicit_rule_id(raw: dict, ctx: str) -> int | None:
    """The rule's own ``id``, or None when it has none.  Rules without one
    are numbered after the largest explicit id, in declaration order."""
    if "id" not in raw:
        return None
    rid = raw["id"]
    _require(
        isinstance(rid, int) and not isinstance(rid, bool),
        f"{ctx}: rule id must be an integer",
    )
    _require(rid >= 0, f"{ctx}: rule ids must be non-negative")
    return rid


def network_from_config(cfg: dict) -> Network:
    _require(isinstance(cfg, dict), "top level must be an object")
    schema = cfg.get("schema", SCHEMA_VERSION)
    _require(type(schema) is int and schema == SCHEMA_VERSION, "unsupported schema version")
    for key in ("layout", "zones", "firewalls", "links"):
        _require(key in cfg, f"missing top-level key {key!r}")

    layout = _parse_layout(cfg["layout"])
    for fname in ("s", "d"):
        _require(fname in layout.names(), f"layout must declare field {fname!r}")
    _require(
        layout.width("s") == layout.width("d"),
        "source and destination address fields must have equal width",
    )
    addr_width = layout.width("s")

    for key in ("zones", "firewalls", "links"):
        _require(
            isinstance(cfg[key], list)
            and all(isinstance(e, (dict, list)) for e in cfg[key]),
            f"{key!r} must be an array of objects",
        )
    _require(
        all(isinstance(e, dict) for e in cfg["zones"] + cfg["firewalls"]),
        "zones and firewalls must be objects",
    )

    # zones
    zones: list[Zone] = []
    rest_zone = None
    for zraw in cfg["zones"]:
        ctx = f"zones[{zraw.get('name', '?')}]"
        _require("name" in zraw and "interface" in zraw, f"{ctx}: needs name and interface")
        name = _string(zraw["name"], f"{ctx}.name")
        interface = _string(zraw["interface"], f"{ctx}.interface")
        rest = zraw.get("rest", False)
        _require(isinstance(rest, bool), f"{ctx}: rest must be true or false")
        if rest:
            _require(rest_zone is None, "only one rest-of-addresses zone allowed")
            _require("addr" not in zraw, f"{ctx}: rest zone must not declare addr")
            _require("ports" not in zraw, f"{ctx}: rest zone must not declare ports")
            rest_zone = (name, interface)
            zones.append(None)  # placeholder to keep declaration order
            continue
        _require("addr" in zraw, f"{ctx}: needs addr (or rest: true)")
        addr = parse_value_set(zraw["addr"], "s", addr_width, f"{ctx}.addr")
        _require(not zraw["addr"].lstrip().startswith("!"),
                 f"{ctx}: zone addr must be a positive range set")
        ports = None
        if "ports" in zraw:
            _require("sp" in layout.names(), f"{ctx}: ports given but layout has no sp field")
            ports = parse_value_set(zraw["ports"], "sp", layout.width("sp"), f"{ctx}.ports")
            _require(bool(ports.ranges), f"{ctx}: zone ports must be non-empty")
        zones.append(Zone(name, interface, addr, ports))
    if rest_zone is not None:
        others = FieldValueSet("s", [r for z in zones if z is not None for r in z.addr.ranges])
        rest_addr = FieldValueSet("s", complement_ranges(others.ranges, addr_width))
        _require(bool(rest_addr.ranges),
                 "rest zone would be empty: other zones cover all addresses")
        idx = zones.index(None)
        zones[idx] = Zone(*rest_zone, rest_addr, None, rest=True)
    _require(len({z.name for z in zones}) == len(zones), "duplicate zone names")

    # non-rest zone address sets must be pairwise disjoint
    seen: list[tuple[int, int, str]] = []
    for z in zones:
        if z.rest:
            continue
        for lo, hi in z.addr.ranges:
            for slo, shi, sname in seen:
                if lo <= shi and slo <= hi:
                    raise ConfigError(
                        f"zones {sname!r} and {z.name!r} have overlapping addresses"
                    )
            seen.append((lo, hi, z.name))

    # firewalls
    fw_specs = []
    for fraw in cfg["firewalls"]:
        ctx = f"firewalls[{fraw.get('name', '?')}]"
        _require("name" in fraw and "interfaces" in fraw, f"{ctx}: needs name and interfaces")
        name = _string(fraw["name"], f"{ctx}.name")
        _require(isinstance(fraw["interfaces"], list), f"{ctx}: interfaces must be an array")
        interfaces = tuple(_string(i, f"{ctx}.interfaces") for i in fraw["interfaces"])
        _require(len(set(interfaces)) == len(interfaces), f"{ctx}: duplicate interfaces")

        def nat_rules(key: str, writable: tuple[str, ...]):
            rules = []
            for k, rraw in enumerate(_objects(fraw.get(key, []), f"{ctx}.{key}")):
                rctx = f"{ctx}.{key}[{k}]"
                _require("field" in rraw and "to" in rraw, f"{rctx}: needs field and to")
                fname = _string(rraw["field"], f"{rctx}.field")
                _require(
                    fname in writable and fname in layout.names(),
                    f"{rctx}: {key} cannot write field {fname!r}",
                )
                action = parse_value_set(rraw["to"], fname, layout.width(fname), f"{rctx}.to")
                _require(
                    not rraw["to"].lstrip().startswith("!"),
                    f"{rctx}: NAT action must be a positive, non-empty range set",
                )
                guard = _parse_guard(rraw.get("guard", {}), layout, rctx)
                rules.append((_explicit_rule_id(rraw, rctx), guard, fname, action))
            return rules

        dnat = nat_rules("dnat", ("d", "dp"))

        filt = []
        for k, rraw in enumerate(_objects(fraw.get("filter", []), f"{ctx}.filter")):
            rctx = f"{ctx}.filter[{k}]"
            action = rraw.get("action")
            _require(action in (DROP, ACCEPT), f"{rctx}: action must be DROP or ACCEPT")
            guard = _parse_guard(rraw.get("guard", {}), layout, rctx)
            filt.append((_explicit_rule_id(rraw, rctx), guard, action))
        _require(bool(filt), f"{ctx}: filter table must be non-empty")
        _require(filt[-1][1].is_true(), f"{ctx}: missing default rule (last guard must be true)")

        snat = nat_rules("snat", ("s", "sp"))

        routing = []
        routing_raw = fraw.get("routing", {})
        _require(isinstance(routing_raw, dict), f"{ctx}: routing must be an object")
        for iface, graw in routing_raw.items():
            _require(iface in interfaces, f"{ctx}: routing for unknown interface {iface!r}")
            routing.append((iface, _parse_guard(graw, layout, f"{ctx}.routing[{iface}]")))

        fw_specs.append((name, interfaces, dnat, filt, snat, tuple(routing)))

    explicit = [rid for _, _, dnat, filt, snat, _ in fw_specs
                for rid, *_ in (*dnat, *filt, *snat) if rid is not None]
    _require(len(set(explicit)) == len(explicit), "duplicate explicit rule ids")
    auto_ids = itertools.count(max(explicit, default=0) + 1)

    def rule_id(rid: int | None) -> int:
        return next(auto_ids) if rid is None else rid

    # built in declaration order (dnat, filter, snat per firewall), which
    # numbers the rules without an explicit id
    firewalls = tuple(
        Firewall(
            name,
            interfaces,
            tuple(NatRule(g, f, a, rule_id(rid)) for rid, g, f, a in dnat),
            tuple(FilterRule(g, a, rule_id(rid)) for rid, g, a in filt),
            tuple(NatRule(g, f, a, rule_id(rid)) for rid, g, f, a in snat),
            routing,
        )
        for name, interfaces, dnat, filt, snat, routing in fw_specs
    )
    fw_names = {f.name for f in firewalls}
    _require(len(fw_names) == len(firewalls), "duplicate firewall names")
    clash = sorted({z.name for z in zones} & fw_names)
    _require(not clash, f"zones and firewalls share names: {', '.join(map(repr, clash))}")

    # interface ownership
    owner: dict[str, str] = {}
    for z in zones:
        _require(z.interface not in owner, f"interface {z.interface!r} declared twice")
        owner[z.interface] = z.name
    for f in firewalls:
        for i in f.interfaces:
            _require(i not in owner, f"interface {i!r} declared twice")
            owner[i] = f.name

    # links
    links: dict[tuple[str, str], None] = {}  # in order, each once
    for k, pair in enumerate(cfg["links"]):
        _require(
            isinstance(pair, list) and len(pair) == 2,
            f"links[{k}]: expected a 2-element interface pair",
        )
        i1, i2 = (_string(i, f"links[{k}]") for i in pair)
        _require(i1 in owner and i2 in owner, f"links[{k}]: unknown interface")
        _require(i1 != i2, f"links[{k}]: link must join two distinct interfaces")
        # a zone owns one interface, so only a firewall can own both
        _require(
            owner[i1] != owner[i2],
            f"links[{k}]: interfaces {i1!r} and {i2!r} belong to the same firewall",
        )
        key = tuple(sorted((i1, i2)))
        _require(key not in links, f"links[{k}]: duplicate link")
        links[key] = None

    linked = Counter(i for pair in links for i in pair)
    for z in zones:
        _require(
            linked[z.interface] == 1,
            f"zone {z.name!r} must appear in exactly one link",
        )

    # Every value set was checked against its own field's width when
    # parse_value_set read it, so loading builds no formula: the store stays
    # empty until an analysis asks for a guard or an atom.
    return Network(layout, tuple(zones), firewalls, tuple(links))


def load_network(text: str) -> Network:
    """Parse and validate a JSON network configuration document."""
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ConfigError("parse error: arrays or objects nested too deeply") from None
    return network_from_config(cfg)


def load_network_file(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    return load_network(text)


# ------------------------------------------------------------- rendering back

def _guard_to_config(guard: Guard, layout: HeaderLayout) -> dict:
    return {
        f: value_set_to_text(v, layout.width(f)) for f, v in guard.atoms
    }


def network_to_config(net: Network) -> dict:
    """Inverse of network_from_config (round-trips modulo rule-id assignment)."""
    layout_cfg = [{"name": n, "width": w} for n, w in net.layout.fields]
    for preset, fields in PRESET_LAYOUTS.items():
        if fields == net.layout.fields:
            layout_cfg = preset
            break
    zones_cfg = []
    for z in net.zones:
        zc: dict = {"name": z.name, "interface": z.interface}
        if z.rest:
            zc["rest"] = True
        else:
            zc["addr"] = value_set_to_text(z.addr, net.layout.width("s"))
            if z.ports is not None:
                zc["ports"] = value_set_to_text(z.ports, net.layout.width("sp"))
        zones_cfg.append(zc)
    fw_cfg = []
    for fw in net.firewalls:
        fw_cfg.append(
            {
                "name": fw.name,
                "interfaces": list(fw.interfaces),
                "dnat": [
                    {
                        "id": r.rule_id,
                        "guard": _guard_to_config(r.guard, net.layout),
                        "field": r.nat_field,
                        "to": value_set_to_text(r.action, net.layout.width(r.nat_field)),
                    }
                    for r in fw.dnat
                ],
                "filter": [
                    {
                        "id": r.rule_id,
                        "guard": _guard_to_config(r.guard, net.layout),
                        "action": r.action,
                    }
                    for r in fw.filter
                ],
                "snat": [
                    {
                        "id": r.rule_id,
                        "guard": _guard_to_config(r.guard, net.layout),
                        "field": r.nat_field,
                        "to": value_set_to_text(r.action, net.layout.width(r.nat_field)),
                    }
                    for r in fw.snat
                ],
                "routing": {
                    i: _guard_to_config(g, net.layout) for i, g in fw.routing
                },
            }
        )
    return {
        "schema": SCHEMA_VERSION,
        "layout": layout_cfg,
        "zones": zones_cfg,
        "firewalls": fw_cfg,
        "links": [list(pair) for pair in net.links],
    }


# ------------------------------------------------------------- initial values

def zone_departure_formula(net: Network, zone_name: str) -> Formula:
    """Headers a zone may emit: source address in the zone's set, source
    port in its range when one is declared, other fields free."""
    return net.zone_src_atom(net.zone(zone_name))

