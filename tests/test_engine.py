from __future__ import annotations

import gc
import json
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings

from brute import (
    reference_analyze,
    reference_misdelivery,
    reference_no_route,
    reference_render_value,
    reference_result_to_json,
    reference_result_to_text,
)
from helpers import analyze_lifo, guard_of, netgen, port_rest_network
from pktflow import engine
from pktflow.engine import (
    BOTTOM,
    VARIANTS,
    AbstractValue,
    EngineError,
    IterationCeilingExceeded,
    analyze,
    analyze_relations,
    default_iteration_ceiling,
    get_lattice,
)
from pktflow.gen import FIXTURES, fixture_text, random_network
from pktflow.netmodel import (
    Guard,
    guard_to_formula,
    load_network,
    network_from_config,
    parse_value_set,
)
from pktflow.pktset import Formula, FormulaStore
from pktflow.oracle import compare
from pktflow.policy import infer_policy
from pktflow.render import formula_to_text, render_value, result_to_json, result_to_text
from pktflow.xfer import AbstractPacket, firewall_tf, link_tf
from test_loader_fuzz import revalued_configs


@pytest.fixture
def fig3():
    return load_network(fixture_text("fig3.json"))


@pytest.fixture
def fig1():
    return load_network(fixture_text("fig1.json"))


def atom(net, field, text):
    return net.store.atom(parse_value_set(text, field, net.layout.width(field)))


DATA = Path(__file__).resolve().parent / "data"


def network_text(name: str) -> str:
    path = DATA / name
    return path.read_text(encoding="utf-8") if path.exists() else fixture_text(name)


# ------------------------------------------------------------- lattice/join

def test_unknown_variant(fig3):
    with pytest.raises(EngineError):
        get_lattice("v3", fig3)


@pytest.mark.parametrize("variant", ["v1", "v2", "ia"])
def test_join_bottom_identity(fig3, variant):
    lat = get_lattice(variant, fig3)
    x = lat.join(lat.initial("Z1"))
    assert lat.join([*x.packets, *BOTTOM.packets]) == x
    assert lat.join([*BOTTOM.packets, *x.packets]) == x
    assert lat.join([*BOTTOM.packets, *BOTTOM.packets]).is_bottom()


def test_v2_join_merges_same_key(fig3):
    lat = get_lattice("v2", fig3)
    orig = atom(fig3, "s", "10.192.29.1-255")
    c1 = atom(fig3, "d", "1.2.3.4")
    c2 = atom(fig3, "d", "5.6.7.8")
    v = lat.join([AbstractPacket(c1, orig, 0), AbstractPacket(c2, orig, 0)])
    assert len(v.packets) == 1
    assert v.packets[0].curr == c1 | c2
    assert v.packets[0].orig == orig


def test_v2_join_keeps_distinct_masks_apart(fig3):
    lat = get_lattice("v2", fig3)
    orig = atom(fig3, "s", "10.192.29.1-255")
    c = atom(fig3, "d", "1.2.3.4")
    v = lat.join([AbstractPacket(c, orig, 0), AbstractPacket(c, orig, 1)])
    assert len(v.packets) == 2


def test_v1_join_is_logical_or(fig3):
    lat = get_lattice("v1", fig3)
    a, b = atom(fig3, "s", "1.1.1.1"), atom(fig3, "s", "2.2.2.2")
    v = lat.join([AbstractPacket(a), AbstractPacket(b)])
    assert len(v.packets) == 1 and v.packets[0].curr == a | b


def test_ia_join_is_per_field_or(fig3):
    lat = get_lattice("ia", fig3)
    p1 = lat.refine_match(lat.initial("Z1")[0], guard_of(fig3.layout, d="1.1.1.1"))
    p2 = lat.refine_match(lat.initial("Z2")[0], guard_of(fig3.layout, d="2.2.2.2"))
    v = lat.join([p1, p2])
    (p,) = v.packets
    assert p.curr.extract_field("s") == (
        atom(fig3, "s", "10.192.29.1-255") | atom(fig3, "s", "10.192.28.1-255")
    )
    assert p.curr.extract_field("d") == (
        atom(fig3, "d", "1.1.1.1") | atom(fig3, "d", "2.2.2.2")
    )


@pytest.mark.parametrize("variant", ["v1", "v2", "ia"])
def test_value_equals_basics(fig3, variant):
    lat = get_lattice(variant, fig3)
    assert BOTTOM == BOTTOM
    x = lat.join(lat.initial("Z1"))
    y = lat.join(lat.initial("Z1"))
    assert x == y
    assert x != BOTTOM


def test_v1_value_equals_is_semantic(fig3):
    lat = get_lattice("v1", fig3)
    a, b = atom(fig3, "s", "1.1.1.1"), atom(fig3, "s", "2.2.2.2")
    x = lat.join([AbstractPacket(a), AbstractPacket(b)])
    y = lat.join([AbstractPacket(b), AbstractPacket(a)])
    assert x == y


def test_v2_value_equals_detects_curr_change(fig3):
    lat = get_lattice("v2", fig3)
    orig = atom(fig3, "s", "10.192.29.1-255")
    x = lat.join([AbstractPacket(atom(fig3, "d", "1.1.1.1"), orig, 0)])
    y = lat.join([AbstractPacket(atom(fig3, "d", "2.2.2.2"), orig, 0)])
    assert x != y


def test_v2_plan_reduces_guard(fig3):
    layout, lat = fig3.layout, get_lattice("v2", fig3)
    g = guard_of(layout, s="10.192.29.1-255", d="209.85.153.85")
    s_bit = 1 << layout.index("s")
    reduced = lat._plan(g, s_bit)[2]
    assert reduced.fields() == ("d",)
    assert lat._plan(g, 0)[2] == g
    only_s = guard_of(layout, s="10.192.29.1-255")
    assert lat._plan(only_s, s_bit)[2].is_true()


def test_v2_plan_reduced_guard_distributes(fig3):
    layout, store, lat = fig3.layout, fig3.store, get_lattice("v2", fig3)
    g = guard_of(layout, s="10.0.0.0/8", d="!1.2.3.4")
    for mask in range(4):
        kept = lat._plan(g, mask)[2]
        removed = Guard(tuple(a for a in g.atoms if a not in kept.atoms))
        assert guard_to_formula(kept, store) & guard_to_formula(removed, store) == guard_to_formula(g, store)


# ------------------------------------------------------------- analyze

def test_fig3_v2_reproduces_published_values(fig3):
    res = analyze(fig3, "Z1", "v2")
    z1 = atom(fig3, "s", "10.192.29.1-255")
    pool = atom(fig3, "s", "202.67.34.6-10")
    z2_d = atom(fig3, "d", "10.192.28.1-255")

    (p1,) = res.facts["Z1"].packets  # initial value only, no hairpin
    assert p1.curr == z1 and p1.orig == z1 and p1.nated == 0

    (p2,) = res.facts["Z2"].packets
    assert p2.curr == pool & z2_d
    assert p2.orig == z1 & z2_d
    assert p2.nated == 1 << fig3.layout.index("s")

    assert res.facts["Z3"].is_bottom()

    excluded = (
        atom(fig3, "d", "10.192.28.1-255")
        | atom(fig3, "d", "10.192.29.1-255")
        | atom(fig3, "d", "209.85.153.85")
        | atom(fig3, "d", "202.65.23.2")
    )
    (p4,) = res.facts["Z4"].packets
    assert p4.curr == pool & ~excluded
    assert p4.orig == z1 & ~excluded

    assert res.ledger[1] == z1 & atom(fig3, "d", "209.85.153.85")
    assert res.ledger[5] == z1 & atom(fig3, "d", "202.65.23.2")
    assert list(res.ledger) == [1, 5]
    assert not res.misdelivered


def test_fig1_cycle_reaches_z2(fig1):
    res = analyze(fig1, "Z1", "v2")
    assert not res.facts["Z2"].is_bottom()
    (p,) = res.facts["Z2"].packets
    assert p.curr == atom(fig1, "s", "198.51.100.1") & atom(fig1, "d", "10.1.2.1-255")
    assert p.orig == atom(fig1, "s", "10.1.1.1-255") & atom(fig1, "d", "10.1.2.1-255")


def test_unknown_origin(fig3):
    with pytest.raises(EngineError):
        analyze(fig3, "F1", "v2")
    with pytest.raises(EngineError):
        analyze(fig3, "Z9", "v2")


def test_iteration_ceiling(fig1, monkeypatch):
    assert default_iteration_ceiling(fig1) > 0
    monkeypatch.setattr(engine, "default_iteration_ceiling", lambda net: 1)
    with pytest.raises(IterationCeilingExceeded):
        analyze(fig1, "Z1", "v2")


@pytest.mark.parametrize("variant", ["v1", "v2", "ia"])
def test_monotone_growth_at_every_update(fig1, variant):
    # the observer sees the class values, in the class network's store
    def union_curr(value):
        acc = value.packets[0].curr
        for p in value.packets:
            acc = acc | p.curr
        return acc

    def check(node, old, new):
        if old.packets:
            assert union_curr(old).implies(union_curr(new))
        if variant == "v2":
            old_keys = {(p.orig.node, p.nated) for p in old.packets}
            new_keys = {(p.orig.node, p.nated) for p in new.packets}
            assert old_keys <= new_keys

    analyze(fig1, "Z1", variant, observer=check)


def assert_one_fixpoint(net, a, b):
    """Two runs reached one fixpoint: equal facts at every node, and equal
    drop ledgers and diagnostics, which are read off the fixpoint."""
    for node in net.node_names():
        assert a.facts[node] == b.facts[node], node
    assert a.ledger == b.ledger
    assert a.misdelivered == b.misdelivered
    assert a.no_route == b.no_route


@pytest.mark.parametrize("variant", ["v1", "v2", "ia"])
@pytest.mark.parametrize(
    "fixture", ["fig1.json", "fig3.json", "fig1-small.json", "fig3-small.json"]
)
def test_fifo_lifo_agree_on_fixtures(fixture, variant):
    net = load_network(fixture_text(fixture))
    assert_one_fixpoint(net, analyze(net, "Z1", variant), analyze_lifo(net, "Z1", variant))


@pytest.mark.parametrize("seed", range(3000, 3030))
def test_fifo_lifo_agree_on_random_nets(seed):
    cfg, origin = random_network(seed)
    net = network_from_config(cfg)
    for variant in ("v1", "v2", "ia"):
        assert_one_fixpoint(net, analyze(net, origin, variant),
                            analyze_lifo(net, origin, variant))


# every zone and variant of the generated rings and mesh, where the two
# orders take different numbers of expansions to one fixpoint
ORDER_CASES = [
    (name, zone["name"], variant)
    for name in ("mesh-6x8-1.json", "ring-4x4-1.json", "ring-4x4-2.json", "ring-4x4-3.json")
    for zone in json.loads(network_text(name))["zones"]
    for variant in VARIANTS
]


@pytest.mark.parametrize("name, origin, variant", ORDER_CASES)
def test_fifo_lifo_reach_one_fixpoint_by_different_paths(name, origin, variant):
    net = load_network(network_text(name))
    a = analyze(net, origin, variant)
    b = analyze_lifo(net, origin, variant)
    assert a.stats.iterations != b.stats.iterations
    assert_one_fixpoint(net, a, b)


def test_stats_populated(fig3):
    res = analyze(fig3, "Z1", "v2")
    assert res.stats.iterations >= 1
    assert res.stats.joins >= 1
    assert res.stats.wall_time_s >= 0.0


def test_no_route_diagnostic_on_fig3(fig3):
    res = analyze(fig3, "Z1", "v2")
    # SNATed traffic addressed back into the origin zone has no route out
    assert set(res.no_route) == {"F1"}
    leftover = res.no_route["F1"]
    assert leftover == atom(fig3, "s", "202.67.34.6-10") & atom(fig3, "d", "10.192.29.1-255")


MISDELIVERY_NET = {
    "layout": [{"name": "s", "width": 3}, {"name": "d", "width": 3}],
    "zones": [
        {"name": "A", "interface": "a", "addr": "0-3"},
        {"name": "B", "interface": "b", "addr": "4-5"},
    ],
    "firewalls": [
        {
            "name": "F",
            "interfaces": ["fa", "fb"],
            "filter": [{"guard": {}, "action": "ACCEPT"}],
            "routing": {"fb": {"d": "4-7"}},  # also routes 6-7, outside B
        }
    ],
    "links": [["a", "fa"], ["b", "fb"]],
}


def test_misdelivery_diagnostic():
    net = network_from_config(MISDELIVERY_NET)
    res = analyze(net, "A", "v2")
    assert set(res.misdelivered) == {"B"}
    assert res.misdelivered["B"] == atom(net, "s", "0-3") & atom(net, "d", "6-7")


# ------------------------------------------------- packet-by-packet diagnostics

def union_first_diagnostics(net, origin, variant):
    """Analyze, and rebuild the diagnostics from unions
    (``brute.reference_no_route``, ``brute.reference_misdelivery``) over
    the packets that each one covers: the firewall survivors in the
    ``emitted`` that ``_diagnostics`` receives, and every packet that a link
    transfer of the worklist loop delivers into a zone.  The transfers that
    ``_diagnostics`` sends again are not arrivals, so the references see
    every arrival of the run and not the latest emissions alone."""
    arrivals = {z.name: [] for z in net.zones}
    seen = {}

    def spy_link(net, node, interface, pset, lat):
        out = link_tf(net, node, interface, pset, lat)
        if "emitted" not in seen:
            for own, _, peer in net.out_links(node):
                if own == interface and peer in arrivals:
                    arrivals[peer].extend(out)
        return out

    def spy_diagnostics(lattice, emitted):
        seen["lat"], seen["emitted"] = lattice, emitted
        return diagnostics(lattice, emitted)

    diagnostics = engine._diagnostics
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "link_tf", spy_link)
        mp.setattr(engine, "_diagnostics", spy_diagnostics)
        res = analyze(net, origin, variant)
    # the analysis ran on the class network; so do the references
    lat = seen["lat"]
    classes = lat.net
    survivors = {n: v for n, v in seen["emitted"].items() if not classes.is_zone(n)}
    return res, reference_no_route(classes, lat, survivors), \
        reference_misdelivery(classes, lat, arrivals)


def assert_diagnostics_equal_union_first(net, origin) -> set:
    """Every variant's diagnostics equal the union-first ones; returns the
    (variant, diagnostic, node) of each that is not empty."""
    found = set()
    for variant in ("v1", "v2", "ia"):
        res, no_route, misdelivered = union_first_diagnostics(net, origin, variant)
        assert res.classes.no_route == no_route
        assert res.classes.misdelivered == misdelivered
        found |= {(variant, "no_route", n) for n in no_route}
        found |= {(variant, "misdelivered", z) for z in misdelivered}
    return found


def test_diagnostics_equal_union_first_on_random_networks():
    found = set()
    for seed in range(100):
        cfg, origin = random_network(seed)
        found |= assert_diagnostics_equal_union_first(network_from_config(cfg), origin)
    assert {kind for _, kind, _ in found} == {"no_route", "misdelivered"}


def test_diagnostics_equal_union_first_on_port_rest_networks():
    found = set()
    for seed in range(20):
        net = network_from_config(port_rest_network(seed))
        for zone in net.zones:
            found |= assert_diagnostics_equal_union_first(net, zone.name)
    assert {kind for _, kind, _ in found} == {"no_route", "misdelivered"}


@settings(max_examples=50, deadline=None)
@given(revalued_configs())
def test_diagnostics_equal_union_first_on_revalued_configs(doc):
    net = network_from_config(doc)
    for zone in net.zones:
        assert_diagnostics_equal_union_first(net, zone.name)


# an origin linked straight to another zone, which no generator produces
ZONE_TO_ZONE_NET = {
    "layout": [{"name": "s", "width": 3}, {"name": "d", "width": 3}],
    "zones": [
        {"name": "A", "interface": "a", "addr": "0-3"},
        {"name": "B", "interface": "b", "addr": "4-5"},
    ],
    "firewalls": [],
    "links": [["a", "b"]],
}


def test_diagnostics_equal_union_first_on_fixed_cases(fig3):
    variants = ("v1", "v2", "ia")
    found = assert_diagnostics_equal_union_first(fig3, "Z1")
    assert found == {(v, "no_route", "F1") for v in variants}
    # the network of test_cli's misdelivery exit test
    found = assert_diagnostics_equal_union_first(network_from_config(MISDELIVERY_NET), "A")
    assert {x for x in found if x[1] == "misdelivered"} == {
        (v, "misdelivered", "B") for v in variants}
    # the origin's departure is the only emission that reaches B
    net = network_from_config(ZONE_TO_ZONE_NET)
    found = assert_diagnostics_equal_union_first(net, "A")
    assert found == {(v, "misdelivered", "B") for v in variants}
    for variant in variants:
        rep = compare(net, "A", variant)  # what ``pktflow check`` reports
        assert all(d.status == "equal" for d in rep.nodes), variant
        assert rep.result.misdelivered["B"] == atom(net, "s", "0-3") & ~atom(net, "d", "4-5")


IA_STRICT_NET = {
    "layout": [{"name": "s", "width": 3}, {"name": "d", "width": 3}],
    "zones": [
        {"name": "A", "interface": "a", "addr": "0-3"},
        {"name": "B", "interface": "b", "addr": "4-7"},
    ],
    "firewalls": [
        {
            "name": "F",
            "interfaces": ["fa", "fb"],
            "filter": [
                {"guard": {"s": "1-2", "d": "5-6"}, "action": "DROP"},
                {"guard": {}, "action": "ACCEPT"},
            ],
            "routing": {"fb": {"d": "4-7"}},
        }
    ],
    "links": [["a", "fa"], ["b", "fb"]],
}


def test_ia_multi_field_negation_loses_precision():
    net = network_from_config(IA_STRICT_NET)
    v1 = analyze(net, "A", "v1")
    ia = analyze(net, "A", "ia")
    lat_v1 = get_lattice("v1", net)
    lat_ia = get_lattice("ia", net)
    exact = lat_v1.curr_of(v1.facts["B"].packets[0])
    approx = lat_ia.curr_of(ia.facts["B"].packets[0])
    assert exact.implies(approx)
    assert not approx.implies(exact)  # the dropped corner is retained
    dropped_corner = atom(net, "s", "1-2") & atom(net, "d", "5-6")
    assert not (approx & dropped_corner).is_empty()
    assert (exact & dropped_corner).is_empty()


# ------------------------------------------------- per-firewall survivor memo

def assert_per_packet_runs_equal_one_run(net, origin, variant):
    """The premise of the engine's survivor memo: one table run over a
    value's packets equals the per-packet runs.  The joins and the ledgers
    are equal."""
    facts = analyze(net, origin, variant).facts
    lat = get_lattice(variant, net)
    for fw in net.firewalls:
        packets = facts[fw.name].packets
        whole: dict = {}
        one = firewall_tf(fw, packets, whole, lat)
        apart: dict = {}
        runs = [s for p in packets for s in firewall_tf(fw, [p], apart, lat)]
        assert lat.join(one) == lat.join(runs)
        assert apart == whole


@pytest.mark.parametrize("variant", ["v2", "ia"])
@pytest.mark.parametrize("seed", range(0, 60, 20))
def test_survivor_memo_premise_on_random_networks(seed, variant):
    for s in range(seed, seed + 20):
        cfg, origin = random_network(s)
        assert_per_packet_runs_equal_one_run(network_from_config(cfg), origin, variant)


@pytest.mark.parametrize("variant", ["v2", "ia"])
@pytest.mark.parametrize("seed", range(0, 30, 10))
def test_survivor_memo_premise_on_port_rest_networks(seed, variant):
    for s in range(seed, seed + 10):
        net = network_from_config(port_rest_network(s))
        for zone in net.zones:
            assert_per_packet_runs_equal_one_run(net, zone.name, variant)


# ------------------------------------------------------- node creation

# The node count of the store an analysis grows, the class network's, after
# one analysis from each zone.  The counts guard the store work an analysis
# does, not output order: a change that adds a node-creating operation, or
# drops one, moves them even when every rendered fact stays the same.
STORE_NODES = {
    ("ring-4x4-1.json", "v2"): {"Z0": 3974, "Z1": 4192, "Z2": 3868, "Z3": 3710, "REST": 4420},
    ("ring-4x4-2.json", "v2"): {"Z0": 3891, "Z1": 3765, "Z2": 4310, "Z3": 4539, "REST": 4451},
    ("ring-4x4-3.json", "v2"): {"Z0": 4355, "Z1": 4258, "Z2": 4251, "Z3": 3179, "REST": 4010},
    ("fig1.json", "v1"): {"Z1": 89, "Z2": 96},
    ("fig1.json", "ia"): {"Z1": 89, "Z2": 97},
    ("fig1.json", "v2"): {"Z1": 91, "Z2": 96},
    ("fig3.json", "v1"): {"Z1": 122, "Z2": 128, "Z3": 115, "Z4": 132},
    ("fig3.json", "ia"): {"Z1": 118, "Z2": 123, "Z3": 131, "Z4": 148},
    ("fig3.json", "v2"): {"Z1": 134, "Z2": 135, "Z3": 104, "Z4": 132},
    ("mesh-6x8-1.json", "v1"): {"Z0": 1300, "Z1": 1399, "Z2": 1155, "Z3": 1481, "Z4": 1383,
                                "Z5": 1181, "REST": 1007},
}


@pytest.mark.parametrize("name, variant", sorted(STORE_NODES))
def test_analysis_creates_the_same_store_nodes(name, variant):
    text = network_text(name)
    got = {}
    for zone in load_network(text).zones:
        net = load_network(text)
        got[zone.name] = analyze(net, zone.name, variant).classes.net.store.node_count()
    assert got == STORE_NODES[(name, variant)]


def test_class_store_size_does_not_depend_on_the_seed():
    # netgen relabels every seed's addresses and ports by XOR, which moves
    # where the classes lie but not how many there are or how they nest;
    # numbering along aligned value blocks keeps the class store near one
    # size (dense numbering: 6,462 to 10,545 nodes)
    sizes = []
    for seed in range(16):
        net = network_from_config(netgen.mesh(8, 16, 4, seed))
        sizes.append(analyze(net, "Z0", "v1").classes.net.store.node_count())
    assert max(sizes) <= 1.1 * min(sizes), sizes


def test_releasing_the_computed_tables_builds_nothing(monkeypatch):
    # _propagate empties the lattice store's computed tables at the fixpoint
    # and after each firewall's drops, and analyze after its diagnostics;
    # never doing so, or doing so after every join as well, creates the
    # same nodes and changes no byte
    cases = [(name, variant) for name in FIXTURES for variant in VARIANTS]
    cases.append(("mesh-6x8-1.json", "v1"))

    def run() -> list:
        out = []
        for name, variant in cases:
            text = network_text(name)
            for zone in load_network(text).zones:
                net = load_network(text)
                result = analyze(net, zone.name, variant)
                out.append((result.classes.net.store.node_count(), result_to_text(result, net)))
        for name in FIXTURES:
            net = load_network(fixture_text(name))
            for zone in net.zones:
                summary = infer_policy(net, zone.name)
                out.append((net.store.node_count(),
                            formula_to_text(summary.accept, net.layout),
                            formula_to_text(summary.reject, net.layout)))
        return out

    shipped = run()
    with monkeypatch.context() as mp:
        mp.setattr(FormulaStore, "clear_computed", lambda self: None)
        assert run() == shipped
    released = Counter()
    # RelationalLattice joins as V1Lattice does
    for lattice in (engine.V1Lattice, engine.V2Lattice, engine.IALattice):
        def join(self, packets, join=lattice.join):
            value = join(self, packets)
            self.store.clear_computed()
            released[self.variant] += 1
            return value
        monkeypatch.setattr(lattice, "join", join)
    assert run() == shipped
    assert set(released) == {"v1", "v2", "ia"}


def test_an_analysis_leaves_its_computed_tables_empty():
    mesh = load_network(network_text("mesh-6x8-1.json"))
    result = analyze(mesh, "Z0", "v1")
    ring = load_network(network_text("ring-4x4-1.json"))
    lattice, _, ledger, _ = analyze_relations(ring, "Z0")
    assert result.classes.ledger and ledger
    for store in (result.classes.net.store, lattice.store):
        # the child lists and the unique table, then the &, | and ~ tables
        _, _, uniq, *computed = store._tables
        assert len(uniq) == store.node_count() - 2
        assert [len(t) for t in computed] == [0, 0, 0]


# ------------------------------------------------------------- class space

def class_space_cases():
    """(label, network) for the fixtures, ``tests/data``, and
    ``random_network`` and ``port_rest_network`` seeds 0-59."""
    for name in FIXTURES:
        yield name, load_network(fixture_text(name))
    for path in sorted(p for p in DATA.glob("*.json") if p.name != "cli_golden.json"):
        yield path.name, load_network(path.read_text(encoding="utf-8"))
    for seed in range(60):
        yield f"random {seed}", network_from_config(random_network(seed)[0])
        yield f"port-rest {seed}", network_from_config(port_rest_network(seed))


def json_bytes(result, net, to_json=result_to_json) -> str:
    doc = to_json(result, net, "net")
    doc["stats"]["wall_time_s"] = 0
    return json.dumps(doc)


def test_class_space_analysis_equals_value_space_reference():
    seen = Counter()
    for label, net in class_space_cases():
        for variant in VARIANTS:
            for zone in net.zones:
                case = (label, variant, zone.name)
                got = analyze(net, zone.name, variant)
                want = reference_analyze(net, zone.name, variant)
                # rendering reads class space and expands nothing
                assert result_to_text(got, net) == result_to_text(want, net), case
                assert json_bytes(got, net) == json_bytes(want, net), case
                assert (got.stats.iterations, got.stats.joins) == (
                    want.stats.iterations, want.stats.joins), case
                assert got.facts == want.facts, case
                assert got.ledger == want.ledger, case
                assert got.misdelivered == want.misdelivered, case
                assert got.no_route == want.no_route, case
                seen["narrowed" if got.classes.net is not net else "identity"] += 1
                seen["misdelivered"] += bool(got.misdelivered)
                seen["no_route"] += bool(got.no_route)
                # one accumulator: only non-empty entries, the ledger by rule id
                classes = got.classes
                for entries in (classes.ledger, classes.misdelivered, classes.no_route):
                    assert not any(f.is_empty() for f in entries.values()), case
                assert list(classes.ledger) == sorted(classes.ledger), case
    assert sum(seen[k] for k in ("narrowed", "identity")) == 1083
    assert all(seen[k] for k in ("narrowed", "identity", "misdelivered", "no_route")), seen


def test_rendering_equals_packet_by_packet_reference():
    # one memo of node views serves every node of a result
    ties = 0
    for label, net in class_space_cases():
        for variant in VARIANTS:
            for zone in net.zones:
                case = (label, variant, zone.name)
                result = analyze(net, zone.name, variant)
                assert result_to_text(result, net) == reference_result_to_text(result, net), case
                assert json_bytes(result, net) == json_bytes(
                    result, net, reference_result_to_json), case
                classes, views = result.classes, {}
                for node in net.node_names():
                    value = classes.facts[node]
                    got = render_value(value, net, classes.starts, views)
                    assert got == reference_render_value(value, net, classes.starts), case
                    keys = [(str(p.orig), p.nated, str(p.curr)) for p in got]
                    ties += sum(a == b for a, b in zip(keys, keys[1:]))
    assert ties  # the 4x4 rings print tied packets in packet order


@pytest.mark.parametrize("run", ["analyze", "infer_policy"])
def test_class_space_runs_take_the_value_ceiling(monkeypatch, run):
    nets = []
    ceiling = engine.default_iteration_ceiling

    def recording_ceiling(net):
        nets.append(net)
        return ceiling(net)

    monkeypatch.setattr(engine, "default_iteration_ceiling", recording_ceiling)
    net = load_network(fixture_text("fig3.json"))
    if run == "analyze":
        result = analyze(net, "Z1", "v2")
        assert result.classes.net.layout.total_bits == 8
    else:
        infer_policy(net, "Z1")
    assert [n.layout.total_bits for n in nets] == [64]


def test_class_store_dies_with_its_result():
    # as in test_policy's store test: no reference cycle keeps a store alive
    net = load_network(fixture_text("fig3.json"))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = analyze(net, "Z1", "v2")
        # the views expanded
        assert list(result.facts.values()) and list(result.ledger.values())
        store = weakref.ref(result.classes.net.store)
        assert store() is not net.store
        del result
        assert store() is None
    finally:
        if was_enabled:
            gc.enable()


def test_rendering_builds_no_value_formula():
    net = load_network(fixture_text("fig3.json"))
    loaded = net.store.node_count()
    for zone in net.zones:
        for variant in VARIANTS:
            result = analyze(net, zone.name, variant)
            result_to_text(result, net)
            result_to_json(result, net, "fig3.json")
            assert net.store.node_count() == loaded, (zone.name, variant)


def test_value_views_are_expanded_once(monkeypatch):
    net = load_network(fixture_text("fig3.json"))
    result = analyze(net, "Z1", "v2")
    for view in ("facts", "ledger", "misdelivered", "no_route"):
        assert getattr(result, view) is getattr(result, view), view
    reference = reference_analyze(net, "Z1", "v2")
    want, wants = dict(reference.facts), {"ledger": dict(reference.ledger),
                                          "no_route": dict(reference.no_route)}
    expanded = []
    expand = Formula.expand
    monkeypatch.setattr(Formula, "expand", lambda f, *args: expanded.append(f) or expand(f, *args))
    facts = result.facts
    assert len(facts) == len(net.node_names()) and "Z2" in facts and "X" not in facts
    assert list(facts) == list(result.classes.facts) and not expanded
    # a node's packets expand when that node is read, and only then
    packets = result.classes.facts["Z2"].packets
    assert facts["Z2"] is facts["Z2"]
    assert expanded == [f for p in packets for f in (p.curr, p.orig)]
    assert facts == want
    assert len(expanded) == sum(2 * len(v.packets) for v in result.classes.facts.values())
    # so does a rule's drop entry, or a firewall's no-route entry
    assert list(result.classes.ledger) == [1, 5] and list(result.classes.no_route) == ["F1"]
    for view, key in (("ledger", 5), ("no_route", "F1")):
        entries, classes = getattr(result, view), getattr(result.classes, view)
        expanded.clear()
        assert list(entries) == list(classes) and key in entries and not expanded
        assert entries[key] is entries[key]
        assert expanded == [classes[key]]
        assert entries == wants[view]
        assert len(expanded) == len(classes)
