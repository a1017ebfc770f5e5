from __future__ import annotations

import itertools
from bisect import bisect_right

import pytest

from brute import reference_simulate, with_value
from helpers import cycle_required_hops, port_rest_network
from pktflow import oracle
from pktflow.engine import BOTTOM, analyze, analyze_relations, get_lattice
from pktflow.gen import (
    FIXTURES,
    cycle_network,
    fixture_text,
    random_network,
)
from pktflow.netmodel import load_network, network_from_config, parse_value_set
from pktflow.pktset import FieldValueSet
from pktflow.oracle import (
    WidthGuardExceeded,
    compare,
    concretize,
    concretize_currs,
    concretize_pairs,
    simulate,
)
from pktflow.xfer import AbstractPacket


@pytest.fixture
def small3():
    return load_network(fixture_text("fig3-small.json"))


@pytest.fixture
def small1():
    return load_network(fixture_text("fig1-small.json"))


def atom(net, field, text):
    return net.store.atom(parse_value_set(text, field, net.layout.width(field)))


# ------------------------------------------------------------- simulate

def test_simulate_small3_basics(small3):
    sim = simulate(small3, "Z1")
    assert sim.pairs("Z3") == set()
    assert sim.pairs("Z2")
    assert set(sim.per_rule_dropped) == {1, 5}
    # rule 1 drops (s in 8-11, d=3): four originals
    assert sim.per_rule_dropped[1] == {
        (s << 4) | 3 for s in range(8, 12)
    }
    assert not sim.misdelivered
    assert sim.states_explored > 0


def test_simulate_conservation_small3(small3):
    sim = simulate(small3, "Z1")
    accounted = set()
    for z in small3.zones:
        accounted |= sim.origs(z.name) if z.name != "Z1" else set()
    for origs in sim.per_rule_dropped.values():
        accounted |= origs
    accounted |= {o for _, _, o in sim.no_route}
    assert accounted == sim.initial


def test_simulate_is_deterministic(small3):
    a = simulate(small3, "Z1")
    b = simulate(small3, "Z1")
    assert a.per_node == b.per_node
    assert a.per_rule_dropped == b.per_rule_dropped
    assert a.no_route == b.no_route


def test_simulate_hop_limits_on_cycle(small1):
    assert simulate(small1, "Z1", max_hops=3).pairs("Z2") == set()
    assert simulate(small1, "Z1", max_hops=4).pairs("Z2")
    unbounded = simulate(small1, "Z1")
    assert simulate(small1, "Z1", max_hops=4).pairs("Z2") == unbounded.pairs("Z2")


def test_simulate_width_guard():
    net = load_network(fixture_text("fig3.json"))  # 64-bit headers
    with pytest.raises(WidthGuardExceeded):
        simulate(net, "Z1")
    small = load_network(fixture_text("fig3-small.json"))
    with pytest.raises(WidthGuardExceeded):
        simulate(small, "Z1", max_width=4)


DEAD_END_NET = {
    "layout": [{"name": "s", "width": 3}, {"name": "d", "width": 3}],
    "zones": [
        {"name": "A", "interface": "a", "addr": "0-3"},
        {"name": "B", "interface": "b", "addr": "4-7"},
    ],
    "firewalls": [
        {
            "name": "F",
            "interfaces": ["fa", "fb"],
            "filter": [{"guard": {}, "action": "ACCEPT"}],
            "routing": {},  # no interface ever routes
        }
    ],
    "links": [["a", "fa"], ["b", "fb"]],
}


def test_simulate_dead_end_reaches_no_other_zone():
    net = network_from_config(DEAD_END_NET)
    sim = simulate(net, "A")
    assert sim.pairs("B") == set()
    assert sim.pairs("A") == {(h, h) for h in sim.initial}
    assert sim.no_route  # everything piles up at F
    res = analyze(net, "A", "v2")
    assert res.facts["B"].is_bottom()
    assert set(res.no_route) == {"F"}


# ------------------------------------------------------------- concretize

def test_concretize_bottom(small3):
    assert concretize(BOTTOM, "v2", small3) == set()
    assert concretize(BOTTOM, "v1", small3) == set()


def test_concretize_pair_product_respects_mask(small3):
    d_bit = 1 << small3.layout.index("d")
    curr = atom(small3, "s", "9") & (atom(small3, "d", "4") | atom(small3, "d", "5"))
    orig = atom(small3, "s", "9") & atom(small3, "d", "2")
    value = get_lattice("v2", small3).join([AbstractPacket(curr, orig, d_bit)])
    pairs = concretize_pairs(value, small3)
    # two currs, one orig, s agrees: exactly two pairs
    assert pairs == {((9 << 4) | 4, (9 << 4) | 2), ((9 << 4) | 5, (9 << 4) | 2)}


def test_concretize_pair_mask_filters_disagreement(small3):
    # same formulas but nothing NATed: curr/orig must agree everywhere
    curr = atom(small3, "s", "9") & (atom(small3, "d", "4") | atom(small3, "d", "5"))
    orig = atom(small3, "s", "9") & atom(small3, "d", "4")
    value = get_lattice("v2", small3).join([AbstractPacket(curr, orig, 0)])
    assert concretize_pairs(value, small3) == {((9 << 4) | 4, (9 << 4) | 4)}


def test_concretize_matches_oracle_at_z2(small3):
    res = analyze(small3, "Z1", "v2")
    sim = simulate(small3, "Z1")
    assert concretize_pairs(res.facts["Z2"], small3) == sim.pairs("Z2")


def test_concretize_currs_ia_is_product(small3):
    res = analyze(small3, "Z1", "ia")
    got = concretize_currs(res.facts["Z2"], small3)
    assert got  # non-empty product of the per-field sets
    sim = simulate(small3, "Z1")
    assert got >= sim.currs("Z2")


@pytest.mark.parametrize("variant", ["v1", "ia"])
def test_concretize_join_distributes(small3, variant):
    lat = get_lattice(variant, small3)
    res = analyze(small3, "Z1", variant)
    a, b = res.facts["Z2"], res.facts["Z4"]
    joined = lat.join([*a.packets, *b.packets])
    got = concretize_currs(joined, small3)
    want = concretize_currs(a, small3) | concretize_currs(b, small3)
    if variant == "v1":
        assert got == want
    else:
        assert got >= want


def test_concretize_join_v2_superset(small3):
    lat = get_lattice("v2", small3)
    res = analyze(small3, "Z1", "v2")
    a, b = res.facts["Z2"], res.facts["Z4"]
    joined = lat.join([*a.packets, *b.packets])
    got = concretize_pairs(joined, small3)
    want = concretize_pairs(a, small3) | concretize_pairs(b, small3)
    assert got >= want


# ------------------------------------------------------------- compare

@pytest.mark.parametrize("fixture", ["fig1-small.json", "fig3-small.json"])
@pytest.mark.parametrize("variant", ["v1", "v2"])
def test_compare_exact_on_fixtures(fixture, variant):
    net = load_network(fixture_text(fixture))
    rep = compare(net, "Z1", variant)
    assert rep.ok
    assert all(d.status == "equal" for d in rep.nodes)


def test_compare_ia_superset_reported(small3):
    rep = compare(small3, "Z1", "ia")
    assert rep.ok
    assert rep.node("Z4").status == "superset"
    assert rep.node("Z4").extra


def test_compare_diff_reported(small3, monkeypatch):
    # sabotage: analyze a different origin than the oracle run to force diffs
    monkeypatch.setattr(oracle, "analyze", lambda net, _, variant: analyze(net, "Z2", variant))
    rep = compare(small3, "Z1", "v2")
    assert not rep.ok
    assert any(d.status == "diff" for d in rep.nodes)


@pytest.mark.parametrize("variant", ["v1", "V1", "v2", "V2", "ia", "IA"])
def test_compare_reads_the_variant_in_any_case(small3, variant):
    # analyze takes a variant in any case; compare must judge and report
    # the variant that ran: ia's superset at Z4 is sound, and v2 is
    # compared by pairs
    rep = compare(small3, "Z1", variant)
    assert rep.variant == variant.lower()
    assert rep.ok
    assert rep.nodes == compare(small3, "Z1", variant.lower()).nodes


# ------------------------------------------------------------- cycle family

@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_cycle_family_needs_k_traversals(k):
    net = network_from_config(cycle_network(k))
    need = cycle_required_hops(k)
    assert simulate(net, "Zin", max_hops=need - 1).pairs("Zout") == set()
    delivered = simulate(net, "Zin", max_hops=need).pairs("Zout")
    assert delivered
    assert simulate(net, "Zin").pairs("Zout") == delivered


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("variant", ["v1", "v2"])
def test_cycle_family_fixpoint_matches_oracle(k, variant):
    net = network_from_config(cycle_network(k))
    rep = compare(net, "Zin", variant)
    assert rep.ok and all(d.status == "equal" for d in rep.nodes)
    assert not rep.result.facts["Zout"].is_bottom()


# ------------------------------------------------------------- compiled oracle

def assert_same_exploration(net, origin, **kw):
    """Every ExactResult field, states_explored included, equals the
    rule-by-rule reference's."""
    assert simulate(net, origin, **kw) == reference_simulate(net, origin, **kw), (
        origin, kw,
    )


@pytest.mark.parametrize("first", range(0, 100, 20))
def test_simulate_equals_reference_on_random_networks(first):
    for seed in range(first, first + 20):
        net = network_from_config(random_network(seed)[0])
        for zone in net.zones:
            for max_hops in (None, 3):
                assert_same_exploration(net, zone.name, max_hops=max_hops)


def test_simulate_equals_reference_on_fixtures():
    checked = 0
    for name in FIXTURES:
        net = load_network(fixture_text(name))
        if net.layout.total_bits > 12:
            continue
        for zone in net.zones:
            assert_same_exploration(net, zone.name)
            checked += 1
        assert net.store.node_count() == 2  # the oracle built no formula
    assert checked >= 6  # both small fixtures, every zone


@pytest.mark.parametrize("k", [2, 3, 4])
def test_simulate_equals_reference_on_cycles(k):
    net = network_from_config(cycle_network(k))
    for max_hops in (cycle_required_hops(k), cycle_required_hops(k) - 1):
        assert_same_exploration(net, "Zin", max_hops=max_hops)


# ------------------------------------------------------------- random trials

@pytest.mark.parametrize("seed", range(4000, 4020))
def test_random_trials_all_variants(seed):
    cfg, origin = random_network(seed)
    net = network_from_config(cfg)
    for variant in ("v1", "v2", "ia"):
        rep = compare(net, origin, variant)
        assert rep.ok, f"{variant} failed on seed {seed}"


def enumerated(formulas: dict, cap: int) -> dict:
    return {key: set(f.enumerate(cap)) for key, f in formulas.items()}


def grouped(pairs) -> dict:
    out: dict = {}
    for key, c in pairs:
        out.setdefault(key, set()).add(c)
    return out


def assert_diagnostics_match(net, sim, results: dict, label: str):
    """No-route leftovers and misdelivery (v1, v2) and ledger entries (v2
    original headers, v1 current headers) enumerate to exactly what the
    exhaustive simulation observed."""
    cap = 1 << net.layout.total_bits
    no_route = grouped((node, c) for node, c, _ in sim.no_route)
    misdelivered = grouped(sim.misdelivered)
    for variant, res in results.items():
        assert enumerated(res.no_route, cap) == no_route, f"{variant} no-route differs on {label}"
        assert enumerated(res.misdelivered, cap) == misdelivered, (
            f"{variant} misdelivery differs on {label}"
        )
    assert enumerated(results["v2"].ledger, cap) == sim.per_rule_dropped, (
        f"v2 ledger differs on {label}"
    )
    assert enumerated(results["v1"].ledger, cap) == sim.per_rule_dropped_curr, (
        f"v1 ledger differs on {label}"
    )


@pytest.mark.parametrize("seed", range(100))
def test_random_diagnostics_match_oracle(seed):
    cfg, origin = random_network(seed)
    net = network_from_config(cfg)
    results = {variant: analyze(net, origin, variant) for variant in ("v1", "v2")}
    assert_diagnostics_match(net, simulate(net, origin), results, f"seed {seed}")


@pytest.mark.parametrize("first", range(0, 80, 10))
def test_port_rest_networks_match_oracle(first):
    """Port fields, DNAT on d/dp, SNAT on s/sp, zone ports and rest zones,
    from every zone: v1 and v2 are exact, ia is sound, and the v1/v2
    diagnostics and ledgers equal the oracle's."""
    for seed in range(first, first + 10):
        net = network_from_config(port_rest_network(seed))
        for zone in net.zones:
            label = f"seed {seed} from {zone.name}"
            reports = {v: compare(net, zone.name, v) for v in ("v1", "v2", "ia")}
            for variant in ("v1", "v2"):
                rep = reports[variant]
                assert rep.ok and all(d.status == "equal" for d in rep.nodes), (variant, label)
            assert reports["ia"].ok, ("ia", label)
            results = {v: reports[v].result for v in ("v1", "v2")}
            assert_diagnostics_match(net, reports["v1"].exact, results, label)


def relation_states(lat, value, starts, layout) -> set[tuple[int, int, int]]:
    """The (curr, orig, mask) value states of a relational value over the
    class network of ``analyze_relations``.  A field in the mask reads its
    current class on ``f`` and its original one on ``f~``, any other field
    reads both on ``f``, one value for both; a class stands for each of its
    values, from ``starts``, when it is its class's first index, and a
    spare index for none."""
    rel = lat.store.layout
    shadow = {name: rel.fields[rel.index(name) + 1][0] for name in lat._to_shadow}

    def members(k: int, c: int) -> range:
        first = starts[k]
        if c and first[c - 1] == first[c]:
            return range(0)
        end = bisect_right(first, first[c])
        return range(first[c], first[end] if end < len(first) else 1 << layout.fields[k][1])

    out = set()
    for p in value.packets:
        masked = layout.mask_names(p.nated)
        r = p.curr
        for name in shadow.keys() - set(masked):
            # the shadow of an unmasked field is free: pin it, so that each
            # state enumerates once
            r = r & lat.store.atom(FieldValueSet(shadow[name], ((0, 0),)))
        for h in r.enumerate(1 << rel.total_bits):
            choices = []
            for k, (name, _) in enumerate(layout.fields):
                curr = members(k, rel.extract_value(h, name))
                if name in masked:
                    orig = members(k, rel.extract_value(h, shadow[name]))
                    choices.append([(a, b) for a in curr for b in orig])
                else:
                    choices.append([(a, a) for a in curr])
            for pairs in itertools.product(*choices):
                c = o = 0
                for (name, _), (a, b) in zip(layout.fields, pairs):
                    c = with_value(layout, c, name, a)
                    o = with_value(layout, o, name, b)
                out.add((c, o, p.nated))
    return out


@pytest.mark.parametrize("first", range(0, 150, 25))
def test_relational_engine_equals_oracle_on_random_networks(first):
    """``analyze_relations`` from every zone: each node's (curr, orig, mask)
    states and each DROP rule's original headers equal the exhaustive
    simulation's."""
    for seed in range(first, first + 25):
        cfg, _ = random_network(seed)
        net = network_from_config(cfg)
        cap = 1 << net.layout.total_bits
        for zone in net.zones:
            label = f"seed {seed} from {zone.name}"
            sim = simulate(net, zone.name)
            lat, facts, ledger, starts = analyze_relations(net, zone.name)
            for node, value in facts.items():
                assert relation_states(lat, value, starts, net.layout) == sim.states(node), (
                    node, label)
            dropped = {rid: f.expand(starts, net.store) for rid, f in ledger.items()}
            assert enumerated(dropped, cap) == sim.per_rule_dropped, label


# ------------------------------------------------------------- other origins

@pytest.mark.parametrize("origin", ["Z1", "Z2", "Z3", "Z4"])
@pytest.mark.parametrize("variant", ["v1", "v2", "ia"])
def test_every_origin_checks_out(small3, origin, variant):
    """Including the rest-of-addresses zone emitting complement sources."""
    rep = compare(small3, origin, variant)
    assert rep.ok, (origin, variant)
    if variant != "ia":
        assert all(d.status == "equal" for d in rep.nodes)


# one firewall interface on a shared segment linked to two zones at once
SHARED_SEGMENT_NET = {
    "layout": [{"name": "s", "width": 3}, {"name": "d", "width": 3}],
    "zones": [
        {"name": "A", "interface": "a", "addr": "0-1"},
        {"name": "B", "interface": "b", "addr": "2-3"},
        {"name": "C", "interface": "c", "addr": "4-5"},
    ],
    "firewalls": [
        {
            "name": "F",
            "interfaces": ["fa", "fseg"],
            "filter": [{"guard": {}, "action": "ACCEPT"}],
            "routing": {"fseg": {"d": "2-5"}},
        }
    ],
    "links": [["a", "fa"], ["b", "fseg"], ["c", "fseg"]],
}


def test_multi_link_interface_delivers_to_all_peers():
    net = network_from_config(SHARED_SEGMENT_NET)
    for variant in ("v1", "v2", "ia"):
        rep = compare(net, "A", variant)
        assert rep.ok, variant
    sim = simulate(net, "A")
    # both segment peers see everything routed out the shared interface,
    # so each zone also records traffic addressed to the other (misdelivery)
    assert sim.currs("B") == sim.currs("C")
    assert any(z == "B" for z, _ in sim.misdelivered)
    assert any(z == "C" for z, _ in sim.misdelivered)


# a three-field layout with a destination-port DNAT, checkable by the oracle
PORT_NET = {
    "layout": [
        {"name": "s", "width": 3},
        {"name": "d", "width": 3},
        {"name": "dp", "width": 2},
    ],
    "zones": [
        {"name": "A", "interface": "a", "addr": "0-3"},
        {"name": "B", "interface": "b", "addr": "4-7"},
    ],
    "firewalls": [
        {
            "name": "F",
            "interfaces": ["fa", "fb"],
            "dnat": [
                {"id": 1, "guard": {"d": "4-7", "dp": "0"}, "field": "dp", "to": "2-3"}
            ],
            "filter": [
                {"id": 2, "guard": {"dp": "1"}, "action": "DROP"},
                {"guard": {}, "action": "ACCEPT"},
            ],
            "snat": [],
            "routing": {"fb": {"d": "4-7"}},
        }
    ],
    "links": [["a", "fa"], ["b", "fb"]],
}


def test_destination_port_rewrite_checks_out():
    net = network_from_config(PORT_NET)
    for variant in ("v1", "v2", "ia"):
        rep = compare(net, "A", variant)
        assert rep.ok, variant
    sim = simulate(net, "A")
    arrived_ports = {net.layout.extract_value(c, "dp") for c in sim.currs("B")}
    assert arrived_ports == {2, 3}  # port 0 rewritten, port 1 dropped, 2-3 kept
