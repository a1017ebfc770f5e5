from __future__ import annotations

import contextlib
import gc
import io
import weakref
from pathlib import Path

import pytest

from pktflow import cli
from pktflow.engine import RelationalLattice, analyze
from pktflow.gen import FIXTURES, fixture_text, random_network
from pktflow.netmodel import load_network, network_from_config, parse_value_set
from pktflow.oracle import simulate
from pktflow.policy import (
    PolicyError,
    generate_test_packets,
    infer_policy,
    overlap_report,
)


DATA = Path(__file__).resolve().parent / "data"
RINGS = tuple(f"ring-4x4-{seed}.json" for seed in (1, 2, 3))


@pytest.fixture
def fig3():
    return load_network(fixture_text("fig3.json"))


@pytest.fixture
def small3():
    return load_network(fixture_text("fig3-small.json"))


def atom(net, field, text):
    return net.store.atom(parse_value_set(text, field, net.layout.width(field)))


def all_headers(net, formula):
    return set(formula.enumerate(1 << net.layout.total_bits))


# ------------------------------------------------------------- fig3 policy

def test_fig3_accept_formula(fig3):
    summary = infer_policy(fig3, "Z1")
    expected = atom(fig3, "s", "10.192.29.1-255") & ~(
        atom(fig3, "d", "10.192.29.1-255")
        | atom(fig3, "d", "209.85.153.85")
        | atom(fig3, "d", "202.65.23.2")
    )
    assert summary.accept == expected


def test_fig3_reject_formula(fig3):
    summary = infer_policy(fig3, "Z1")
    expected = atom(fig3, "s", "10.192.29.1-255") & (
        atom(fig3, "d", "202.65.23.2") | atom(fig3, "d", "209.85.153.85")
    )
    assert summary.reject == expected


def test_fig3_overlap_empty(fig3):
    summary = infer_policy(fig3, "Z1")
    assert summary.overlap.is_empty()
    assert overlap_report(summary) == []


def test_accept_is_union_of_other_zones_origs(small3):
    summary = infer_policy(small3, "Z1")
    recomputed = small3.store.false
    for z in small3.zones:
        if z.name == "Z1":
            continue
        for p in summary.result.facts[z.name].packets:
            recomputed = recomputed | p.orig
    assert summary.accept == recomputed


def test_reject_matches_oracle_drops(small3):
    summary = infer_policy(small3, "Z1")
    sim = simulate(small3, "Z1")
    dropped = set()
    for origs in sim.per_rule_dropped.values():
        dropped |= origs
    assert all_headers(small3, summary.reject) == dropped


def test_policy_requires_v2(small3):
    res = analyze(small3, "Z1", "v1")
    with pytest.raises(PolicyError):
        infer_policy(small3, "Z1", result=res)


def test_policy_origin_mismatch(small3):
    res = analyze(small3, "Z2", "v2")
    with pytest.raises(PolicyError):
        infer_policy(small3, "Z1", result=res)


ACCEPT_ALL_NET = {
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
            "routing": {"fb": {"d": "4-7"}, "fa": {"d": "0-3"}},
        }
    ],
    "links": [["a", "fa"], ["b", "fb"]],
}


def test_default_accept_net_has_empty_reject():
    net = network_from_config(ACCEPT_ALL_NET)
    summary = infer_policy(net, "A")
    assert summary.reject.is_empty()
    assert summary.overlap.is_empty()


# nondeterministic routing: the same packets reach zone B on one interface
# and a dropping firewall on the other
OVERLAP_NET = {
    "layout": [{"name": "s", "width": 3}, {"name": "d", "width": 3}],
    "zones": [
        {"name": "A", "interface": "a", "addr": "0-3"},
        {"name": "B", "interface": "b", "addr": "4-7"},
    ],
    "firewalls": [
        {
            "name": "F1",
            "interfaces": ["f1a", "f1b", "f1x"],
            "filter": [{"guard": {}, "action": "ACCEPT"}],
            "routing": {"f1b": {"d": "4-7"}, "f1x": {"d": "4-7"}},
        },
        {
            "name": "F2",
            "interfaces": ["f2x"],
            "filter": [{"id": 1, "guard": {}, "action": "DROP"}],
            "routing": {},
        },
    ],
    "links": [["a", "f1a"], ["b", "f1b"], ["f1x", "f2x"]],
}


def test_nondeterministic_routing_overlap():
    net = network_from_config(OVERLAP_NET)
    summary = infer_policy(net, "A")
    expected = atom(net, "s", "0-3") & atom(net, "d", "4-7")
    assert summary.accept == expected
    assert summary.reject == expected
    assert summary.overlap == expected

    report = overlap_report(summary)
    assert dict(report)["s"] == ((0, 3),)
    assert dict(report)["d"] == ((4, 7),)

    sim = simulate(net, "A")
    dropped = set().union(*sim.per_rule_dropped.values())
    delivered = sim.origs("B")
    assert all_headers(net, summary.overlap) == dropped & delivered


def test_overlap_empty_when_reject_empty():
    net = network_from_config(ACCEPT_ALL_NET)
    summary = infer_policy(net, "A")
    assert overlap_report(summary) == []


# ------------------------------------------------------------- test packets

def test_fig3_witnesses(fig3):
    witnesses = generate_test_packets(fig3, "Z1", 2)
    zones = {w.zone for w in witnesses}
    assert "Z2" in zones and "Z4" in zones and "Z3" not in zones and "Z1" not in zones
    layout = fig3.layout
    for w in witnesses:
        if w.zone == "Z2":
            assert 0x0AC01D01 <= layout.extract_value(w.orig, "s") <= 0x0AC01DFF
            assert 0xCA432206 <= layout.extract_value(w.curr, "s") <= 0xCA43220A
            # destination survives un-NATed
            assert layout.extract_value(w.curr, "d") == layout.extract_value(w.orig, "d")


def cli_outputs(monkeypatch, net, zone):
    """The stdout of ``testgen --per-pair 3``, ``analyze --variant v2`` and
    ``policy`` from ``zone``, all run on ``net`` and its store."""
    monkeypatch.setattr(cli, "load_network_file", lambda _: net)
    outputs = []
    for argv in (["testgen", "--origin", zone, "--per-pair", "3"],
                 ["analyze", "--origin", zone, "--variant", "v2"],
                 ["policy", "--zone", zone]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main([argv[0], "--network", "net.json", *argv[1:]])
        outputs.append(out.getvalue())
    return outputs


def test_witnesses_deterministic(monkeypatch):
    # the outputs from a zone are the same in a fresh store and in one that
    # earlier analyses from another zone and from the same zone have grown
    texts = {"fig3.json": fixture_text("fig3.json")}
    for ring in RINGS:
        texts[ring] = (DATA / ring).read_text(encoding="utf-8")
    for name, text in texts.items():
        zones = [z.name for z in load_network(text).zones]
        for zone in zones:
            fresh = cli_outputs(monkeypatch, load_network(text), zone)
            net = load_network(text)
            other = next(z for z in zones if z != zone)
            for z in (other, zone):
                for variant in ("v1", "v2"):
                    analyze(net, z, variant)
            assert cli_outputs(monkeypatch, net, zone) == fresh, (name, zone)


def test_witnesses_need_a_result_from_the_origin(fig3):
    with pytest.raises(PolicyError, match="origin"):
        generate_test_packets(fig3, "Z1", 1, result=analyze(fig3, "Z2", "v2"))
    res = analyze(fig3, "Z1", "v2")
    assert generate_test_packets(fig3, "Z1", 1, result=res) == generate_test_packets(fig3, "Z1", 1)


def test_per_pair_exhausts_without_repeats(small3):
    res = analyze(small3, "Z1", "v2")
    witnesses = generate_test_packets(small3, "Z1", 10_000, result=res)
    by_zone_packet: dict[str, list] = {}
    for w in witnesses:
        by_zone_packet.setdefault(w.zone, []).append(w)
    for z in small3.zones:
        if z.name == "Z1":
            continue
        expected = sum(p.orig.count() for p in res.facts[z.name].packets)
        got = by_zone_packet.get(z.name, [])
        assert len(got) == expected
        assert len({(w.orig, w.curr) for w in got}) == len(got)


def test_per_pair_validation(small3):
    with pytest.raises(PolicyError):
        generate_test_packets(small3, "Z1", 0)


@pytest.mark.parametrize("fixture", ["fig1-small.json", "fig3-small.json"])
def test_witnesses_are_oracle_realizable(fixture):
    net = load_network(fixture_text(fixture))
    sim = simulate(net, "Z1")
    for w in generate_test_packets(net, "Z1", 4):
        assert (w.curr, w.orig) in sim.pairs(w.zone), w


@pytest.mark.parametrize("seed", range(5000, 5015))
def test_witnesses_realizable_on_random_nets(seed):
    cfg, origin = random_network(seed)
    net = network_from_config(cfg)
    sim = simulate(net, origin)
    for w in generate_test_packets(net, origin, 3):
        assert (w.curr, w.orig) in sim.pairs(w.zone), (seed, w)


# ------------------------------------------------------ relational engine

def test_summary_result_runs_packet_analysis_on_first_access(small3):
    summary = infer_policy(small3, "Z1")
    assert summary._result is None
    res = summary.result
    assert res.variant == "v2" and res.origin == "Z1"
    assert summary.result is res
    expected = analyze(small3, "Z1", "v2")
    assert {n: v.packets for n, v in res.facts.items()} == {
        n: v.packets for n, v in expected.facts.items()}
    given = infer_policy(small3, "Z1", result=expected)
    assert given.result is expected


def agreement_cases():
    for name in FIXTURES:
        yield name, load_network(fixture_text(name))
    for seed in range(300):
        yield f"random-{seed}", network_from_config(random_network(seed)[0])


def test_relational_policy_equals_packet_policy():
    # the relational engine against the packet engine, as formulas, on every
    # zone; this also covers v2 at widths the oracle cannot run
    cases = 0
    for name, net in agreement_cases():
        for zone in net.zones:
            relational = infer_policy(net, zone.name)
            packets = infer_policy(net, zone.name, result=analyze(net, zone.name, "v2"))
            assert relational.accept == packets.accept, (name, zone.name)
            assert relational.reject == packets.reject, (name, zone.name)
            cases += 1
    assert cases == 773


def test_relational_store_shadows_only_rewritten_fields(fig3):
    lattice = RelationalLattice(fig3)
    assert fig3.layout.names() == ("s", "d")  # fig3 rewrites only s
    assert lattice.store.layout.fields == (("s", 32), ("s~", 32), ("d", 32))


def test_stores_are_freed_by_reference_counting(monkeypatch):
    # no store is in a reference cycle with its own handles or memos, so
    # both die as soon as the last outside reference goes, with no collector
    stores = []
    init = RelationalLattice.__init__

    def recording_init(self, net):
        init(self, net)
        stores.append(weakref.ref(self.store))

    monkeypatch.setattr(RelationalLattice, "__init__", recording_init)
    net = load_network(fixture_text("fig3.json"))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        summary = infer_policy(net, "Z1")
        assert not summary.reject.is_empty()
        assert len(stores) == 1 and stores[0]() is None
        net_store = weakref.ref(net.store)
        del net, summary
        assert net_store() is None
    finally:
        if was_enabled:
            gc.enable()


def test_testgen_adds_no_store_node(fig3):
    res = analyze(fig3, "Z1", "v2")
    nodes = fig3.store.node_count()
    witnesses = generate_test_packets(fig3, "Z1", 3, result=res)
    assert len(witnesses) == 6
    assert fig3.store.node_count() == nodes
