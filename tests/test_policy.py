from __future__ import annotations

import contextlib
import gc
import io
import weakref
from bisect import bisect_left
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import packet_relations, reference_infer_policy, reference_packet_policy
from helpers import netgen, port_rest_network
from pktflow import cli, engine, policy
from pktflow.engine import RelationalLattice, analyze, class_quotient
from pktflow.gen import FIXTURES, fixture_text, random_network
from pktflow.netmodel import load_network, network_from_config, parse_value_set
from pktflow.oracle import simulate
from pktflow.pktset import FieldValueSet
from pktflow.render import value_ranges
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
    res = analyze(small3, "Z1", "v2")
    recomputed = small3.store.false
    for z in small3.zones:
        if z.name == "Z1":
            continue
        for p in res.facts[z.name].packets:
            recomputed = recomputed | p.orig
    assert summary.accept == recomputed


def test_reject_matches_oracle_drops(small3):
    summary = infer_policy(small3, "Z1")
    sim = simulate(small3, "Z1")
    dropped = set()
    for origs in sim.per_rule_dropped.values():
        dropped |= origs
    assert all_headers(small3, summary.reject) == dropped


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


def test_per_pair_exhausts_without_repeats(small3):
    res = analyze(small3, "Z1", "v2")
    witnesses = generate_test_packets(small3, "Z1", 10_000)
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
            packets = reference_packet_policy(net, zone.name)
            assert relational.accept == packets.accept, (name, zone.name)
            assert relational.reject == packets.reject, (name, zone.name)
            cases += 1
    assert cases == 773


def assert_packet_v2_equals_relational(net, zone: str) -> int:
    """Packet ``v2`` against relational ``v2`` from ``zone``, at full width:
    at every node, the packets' relation per NAT mask (``packet_relations``)
    is the relational fact, and the two drop ledgers, both of original
    headers, are equal once expanded into ``net.store``.  Returns how many
    (node, mask) relations were compared."""
    result = analyze(net, zone, "v2")
    lat, facts, ledger, starts = engine.analyze_relations(net, zone)
    compared = 0
    for node in net.node_names():
        want = {p.nated: p.curr for p in facts[node].packets}
        assert packet_relations(lat, result.classes.facts[node]) == want, (zone, node)
        compared += len(want)
    assert dict(result.ledger) == {rid: f.expand(starts, net.store)
                                   for rid, f in ledger.items()}, zone
    return compared


FULL_WIDTH = (*RINGS, "mesh-6x8-1.json", *FIXTURES, "ring-5x8-1")


def load_full_width(name: str):
    if name == "ring-5x8-1":
        return network_from_config(netgen.ring(5, 8, 1))
    if name in FIXTURES:
        return load_network(fixture_text(name))
    return load_network((DATA / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", FULL_WIDTH)
def test_packet_v2_equals_relational_at_full_width(name):
    # two independent implementations of one relation, per node and mask,
    # from every zone: packet splitting with originals against relations
    # over shadow fields; this certifies v2 where the oracle cannot run
    net = load_full_width(name)
    for zone in net.zones:
        assert assert_packet_v2_equals_relational(net, zone.name), zone.name


def policy_cases():
    for name in FIXTURES:
        yield name, load_network(fixture_text(name))
    for path in sorted(DATA.glob("*-*.json")):
        yield path.name, load_network(path.read_text(encoding="utf-8"))
    for seed in range(200):
        yield f"random-{seed}", network_from_config(random_network(seed)[0])
    for seed in range(300):
        yield f"port-rest-{seed}", network_from_config(port_rest_network(seed))
    for n_fw, n_rules in ((3, 4), (4, 4), (5, 8)):
        for seed in range(3):
            yield f"ring-{n_fw}x{n_rules}-{seed}", network_from_config(
                netgen.ring(n_fw, n_rules, seed))
    yield "mesh-6x8-0", network_from_config(netgen.mesh(6, 8, 2, 0))


def test_class_space_policy_equals_value_space_reference():
    # accept, reject and overlap as formulas of the network's store
    cases = 0
    for name, net in policy_cases():
        for zone in net.zones:
            assert infer_policy(net, zone.name) == reference_infer_policy(net, zone.name), (
                name, zone.name)
            cases += 1
    assert cases == 1497


def test_class_space_policy_equals_oracle_on_port_rest_networks():
    # DNAT on dp, zone ports and rest zones, certified without the symbolic
    # reference: accept is what the oracle delivers to the other zones, and
    # reject what its DROP rules discard
    narrowed = 0
    for seed in range(300):
        net = network_from_config(port_rest_network(seed))
        narrowed += class_quotient(net)[0].layout.total_bits < net.layout.total_bits
        for zone in net.zones:
            summary = infer_policy(net, zone.name)
            sim = simulate(net, zone.name)
            delivered = set().union(*(sim.origs(z.name) for z in net.zones if z != zone))
            assert all_headers(net, summary.accept) == delivered, (seed, zone.name)
            dropped = set().union(*sim.per_rule_dropped.values())
            assert all_headers(net, summary.reject) == dropped, (seed, zone.name)
    assert narrowed == 22


def value_sets(net):
    """Every value set the network tests or writes, the zones' addresses
    also as destinations."""
    for z in net.zones:
        yield z.addr
        yield FieldValueSet("d", z.addr.ranges)
        if z.ports is not None:
            yield z.ports
    for fw in net.firewalls:
        for r in (*fw.dnat, *fw.snat):
            yield r.action
        for g in [r.guard for r in (*fw.dnat, *fw.filter, *fw.snat)] + [g for _, g in fw.routing]:
            for _, fvs in g.atoms:
                yield fvs


def test_class_images_expand_back_to_their_value_sets():
    for name, net in policy_cases():
        quotient, starts = class_quotient(net)
        for fvs, image in zip(value_sets(net), value_sets(quotient), strict=True):
            expanded = quotient.store.atom(image).expand(starts, net.store)
            assert expanded == net.store.atom(fvs), (name, fvs)
            assert holds_whole_runs(image, starts[net.layout.index(fvs.field)]), (name, fvs)


def holds_whole_runs(image, first) -> bool:
    """Whether each class index is in ``image`` exactly when the first index
    of its class is."""
    return all(image.contains(c) == image.contains(bisect_left(first, v))
               for c, v in enumerate(first))


def filter_config(sets) -> dict:
    """One firewall between two zones on an s/d/p layout of 8-bit fields,
    whose filter tests each (field, ranges, negated) of ``sets``."""
    rules = [{"guard": {field: ("!" if negated else "")
                        + ",".join(f"{min(a, b)}-{max(a, b)}" for a, b in ranges)},
              "action": "ACCEPT"}
             for field, ranges, negated in sets] + [{"guard": {}, "action": "DROP"}]
    return {
        "schema": 1,
        "layout": [{"name": n, "width": 8} for n in ("s", "d", "p")],
        "zones": [{"name": "Z0", "interface": "z0", "addr": "0-99"},
                  {"name": "Z1", "interface": "z1", "addr": "100-255"}],
        "firewalls": [{"name": "F0", "interfaces": ["f0-0", "f0-1"], "dnat": [],
                       "filter": rules, "snat": [],
                       "routing": {"f0-0": {"d": "0-99"}, "f0-1": {"d": "100-255"}}}],
        "links": [["z0", "f0-0"], ["z1", "f0-1"]],
    }


value_set_specs = st.lists(
    st.tuples(st.sampled_from(["s", "d", "p"]),
              st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)),
                       min_size=1, max_size=3),
              st.booleans()),
    min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(value_set_specs)
def test_value_sets_map_to_whole_class_runs(sets):
    # a class is read at its first index, and its spare indices follow it
    net = network_from_config(filter_config(sets))
    quotient, starts = class_quotient(net)
    assert quotient is not net
    for fvs, image in zip(value_sets(net), value_sets(quotient), strict=True):
        k = net.layout.index(fvs.field)
        assert holds_whole_runs(image, starts[k]), fvs
        assert value_ranges(image.ranges, starts[k], 8) == fvs.ranges, fvs


def test_class_quotient_keeps_structure_and_grows_no_width():
    for name, net in policy_cases():
        quotient, starts = class_quotient(net)
        assert quotient.layout.names() == net.layout.names()
        assert starts[net.layout.index("s")] == starts[net.layout.index("d")], name
        for (field, width), (_, narrow), first in zip(
                net.layout.fields, quotient.layout.fields, starts):
            # one entry per class index, each its class's first value
            assert len(first) == 1 << narrow, (name, field)
            assert first[0] == 0 and list(first) == sorted(first), (name, field)
            # as many bits as the classes need
            assert narrow == max(1, (len(set(first)) - 1).bit_length()) <= width, (name, field)
        assert [z[:2] for z in quotient.zones] == [z[:2] for z in net.zones]
        assert quotient.links == net.links
        for fw, q in zip(net.firewalls, quotient.firewalls, strict=True):
            assert (q.name, q.interfaces) == (fw.name, fw.interfaces)
            assert [r.rule_id for r in (*q.dnat, *q.filter, *q.snat)] == [
                r.rule_id for r in (*fw.dnat, *fw.filter, *fw.snat)]


def test_class_quotient_is_derived_once_per_network(monkeypatch):
    # the class layout, zones, firewalls and starts are kept with the
    # network; every call builds a class network with a store of its own
    runs = []
    class_runs = engine._class_runs
    monkeypatch.setattr(engine, "_class_runs",
                        lambda *args: runs.append(args) or class_runs(*args))
    net = load_network(fixture_text("fig3.json"))
    first, starts = class_quotient(net)
    derived = len(runs)
    assert derived == len(net.layout.fields)
    second, again = class_quotient(net)
    assert len(runs) == derived
    assert first is not second and first.store is not second.store
    assert again == starts
    assert (first.layout, first.zones, first.firewalls, first.links) == (
        second.layout, second.zones, second.firewalls, second.links)


def test_identity_quotient_keeps_no_reference_to_its_network():
    # a network that no field narrows is its own quotient, and keeps only
    # the starts, so reference counting still frees its store
    for seed in range(100):
        net = network_from_config(random_network(seed)[0])
        quotient, starts = class_quotient(net)
        if quotient is net:
            break
    else:
        pytest.fail("no random_network seed below 100 has an identity quotient")
    assert class_quotient(net) == (net, starts)
    assert starts == tuple(range(1 << width) for _, width in net.layout.fields)
    store = weakref.ref(net.store)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del net, quotient
        assert store() is None
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("name", ["fig1.json", "fig3.json"])
def test_fixture_quotients_narrow_from_64_to_8_bits(name):
    net = load_network(fixture_text(name))
    quotient, _ = class_quotient(net)
    assert net.layout.total_bits == 64
    assert quotient.layout.fields == (("s", 4), ("d", 4))


# net.store.node_count() after each zone's infer_policy, the zones in order on
# one network; these may only fall
POLICY_STORE_NODES = {
    "fig3.json": {"Z1": 214, "Z2": 308, "Z3": 344, "Z4": 520},
    "ring-4x4-1.json": {"Z0": 299, "Z1": 610, "Z2": 866, "Z3": 1091, "REST": 1345},
}


@pytest.mark.parametrize("name", sorted(POLICY_STORE_NODES))
def test_policy_sweep_creates_the_same_store_nodes(name):
    path = DATA / name
    net = load_network(path.read_text(encoding="utf-8") if path.exists() else fixture_text(name))
    got = {}
    for zone in net.zones:
        infer_policy(net, zone.name)
        got[zone.name] = net.store.node_count()
    assert got == POLICY_STORE_NODES[name]


def test_relational_store_shadows_only_rewritten_fields(fig3):
    lattice = RelationalLattice(fig3)
    assert fig3.layout.names() == ("s", "d")  # fig3 rewrites only s
    assert lattice.store.layout.fields == (("s", 32), ("s~", 32), ("d", 32))


def test_stores_are_freed_by_reference_counting(monkeypatch):
    # no store is in a reference cycle with its own handles or memos, so
    # both die as soon as the last outside reference goes, with no collector
    stores = []
    init = RelationalLattice.__init__
    quotient = engine.class_quotient

    def recording_init(self, net):
        init(self, net)
        stores.append(weakref.ref(self.store))

    def recording_quotient(net):
        out = quotient(net)
        stores.append(weakref.ref(out[0].store))
        return out

    monkeypatch.setattr(RelationalLattice, "__init__", recording_init)
    monkeypatch.setattr(engine, "class_quotient", recording_quotient)
    net = load_network(fixture_text("fig3.json"))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        summary = infer_policy(net, "Z1")
        assert not summary.reject.is_empty()
        # the class network's store and the relational one
        assert len(stores) == 2 and all(ref() is None for ref in stores)
        net_store = weakref.ref(net.store)
        del net, summary
        assert net_store() is None
    finally:
        if was_enabled:
            gc.enable()


def test_testgen_adds_no_store_node(fig3, monkeypatch):
    res = analyze(fig3, "Z1", "v2")
    list(res.facts.values())  # each node's value is expanded when it is first read
    nodes = fig3.store.node_count()
    monkeypatch.setattr(policy, "analyze", lambda *args: res)
    witnesses = generate_test_packets(fig3, "Z1", 3)
    assert len(witnesses) == 6
    assert fig3.store.node_count() == nodes
