"""Acceptance suite: one test per release criterion, at its stated tolerance.

Every comparison against the exhaustive simulator is exact (set equality /
strict superset as stated); no tolerances are deferred.  A summary line per
criterion is printed at the end of the run (see conftest).
"""

from __future__ import annotations

import time

import pytest

from helpers import analyze_lifo, cycle_required_hops, facts_line, packet_text_to_formulas
from pktflow.cli import main
from pktflow.engine import V2Lattice, analyze, default_iteration_ceiling
from pktflow.gen import (
    cycle_network,
    fixture_path,
    fixture_text,
    random_network,
)
from pktflow.netmodel import (
    Guard,
    NatRule,
    Network,
    load_network,
    network_from_config,
    parse_value_set,
)
from pktflow.oracle import compare, simulate
from pktflow.pktset import FieldValueSet, HeaderLayout
from pktflow.xfer import AbstractPacket

TRIAL_SEEDS = range(1000, 1100)  # 100 fixed-seed networks for criteria 4-7


def trial_nets():
    for seed in TRIAL_SEEDS:
        cfg, origin = random_network(seed)
        yield seed, network_from_config(cfg), origin


def atom(net, field, text):
    return net.store.atom(parse_value_set(text, field, net.layout.width(field)))


@pytest.mark.acceptance(label="1 published-example reproduction (v2, exact, <5s)")
def test_criterion_1_fig3_reproduction(capsys):
    net = load_network(fixture_text("fig3.json"))
    started = time.perf_counter()
    status = main([
        "analyze", "--network", str(fixture_path("fig3.json")),
        "--origin", "Z1", "--variant", "v2", "--format", "text",
    ])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert status == 0
    assert elapsed < 5.0, f"analyze took {elapsed:.2f}s"

    z1 = atom(net, "s", "10.192.29.1-255")
    pool = atom(net, "s", "202.67.34.6-10")
    to_z2 = atom(net, "d", "10.192.28.1-255")
    blocked = (
        atom(net, "d", "10.192.28.1-255")
        | atom(net, "d", "10.192.29.1-255")
        | atom(net, "d", "209.85.153.85")
        | atom(net, "d", "202.65.23.2")
    )

    assert facts_line(out, "Z3") == "(unreachable)"

    curr, orig = packet_text_to_formulas(facts_line(out, "Z1"), net)
    assert curr == z1 and orig == z1

    curr, orig = packet_text_to_formulas(facts_line(out, "Z2"), net)
    assert curr == pool & to_z2
    assert orig == z1 & to_z2

    curr, orig = packet_text_to_formulas(facts_line(out, "Z4"), net)
    assert curr == pool & ~blocked
    assert orig == z1 & ~blocked

    # one abstract packet per reachable zone, exactly as printed
    res = analyze(net, "Z1", "v2")
    for zone in ("Z1", "Z2", "Z4"):
        assert len(res.facts[zone].packets) == 1


@pytest.mark.acceptance(label="2 per-zone policy reproduction (exact)")
def test_criterion_2_policy_reproduction(capsys):
    net = load_network(fixture_text("fig3.json"))
    status = main(["policy", "--network", str(fixture_path("fig3.json")), "--zone", "Z1"])
    out = capsys.readouterr().out
    assert status == 0

    accept_text = next(l for l in out.splitlines() if l.startswith("accept(Z1) = "))
    reject_text = next(l for l in out.splitlines() if l.startswith("reject(Z1) = "))
    (accept,) = packet_text_to_formulas("<" + accept_text.split(" = ", 1)[1] + ">", net)
    (reject,) = packet_text_to_formulas("<" + reject_text.split(" = ", 1)[1] + ">", net)

    z1 = atom(net, "s", "10.192.29.1-255")
    assert accept == z1 & ~(
        atom(net, "d", "10.192.29.1-255")
        | atom(net, "d", "209.85.153.85")
        | atom(net, "d", "202.65.23.2")
    )
    assert reject == z1 & (atom(net, "d", "202.65.23.2") | atom(net, "d", "209.85.153.85"))


@pytest.mark.acceptance(label="3 cycle soundness: fixpoint beats bounded unrolling")
def test_criterion_3_cycles():
    # the subsidiary-firewall example: delivery exists only through the cycle
    fig1 = load_network(fixture_text("fig1.json"))
    assert not analyze(fig1, "Z1", "v2").facts["Z2"].is_bottom()

    small1 = load_network(fixture_text("fig1-small.json"))
    assert simulate(small1, "Z1", max_hops=3).pairs("Z2") == set()
    assert simulate(small1, "Z1", max_hops=4).pairs("Z2")

    # k-router rings: flows that need exactly k traversals, for k = 2..5
    for k in (2, 3, 4, 5):
        net = network_from_config(cycle_network(k))
        need = cycle_required_hops(k)
        assert simulate(net, "Zin", max_hops=need - 1).pairs("Zout") == set()
        assert simulate(net, "Zin", max_hops=need).pairs("Zout")
        for variant in ("v1", "v2"):
            rep = compare(net, "Zin", variant)
            assert rep.ok and all(d.status == "equal" for d in rep.nodes), (k, variant)
        assert not rep.result.facts["Zout"].is_bottom()


@pytest.mark.acceptance(label="4 v1 precision on 100 random networks (exact, <60s)")
def test_criterion_4_v1_precision():
    started = time.perf_counter()
    for seed, net, origin in trial_nets():
        rep = compare(net, origin, "v1")
        assert rep.ok and all(d.status == "equal" for d in rep.nodes), f"seed {seed}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"trials took {elapsed:.1f}s"


@pytest.mark.acceptance(label="5 v2 pair coverage and realizability (exact)")
def test_criterion_5_v2_rectangles():
    for seed, net, origin in trial_nets():
        rep = compare(net, origin, "v2")
        for d in rep.nodes:
            assert not d.missing, f"coverage broken at {d.node}, seed {seed}"
            assert not d.extra, f"unrealizable pairs at {d.node}, seed {seed}"


@pytest.mark.acceptance(label="6 ia soundness, with a strict precision-loss witness")
def test_criterion_6_ia_soundness():
    strict_seen = False
    for seed, net, origin in trial_nets():
        rep = compare(net, origin, "ia")
        for d in rep.nodes:
            assert not d.missing, f"ia unsound at {d.node}, seed {seed}"
        strict_seen = strict_seen or any(d.status == "superset" for d in rep.nodes)
    assert strict_seen, "expected at least one strictly over-approximate trial"

    # constructed fixture: a two-field DROP guard whose negation ia keeps whole
    cfg = {
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
                    {"id": 1, "guard": {"s": "1-2", "d": "5-6"}, "action": "DROP"},
                    {"guard": {}, "action": "ACCEPT"},
                ],
                "routing": {"fb": {"d": "4-7"}},
            }
        ],
        "links": [["a", "fa"], ["b", "fb"]],
    }
    net = network_from_config(cfg)
    rep = compare(net, "A", "ia")
    assert rep.ok
    assert rep.node("B").status == "superset" and rep.node("B").extra


@pytest.mark.acceptance(label="7 termination below ceiling; worklist-order independence")
def test_criterion_7_termination_and_order():
    for seed, net, origin in trial_nets():
        ceiling = default_iteration_ceiling(net)
        for variant in ("v1", "v2", "ia"):
            fifo = analyze(net, origin, variant)
            lifo = analyze_lifo(net, origin, variant)
            assert fifo.stats.iterations <= ceiling
            assert lifo.stats.iterations <= ceiling
            for node in net.node_names():
                assert fifo.facts[node] == lifo.facts[node], (
                    seed, variant, node,
                )


@pytest.mark.acceptance(label="8 two-field worked example for NAT transfer (exact)")
def test_criterion_8_worked_example():
    layout = HeaderLayout((("f1", 2), ("f2", 2)))
    net = Network(layout, (), (), ())
    store = net.store
    b1 = store.atom(FieldValueSet("f1", ((2, 3),)))  # (b1 and not b2) or (b1 and b2)
    f2_is_1 = store.atom(FieldValueSet("f2", ((1, 1),)))  # not b3 and b4
    curr = b1 & f2_is_1
    orig = store.atom(FieldValueSet("f2", ((0, 0),)))  # not c3 and not c4
    # field 2 was NATed previously, field 1 was not
    p = AbstractPacket(curr, orig, 0b10)
    rule = NatRule(Guard(), "f1", FieldValueSet("f1", ((0, 0),)), 1)

    # the original is updated first, then the field is rewritten
    rewritten = V2Lattice(net).apply_nat(p, rule)
    expected_orig = store.atom(FieldValueSet("f1", ((2, 3),))) & store.atom(
        FieldValueSet("f2", ((0, 0),))
    )  # c1 and not c3 and not c4
    expected_curr = store.atom(FieldValueSet("f1", ((0, 0),))) & store.atom(
        FieldValueSet("f2", ((1, 1),))
    )  # not b1 and not b2 and not b3 and b4
    assert rewritten.curr == expected_curr
    assert rewritten.nated == 0b11
    assert rewritten.orig == expected_orig
