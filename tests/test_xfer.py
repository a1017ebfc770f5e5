from __future__ import annotations

import contextlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from brute import (
    reference_accept_region,
    reference_filter_table_drops,
    reference_refine_match,
    reference_refine_unmatch,
)
from helpers import concrete_filter, concrete_nat, guard_of, port_rest_network
from pktflow import engine, xfer
from pktflow.engine import RelationalLattice, analyze, get_lattice
from pktflow.gen import fixture_text, random_network
from pktflow.netmodel import (
    ACCEPT,
    DROP,
    FilterRule,
    Guard,
    NatRule,
    guard_to_formula,
    load_network,
    network_from_config,
    parse_value_set,
)
from pktflow.pktset import FieldValueSet, atom_test, settles
from pktflow.xfer import (
    AbstractPacket,
    DropLedger,
    accept_region,
    filter_region_tf,
    filter_rule_tf,
    filter_table_drops,
    filter_table_tf,
    firewall_tf,
    link_tf,
    live_rules,
    nat_rule_tf,
    nat_table_tf,
)
from test_loader_fuzz import revalued_configs


DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture
def fig3():
    return load_network(fixture_text("fig3.json"))


@pytest.fixture
def lat(fig3):
    return get_lattice("v2", fig3)


def z1_packet(fig3, lat):
    return lat.initial("Z1")[0]


def atom(net, field, text):
    return net.store.atom(parse_value_set(text, field, net.layout.width(field)))


# ------------------------------------------------------------- filter rules

def test_filter_rule_drop_match(fig3, lat):
    rule1 = fig3.firewall("F1").filter[0]
    p = z1_packet(fig3, lat)
    ledger = DropLedger(fig3.store)
    accepted, unmatched = filter_rule_tf(rule1, p, ledger, lat)
    assert accepted == ()
    assert len(unmatched) == 1
    expected_curr = atom(fig3, "s", "10.192.29.1-255") & ~atom(fig3, "d", "209.85.153.85")
    assert unmatched[0].curr == expected_curr
    assert unmatched[0].orig == expected_curr
    dropped = ledger.dropped(rule1.rule_id)
    assert dropped == atom(fig3, "s", "10.192.29.1-255") & atom(fig3, "d", "209.85.153.85")


def test_filter_rule_default_accept(fig3, lat):
    default = fig3.firewall("F1").filter[-1]
    p = z1_packet(fig3, lat)
    accepted, unmatched = filter_rule_tf(default, p, None, lat)
    assert unmatched == ()
    assert accepted[0].curr == p.curr and accepted[0].orig == p.orig


def test_filter_rule_disjoint_drop(fig3, lat):
    rule2 = fig3.firewall("F1").filter[1]  # guards on Z2 sources
    p = z1_packet(fig3, lat)
    ledger = DropLedger(fig3.store)
    accepted, unmatched = filter_rule_tf(rule2, p, ledger, lat)
    assert accepted == ()
    assert len(unmatched) == 1
    assert unmatched[0].curr == p.curr and unmatched[0].orig == p.orig
    assert ledger.rule_ids() == []


def test_filter_table_f1(fig3, lat):
    p = z1_packet(fig3, lat)
    ledger = DropLedger(fig3.store)
    out = filter_table_tf(fig3.firewall("F1").filter, [p], ledger, lat)
    assert len(out) == 1
    assert out[0].curr == atom(fig3, "s", "10.192.29.1-255") & ~atom(fig3, "d", "209.85.153.85")


def test_filter_table_trivials(fig3, lat):
    assert filter_table_tf(fig3.firewall("F1").filter, [], None, lat) == []
    p = z1_packet(fig3, lat)
    default_only = (FilterRule(Guard(), ACCEPT, 99),)
    out = filter_table_tf(default_only, [p], None, lat)
    assert len(out) == 1 and out[0].curr == p.curr and out[0].orig == p.orig


# ------------------------------------------------------------- NAT rules

def test_nat_rule_fig3_rule3(fig3, lat):
    rule3 = fig3.firewall("F1").snat[0]
    p = z1_packet(fig3, lat)
    matched, unmatched = nat_rule_tf(rule3, p, lat)
    assert unmatched == ()
    (m,) = matched
    assert m.curr == atom(fig3, "s", "202.67.34.6-10")
    assert m.orig == atom(fig3, "s", "10.192.29.1-255")
    assert m.nated == 1 << fig3.layout.index("s")


def test_nat_rule_disjoint(fig3, lat):
    rule4 = fig3.firewall("F1").snat[1]  # guards on Z2 sources
    p = z1_packet(fig3, lat)
    matched, unmatched = nat_rule_tf(rule4, p, lat)
    assert matched == ()
    assert len(unmatched) == 1
    assert unmatched[0].curr == p.curr


def test_second_nat_leaves_orig_alone(fig3, lat):
    rule3 = fig3.firewall("F1").snat[0]
    p = z1_packet(fig3, lat)
    (m,), _ = nat_rule_tf(rule3, p, lat)
    renat = NatRule(Guard(), "s", parse_value_set("202.67.34.1-5", "s", 32), 42)
    (m2,), un = nat_rule_tf(renat, m, lat)
    assert un == ()
    assert m2.orig == m.orig
    assert m2.curr == atom(fig3, "s", "202.67.34.1-5")
    assert m2.nated == m.nated


def test_nat_table_trivials(fig3, lat):
    p = z1_packet(fig3, lat)
    assert nat_table_tf((), [p], lat) == [p]
    outsider = type(p)(atom(fig3, "s", "8.8.8.8"), atom(fig3, "s", "8.8.8.8"), 0)
    out = nat_table_tf(fig3.firewall("F1").snat, [outsider], lat)
    assert len(out) == 1 and out[0].curr == outsider.curr  # untransformed pass-through


def test_nat_table_two_packets(fig3, lat):
    p1 = z1_packet(fig3, lat)
    p2 = get_lattice("v2", fig3).initial("Z2")[0]
    out = nat_table_tf(fig3.firewall("F1").snat, [p1, p2], lat)
    currs = {p.curr for p in out}
    assert currs == {atom(fig3, "s", "202.67.34.6-10"), atom(fig3, "s", "202.67.34.1-5")}


# ------------------------------------------------------------- V2Lattice.apply_nat

def test_apply_nat_trivials(fig3, lat):
    p = z1_packet(fig3, lat)
    full = NatRule(Guard(), "s", parse_value_set("*", "s", 32), 50)
    assert lat.apply_nat(p, full).curr == p.curr.exists_field("s")
    empty = type(p)(fig3.store.false, fig3.store.false, 0)
    ranged = NatRule(Guard(), "s", parse_value_set("1.1.1.1", "s", 32), 51)
    assert lat.apply_nat(empty, ranged).curr == fig3.store.false


def test_apply_nat_full_projection(fig3, lat):
    # curr unconstrained on s: orig's s component stays unconstrained too
    p = type(z1_packet(fig3, lat))(fig3.store.true, atom(fig3, "d", "9.9.9.9"), 0)
    rule = NatRule(Guard(), "s", parse_value_set("1.1.1.1", "s", 32), 52)
    out = lat.apply_nat(p, rule)
    assert out.orig.extract_field("s") == fig3.store.true
    assert out.orig == atom(fig3, "d", "9.9.9.9")
    assert out.curr == atom(fig3, "s", "1.1.1.1")
    assert out.nated == 1 << fig3.layout.index("s")
    # a later NAT of the same field rewrites curr only
    again = lat.apply_nat(out, NatRule(Guard(), "s", parse_value_set("2.2.2.2", "s", 32), 53))
    assert again.orig == out.orig and again.curr == atom(fig3, "s", "2.2.2.2")


def test_apply_nat_fig3_rule3(fig3, lat):
    rule3 = fig3.firewall("F1").snat[0]
    p = z1_packet(fig3, lat)
    out = lat.apply_nat(p, rule3)
    assert out.orig.extract_field("s") == atom(fig3, "s", "10.192.29.1-255")


# ------------------------------------------------------------- links

def test_link_zone_side_identity(fig3, lat):
    p = z1_packet(fig3, lat)
    out = link_tf(fig3, "Z1", "z1", [p], lat)
    assert len(out) == 1 and out[0] is p


def test_link_f1_to_f2(fig3, lat):
    p = z1_packet(fig3, lat)
    ledger = DropLedger(fig3.store)
    s = firewall_tf(fig3.firewall("F1"), [p], ledger, lat)
    out = link_tf(fig3, "F1", "f1-f2", s, lat)
    assert len(out) == 1
    assert out[0].curr == atom(fig3, "s", "202.67.34.6-10") & atom(fig3, "d", "202.65.23.2")
    assert out[0].orig == atom(fig3, "s", "10.192.29.1-255") & atom(fig3, "d", "202.65.23.2")


def test_link_f1_to_z4_excludes_internal_and_blocked(fig3, lat):
    p = z1_packet(fig3, lat)
    s = firewall_tf(fig3.firewall("F1"), [p], DropLedger(fig3.store), lat)
    out = link_tf(fig3, "F1", "f1-z4", s, lat)
    (q,) = out
    excluded = (
        atom(fig3, "d", "10.192.28.1-255")
        | atom(fig3, "d", "10.192.29.1-255")
        | atom(fig3, "d", "209.85.153.85")
        | atom(fig3, "d", "202.65.23.2")
    )
    assert q.curr == atom(fig3, "s", "202.67.34.6-10") & ~excluded


def test_link_routing_miss_is_empty(fig3, lat):
    # a packet that only wants to go back to Z1 is dropped by every guard
    p = type(z1_packet(fig3, lat))(
        atom(fig3, "s", "202.67.34.6") & atom(fig3, "d", "10.192.29.7"),
        atom(fig3, "s", "10.192.29.7"),
        1 << fig3.layout.index("s"),
    )
    s = firewall_tf(fig3.firewall("F1"), [p], None, lat)
    for iface in ("f1-z1", "f1-z2", "f1-f2", "f1-z4"):
        assert link_tf(fig3, "F1", iface, s, lat) == []


def test_link_without_routing_entry_emits_nothing():
    net = load_network(fixture_text("fig1.json"))
    lat = get_lattice("v2", net)
    p = lat.initial("Z1")[0]
    s = firewall_tf(net.firewall("F1"), [p], None, lat)
    assert link_tf(net, "F1", "f1-f2l", s, lat) == []


def test_routing_drop_not_in_ledger(fig3, lat):
    p = z1_packet(fig3, lat)
    ledger = DropLedger(fig3.store)
    for iface in ("f1-z1", "f1-z2", "f1-f2", "f1-z4"):
        s = firewall_tf(fig3.firewall("F1"), [p], ledger, lat)
        link_tf(fig3, "F1", iface, s, lat)
    assert ledger.rule_ids() == [1]  # only the real DROP rule


# ---------------------------------------------------- partition + fold laws

SMALL = {
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
            "routing": {"fb": {}},
        }
    ],
    "links": [["a", "fa"], ["b", "fb"]],
}


def small_net():
    return network_from_config(SMALL)


def random_guard(rng, layout):
    atoms = {}
    for name, width in layout.fields:
        if rng.random() < 0.6:
            lo = rng.randrange(1 << width)
            hi = min((1 << width) - 1, lo + rng.randint(0, 3))
            text = f"{lo}-{hi}" if rng.random() < 0.8 else f"!{lo}-{hi}"
            atoms[name] = text
    return guard_of(layout, **atoms)


def random_packet(rng, net, lat):
    p = lat.initial("A")[0]
    g = random_guard(rng, net.layout)
    refined = lat.refine_match(p, g)
    return refined if refined is not None else p


@pytest.mark.parametrize("variant", ["v1", "v2"])
@pytest.mark.parametrize("seed", range(40))
def test_rule_split_partitions_curr(variant, seed):
    rng = random.Random(seed)
    net = small_net()
    lat = get_lattice(variant, net)
    p = random_packet(rng, net, lat)
    guard = random_guard(rng, net.layout)
    rule = FilterRule(guard, ACCEPT, 9)
    accepted, unmatched = filter_rule_tf(rule, p, None, lat)
    union = net.store.false
    for q in (*accepted, *unmatched):
        union = union | q.curr
    assert union == p.curr
    for q in accepted:
        for u in unmatched:
            assert (q.curr & u.curr).is_empty()
    if variant == "v2":  # unmatched pieces are pairwise disjoint on curr
        pieces = list(unmatched)
        for i, a in enumerate(pieces):
            for b in pieces[i + 1 :]:
                assert (a.curr & b.curr).is_empty()


@pytest.mark.parametrize("variant", ["v1", "v2", "ia"])
def test_refine_unmatch_equals_reference(variant):
    """The split that starts from the matched branch gives the reference's
    packets in the reference's order, on packets with every NAT mask."""
    seen = set()
    for seed in range(150):
        rng = random.Random(700 + seed)
        net = small_net()
        lat = get_lattice(variant, net)
        p = random_packet(rng, net, lat)
        for i, field in enumerate(("s", "d")):
            if rng.random() < 0.5:
                lo = rng.randrange(8)
                to = parse_value_set(f"{lo}-{min(7, lo + rng.randint(0, 3))}", field, 3)
                p = lat.apply_nat(p, NatRule(Guard(), field, to, 20 + i))
        for _ in range(4):
            guard = random_guard(rng, net.layout) if rng.random() < 0.9 else Guard()
            matched = lat.refine_match(p, guard)
            got = lat.refine_unmatch(p, guard, matched)
            assert got == reference_refine_unmatch(lat, p, guard)
            whole = matched is not None and matched.curr == p.curr
            seen.add((p.nated, matched is None, whole, len(got)))
    # every branch of the split ran: missed, wholly matched, and partly
    # matched guards, and for v2 several pieces on mixed NAT masks
    assert {(m, w) for _, m, w, _ in seen} == {(True, False), (False, True), (False, False)}
    if variant == "v2":
        assert {n for n, *_ in seen} == {0, 1, 2, 3}
        assert any(k > 1 for n, _, _, k in seen if n in (1, 2))


def test_v2_meet_equals_conjunction():
    """``V2Lattice``'s conjunction helper returns the nodes of ``f & g`` and
    ``f & ~g`` on packets with every NAT mask; when the field summary
    settles one, it returns f or false and runs no ``&``, so it creates no
    node."""
    settled = set()
    for seed in range(150):
        rng = random.Random(900 + seed)
        net = small_net()
        store = net.store
        lat = get_lattice("v2", net)
        p = random_packet(rng, net, lat)
        for i, field in enumerate(("s", "d")):
            if rng.random() < 0.5:
                to = parse_value_set(f"{rng.randrange(8)}", field, 3)
                p = lat.apply_nat(p, NatRule(Guard(), field, to, 20 + i))
        for _ in range(4):
            guard = random_guard(rng, net.layout) if rng.random() < 0.9 else Guard()
            gf = guard_to_formula(guard, store)
            tests = [atom_test(fvs, net.layout) for _, fvs in guard.atoms]
            for f in (p.curr, p.orig):
                inside = settles(store.field_summary(f.node), tests)
                settled.add(inside)
                calls = []
                kernel_and = store._and
                store._and = lambda a, b: calls.append(1) or kernel_and(a, b)
                try:
                    got = lat._meet(f.node, tests, guard), lat._meet(f.node, tests, guard, True)
                finally:
                    store._and = kernel_and
                assert got == ((f & gf).node, (f & ~gf).node)
                if inside is not None:
                    assert not calls
                    assert got == ((f.node, 0) if inside else (0, f.node))
    assert settled == {True, False, None}


def test_v2_split_plans_equal_reference():
    """``V2Lattice`` plans each (guard, NAT mask) once per lattice.  On one
    lattice, each guard splits packets of every NAT mask, in shuffled order,
    as the reference split does; a plan keyed on the guard alone would give
    a packet the orig of another mask.  A split that the field summaries
    settle runs no ``&``: the curr conjunction with the guard, and the orig
    conjunction with the reduced guard when curr matches whole, or with the
    negated guard when curr misses it and no atom tests a NATed field.

    Every plan is a list of unmatched pieces.  Each of three shapes splits a
    partly matched packet here: one un-NATed piece, one NATed piece of two
    or more atoms, and a piece per atom.  When a one-piece guard
    misses curr whole, the split keeps curr as it is: no ``&`` takes curr's
    node, and only orig's conjunction with the negated guard may run."""
    seen = set()
    partly = set()
    for seed in range(60):
        rng = random.Random(1100 + seed)
        net = small_net()
        store, layout = net.store, net.layout
        lat = get_lattice("v2", net)
        guards = [random_guard(rng, layout) for _ in range(4)]
        packets = []
        for _ in range(3):
            p = random_packet(rng, net, lat)
            for mask in range(4):
                q = p
                for i, field in enumerate(("s", "d")):
                    if mask >> i & 1:
                        # an even value opens a pair, so that NATed fields
                        # can meet a guard in part
                        v = rng.randrange(8)
                        to = parse_value_set(f"{v}" if v % 2 else f"{v}-{v + 1}", field, 3)
                        q = lat.apply_nat(q, NatRule(Guard(), field, to, 20 + i))
                packets.append(q)
            # what misses a two-atom guard ties its fields together, so that
            # only ``&`` can tell that it misses the guard whole
            packets.extend(lat.refine_unmatch(p, guards[0], lat.refine_match(p, guards[0])))
        rng.shuffle(packets)
        for p in packets:
            names = layout.mask_names(p.nated)
            for guard in guards:
                tests = [atom_test(fvs, layout) for _, fvs in guard.atoms]
                kept = [t for t, (f, _) in zip(tests, guard.atoms) if f not in names]
                in_c = settles(store.field_summary(p.curr.node), tests)
                orig = store.field_summary(p.orig.node)
                if in_c:
                    settled = settles(orig, kept) is not None
                elif in_c is False:
                    settled = not kept or (len(kept) == len(tests)
                                           and settles(orig, tests) is not None)
                else:
                    settled = False
                calls = []
                kernel_and = store._and
                store._and = lambda a, b: calls.append(a) or kernel_and(a, b)
                try:
                    matched = lat.refine_match(p, guard)
                    split_calls = len(calls)
                    unmatched = lat.refine_unmatch(p, guard, matched)
                finally:
                    store._and = kernel_and
                assert matched == reference_refine_match(lat, p, guard)
                assert unmatched == reference_refine_unmatch(lat, p, guard)
                if settled:
                    assert not calls
                pieces = lat._plan(guard, p.nated)[3]
                if len(pieces) > 1:
                    shape = "per-atom"
                elif not pieces[0][2]:
                    shape = "un-NATed"
                else:
                    shape = "NATed" if len(guard.atoms) > 1 else "NATed, under two atoms"
                if matched is not None and matched.curr != p.curr:
                    partly.add(shape)
                if matched is None and len(pieces) == 1:
                    runs = shape == "un-NATed" and settles(orig, kept) is None
                    assert calls[split_calls:] == ([p.orig.node] if runs else [])
                    if p.curr.node != p.orig.node:
                        assert p.curr.node not in calls[split_calls:]
                seen.add((p.nated, in_c, settled, len(unmatched) > 1))
    assert {n for n, *_ in seen} == {0, 1, 2, 3}
    assert {(c, s) for _, c, s, _ in seen} >= {(True, True), (False, True), (None, False)}
    assert any(k for n, *_, k in seen if n in (1, 2))
    assert partly >= {"un-NATed", "NATed", "per-atom"}


@pytest.mark.parametrize("seed", range(20))
def test_filter_table_equals_rule_fold(seed):
    rng = random.Random(100 + seed)
    net = small_net()
    lat = get_lattice("v1", net)
    rules = [
        FilterRule(random_guard(rng, net.layout), rng.choice([DROP, ACCEPT]), i)
        for i in range(rng.randint(1, 4))
    ]
    rules.append(FilterRule(Guard(), ACCEPT, 99))
    pset = [random_packet(rng, net, lat)]

    got = filter_table_tf(rules, pset, None, lat)

    pending, accepted = list(pset), []
    for rule in rules:
        nxt = []
        for p in pending:
            acc, unm = filter_rule_tf(rule, p, None, lat)
            accepted.extend(acc)
            nxt.extend(unm)
        pending = nxt
    assert [q.curr for q in got] == [q.curr for q in accepted]


def _headers(formula, net):
    return set(formula.enumerate(1 << net.layout.total_bits))


@pytest.mark.parametrize("seed", range(30))
def test_filter_table_concretely_exact(seed):
    rng = random.Random(200 + seed)
    net = small_net()
    lat = get_lattice("v1", net)
    rules = [
        FilterRule(random_guard(rng, net.layout), rng.choice([DROP, ACCEPT]), i)
        for i in range(rng.randint(0, 3))
    ]
    rules.append(FilterRule(Guard(), rng.choice([DROP, ACCEPT]), 99))
    p = random_packet(rng, net, lat)

    out = filter_table_tf(rules, [p], None, lat)
    got = set()
    for q in out:
        got |= _headers(q.curr, net)
    want = {
        h for h in _headers(p.curr, net) if concrete_filter(rules, net.layout, h)
    }
    assert got == want


@pytest.mark.parametrize("seed", range(30))
def test_nat_table_concretely_exact(seed):
    rng = random.Random(300 + seed)
    net = small_net()
    lat = get_lattice("v1", net)
    rules = []
    for i in range(rng.randint(0, 3)):
        field = rng.choice(["s", "d"])
        lo = rng.randrange(8)
        hi = min(7, lo + rng.randint(0, 2))
        rules.append(
            NatRule(
                random_guard(rng, net.layout),
                field,
                parse_value_set(f"{lo}-{hi}", field, 3),
                i,
            )
        )
    p = random_packet(rng, net, lat)

    out = nat_table_tf(rules, [p], lat)
    got = set()
    for q in out:
        got |= _headers(q.curr, net)
    want = set()
    for h in _headers(p.curr, net):
        want.update(concrete_nat(rules, net.layout, h))
    assert got == want


@pytest.mark.parametrize("seed", range(30))
def test_v2_tables_concretely_exact_on_pairs(seed):
    """One DNAT+filter+SNAT pipeline: abstract (curr, orig) pairs with the
    NAT-mask agreement equal the concrete outcomes exactly."""
    rng = random.Random(400 + seed)
    net = small_net()
    lat = get_lattice("v2", net)
    layout = net.layout

    def nat_rules(field):
        rules = []
        for i in range(rng.randint(0, 2)):
            lo = rng.randrange(8)
            hi = min(7, lo + rng.randint(0, 2))
            rules.append(
                NatRule(random_guard(rng, layout), field, parse_value_set(f"{lo}-{hi}", field, 3), 10 + i)
            )
        return rules

    dnat, snat = nat_rules("d"), nat_rules("s")
    filt = [
        FilterRule(random_guard(rng, layout), rng.choice([DROP, ACCEPT]), i)
        for i in range(rng.randint(0, 2))
    ]
    filt.append(FilterRule(Guard(), ACCEPT, 99))

    p = lat.initial("A")[0]
    s = nat_table_tf(dnat, [p], lat)
    s = filter_table_tf(filt, s, None, lat)
    s = nat_table_tf(snat, s, lat)

    got = set()
    for q in s:
        free = [n for i, (n, _) in enumerate(layout.fields) if not (q.nated >> i) & 1]
        for c2 in q.curr.enumerate(64):
            pinned = q.orig
            for name in free:
                v = layout.extract_value(c2, name)
                pinned = pinned & net.store.atom(FieldValueSet(name, ((v, v),)))
            got.update((c2, c1) for c1 in pinned.enumerate(64))

    want = set()
    for o in _headers(p.curr, net):
        for c1 in concrete_nat(dnat, layout, o):
            if not concrete_filter(filt, layout, c1):
                continue
            for c2 in concrete_nat(snat, layout, c1):
                want.add((c2, o))
    assert got == want


# ------------------------------------------------- compiled accept regions

def random_table(rng, layout):
    rules = [
        FilterRule(random_guard(rng, layout), rng.choice([DROP, ACCEPT]), i)
        for i in range(rng.randint(0, 5))
    ]
    rules.append(FilterRule(Guard(), rng.choice([DROP, ACCEPT]), 99))
    return tuple(rules)


def compiled_equals_fold(table, pset, lat, ledger_store):
    """The region filter and the deferred drops against ``filter_table_tf``:
    the same accepted headers per NAT mask, the same ledger.  Returns the
    deferred ledger."""
    folded = DropLedger(ledger_store)
    pieces = filter_table_tf(table, pset, folded, lat)
    compiled = filter_region_tf(table, pset, lat)
    assert lat.join(compiled) == lat.join(pieces)
    region = reference_accept_region(table, lat.store)
    assert [q.curr for q in compiled] == [
        p.curr & region for p in pset if not (p.curr & region).is_empty()]
    deferred = DropLedger(ledger_store)
    filter_table_drops(table, pset, deferred, lat)
    assert deferred.items() == folded.items()
    return deferred


@pytest.mark.parametrize("seed", range(40))
def test_accept_region_equals_rule_fold_v1(seed):
    rng = random.Random(500 + seed)
    net = small_net()
    lat = get_lattice("v1", net)
    table = random_table(rng, net.layout)
    p = random_packet(rng, net, lat)
    deferred = compiled_equals_fold(table, [p], lat, net.store)
    for rule in table:  # each drop entry by brute force: first match is the rule
        want = {h for h in _headers(p.curr, net)
                if next(r for r in table if r.guard.matches(net.layout, h)) is rule
                and rule.action == DROP}
        assert _headers(deferred.dropped(rule.rule_id), net) == want


@pytest.mark.parametrize("seed", range(40))
def test_accept_region_equals_rule_fold_relational(seed):
    rng = random.Random(600 + seed)
    net = load_network(fixture_text("fig3-small.json"))
    lat = RelationalLattice(net)
    p = lat.initial("Z1")[0]
    p = lat.refine_match(p, random_guard(rng, net.layout)) or p
    # relations without and with s in the NAT mask (F1's SNAT rewrites s)
    snat = nat_table_tf(net.firewall("F1").snat, [p], lat)
    pset = lat.join([p, *snat]).packets
    assert [q.nated for q in pset] == [0, 1]
    compiled_equals_fold(random_table(rng, net.layout), pset, lat, net.store)


# ------------------------------------------- filter compile over live rules

def prefix_cube(rng, store):
    """A conjunction of one aligned block per field, each fixing a random
    number of leading bits; returns it with the blocks."""
    f = store.true
    blocks = []
    for name, width in store.layout.fields:
        free = width - rng.randint(0, width)
        lo = rng.randrange(1 << width) >> free << free
        hi = lo + (1 << free) - 1
        blocks.append((lo, hi))
        f = f & store.atom(FieldValueSet(name, ((lo, hi),)))
    return f, blocks


def random_formula(rng, store):
    """A union of random guards over every field of the store's layout,
    often cut down to a prefix cube."""
    f = store.false
    for _ in range(rng.randint(1, 3)):
        f = f | guard_to_formula(random_guard(rng, store.layout), store)
    if rng.random() < 0.7:
        f = f & prefix_cube(rng, store)[0]
    return f


def relational_fig3_small():
    """The relational lattice of fig3-small, whose store has the shadow
    field ``s~`` after ``s``."""
    lat = RelationalLattice(load_network(fixture_text("fig3-small.json")))
    assert lat.store.layout.names() == ("s", "s~", "d")
    return lat


@pytest.mark.parametrize("relational", [False, True])
def test_live_rules_on_cubes_read_the_blocks(relational):
    """A prefix cube's field summary is its blocks, so ``live_rules`` leaves
    out exactly the rules with an atom that misses its field's block, drops
    exactly the atoms that hold their whole block, and builds no node."""
    lat = relational_fig3_small() if relational else get_lattice("v1", small_net())
    store = lat.store
    rng = random.Random(700 + relational)
    dead = cut = 0
    for _ in range(200):
        cube, blocks = prefix_cube(rng, store)
        assert [r for r, _ in store.field_summary(cube.node)] == [(b,) for b in blocks]
        table = random_table(rng, lat.net.layout)
        before = store.node_count()
        live = dict(live_rules(table, store, cube.node))
        assert store.node_count() == before
        for i, rule in enumerate(table):
            kept = []
            for atom in rule.guard.atoms:
                k, ranges = atom_test(atom[1], store.layout)
                lo, hi = blocks[k]
                if not any(a <= hi and lo <= b for a, b in ranges):
                    assert i not in live
                    dead += 1
                    break
                if not any(a <= lo and hi <= b for a, b in ranges):
                    kept.append(atom)
            else:
                assert live[i].atoms == tuple(kept)
                assert (live[i] is rule.guard) == (len(kept) == len(rule.guard.atoms))
                cut += len(rule.guard.atoms) - len(kept)
    assert dead > 50 and cut > 50


def live_equals_reference(lat, table, packets, ledger_store):
    """The live-rule region and drops of each packet against the
    whole-table reference, and each cofactored guard against its rule's;
    returns how many rules were left out and how many atoms cofactored."""
    store = lat.store
    dead = cut = 0
    for p in packets:
        guards = dict(live_rules(table, store, p.curr.node))
        for i, rule in enumerate(table):
            full = p.curr & guard_to_formula(rule.guard, store)
            if i in guards:
                atoms = guards[i].atoms
                assert set(atoms) <= set(rule.guard.atoms)
                assert p.curr & guard_to_formula(guards[i], store) == full
                cut += len(rule.guard.atoms) - len(atoms)
            else:
                assert full.is_empty()
        dead += len(table) - len(guards)
        assert (p.curr & accept_region(table, store, live_rules(table, store, p.curr.node))
                == p.curr & reference_accept_region(table, store))
    drops_equal_whole_table_twice(lat, table, packets, ledger_store)
    return dead, cut


@pytest.mark.parametrize("relational", [False, True])
def test_live_rules_compile_equals_whole_table(relational):
    """On random tables and random formulas, the accept region of the live
    rules, through their cofactored guards, meets each packet as the whole
    table's does, and the drops equal the whole-table ledger; for the
    relational store, with and without ``s`` in the NAT mask."""
    lat = relational_fig3_small() if relational else get_lattice("v1", small_net())
    net = lat.net
    rng = random.Random(800 + relational)
    dead = cut = 0
    for _ in range(150):
        table = random_table(rng, net.layout)
        packets = []
        for _ in range(rng.randint(1, 2)):
            f = random_formula(rng, lat.store)
            if not f.is_empty():
                packets.append(AbstractPacket(f, None, rng.randint(0, 1) if relational else 0))
        d, c = live_equals_reference(lat, table, packets, net.store)
        dead += d
        cut += c
    assert dead > 30 and cut > 20


def test_rules_are_left_out_or_cofactored_from_a_rest_zone():
    """From the rest zone, as from a zone, the packets' field summaries
    leave out rules and cofactor atoms: the rest zone's sources miss every
    zone's."""
    text = (DATA / "mesh-6x8-1.json").read_text(encoding="utf-8")
    changed = {}
    for origin in ("REST", "Z0"):
        net = load_network(text)
        result = analyze(net, origin, "v1")
        changed[origin] = 0
        for fw in net.firewalls:
            for p in result.facts[fw.name].packets:
                live = live_rules(fw.filter, net.store, p.curr.node)
                changed[origin] += len(fw.filter) - sum(
                    g is fw.filter[i].guard for i, g in live)
    assert changed["REST"] > 10 and changed["Z0"] > 10, changed


def drops_equal_whole_table_twice(lat, table, packets, ledger_store) -> int:
    """The drops of ``packets`` against the whole-table reference, recorded
    twice into one ledger; the second call, after the computed tables are
    emptied as the engine empties them, builds no node.  Returns how many
    rules dropped something."""
    got, want = DropLedger(ledger_store), DropLedger(ledger_store)
    filter_table_drops(table, packets, got, lat)
    lat.store.clear_computed()
    nodes = lat.store.node_count(), ledger_store.node_count()
    filter_table_drops(table, packets, got, lat)
    assert (lat.store.node_count(), ledger_store.node_count()) == nodes
    reference_filter_table_drops(table, packets, want, lat)
    assert got.items() == want.items()
    return len(got.rule_ids())


def test_drop_regions_equal_whole_table_from_a_rest_zone():
    """Each firewall's final value from the rest zone, whose sources are a
    complement, in the class store of ``mesh-6x8-1.json``."""
    net = load_network((DATA / "mesh-6x8-1.json").read_text(encoding="utf-8"))
    classes = analyze(net, "REST", "v1").classes
    lat = get_lattice("v1", classes.net)
    dropping = sum(
        drops_equal_whole_table_twice(lat, fw.filter, classes.facts[fw.name].packets,
                                      classes.net.store)
        for fw in classes.net.firewalls)
    assert dropping > 5, dropping


def test_drop_regions_equal_whole_table_in_the_relational_store():
    """Each firewall's final relations through its DNAT, from every zone of
    ``ring-4x4-1.json``, whose ledger holds original headers."""
    ring = load_network((DATA / "ring-4x4-1.json").read_text(encoding="utf-8"))
    dropping = 0
    for zone in ring.zones:
        lat, facts, _, _ = engine.analyze_relations(ring, zone.name)
        for fw in lat.net.firewalls:
            if facts[fw.name].packets:
                packets = lat.join(nat_table_tf(fw.dnat, facts[fw.name].packets, lat)).packets
                dropping += drops_equal_whole_table_twice(lat, fw.filter, packets,
                                                          lat.net.store)
    assert dropping > 10, dropping


@contextlib.contextmanager
def whole_table_compile():
    """Filter with the whole-table reference compile and drops."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(xfer, "accept_region",
                   lambda table, store, live: reference_accept_region(table, store))
        mp.setattr(engine, "filter_table_drops", reference_filter_table_drops)
        yield


def assert_v1_equals_whole_table(net, origin):
    got = analyze(net, origin, "v1")
    with whole_table_compile():
        want = analyze(net, origin, "v1")
    assert got.facts == want.facts
    assert got.ledger.items() == want.ledger.items()
    assert (got.stats.joins, got.stats.iterations) == (want.stats.joins, want.stats.iterations)


@pytest.mark.parametrize("first", range(0, 100, 25))
def test_v1_equals_whole_table_compile_on_random_networks(first):
    for seed in range(first, first + 25):
        cfg, origin = random_network(seed)
        assert_v1_equals_whole_table(network_from_config(cfg), origin)


def test_v1_equals_whole_table_compile_on_port_rest_networks():
    for seed in range(20):
        net = network_from_config(port_rest_network(seed))
        for zone in net.zones:
            assert_v1_equals_whole_table(net, zone.name)


@settings(max_examples=100, deadline=None)
@given(revalued_configs())
def test_v1_equals_whole_table_compile_on_revalued_configs(doc):
    net = network_from_config(doc)
    for zone in net.zones:
        assert_v1_equals_whole_table(net, zone.name)
