from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import drop_rule_ids
from pktflow.engine import get_lattice
from pktflow.gen import FIXTURES, fixture_text, random_network
from pktflow.netmodel import (
    ConfigError,
    Guard,
    guard_to_formula,
    load_network,
    network_from_config,
    network_to_config,
    parse_value_set,
    value_set_to_text,
)
from pktflow.pktset import FieldValueSet, FormulaStore, HeaderLayout, complement_ranges

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture
def fig3():
    return load_network(fixture_text("fig3.json"))


@pytest.fixture
def fig3_cfg():
    return json.loads(fixture_text("fig3.json"))


# ------------------------------------------------------------- value sets

@pytest.mark.parametrize(
    "text,expected",
    [
        ("209.85.153.85", ((0xD1559955, 0xD1559955),)),
        ("10.192.29.1-255", ((0x0AC01D01, 0x0AC01DFF),)),
        ("10.192.29.[1-255]", ((0x0AC01D01, 0x0AC01DFF),)),
        ("202.67.34.6-202.67.34.10", ((0xCA432206, 0xCA43220A),)),
        ("10.0.0.0/8", ((0x0A000000, 0x0AFFFFFF),)),
        ("0.0.0.0/0", ((0, 0xFFFFFFFF),)),
        ("*", ((0, 0xFFFFFFFF),)),
        ("1.2.3.4, 1.2.3.9-12", ((0x01020304, 0x01020304), (0x01020309, 0x0102030C),)),
    ],
)
def test_parse_32bit_value_sets(text, expected):
    fvs = parse_value_set(text, "s", 32)
    assert fvs.ranges == expected


def test_parse_negation_and_ints():
    fvs = parse_value_set("!3,5-7", "s", 4)
    assert fvs.ranges == ((0, 2), (4, 4), (8, 15))
    assert parse_value_set("!3", "s", 4) == parse_value_set("0-2,4-15", "s", 4)
    assert parse_value_set("!*", "s", 4).ranges == ()
    assert parse_value_set("0-15", "s", 4).ranges == ((0, 15),)


@st.composite
def range_texts(draw):
    """A field width of 1 to 8 bits and a value-set text on it, without '!'."""
    width = draw(st.integers(1, 8))
    value = st.integers(0, (1 << width) - 1)
    item = st.one_of(
        st.just("*"),
        value.map(str),
        st.tuples(value, value).map(lambda t: f"{min(t)}-{max(t)}"),
    )
    return width, ", ".join(draw(st.lists(item, min_size=1, max_size=4)))


@settings(max_examples=150, deadline=None)
@given(range_texts())
def test_a_written_complement_is_resolved_at_parse(case):
    width, text = case
    plain = parse_value_set(text, "s", width)
    complement = parse_value_set("!" + text, "s", width)
    for v in range(1 << width):
        assert complement.contains(v) != plain.contains(v), v
    # the complement written out as its ranges is the same set
    spelled = ",".join(f"{lo}-{hi}" for lo, hi in complement.ranges) or "!*"
    assert parse_value_set(spelled, "s", width) == complement
    # so both spellings key one guard formula
    store = FormulaStore(HeaderLayout((("s", width),)))
    for fvs in (complement, parse_value_set(spelled, "s", width)):
        guard_to_formula(Guard((("s", fvs),)), store)
    assert len(store.guard_formulas) == 1


@pytest.mark.parametrize(
    "text,width",
    [
        ("256.1.1.1", 32),
        ("1.2.3", 32),
        ("1.2.3.4/40", 32),
        ("1.2.3.4-270", 32),
        ("1.2.3.4", 4),  # dotted literal on a narrow field
        ("16", 4),
        ("5-2", 4),
        ("", 4),
        ("!", 4),
        ("abc", 8),
    ],
)
def test_parse_value_set_errors(text, width):
    with pytest.raises(ConfigError):
        parse_value_set(text, "s", width)


@pytest.mark.parametrize(
    "fvs,width",
    [
        (FieldValueSet("s", ((0x0AC01D01, 0x0AC01DFF),)), 32),
        (FieldValueSet("s", ((0xCA432206, 0xCA43230A),)), 32),
        (FieldValueSet("s", ((0, 1), (3, 4), (10, 15))), 4),
        (FieldValueSet("s", ((0, 15),)), 4),
        (FieldValueSet("s", ()), 4),
    ],
)
def test_value_set_text_roundtrip(fvs, width):
    text = value_set_to_text(fvs, width)
    assert parse_value_set(text, "s", width) == fvs


# ------------------------------------------------------------- loading

def test_fig3_shape(fig3):
    assert [z.name for z in fig3.zones] == ["Z1", "Z2", "Z3", "Z4"]
    assert [f.name for f in fig3.firewalls] == ["F1", "F2"]
    assert len(fig3.links) == 5
    f1, f2 = fig3.firewalls
    assert [r.rule_id for r in f1.filter] == [1, 2, 6]
    assert [r.rule_id for r in f1.snat] == [3, 4]
    assert [r.rule_id for r in f2.filter] == [5, 7]
    assert drop_rule_ids(fig3) == [1, 2, 5]
    assert fig3.zone("Z4").rest


def test_rest_zone_is_complement(fig3):
    z4 = fig3.zone("Z4")
    others = FieldValueSet("s", [r for z in fig3.zones[:3] for r in z.addr.ranges])
    assert z4.addr.ranges == complement_ranges(others.ranges, 32)
    union = fig3.store.false
    for z in fig3.zones[:3]:
        union = union | fig3.store.atom(z.addr)
    assert fig3.store.atom(z4.addr) == ~union


def test_zone_disjointness(fig3):
    for i, a in enumerate(fig3.zones):
        for b in fig3.zones[i + 1 :]:
            assert (fig3.store.atom(a.addr) & fig3.store.atom(b.addr)).is_empty()


def test_missing_default_rule(fig3_cfg):
    fig3_cfg["firewalls"][0]["filter"] = fig3_cfg["firewalls"][0]["filter"][:-1]
    with pytest.raises(ConfigError, match="missing default rule"):
        network_from_config(fig3_cfg)


def test_link_within_one_firewall(fig3_cfg):
    fig3_cfg["links"].append(["f1-z1", "f1-z2"])
    with pytest.raises(ConfigError, match="same firewall"):
        network_from_config(fig3_cfg)


def test_overlapping_zones(fig3_cfg):
    fig3_cfg["zones"][1]["addr"] = "10.192.29.40-60"
    with pytest.raises(ConfigError, match="overlapping"):
        network_from_config(fig3_cfg)


def test_zone_needs_exactly_one_link(fig3_cfg):
    fig3_cfg["links"] = fig3_cfg["links"][1:]
    with pytest.raises(ConfigError, match="exactly one link"):
        network_from_config(fig3_cfg)


def test_unknown_guard_field(fig3_cfg):
    fig3_cfg["firewalls"][0]["filter"][0]["guard"]["bogus"] = "1-2"
    with pytest.raises(ConfigError, match="unknown field"):
        network_from_config(fig3_cfg)


def test_nat_direction_enforced(fig3_cfg):
    fig3_cfg["firewalls"][0]["snat"][0]["field"] = "d"
    with pytest.raises(ConfigError, match="cannot write"):
        network_from_config(fig3_cfg)


def test_negated_nat_action_rejected(fig3_cfg):
    fig3_cfg["firewalls"][0]["snat"][0]["to"] = "!202.67.34.6-10"
    with pytest.raises(ConfigError, match="NAT action"):
        network_from_config(fig3_cfg)


def test_duplicate_rule_ids(fig3_cfg):
    fig3_cfg["firewalls"][0]["filter"][1]["id"] = 1
    with pytest.raises(ConfigError, match="duplicate explicit rule ids"):
        network_from_config(fig3_cfg)


def test_routing_unknown_interface(fig3_cfg):
    fig3_cfg["firewalls"][0]["routing"]["nope"] = {}
    with pytest.raises(ConfigError, match="unknown interface"):
        network_from_config(fig3_cfg)


def test_json_error_position():
    with pytest.raises(ConfigError, match="line"):
        load_network("{ not json")


@pytest.mark.parametrize(
    "mangle",
    [
        lambda c: c.update(zones="oops"),
        lambda c: c.update(zones=["oops"]),
        lambda c: c.update(firewalls=[42]),
        lambda c: c.update(links="oops"),
        lambda c: c.pop("links"),
        # a library caller may pass values that JSON has no form for
        lambda c: c["zones"][0].update(name=b"Z1"),
        lambda c: c["firewalls"][0]["interfaces"].__setitem__(1, {"f1-z2"}),
        lambda c: c["links"][0].__setitem__(0, object()),
    ],
)
def test_malformed_structure_is_config_error(fig3_cfg, mangle):
    mangle(fig3_cfg)
    with pytest.raises(ConfigError):
        network_from_config(fig3_cfg)


def test_ports_need_sp_field(fig3_cfg):
    fig3_cfg["zones"][0]["ports"] = "1-2"
    with pytest.raises(ConfigError, match="no sp field"):
        network_from_config(fig3_cfg)


# ------------------------------------------------------------- round trip

@pytest.mark.parametrize("config", [
    *(pytest.param(lambda name=name: fixture_text(name), id=name) for name in FIXTURES),
    *(pytest.param(path.read_text, id=path.name) for path in sorted(DATA.glob("*.json"))
      if path.name != "cli_golden.json"),
])
def test_fixture_roundtrip(config):
    net = load_network(config())
    cfg = network_to_config(net)
    net2 = network_from_config(cfg)
    assert net2 == net
    assert network_to_config(net2) == cfg


@pytest.mark.parametrize("seed", range(2000, 2010))
def test_random_net_roundtrip(seed):
    cfg, _ = random_network(seed)
    net = network_from_config(cfg)
    rendered = network_to_config(net)
    assert network_from_config(rendered) == net
    assert network_to_config(network_from_config(rendered)) == rendered


def test_empty_guard_set_roundtrips_as_bang_star(fig3_cfg):
    fig3_cfg["firewalls"][0]["filter"][0]["guard"]["d"] = "!*"
    net = network_from_config(fig3_cfg)
    cfg = network_to_config(net)
    assert cfg["firewalls"][0]["filter"][0]["guard"]["d"] == "!*"
    assert network_from_config(cfg) == net


@pytest.mark.parametrize("config", [
    *(pytest.param(lambda name=name: fixture_text(name), id=name) for name in FIXTURES),
    pytest.param(lambda: json.dumps(random_network(7)[0]), id="random-7"),
])
def test_loading_builds_no_formula(config):
    # value sets are width-checked as they are parsed; guards and atoms are
    # built on first use by an analysis
    net = load_network(config())
    assert net.store.node_count() == 2


# ------------------------------------------------------------- guards

def test_guard_to_formula_rule5(fig3):
    rule5 = fig3.firewall("F2").filter[0]
    assert guard_to_formula(rule5.guard, fig3.store) == fig3.store.atom(
        parse_value_set("202.67.34.6-10", "s", 32)
    )


def test_guard_to_formula_empty_is_true(fig3):
    assert guard_to_formula(Guard(), fig3.store) == fig3.store.true


def test_guard_to_formula_two_atoms(fig3):
    rule1 = fig3.firewall("F1").filter[0]
    expected = fig3.store.atom(parse_value_set("10.192.29.1-255", "s", 32)) & fig3.store.atom(
        parse_value_set("209.85.153.85", "d", 32)
    )
    assert guard_to_formula(rule1.guard, fig3.store) == expected


# ------------------------------------------------------------- initial values

def test_initial_value_variants(fig3):
    store = fig3.store
    z1_atom = store.atom(parse_value_set("10.192.29.1-255", "s", 32))

    v1 = get_lattice("v1", fig3).initial("Z1")
    assert len(v1) == 1
    assert v1[0].curr == z1_atom

    (p,) = get_lattice("v2", fig3).initial("Z1")
    assert p.curr == z1_atom and p.orig == z1_atom and p.nated == 0

    (ia,) = get_lattice("ia", fig3).initial("Z1")
    curr = ia.curr
    assert curr.extract_field("s") == z1_atom
    assert curr.extract_field("d") == store.true


def test_initial_value_full_space_zone():
    cfg = {
        "layout": [{"name": "s", "width": 3}, {"name": "d", "width": 3}],
        "zones": [
            {"name": "A", "interface": "a", "addr": "0-7"},
        ],
        "firewalls": [
            {
                "name": "F",
                "interfaces": ["fa"],
                "filter": [{"guard": {}, "action": "ACCEPT"}],
                "routing": {},
            }
        ],
        "links": [["a", "fa"]],
    }
    net = network_from_config(cfg)
    assert get_lattice("v1", net).initial("A")[0].curr == net.store.true


def test_ipv4lite_preset_layout():
    cfg = {
        "layout": "ipv4lite",
        "zones": [
            {"name": "A", "interface": "a", "addr": "10.0.0.0/24", "ports": "1024-65535"},
            {"name": "B", "interface": "b", "addr": "10.0.1.0/24"},
        ],
        "firewalls": [
            {
                "name": "F",
                "interfaces": ["fa", "fb"],
                "dnat": [
                    {"guard": {"d": "10.0.1.0/24", "dp": "80"}, "field": "dp", "to": "8080"}
                ],
                "filter": [{"guard": {}, "action": "ACCEPT"}],
                "snat": [],
                "routing": {"fb": {"d": "10.0.1.0/24"}},
            }
        ],
        "links": [["a", "fa"], ["b", "fb"]],
    }
    net = network_from_config(cfg)
    assert net.layout.total_bits == 96
    from pktflow.engine import analyze

    res = analyze(net, "A", "v2")
    dp_bit = 1 << net.layout.index("dp")
    by_mask = {p.nated: p for p in res.facts["B"].packets}
    assert set(by_mask) == {0, dp_bit}
    # web traffic arrives on the rewritten port and remembers port 80
    nated = by_mask[dp_bit]
    assert nated.curr.field_ranges("dp") == ((8080, 8080),)
    assert nated.orig.field_ranges("dp") == ((80, 80),)
    # everything else passes through untouched
    plain = by_mask[0]
    assert (80, 80) not in plain.curr.field_ranges("dp")
    assert plain.orig.field_ranges("sp") == ((1024, 65535),)


def test_initial_value_with_ports():
    cfg = {
        "layout": [{"name": "s", "width": 3}, {"name": "d", "width": 3}, {"name": "sp", "width": 2}],
        "zones": [
            {"name": "A", "interface": "a", "addr": "0-3", "ports": "2-3"},
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
    net = network_from_config(cfg)
    got = get_lattice("v1", net).initial("A")[0].curr
    expected = net.store.atom(parse_value_set("0-3", "s", 3)) & net.store.atom(
        parse_value_set("2-3", "sp", 2)
    )
    assert got == expected
