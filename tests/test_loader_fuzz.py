"""Loader fuzz: a mutated configuration loads or fails with ``ConfigError``.

Each example starts from a bundled fixture or a ``gen.random_network``
config and applies one to three mutations.  A mutation picks a random path
into the document (the root included) and either deletes the value there or
replaces it with one from a pool of wrong-typed and malformed values.
``load_network`` must then return a ``Network`` or raise ``ConfigError``,
which the CLI reports with exit status 2; any other exception is a loader
bug that would end in a traceback.  Those documents pass through
``json.dumps``, so ``non_json_leaf_configs`` also hands
``network_from_config`` a config with one leaf replaced by a Python value
that JSON has no form for (bytes, a set, a tuple, an ``object()``, nan, an
infinity, a dict with a tuple key or a list that holds itself), as a
library caller may; it must raise ``ConfigError``.

Few of those documents load, so ``revalued_configs`` mutates inside the
grammar instead: it gives a guard entry, a NAT ``to`` or a zone address
another valid value set of the same width, or flips a filter rule other
than the default between ACCEPT and DROP.  Every such document loads, and
the analyses on it must agree with each other from every zone.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import is_field_product, reference_packet_policy
from pktflow.engine import analyze
from pktflow.gen import FIXTURES, fixture_text, random_network
from pktflow.netmodel import (
    ConfigError,
    Network,
    load_network,
    network_from_config,
    parse_value_set,
)
from pktflow.policy import infer_policy

BASES = [json.loads(fixture_text(name)) for name in FIXTURES] + [
    random_network(seed)[0] for seed in range(12)
]

POOL = [
    None, True, False, 0, -1, 7, 1.5, float("nan"), 2**70,
    "", "x", "*", "!*", "!", "1-0", "5-", "-5", ",", "1,,2", "0-99999999999",
    "10.0.0.1-3", "10.0.0.300", "256.1.1.1", "1.2.3", "ipv4lite", "addr2",
    [], [1], ["a"], ["a", "b"], [[]], [{}], {}, {"s": "1"}, {"name": "x"},
    {"name": "x", "width": 0}, {"x": {}},
]


def paths(doc, prefix=()):
    """Every path into a JSON document, the root first."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from paths(value, (*prefix, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from paths(value, (*prefix, i))


@st.composite
def mutated_configs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths(doc))))
        delete = path and draw(st.booleans())
        value = None if delete else copy.deepcopy(draw(st.sampled_from(POOL)))
        if not path:
            doc = value
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if delete:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


@settings(max_examples=150, deadline=None)
@given(mutated_configs())
def test_mutated_config_loads_or_raises_config_error(doc):
    try:
        net = load_network(json.dumps(doc))
    except ConfigError:
        return
    assert isinstance(net, Network)


CYCLE: list = []
CYCLE.append(CYCLE)
NON_JSON = [b"Z1", b"", {"a"}, frozenset(), ("a",), (), object(),
            float("nan"), float("inf"), float("-inf"), {(1,): "a"}, CYCLE]


@st.composite
def non_json_leaf_configs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    leaves = []
    for path in paths(doc):
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if path and not isinstance(parent[path[-1]], (dict, list)):
            leaves.append((parent, path[-1]))
    parent, key = draw(st.sampled_from(leaves))
    parent[key] = draw(st.sampled_from(NON_JSON))
    return doc


@settings(max_examples=200, deadline=None)
@given(non_json_leaf_configs())
def test_non_json_leaf_raises_config_error(doc):
    with pytest.raises(ConfigError):
        network_from_config(doc)


def value_sites(doc, layout):
    """``(container, key, width, positive)`` for every guard entry and NAT
    ``to`` of a configuration; ``positive`` when the set may not be negated."""
    sites = []
    for fw in doc["firewalls"]:
        guards = [rule.get("guard", {}) for table in ("dnat", "filter", "snat")
                  for rule in fw.get(table, [])] + list(fw.get("routing", {}).values())
        sites += [(g, name, layout.width(name), False) for g in guards for name in g]
        sites += [(rule, "to", layout.width(rule["field"]), True)
                  for table in ("dnat", "snat") for rule in fw.get(table, [])]
    return sites


def random_value_sets(width: int, positive: bool):
    top = (1 << width) - 1
    item = st.tuples(st.integers(0, top), st.integers(0, top)).map(
        lambda t: f"{min(t)}-{max(t)}")
    union = st.lists(item, min_size=1, max_size=2).map(",".join)
    if positive:
        return union
    return st.just("*") | st.tuples(st.booleans(), union).map(
        lambda t: ("!" if t[0] else "") + t[1])


@st.composite
def revalued_configs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    layout = load_network(json.dumps(doc)).layout
    sites = value_sites(doc, layout)
    zones = [z for z in doc["zones"] if "addr" in z]
    # every value set in the document, by the width of its field
    pool: dict[int, list[str]] = {}
    for container, key, width, _ in sites:
        pool.setdefault(width, []).append(container[key])
    pool.setdefault(layout.width("s"), []).extend(z["addr"] for z in zones)
    rules = [rule for fw in doc["firewalls"] for rule in fw["filter"][:-1]]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["value", "action", "addr"]))
        if kind == "value" and sites:
            container, key, width, positive = draw(st.sampled_from(sites))
            known = [v for v in pool[width] if not (positive and v.strip().startswith("!"))]
            container[key] = draw(st.sampled_from(known) | random_value_sets(width, positive))
        elif kind == "action" and rules:
            rule = draw(st.sampled_from(rules))
            rule["action"] = "DROP" if rule["action"] == "ACCEPT" else "ACCEPT"
        elif kind == "addr":
            # swapping two zones' addresses or shrinking one keeps them disjoint
            a, b = draw(st.sampled_from(zones)), draw(st.sampled_from(zones))
            if a is not b:
                a["addr"], b["addr"] = b["addr"], a["addr"]
            else:
                lo, hi = parse_value_set(a["addr"], "s", layout.width("s")).ranges[0]
                new_lo = draw(st.integers(lo, hi))
                a["addr"] = f"{new_lo}-{draw(st.integers(new_lo, hi))}"
    return doc


def union_of_currs(store, value):
    acc = store.false
    for p in value.packets:
        acc = acc | p.curr
    return acc


@settings(max_examples=300, deadline=None)
@given(revalued_configs())
def test_revalued_config_variants_agree(doc):
    net = load_network(json.dumps(doc))
    for zone in net.zones:
        v1, v2, ia = (analyze(net, zone.name, v) for v in ("v1", "v2", "ia"))
        for node in net.node_names():
            exact = union_of_currs(net.store, v1.facts[node])
            assert exact == union_of_currs(net.store, v2.facts[node]), node
            assert exact.implies(union_of_currs(net.store, ia.facts[node])), node
            assert all(is_field_product(p.curr) for p in ia.facts[node].packets), node
        relational = infer_policy(net, zone.name)
        packets = reference_packet_policy(net, zone.name)
        assert (relational.accept, relational.reject) == (packets.accept, packets.reject)
