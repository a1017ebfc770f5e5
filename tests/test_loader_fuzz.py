"""Loader fuzz: a mutated configuration loads or fails with ``ConfigError``.

Each example starts from a bundled fixture or a ``gen.random_network``
config and applies one to three mutations.  A mutation picks a random path
into the document (the root included) and either deletes the value there or
replaces it with one from a pool of wrong-typed and malformed values.
``load_network`` must then return a ``Network`` or raise ``ConfigError``,
which the CLI reports with exit status 2; any other exception is a loader
bug that would end in a traceback.
"""

from __future__ import annotations

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from pktflow.gen import FIXTURES, fixture_text, random_network
from pktflow.netmodel import ConfigError, Network, load_network

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
