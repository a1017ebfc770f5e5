"""Shared test utilities: display-format parsing, concrete table oracles,
a last-in, first-out analysis, and the benchmark's network generator."""

from __future__ import annotations

import importlib.util
import random
from collections import deque
from pathlib import Path

from brute import field_count, with_value
from pktflow import engine
from pktflow.gen import _random_guard, _random_range
from pktflow.netmodel import DROP, Guard, Network, parse_value_set
from pktflow.pktset import Formula

# perfbench/netgen.py, the benchmark's seed-deterministic rings and meshes
_spec = importlib.util.spec_from_file_location(
    "netgen", Path(__file__).resolve().parent.parent / "perfbench" / "netgen.py")
netgen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(netgen)


def display_to_grammar(text: str) -> str:
    """Convert the CLI's display value-set form back to the config grammar."""
    text = text.strip()
    if text == "true":
        return "*"
    neg = text.startswith("!")
    if neg:
        text = text[1:]
    if text.startswith("{") and text.endswith("}"):
        text = text[1:-1]
    text = ",".join(part.strip() for part in text.split(","))
    return ("!" if neg else "") + text


def bracket_to_formula(bracket: str, net: Network) -> Formula:
    """Parse one display bracket group '[a : b : ...]' into a formula."""
    body = bracket.strip()
    assert body.startswith("[") and body.endswith("]"), bracket
    parts = body[1:-1].split(" : ")
    layout = net.layout
    assert len(parts) == field_count(layout), bracket
    f = net.store.true
    for (name, width), part in zip(layout.fields, parts):
        f = f & net.store.atom(parse_value_set(display_to_grammar(part), name, width))
    return f


def packet_text_to_formulas(text: str, net: Network) -> list[Formula]:
    """Parse '<[..] [..]>' into [curr, orig] (or [curr]) formulas."""
    body = text.strip()
    assert body.startswith("<") and body.endswith(">"), text
    groups = []
    depth = 0
    start = None
    for i, ch in enumerate(body):
        if ch == "[":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth == 0:
                groups.append(body[start : i + 1])
    return [bracket_to_formula(g, net) for g in groups]


def facts_line(output: str, node: str) -> str:
    for line in output.splitlines():
        if line.startswith(f"facts({node}) = "):
            return line.split(" = ", 1)[1]
    raise AssertionError(f"no facts line for {node}")


# ---------------------------------------------------------- concrete tables

def concrete_filter(rules, layout, header: int) -> bool:
    """First-match filter semantics on one concrete header."""
    for r in rules:
        if r.guard.matches(layout, header):
            return r.action != DROP
    return True


def concrete_nat(rules, layout, header: int) -> list[int]:
    """First-match NAT semantics: all possible rewrites of one header."""
    for r in rules:
        if r.guard.matches(layout, header):
            return [with_value(layout, header, r.nat_field, v) for v in r.action.values()]
    return [header]


def guard_of(layout, **atoms) -> Guard:
    """Build a Guard from field=value-set-string keyword arguments."""
    parsed = tuple(
        (name, parse_value_set(text, name, layout.width(name)))
        for name, text in atoms.items()
    )
    return Guard(tuple(sorted(parsed, key=lambda a: layout.index(a[0]))))


# ---------------------------------------------------------- worklist order

class _Stack(deque):
    """A deque whose ``popleft`` pops the newest entry."""

    popleft = deque.pop


def analyze_lifo(net: Network, origin: str, variant: str = "v2"):
    """``engine.analyze`` with its worklist popped last in, first out: the
    engine's queue is a ``_Stack`` for this one run.  The fixpoint must
    equal the first-in, first-out one."""
    engine.deque = _Stack
    try:
        return engine.analyze(net, origin, variant)
    finally:
        engine.deque = deque


# ---------------------------------------------------------- generated networks

def port_rest_network(seed: int) -> dict:
    """A ring of 2-3 firewalls over an s/sp/d/dp layout, with the features
    ``gen.random_network`` never produces: DNAT on d and dp, SNAT on s and
    sp, zone ports, a rest zone when addresses are left over, and routing
    guards on dp.  Every zone is a valid origin."""
    rng = random.Random(seed)
    addr_w, port_w = rng.choice([2, 3]), rng.choice([1, 2])
    fields = [("s", addr_w), ("sp", port_w), ("d", addr_w), ("dp", port_w)]
    n_fw = rng.randint(2, 3)
    interfaces = [[f"f{i}-prev", f"f{i}-next"] for i in range(n_fw)]
    links = [[f"f{i}-next", f"f{(i + 1) % n_fw}-prev"] for i in range(n_fw)]

    n_zones = rng.randint(2, min(3, (1 << addr_w) // 2))
    bounds = sorted(rng.sample(range(1 << addr_w), 2 * n_zones))
    zones, covered = [], 0
    for i in range(n_zones):
        lo = bounds[2 * i]
        hi = bounds[2 * i + 1] if rng.random() < 0.7 else lo
        covered += hi - lo + 1
        zone = {"name": f"Z{i}", "interface": f"z{i}", "addr": f"{lo}-{hi}"}
        if rng.random() < 0.5:
            zone["ports"] = _random_range(rng, 1 << port_w)
        zones.append(zone)
    if covered < 1 << addr_w:
        zones.append({"name": "Zrest", "interface": "zrest", "rest": True})
    for zone in zones:
        fw = rng.randrange(n_fw)
        interfaces[fw].append(f"f{fw}-{zone['interface']}")
        links.append([zone["interface"], f"f{fw}-{zone['interface']}"])

    def nat(targets: tuple[str, str]) -> list[dict]:
        return [
            {
                "guard": _random_guard(rng, fields),
                "field": (name := rng.choice(targets)),
                "to": _random_range(rng, 1 << dict(fields)[name], max_span=1),
            }
            for _ in range(rng.randint(0, 2))
        ]

    firewalls = []
    for i in range(n_fw):
        routing = {}
        for iface in interfaces[i]:
            keys = rng.choice([(), ("d",), ("dp",), ("d", "dp"), None])
            if keys is not None:
                routing[iface] = {k: _random_range(rng, 1 << dict(fields)[k]) for k in keys}
        filt = [
            {"guard": _random_guard(rng, fields), "action": rng.choice(["DROP", "ACCEPT"])}
            for _ in range(rng.randint(0, 2))
        ]
        firewalls.append({
            "name": f"F{i}",
            "interfaces": interfaces[i],
            "dnat": nat(("d", "dp")),
            "filter": filt + [{"guard": {}, "action": "ACCEPT"}],
            "snat": nat(("s", "sp")),
            "routing": routing,
        })
    return {
        "schema": 1,
        "layout": [{"name": n, "width": w} for n, w in fields],
        "zones": zones,
        "firewalls": firewalls,
        "links": links,
    }
