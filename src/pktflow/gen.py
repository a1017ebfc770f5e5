"""Bundled fixture access and network generators for checking.

``cycle_network(k)`` builds a ring of k routers (2 to 13, over 4-bit ``s``
and ``d`` fields) in which a packet must go around the full cycle k times
before it may leave: the entry router steps the source field 0 -> 1 -> ...
one unit per visit and releases packets to the exit zone only once the value
passes k.  These nets demonstrate that bounded unrolling misses flows a
fixpoint finds.

``random_network(seed)`` builds small, valid, seed-deterministic networks
(at most 6 nodes, 4 rules per table, 8 header bits) for oracle-backed trials.
"""

from __future__ import annotations

import random

FIXTURES = ("fig1.json", "fig1-small.json", "fig3.json", "fig3-small.json")


def fixture_path(name: str):
    """Filesystem path of a bundled fixture (fig1.json, fig3-small.json, ...)."""
    # imported here: ``check --trials`` reads no fixture, and without a
    # site that preloads it this import costs more than the generator
    from importlib import resources

    path = resources.files("pktflow").joinpath("data", name)
    if not path.is_file():
        raise FileNotFoundError(f"no bundled fixture named {name!r}")
    return path


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


def cycle_network(k: int) -> dict:
    """A k-router ring whose flows need exactly k full traversals, over
    4-bit ``s`` and ``d`` fields, so k is at most 13.

    Delivery from Zin to Zout takes 2 + k*k link hops: one into the ring,
    k traversals of k hops, and one out.
    """
    if k < 2:
        raise ValueError("the ring needs at least 2 routers")
    width = 4
    space = 1 << width
    if k + 2 >= space:
        raise ValueError(f"width {width} too small for a {k}-router ring")
    exit_value = k + 1
    out_addr = space - 1

    routers = [f"R{i}" for i in range(k)]
    firewalls = []
    for i, name in enumerate(routers):
        interfaces = [f"{name.lower()}-prev", f"{name.lower()}-next"]
        routing = {f"{name.lower()}-next": {}}
        snat = []
        if i == 0:
            interfaces += ["r0-zin", "r0-zout"]
            snat = [
                {"guard": {"s": str(v)}, "field": "s", "to": str(v + 1)}
                for v in range(0, exit_value)
            ]
            routing = {
                "r0-next": {"s": f"1-{k}"},
                "r0-zout": {"s": str(exit_value), "d": str(out_addr)},
            }
        firewalls.append(
            {
                "name": name,
                "interfaces": interfaces,
                "dnat": [],
                "filter": [{"guard": {}, "action": "ACCEPT"}],
                "snat": snat,
                "routing": routing,
            }
        )
    links = [["zin", "r0-zin"], ["zout", "r0-zout"]]
    for i in range(k):
        nxt = (i + 1) % k
        links.append([f"{routers[i].lower()}-next", f"{routers[nxt].lower()}-prev"])
    return {
        "schema": 1,
        "layout": [{"name": "s", "width": width}, {"name": "d", "width": width}],
        "zones": [
            {"name": "Zin", "interface": "zin", "addr": "0"},
            {"name": "Zout", "interface": "zout", "addr": str(out_addr)},
        ],
        "firewalls": firewalls,
        "links": links,
    }


def cycle_required_hops(k: int) -> int:
    return 2 + k * k


def _random_range(rng: random.Random, space: int, max_span: int | None = None) -> str:
    lo = rng.randrange(space)
    span = space - 1 if max_span is None else max_span
    hi = min(space - 1, lo + rng.randint(0, span))
    return str(lo) if lo == hi else f"{lo}-{hi}"


def _random_guard(rng: random.Random, fields: list[tuple[str, int]], max_atoms: int = 2) -> dict:
    n = rng.randint(0, max_atoms)
    chosen = rng.sample(fields, min(n, len(fields)))
    guard = {}
    for name, width in chosen:
        text = _random_range(rng, 1 << width)
        if rng.random() < 0.2:
            text = "!" + text
        guard[name] = text
    return guard


def random_network(seed: int) -> tuple[dict, str]:
    """A small valid network plus a suggested origin zone, both a pure
    function of the seed."""
    rng = random.Random(seed)
    width = rng.choice([3, 4])
    has_ports = width == 3 and rng.random() < 0.3
    layout = [{"name": "s", "width": width}, {"name": "d", "width": width}]
    if has_ports:
        layout.append({"name": "sp", "width": 2})
    fields = [(e["name"], e["width"]) for e in layout]
    space = 1 << width

    n_zones = rng.randint(2, 3)
    n_fw = rng.randint(1, min(3, 6 - n_zones))

    bounds = sorted(rng.sample(range(space), n_zones * 2))
    zones = []
    for i in range(n_zones):
        lo, hi = bounds[2 * i], bounds[2 * i + 1]
        zone = {
            "name": f"Z{i}",
            "interface": f"z{i}",
            "addr": str(lo) if lo == hi else f"{lo}-{hi}",
        }
        if has_ports and rng.random() < 0.5:
            zone["ports"] = _random_range(rng, 4)
        zones.append(zone)

    iface_count = [0] * n_fw

    def new_iface(fw: int) -> str:
        iface_count[fw] += 1
        return f"f{fw}-{iface_count[fw]}"

    links = []
    fw_ifaces: list[list[str]] = [[] for _ in range(n_fw)]
    for i in range(n_zones):
        fw = rng.randrange(n_fw)
        iface = new_iface(fw)
        fw_ifaces[fw].append(iface)
        links.append([f"z{i}", iface])
    for fw in range(1, n_fw):
        a, b = new_iface(fw - 1), new_iface(fw)
        fw_ifaces[fw - 1].append(a)
        fw_ifaces[fw].append(b)
        links.append([a, b])
    if n_fw >= 2 and rng.random() < 0.5:  # extra link, possibly parallel
        x, y = rng.sample(range(n_fw), 2)
        a, b = new_iface(x), new_iface(y)
        fw_ifaces[x].append(a)
        fw_ifaces[y].append(b)
        links.append([a, b])

    nat_targets = {"snat": ["s"] + (["sp"] if has_ports else []), "dnat": ["d"]}
    firewalls = []
    for fw in range(n_fw):
        def nat_rules(kind: str) -> list[dict]:
            rules = []
            for _ in range(rng.randint(0, 2)):
                name = rng.choice(nat_targets[kind])
                fwidth = dict(fields)[name]
                rules.append(
                    {
                        "guard": _random_guard(rng, fields),
                        "field": name,
                        "to": _random_range(rng, 1 << fwidth, max_span=3),
                    }
                )
            return rules

        filt = [
            {"guard": _random_guard(rng, fields), "action": rng.choice(["DROP", "ACCEPT"])}
            for _ in range(rng.randint(0, 3))
        ]
        filt.append({"guard": {}, "action": "ACCEPT" if rng.random() < 0.85 else "DROP"})

        routing = {}
        for iface in fw_ifaces[fw]:
            roll = rng.random()
            if roll < 0.10:
                continue  # no route out this interface
            if roll < 0.25:
                routing[iface] = {}
            elif roll < 0.40:
                routing[iface] = {
                    "d": _random_range(rng, space),
                    "s": _random_range(rng, space),
                }
            else:
                routing[iface] = {"d": _random_range(rng, space)}

        firewalls.append(
            {
                "name": f"F{fw}",
                "interfaces": fw_ifaces[fw],
                "dnat": nat_rules("dnat"),
                "filter": filt,
                "snat": nat_rules("snat"),
                "routing": routing,
            }
        )

    cfg = {
        "schema": 1,
        "layout": layout,
        "zones": zones,
        "firewalls": firewalls,
        "links": links,
    }
    return cfg, f"Z{rng.randrange(n_zones)}"
