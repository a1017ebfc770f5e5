"""Seed-deterministic ring and mesh networks for the benchmark.

The size arguments fix the topology, the rule templates and every value in
them.  The seed then relabels the header space: it XORs one mask into every
address (``s`` and ``d``) and one into every port (``sp`` and ``dp``).  The
values are aligned blocks whose free low bits the masks leave alone, so the
relabelled sets are again aligned blocks.  A relabelling maps every set,
guard, NAT rewrite and route of the network onto another, so two seeds give
networks with different bytes and different rendered output, but the same
fixpoint shape: the same packet counts, BDD node counts and worklist pops.
That keeps the work per run comparable across seeds.

Unlike ``pktflow.gen.random_network``, the ring has DNAT on ``dp``, a
``rest`` zone, and NAT rules inside routing cycles.  Routes towards a zone
only admit that zone's own addresses, so ``analyze`` never diagnoses
misdelivery and exits 0.

Print one network with ``python3 perfbench/netgen.py ring N_FW N_RULES SEED``
or ``python3 perfbench/netgen.py mesh N_FW N_RULES N_CHORDS SEED``;
``python3 perfbench/netgen.py trial SEED`` prints ``pktflow.gen``'s
``random_network(SEED)`` (needs ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import json
import random
import sys

# Port regions by role, so no filter guard, DNAT guard or NAT target overlaps
# one of another role: (first port, log2 of the region size).
FILTER_PORTS, DNAT_PORTS, TARGET_PORTS = (32768, 15), (16384, 14), (8192, 13)
# Low source ports, remapped by every ring firewall.
LOW_PORTS = (0, 10)


def _quad(v: int) -> str:
    return f"{(v >> 24) & 255}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}"


class _Plan:
    """Values for one network: drawn from a generator fixed by the sizes,
    then relabelled by the seed's masks."""

    def __init__(self, n_zones: int, sizes: tuple, seed: int):
        self.rng = random.Random(repr(sizes))
        masks = random.Random(seed)
        self.addr_mask = masks.getrandbits(32)
        self.port_mask = masks.getrandbits(16)
        # one /16 per zone inside 10.0.0.0/8, one public /24 per firewall
        octets = self.rng.sample(range(1, 255), n_zones)
        self.zone_base = [(10 << 24) | (o << 16) for o in octets]
        subnets = self.rng.sample(range(512), n_zones)
        self.public = [(198 << 24) | (18 << 16) | (s << 8) for s in subnets]

    def addrs(self, base: int, free_bits: int) -> str:
        """The aligned block of 2**free_bits addresses at ``base``, relabelled."""
        lo = (base ^ self.addr_mask) & ~((1 << free_bits) - 1)
        if free_bits == 0:
            return _quad(lo)
        return f"{_quad(lo)}-{_quad(lo | ((1 << free_bits) - 1))}"

    def ports(self, region: tuple[int, int], size_bits: int, fixed: int | None = None) -> str:
        """An aligned block of 2**size_bits ports inside the region, relabelled."""
        base, region_bits = region
        if fixed is None:
            fixed = self.rng.randrange(1 << (region_bits - size_bits))
        lo = ((base + (fixed << size_bits)) ^ self.port_mask) & ~((1 << size_bits) - 1)
        return str(lo) if size_bits == 0 else f"{lo}-{lo + (1 << size_bits) - 1}"

    def zone(self, i: int) -> str:
        return self.addrs(self.zone_base[i], 16)

    def subnet(self, i: int) -> str:
        """A /24 inside zone i."""
        return self.addrs(self.zone_base[i] | (self.rng.randrange(256) << 8), 8)

    def host(self, i: int) -> str:
        return self.addrs(
            self.zone_base[i] | (self.rng.randrange(256) << 8) | self.rng.randrange(1, 255), 0
        )

    def all_zones(self) -> str:
        return ",".join(self.zone(i) for i in range(len(self.zone_base)))


def _filter_rules(plan: _Plan, i: int, n_rules: int, n_zones: int) -> list[dict]:
    """``n_rules`` filter rules for firewall i, the last one the default.

    Rules cycle through six templates that guard different field sets, so
    consecutive rules overlap on some fields and not on others.
    """
    rules = []
    for k in range(n_rules - 1):
        # two zones other than i, a fixed function of (i, k)
        a = (i + 1 + k % (n_zones - 1)) % n_zones
        b = (i + 1 + (k * 3 + 1) % (n_zones - 1)) % n_zones
        kind = k % 6
        if kind == 0:
            guard, action = {"s": plan.zone(a), "d": plan.zone(b),
                             "dp": plan.ports(FILTER_PORTS, 6)}, "DROP"
        elif kind == 1:
            guard, action = {"d": plan.subnet(b), "dp": plan.ports(FILTER_PORTS, 0)}, "ACCEPT"
        elif kind == 2:
            guard, action = {"sp": plan.ports(FILTER_PORTS, 10)}, "DROP"
        elif kind == 3:
            guard, action = {"s": plan.subnet(a), "dp": plan.ports(FILTER_PORTS, 8)}, "DROP"
        elif kind == 4:
            guard, action = {"s": "!" + plan.zone(a), "d": plan.zone(b)}, "ACCEPT"
        else:
            guard, action = {"d": plan.host(b), "sp": plan.ports(FILTER_PORTS, 12)}, "DROP"
        rules.append({"guard": guard, "action": action})
    rules.append({"guard": {}, "action": "ACCEPT"})
    return rules


def _nat_tables(plan: _Plan, i: int) -> dict:
    """DNAT on d and dp, SNAT on s and sp, for firewall i of the ring."""
    own = plan.zone(i)
    public = plan.public[i]
    return {
        "dnat": [
            # a published service: public address and port -> a host inside
            {"guard": {"d": plan.addrs(public | 1, 0), "dp": plan.ports(DNAT_PORTS, 0)},
             "field": "d", "to": plan.host(i)},
            # port forwarding on the zone's own addresses
            {"guard": {"d": own, "dp": plan.ports(DNAT_PORTS, 4)},
             "field": "dp", "to": plan.ports(TARGET_PORTS, 0)},
        ],
        "snat": [
            # outbound masquerade of the zone
            {"guard": {"s": own, "d": "!" + own},
             "field": "s", "to": plan.addrs(public | 16, 4)},
            # low source ports of every transit packet: NAT inside the cycle
            {"guard": {"sp": plan.ports(LOW_PORTS, 10, fixed=0)},
             "field": "sp", "to": plan.ports(TARGET_PORTS, 10)},
        ],
    }


def _network(plan: _Plan, n_fw: int, n_rules: int, neighbours: list[list[int]], nat: bool) -> dict:
    """Firewall i owns zone Zi and links to each firewall in neighbours[i];
    F0 also serves the rest zone.  Every firewall forwards all non-local
    destinations to every neighbour, so values travel both ways round
    every cycle."""
    zones = [{"name": f"Z{i}", "interface": f"z{i}", "addr": plan.zone(i)} for i in range(n_fw)]
    zones.append({"name": "REST", "interface": "rest", "rest": True})
    links = [[f"z{i}", f"f{i}-z"] for i in range(n_fw)] + [["rest", "f0-rest"]]
    firewalls = []
    for i in range(n_fw):
        routing = {f"f{i}-z": {"d": plan.zone(i)}}
        for j in neighbours[i]:
            routing[f"f{i}-f{j}"] = {"d": "!" + plan.zone(i)}
            if i < j:
                links.append([f"f{i}-f{j}", f"f{j}-f{i}"])
        if i == 0:
            routing["f0-rest"] = {"d": "!" + plan.all_zones()}
        fw = {"name": f"F{i}", "interfaces": list(routing), "dnat": [],
              "filter": _filter_rules(plan, i, n_rules, n_fw), "snat": [], "routing": routing}
        if nat:
            fw.update(_nat_tables(plan, i))
        firewalls.append(fw)
    return {"schema": 1, "layout": "ipv4lite", "zones": zones,
            "firewalls": firewalls, "links": links}


def ring(n_fw: int, n_rules: int, seed: int) -> dict:
    """A ring of ``n_fw`` NAT firewalls with ``n_rules`` filter rules each."""
    if n_fw < 3 or n_rules < 1:
        raise ValueError("a ring needs at least 3 firewalls and 1 rule")
    neighbours = [[(i - 1) % n_fw, (i + 1) % n_fw] for i in range(n_fw)]
    plan = _Plan(n_fw, ("ring", n_fw, n_rules), seed)
    return _network(plan, n_fw, n_rules, neighbours, nat=True)


def mesh(n_fw: int, n_rules: int, n_chords: int, seed: int) -> dict:
    """A ring of ``n_fw`` filtering firewalls plus up to ``n_chords`` chords.

    Chord c joins F(5c mod n) to the firewall about half-way round from it.
    The firewalls do no NAT, so ``v2`` keeps one packet per origin form and
    stays close to ``v1`` in cost.
    """
    if n_fw < 6 or n_rules < 1 or n_chords < 0:
        raise ValueError("a mesh needs at least 6 firewalls and 1 rule")
    neighbours = [{(i - 1) % n_fw, (i + 1) % n_fw} for i in range(n_fw)]
    for c in range(n_chords):
        a = (c * 5) % n_fw
        b = (a + n_fw // 2 - 1 + c % 3) % n_fw
        neighbours[a].add(b)
        neighbours[b].add(a)
    plan = _Plan(n_fw, ("mesh", n_fw, n_rules, n_chords), seed)
    return _network(plan, n_fw, n_rules, [sorted(n) for n in neighbours], nat=False)


def main(argv: list[str]) -> None:
    kind, *nums = argv
    if kind == "trial":
        # the first trial network of ``pktflow check --trials N --seed SEED``
        from pktflow.gen import random_network

        cfg, _ = random_network(int(nums[0]))
    else:
        cfg = ring(*map(int, nums)) if kind == "ring" else mesh(*map(int, nums))
    json.dump(cfg, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main(sys.argv[1:])
