from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import bracket_to_formula, facts_line, netgen, packet_text_to_formulas
from pktflow.cli import main
from pktflow.engine import analyze, get_lattice
from pktflow.gen import fixture_path, fixture_text
from pktflow.netmodel import load_network, network_from_config, parse_value_set
from pktflow.oracle import MAX_WIDTH_GUARD
from pktflow.render import (
    format_field_data,
    format_field_display,
    formula_fields,
    render_value,
    value_to_text,
)

FIG3 = str(fixture_path("fig3.json"))
FIG3_SMALL = str(fixture_path("fig3-small.json"))
FIG1 = str(fixture_path("fig1.json"))


@pytest.fixture
def fig3():
    return load_network(fixture_text("fig3.json"))


def atom(net, field, text):
    return net.store.atom(parse_value_set(text, field, net.layout.width(field)))


# ------------------------------------------------------------- formatting

def test_format_field_display_forms():
    assert format_field_display(((0, 15),), 4) == "true"
    assert format_field_display((), 4) == "false"
    assert format_field_display(((3, 3),), 4) == "3"
    assert format_field_display(((1, 2), (5, 5)), 4) == "{1-2, 5}"
    # complement shorter than three positive ranges
    assert format_field_display(((0, 2), (4, 9), (11, 15)), 4) == "!{3, 10}"


def test_format_field_data_parses_back():
    for ranges, width in [
        (((0, 15),), 4),
        (((3, 3),), 4),
        (((1, 2), (5, 5)), 4),
        (((0, 2), (4, 9), (11, 15)), 4),
        (((0x0AC01D01, 0x0AC01DFF),), 32),
    ]:
        text = format_field_data(ranges, width)
        assert parse_value_set(text, "s", width).ranges == ranges or (
            parse_value_set(text, "s", width).negated
        )


def test_dotted_display(fig3):
    f = atom(fig3, "s", "202.67.34.6-10")
    sets, exact = formula_fields(f, fig3.layout)
    assert format_field_display(sets["s"], 32) == "202.67.34.6-10"
    assert format_field_display(sets["d"], 32) == "true"
    assert exact == {"s": True, "d": True}


def test_value_to_text_fig3(fig3):
    res = analyze(fig3, "Z1", "v2")
    assert (
        value_to_text(res.facts["Z2"], fig3)
        == "<[202.67.34.6-10 : 10.192.28.1-255] [10.192.29.1-255 : 10.192.28.1-255]>"
    )
    assert value_to_text(res.facts["Z3"], fig3) == "(unreachable)"


def test_relational_value_gets_approx_flags():
    # one packet whose unmatched guard couples s and d
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
                    {"guard": {"s": "1-2", "d": "5-6"}, "action": "DROP"},
                    {"guard": {}, "action": "ACCEPT"},
                ],
                "routing": {"fb": {"d": "4-7"}},
            }
        ],
        "links": [["a", "fa"], ["b", "fb"]],
    }
    net = network_from_config(cfg)
    res = analyze(net, "A", "v1")
    (rp,) = render_value(res.facts["B"], net)
    assert rp.curr_exact == {"s": False, "d": False}
    assert value_to_text(res.facts["B"], net).endswith(" (approx: s, d)")


@pytest.mark.parametrize("fixture", ["fig1.json", "fig3.json", "fig3-small.json"])
@pytest.mark.parametrize("variant", ["v1", "v2", "ia"])
def test_fully_exact_rendering_reparses_to_original(fixture, variant):
    """When every field is flagged exact, the rendered per-field product is
    the formula, not an approximation of it."""
    net = load_network(fixture_text(fixture))
    res = analyze(net, "Z1", variant)
    layout = net.layout

    def rebuild(sets):
        f = net.store.true
        for name, width in layout.fields:
            text = format_field_data(sets[name], width)
            f = f & net.store.atom(parse_value_set(text, name, width))
        return f

    for node in net.node_names():
        packets = res.facts[node].packets
        currs = {p.curr for p in packets}
        origs = {p.orig for p in packets}
        for rendered in render_value(res.facts[node], net):
            if all(rendered.curr_exact.values()):
                assert rebuild(rendered.curr) in currs, (fixture, variant, node)
            if rendered.orig is not None and all(rendered.orig_exact.values()):
                assert rebuild(rendered.orig) in origs, (fixture, variant, node)


def test_rendering_orders_packets_deterministically(fig3):
    lat = get_lattice("v2", fig3)
    p1 = lat.initial("Z1")[0]
    p2 = lat.initial("Z2")[0]
    v_ab = lat.join([p1, p2])
    v_ba = lat.join([p2, p1])
    assert render_value(v_ab, fig3) == render_value(v_ba, fig3)


# ------------------------------------------------------------- CLI commands

def test_validate_ok(capsys):
    assert main(["validate", "--network", FIG3]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK: 4 zones, 2 firewalls, 7 rules, 5 links")


def test_validate_bad_config(tmp_path, capsys):
    cfg = json.loads(fixture_text("fig3.json"))
    cfg["firewalls"][0]["filter"] = cfg["firewalls"][0]["filter"][:-1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert main(["validate", "--network", str(bad)]) == 2
    assert "missing default rule" in capsys.readouterr().err


def test_validate_link_repeated_in_reverse(tmp_path, capsys):
    cfg = json.loads(fixture_text("fig3.json"))
    cfg["links"].append(cfg["links"][0][::-1])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert main(["validate", "--network", str(bad)]) == 2
    assert "duplicate link" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--network", FIG3, "--origin", "Z1", "--bogus"])
    assert exc.value.code == 2


def test_missing_file_exits_2(capsys):
    assert main(["validate", "--network", "/nonexistent.json"]) == 2
    assert "error" in capsys.readouterr().err


def _cli_env() -> dict[str, str]:
    src = str(Path(__file__).resolve().parent.parent / "src")
    # PYTHONUNBUFFERED writes each print at once, which would hide a
    # command that ends its process before flushing its output
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return env


def _run_cli(*args: str, timeout: float = 60, module: str = "pktflow",
             stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=_cli_env(), timeout=timeout,
    )


def _assert_one_error_line(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 2
    assert proc.stderr.startswith("pktflow: error:")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


@pytest.fixture(scope="module")
def ring_5x8(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("ring") / "ring-5x8-1.json"
    path.write_text(json.dumps(netgen.ring(5, 8, 1)))
    return str(path)


def test_main_returns_without_ending_the_process(monkeypatch):
    monkeypatch.setattr(os, "_exit", lambda code: pytest.fail(f"os._exit({code})"))
    assert main(["validate", "--network", FIG3]) == 0
    assert main(["validate", "--network", "/nonexistent.json"]) == 2


@pytest.mark.parametrize("module", ["pktflow", "pktflow.cli"])
def test_process_prints_the_text_main_returns(ring_5x8, module, capsys):
    args = ("analyze", "--network", ring_5x8, "--origin", "Z0")
    assert main(list(args)) == 0
    expected = capsys.readouterr().out
    # more than a pipe holds, so the output is written in several parts
    assert len(expected) > 65536
    proc = _run_cli(*args, module=module)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == expected


def test_process_prints_the_json_main_returns(capsys):
    def without_wall_time(text):
        return "".join(line for line in text.splitlines(keepends=True)
                       if '"wall_time_s"' not in line)

    args = ("analyze", "--network", FIG3, "--origin", "Z1", "--format", "json")
    assert main(list(args)) == 0
    expected = without_wall_time(capsys.readouterr().out)
    proc = _run_cli(*args)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert without_wall_time(proc.stdout) == expected


def test_process_writes_the_whole_out_file(ring_5x8, tmp_path, capsys):
    args = ("analyze", "--network", ring_5x8, "--origin", "Z0")
    assert main(list(args)) == 0
    path = tmp_path / "out.txt"
    proc = _run_cli(*args, "--out", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert path.read_text() == capsys.readouterr().out


def test_process_missing_file_exits_2_with_one_line():
    proc = _run_cli("validate", "--network", "/nonexistent.json")
    _assert_one_error_line(proc)
    assert proc.stdout == ""


@pytest.mark.parametrize("long_output", [False, True], ids=["flush", "write"])
def test_closed_stdout_exits_2_with_one_line(ring_5x8, long_output):
    # a short output fails in the flush after main returns, a long one in
    # its first write inside main
    command = (("analyze", "--network", ring_5x8, "--origin", "Z0") if long_output
               else ("validate", "--network", FIG3))
    read, write = os.pipe()
    os.close(read)  # closed before the child starts, so every write fails
    try:
        proc = _run_cli(*command, stdout=write)
    finally:
        os.close(write)
    _assert_one_error_line(proc)
    assert "Broken pipe" in proc.stderr


@pytest.mark.parametrize("network, code", [(FIG3, 0), ("/nonexistent.json", 2)],
                         ids=["found", "missing"])
def test_streams_closed_at_start_up_keep_the_exit_code(network, code):
    # fd 1 and 2 closed before the interpreter starts: sys.stdout and
    # sys.stderr are None, and the command's output goes nowhere
    script = 'exec "$0" -m pktflow validate --network "$1" >&- 2>&-'
    proc = subprocess.run(["/bin/sh", "-c", script, sys.executable, network],
                          env=_cli_env(), timeout=60)
    assert proc.returncode == code


def _fig1_small_with(edit) -> bytes:
    cfg = json.loads(fixture_text("fig1-small.json"))
    edit(cfg)
    return json.dumps(cfg).encode()


def _set_widths(value):
    # every field, so that a truncated float still gives a valid layout
    return lambda cfg: [entry.update(width=value) for entry in cfg["layout"]]


def _first_firewall(key, value):
    return lambda cfg: cfg["firewalls"][0].update({key: value})


def _prepend_filter_entry(cfg):
    cfg["firewalls"][0]["filter"].insert(0, "x")


def _drop_zone_addr(cfg):
    del cfg["zones"][0]["addr"]


def _set_schema(cfg):
    # True == 1 in Python, but it is not the schema version
    cfg["schema"] = True


def _rest_zone(**extra):
    def edit(cfg):
        del cfg["zones"][1]["addr"]
        cfg["zones"][1].update(extra)
    return edit


def _layout_name_int(cfg):
    cfg["layout"].append({"name": 5, "width": 2})


def _zone_name_list(cfg):
    cfg["zones"][0]["name"] = ["x"]


def _firewall_name_int(cfg):
    cfg["firewalls"][0]["name"] = 5


def _zone_interface_int(cfg):
    # the link names it the same way, so only the type is wrong
    cfg["zones"][0]["interface"] = 7
    cfg["links"][0][0] = 7


def _firewall_interface_int(cfg):
    cfg["firewalls"][1]["interfaces"][0] = 7
    cfg["links"][2][1] = "7"


def _link_endpoint_int(cfg):
    cfg["zones"][0]["interface"] = "7"
    cfg["links"][0][0] = 7


def _empty_zone_ports(cfg):
    cfg["layout"].insert(1, {"name": "sp", "width": 3})
    cfg["zones"][0]["ports"] = "!*"


def _zone_named_like_firewall(cfg):
    # links name interfaces, so only the node names clash
    cfg["zones"][1]["name"] = "F2"


def _nat_field_list(cfg):
    cfg["firewalls"][1]["snat"][0]["field"] = ["s"]


def _set_rule_id(value):
    # F2's first filter rule has the explicit id 1
    return lambda cfg: cfg["firewalls"][1]["filter"][0].update(id=value)


@pytest.mark.parametrize("document", [
    pytest.param(_fig1_small_with(_first_firewall("interfaces", 5)), id="interfaces-int"),
    pytest.param(_fig1_small_with(_prepend_filter_entry), id="filter-entry-str"),
    pytest.param(_fig1_small_with(_first_firewall("dnat", [5])), id="dnat-entry-int"),
    pytest.param(_fig1_small_with(_first_firewall("routing", [])), id="routing-array"),
    pytest.param(_fig1_small_with(_set_widths("abc")), id="width-str"),
    pytest.param(_fig1_small_with(_set_widths(4.5)), id="width-float"),
    pytest.param(_fig1_small_with(_set_widths(1000)), id="width-2x1000"),
    pytest.param(_fig1_small_with(_set_rule_id(True)), id="rule-id-bool"),
    pytest.param(_fig1_small_with(_set_rule_id(1.5)), id="rule-id-float"),
    pytest.param(_fig1_small_with(_drop_zone_addr), id="zone-no-addr"),
    pytest.param(_fig1_small_with(_set_schema), id="schema-bool"),
    pytest.param(_fig1_small_with(_rest_zone(rest="no")), id="rest-str"),
    pytest.param(_fig1_small_with(_rest_zone(rest=True, ports="1")), id="rest-zone-ports"),
    pytest.param(_fig1_small_with(_layout_name_int), id="layout-name-int"),
    pytest.param(_fig1_small_with(_zone_name_list), id="zone-name-list"),
    pytest.param(_fig1_small_with(_firewall_name_int), id="firewall-name-int"),
    pytest.param(_fig1_small_with(_zone_interface_int), id="zone-interface-int"),
    pytest.param(_fig1_small_with(_firewall_interface_int), id="firewall-interface-int"),
    pytest.param(_fig1_small_with(_link_endpoint_int), id="link-endpoint-int"),
    pytest.param(_fig1_small_with(_empty_zone_ports), id="zone-ports-empty"),
    pytest.param(_fig1_small_with(_zone_named_like_firewall), id="zone-firewall-name-clash"),
    pytest.param(_fig1_small_with(_nat_field_list), id="nat-field-list"),
    pytest.param(b'{"schema": 1, "layout": "addr2\xff"}', id="not-utf8"),
    pytest.param(b"[" * 100_000, id="deep-nesting"),
])
def test_malformed_config_exits_2_without_traceback(tmp_path, document):
    bad = tmp_path / "bad.json"
    bad.write_bytes(document)
    proc = _run_cli("validate", "--network", str(bad))
    assert proc.returncode == 2
    assert proc.stderr.startswith("pktflow: error:")
    assert "Traceback" not in proc.stderr


# One value set per parse site of fig1-small.json (4-bit s and d), as the
# field's largest value and a writer of a value there; the ports site adds a
# 3-bit sp field.
def _write_ports(cfg, value):
    cfg["layout"].insert(1, {"name": "sp", "width": 3})
    cfg["zones"][0]["ports"] = value


VALUE_SET_SITES = {
    "filter-guard": (15, lambda cfg, v: cfg["firewalls"][1]["filter"][0]
                     .update(guard={"d": v})),
    "routing-guard": (15, lambda cfg, v: cfg["firewalls"][0]["routing"]
                      .update({"f1-f2r": {"s": v}})),
    "dnat-guard": (15, lambda cfg, v: cfg["firewalls"][0]
                   .update(dnat=[{"guard": {"d": v}, "field": "d", "to": "2"}])),
    "snat-to": (15, lambda cfg, v: cfg["firewalls"][1]["snat"][0].update(to=v)),
    "zone-addr": (15, lambda cfg, v: cfg["zones"][1].update(addr=v)),
    "zone-ports": (7, _write_ports),
}


@pytest.mark.parametrize("site", sorted(VALUE_SET_SITES))
def test_value_past_field_width_exits_2(tmp_path, site):
    top, write = VALUE_SET_SITES[site]
    # the field's largest value loads, so the case differs in that value only
    load_network(_fig1_small_with(lambda cfg: write(cfg, str(top))))
    bad = tmp_path / "bad.json"
    bad.write_bytes(_fig1_small_with(lambda cfg: write(cfg, str(top + 1))))
    proc = _run_cli("validate", "--network", str(bad))
    assert proc.returncode == 2
    assert proc.stderr.startswith("pktflow: error:")
    assert "exceeds" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_check_refuses_a_width_guard_above_the_ceiling():
    # a guard of 64 would let the oracle enumerate all 2**64 fig1 headers
    proc = _run_cli("check", "--network", FIG1, "--origin", "Z1", "--max-width", "64",
                    timeout=20)
    assert proc.returncode == 2
    assert proc.stderr.startswith("pktflow: error:")
    assert f"ceiling of {MAX_WIDTH_GUARD} bits" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("extra", [["--network", FIG1, "--origin", "Z1"], ["--trials", "2"]])
@pytest.mark.parametrize("width", ["0", "-3", str(MAX_WIDTH_GUARD + 1)])
def test_check_names_the_flag_of_a_width_guard_out_of_range(capsys, extra, width):
    assert main(["check", *extra, "--max-width", width]) == 2
    assert capsys.readouterr().err == (
        f"pktflow: error: --max-width must be from 1 to the oracle's ceiling of "
        f"{MAX_WIDTH_GUARD} bits, got {width}\n")


@pytest.mark.parametrize("count", ["0", "-2"])
def test_testgen_names_the_flag_of_a_non_positive_count(capsys, count):
    assert main(["testgen", "--network", FIG3, "--origin", "Z1", "--per-pair", count]) == 2
    assert capsys.readouterr().err == (
        f"pktflow: error: --per-pair must be at least 1, got {count}\n")


def test_policy_names_an_unknown_zone(capsys):
    assert main(["policy", "--network", FIG3, "--zone", "NOPE"]) == 2
    assert capsys.readouterr().err == (
        "pktflow: error: zone 'NOPE' is not a zone of the network\n")


@pytest.mark.parametrize("command", [
    ["analyze", "--origin", "Z1"],
    ["policy", "--zone", "Z1"],
    ["testgen", "--origin", "Z1"],
])
def test_layout_at_header_width_limit_runs(tmp_path, command):
    # 2 x 256 bits is exactly MAX_HEADER_BITS, the widest accepted layout
    net = tmp_path / "wide.json"
    net.write_bytes(_fig1_small_with(_set_widths(256)))
    proc = _run_cli(*command, "--network", str(net))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def _dnat_d(cfg):
    cfg["firewalls"][0]["dnat"] = [{"guard": {"d": "3-4"}, "field": "d", "to": "2"}]


def test_policy_at_header_width_limit_nats_both_fields(tmp_path):
    # F1 DNATs d and F2 SNATs s, so the relational policy store gives both
    # 256-bit fields a shadow: 1024 variables
    net = tmp_path / "wide.json"
    net.write_bytes(_fig1_small_with(lambda cfg: (_set_widths(256)(cfg), _dnat_d(cfg))))
    proc = _run_cli("policy", "--zone", "Z1", "--network", str(net))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines()[0] == "accept(Z1) = [1 : 2-4]"


def test_analyze_text_matches_published_block(fig3, capsys):
    assert main(["analyze", "--network", FIG3, "--origin", "Z1", "--variant", "v2"]) == 0
    out = capsys.readouterr().out
    assert facts_line(out, "Z3") == "(unreachable)"
    curr, orig = packet_text_to_formulas(facts_line(out, "Z2"), fig3)
    assert curr == atom(fig3, "s", "202.67.34.6-10") & atom(fig3, "d", "10.192.28.1-255")
    assert orig == atom(fig3, "s", "10.192.29.1-255") & atom(fig3, "d", "10.192.28.1-255")
    assert "dropped(1) = [10.192.29.1-255 : 209.85.153.85]" in out
    assert "dropped(5) = [10.192.29.1-255 : 202.65.23.2]" in out


def test_analyze_output_byte_stable(capsys):
    main(["analyze", "--network", FIG3, "--origin", "Z1"])
    first = capsys.readouterr().out
    main(["analyze", "--network", FIG3, "--origin", "Z1"])
    second = capsys.readouterr().out
    assert first == second
    main(["analyze", "--network", FIG1, "--origin", "Z1"])
    third = capsys.readouterr().out
    main(["analyze", "--network", FIG1, "--origin", "Z1"])
    assert third == capsys.readouterr().out


def test_analyze_json_roundtrips_membership(fig3, capsys):
    assert main(["analyze", "--network", FIG3, "--origin", "Z1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "pktflow-analysis-1"
    assert doc["variant"] == "v2" and doc["origin"] == "Z1"
    assert doc["facts"]["Z3"] == []
    res = analyze(fig3, "Z1", "v2")
    layout = fig3.layout
    for node in ("Z2", "Z4"):
        (entry,) = doc["facts"][node]
        assert all(entry["curr_exact"].values())
        rebuilt = fig3.store.true
        for name, width in layout.fields:
            rebuilt = rebuilt & fig3.store.atom(
                parse_value_set(entry["curr"][name], name, width)
            )
        assert rebuilt == res.facts[node].packets[0].curr
        assert entry["nated"] == ["s"]
    assert doc["ledger"]["1"] == {"s": "10.192.29.1-255", "d": "209.85.153.85"}


def test_analyze_misdelivery_exits_1(tmp_path, capsys):
    cfg = {
        "layout": [{"name": "s", "width": 3}, {"name": "d", "width": 3}],
        "zones": [
            {"name": "A", "interface": "a", "addr": "0-3"},
            {"name": "B", "interface": "b", "addr": "4-5"},
        ],
        "firewalls": [
            {
                "name": "F",
                "interfaces": ["fa", "fb"],
                "filter": [{"guard": {}, "action": "ACCEPT"}],
                "routing": {"fb": {"d": "4-7"}},
            }
        ],
        "links": [["a", "fa"], ["b", "fb"]],
    }
    path = tmp_path / "mis.json"
    path.write_text(json.dumps(cfg))
    assert main(["analyze", "--network", str(path), "--origin", "A"]) == 1
    assert "misdelivered(B)" in capsys.readouterr().out
    proc = _run_cli("analyze", "--network", str(path), "--origin", "A")
    assert proc.returncode == 1
    assert "misdelivered(B)" in proc.stdout


def test_policy_text_and_exit(capsys):
    assert main(["policy", "--network", FIG3, "--zone", "Z1"]) == 0
    out = capsys.readouterr().out
    assert "accept(Z1) = [10.192.29.1-255 : !{10.192.29.1-255, 202.65.23.2, 209.85.153.85}]" in out
    assert "reject(Z1) = [10.192.29.1-255 : {202.65.23.2, 209.85.153.85}]" in out
    assert "overlap(Z1) = (empty)" in out
    assert main(["policy", "--network", FIG3, "--zone", "Z1", "--strict"]) == 0


def test_policy_strict_flags_overlap(tmp_path, capsys):
    cfg = {
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
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(cfg))
    assert main(["policy", "--network", str(path), "--zone", "A"]) == 0
    assert main(["policy", "--network", str(path), "--zone", "A", "--strict"]) == 1
    out = capsys.readouterr().out
    assert "overlap(A) = [0-3 : 4-7]" in out
    proc = _run_cli("policy", "--network", str(path), "--zone", "A", "--strict")
    assert proc.returncode == 1
    assert "overlap(A) = [0-3 : 4-7]" in proc.stdout


def test_policy_json(capsys):
    assert main(["policy", "--network", FIG3, "--zone", "Z1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "pktflow-policy-1"
    assert doc["overlap"] is None
    assert doc["reject"]["d"] == "202.65.23.2,209.85.153.85"


def test_check_fixture_equal(capsys):
    assert main(["check", "--network", FIG3_SMALL, "--origin", "Z1", "--variant", "v1"]) == 0
    out = capsys.readouterr().out
    assert "EQUAL at all 6 nodes" in out


def test_check_ia_sound(capsys):
    assert main(["check", "--network", FIG3_SMALL, "--origin", "Z1", "--variant", "ia"]) == 0
    out = capsys.readouterr().out
    assert "SOUND at all 6 nodes" in out
    assert "Z4: SUPERSET" in out


def test_check_requires_origin(capsys):
    assert main(["check", "--network", FIG3_SMALL]) == 2


def test_check_width_guard(capsys):
    assert main(["check", "--network", FIG3, "--origin", "Z1"]) == 2
    assert "guard" in capsys.readouterr().err


def test_check_trials(capsys):
    assert main(["check", "--trials", "5", "--seed", "1000", "--variant", "v2"]) == 0
    assert "5 trials (v2): all OK" in capsys.readouterr().out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_check_trials_below_one_exits_2(trials, capsys):
    assert main(["check", "--trials", trials, "--seed", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--trials must be at least 1" in captured.err


@pytest.mark.parametrize("given", [
    ["--network", FIG3_SMALL, "--origin", "Z1"],
    ["--network", FIG3_SMALL],
    ["--origin", "Z1"],
])
def test_check_trials_with_a_network_exits_2(given, capsys):
    assert main(["check", *given, "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot be combined with --network or --origin" in captured.err


@pytest.mark.parametrize("given", [
    ["--network", FIG3_SMALL, "--origin", "Z1"],
    [],
])
def test_check_seed_without_trials_exits_2(given, capsys):
    assert main(["check", *given, "--seed", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed sets the first trial seed; it needs --trials" in captured.err


@pytest.mark.parametrize("given, first", [([], 0), (["--seed", "3"], 3)])
def test_check_trials_json_reports_the_first_seed(given, first, capsys):
    assert main(["check", "--trials", "2", *given, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == first and doc["trials"] == 2 and doc["failed_seeds"] == []


def test_check_json(capsys):
    assert main([
        "check", "--network", FIG3_SMALL, "--origin", "Z1",
        "--variant", "v2", "--format", "json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert {n["status"] for n in doc["nodes"]} == {"equal"}


def test_testgen_text(capsys):
    assert main(["testgen", "--network", FIG3, "--origin", "Z1"]) == 0
    out = capsys.readouterr().out
    assert "Z2: orig=[10.192.29.1 : 10.192.28.1] arrival=[202.67.34.6 : 10.192.28.1]" in out
    assert "Z3:" not in out
    main(["testgen", "--network", FIG3, "--origin", "Z1"])
    assert out == capsys.readouterr().out


def test_testgen_json(capsys):
    assert main([
        "testgen", "--network", FIG3, "--origin", "Z1", "--per-pair", "2",
        "--format", "json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "pktflow-testgen-1"
    zones = {w["zone"] for w in doc["witnesses"]}
    assert zones == {"Z2", "Z4"}


def test_testgen_rejects_other_variants(capsys):
    assert main([
        "testgen", "--network", FIG3, "--origin", "Z1", "--variant", "v1",
    ]) == 2


def test_out_file(tmp_path, capsys):
    path = tmp_path / "out.txt"
    assert main(["analyze", "--network", FIG3, "--origin", "Z1", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert "facts(Z2)" in path.read_text()
