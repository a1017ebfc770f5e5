"""Static packet-flow analysis for IP networks.

Computes, per network node, a symbolic description of every packet that can
reach it from an origin zone (through NAT rewrites and routing cycles),
tracks pre-NAT original forms, infers per-zone accept/reject policies, and
can certify itself against an exhaustive concrete simulator at small header
widths.

The public names below are imported from their submodules on first access,
so importing the package loads no submodule by itself.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    "AbstractValue": "engine",
    "AnalysisResult": "engine",
    "analyze": "engine",
    "ConfigError": "netmodel",
    "Network": "netmodel",
    "load_network": "netmodel",
    "load_network_file": "netmodel",
    "network_from_config": "netmodel",
    "network_to_config": "netmodel",
    "compare": "oracle",
    "concretize": "oracle",
    "simulate": "oracle",
    "FieldValueSet": "pktset",
    "Formula": "pktset",
    "FormulaStore": "pktset",
    "HeaderLayout": "pktset",
    "PolicySummary": "policy",
    "generate_test_packets": "policy",
    "infer_policy": "policy",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
