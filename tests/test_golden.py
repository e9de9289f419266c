"""Golden outputs: SHA-256 of `trace_to_csv` and of the `metrics` summary for
every shipped scenario in both modes, at the shipped `dt`.

A refactor must leave these bits unchanged.  A change that alters them on
purpose updates the hashes here and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bumpsim.hybrid import SimMode, metrics, simulate, trace_to_csv
from bumpsim.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

PREDEFINED = SimMode.PREDEFINED_ONLY
REDESIGNED = SimMode.REDESIGNED

# open_field never makes contact, so both modes write the same bytes.
GOLDEN = {
    ("crossing", PREDEFINED): (
        "ebd6b1937cf2dd0d4cd34dc932cd8fab8335668298430efae332784efd2aad50",
        "efdf5282d6bac0969fd8eaf29c8b75ae216771316af033de9ded377a2d23cbeb",
    ),
    ("crossing", REDESIGNED): (
        "7341f4ca42d9d5a58d63dc8cc98d9bb870e9cec6cde2d95146821150488a9763",
        "e9ff39fd5df2f1752643bb8328a26b49b9c103faf75ba29a1f0ebaa79c873629",
    ),
    ("example1", PREDEFINED): (
        "96d70185fd334d15fad7691a0cae15e2e7477f860ae3959ce491f6902c7f5900",
        "6472aacf51fc1ec988523548fd5f0a877da77f02b96f67fd413eb7e840af3885",
    ),
    ("example1", REDESIGNED): (
        "25df3692597a1729fd266aabe86bf19a6b0f6e2a6efdd90eb1434fe24ed3b745",
        "930da426ce88d16d392f6660940fd204567ab45b47a3b2a4d92e98beac29f9a2",
    ),
    ("open_field", PREDEFINED): (
        "cdf0773ee23946c244575e4d1b592d724fc200abf11c223b5edd53509918653b",
        "663c1415bfbe7cf822381c9456e8999a4b5deec5eea1d28643d4be1af6cf4617",
    ),
    ("open_field", REDESIGNED): (
        "cdf0773ee23946c244575e4d1b592d724fc200abf11c223b5edd53509918653b",
        "663c1415bfbe7cf822381c9456e8999a4b5deec5eea1d28643d4be1af6cf4617",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    ("name", "mode"), list(GOLDEN), ids=[f"{n}-{m.value}" for n, m in GOLDEN]
)
def test_golden_trace_and_metrics(name, mode):
    scenario = load_scenario((SCENARIOS / f"{name}.json").read_text(encoding="utf-8"))
    trace = simulate(scenario, mode)
    trace_hash, metrics_hash = GOLDEN[(name, mode)]
    assert sha256(trace_to_csv(trace)) == trace_hash
    assert sha256(json.dumps(metrics(trace).to_dict(), sort_keys=True)) == metrics_hash
