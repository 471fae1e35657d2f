"""Every demo script runs to completion and prints its result line."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

HEADLINES = {
    "agent_boundary.py": "  case 'upgrade', final class {Z}, comparison '>'",
    "discover_hidden_system.py": "discovery: feasible=True",
    "naimark_apparatus.py": "probabilistic check over 200 random states:",
    "ordering_and_utility.py": (
        "z vs noisy over 200 random utilities: dominance holds=True, reversals=0, consistent=True"
    ),
    "two_update_rules.py": "Reference measurement: qubit tetrahedron",
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(HEADLINES)


@pytest.mark.parametrize("name", sorted(HEADLINES))
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith(HEADLINES[name]) for line in lines)
