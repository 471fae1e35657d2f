"""Every demo script runs to completion and prints its result lines."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

HEADLINES = {
    "agent_boundary.py": ("  case 'upgrade', final class {Z}, comparison '>'",),
    "discover_hidden_system.py": (
        "discovery: feasible=True",
        "  dim 2: verdict ruled_out, restarts used 0",
        "    fidelity bound: d >= 3.99995 on preparations [0, 1, 2, 3]",
        "  dim 4: verdict found, restarts used 1",
    ),
    "naimark_apparatus.py": ("probabilistic check over 200 random states:",),
    "ordering_and_utility.py": (
        "z vs noisy over 200 random utilities: dominance holds=True, reversals=0, consistent=True",
    ),
    "two_update_rules.py": ("Reference measurement: qubit tetrahedron",),
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(HEADLINES)


@pytest.mark.parametrize("name", sorted(HEADLINES))
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    for headline in HEADLINES[name]:
        assert any(line.startswith(headline) for line in lines), headline
