"""``scipy.optimize`` is loaded only for the order's LP fallback.

Each check starts a fresh interpreter, since this test process has long
since imported scipy. The last line a child prints is the verdict.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from mftk import (
    AgentState,
    Povm,
    ProbabilityTable,
    StochasticMatrix,
    agent_to_obj,
    build_sic,
    certificate_to_obj,
    compare,
    computational_povm,
    deconstruct,
    dilation_to_obj,
    naimark_construct,
    post_process,
    povm_to_obj,
    proxy_certificate,
    random_povm,
    random_state,
    save_json,
    table_to_obj,
    xbasis_povm,
)
from mftk.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
LOADED = "print('scipy.optimize' in sys.modules)"


def _fresh(code: str) -> list[str]:
    """Stdout lines of ``code`` run in a new interpreter that imports mftk from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.splitlines()


def test_import_mftk_leaves_scipy_optimize_unloaded():
    lines = _fresh(f"import sys, mftk, mftk.order\n{LOADED}\n"
                   "print(callable(mftk.order.linprog))")
    assert lines == ["False", "True"]


def test_sic_build_leaves_scipy_optimize_unloaded():
    lines = _fresh("import sys\nfrom mftk.cli import main\n"
                   f"assert main(['sic', 'build', '--dim', '3', '--json']) == 0\n{LOADED}")
    assert json.loads("\n".join(lines[:-1]))["dim"] == 3
    assert lines[-1] == "False"


def test_validate_leaves_scipy_optimize_unloaded(tmp_path):
    path = str(tmp_path / "z.json")
    save_json(path, povm_to_obj(computational_povm(2)))
    lines = _fresh(f"import sys\nfrom mftk.cli import main\n"
                   f"assert main(['validate', {path!r}]) == 0\n{LOADED}")
    assert lines[-1] == "False"


def test_calibration_commands_leave_every_scipy_module_unloaded(tmp_path):
    # Modules stay loaded once imported, so one interpreter running all
    # three commands shows that none of them loads any part of scipy.
    z = computational_povm(2)
    pushed = deconstruct(AgentState(target_dim=2, direct={"x": xbasis_povm()}), "x")
    files = {}
    for name, obj in (("z", povm_to_obj(z)), ("spec", dilation_to_obj(naimark_construct(z))),
                      ("agent", agent_to_obj(pushed)),
                      ("cert", certificate_to_obj(proxy_certificate(pushed, "proxy:x")))):
        files[name] = str(tmp_path / f"{name}.json")
        save_json(files[name], obj)
    runs = [["dilate", "naimark", "--povm", files["z"]],
            ["dilate", "probcheck", "--spec", files["spec"], "--target", files["z"]],
            ["agent", "incorporate", "--agent", files["agent"], "--system", "proxy:x",
             "--tuning", files["cert"], "--mode", "exclusive"]]
    lines = _fresh("import sys\nfrom mftk.cli import main\n"
                   f"for argv in {runs!r}:\n    assert main(argv + ['--json']) == 0\n"
                   "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert lines[-1] == "[]"


def test_a_ruled_out_discovery_leaves_every_scipy_module_unloaded(contradictory_table_file):
    # Acceptance #8's table in d = 2 is ruled out by its fidelity bound
    # before any restart, so no polish, and no part of scipy, runs.
    argv = ["discover", "--table", contradictory_table_file, "--dim", "2", "--json"]
    lines = _fresh("import sys\nfrom mftk.cli import main\n"
                   f"assert main({argv!r}) == 0\n"
                   "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert json.loads("\n".join(lines[:-1]))["scanned"][0]["verdict"] == "ruled_out"
    assert lines[-1] == "[]"


def test_a_polished_discovery_leaves_every_scipy_module_unloaded(tmp_path):
    # A hidden qutrit model seen through two projective measurements: the
    # alternating descent hands restart 1 to the terminal polish.
    rng = np.random.default_rng([91, 2])
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    rotated = Povm.from_matrices(3, [np.outer(u[:, k], u[:, k].conj()) for k in range(3)])
    states = [random_state(3, seed=[92, 2, m]) for m in range(4)]
    path = str(tmp_path / "qutrit.json")
    save_json(path, table_to_obj(ProbabilityTable.from_model(
        states, [computational_povm(3), rotated])))
    argv = ["discover", "--table", path, "--dim", "3", "--json"]
    lines = _fresh("import sys\nimport mftk.sicrep as s\nfrom mftk.cli import main\n"
                   "polish, calls = s._polish_model, []\n"
                   "s._polish_model = lambda *args: calls.append(1) or polish(*args)\n"
                   f"assert main({argv!r}) == 0\nprint(len(calls))\n"
                   "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = json.loads("\n".join(lines[:-2]))
    assert (out["feasible"], out["restarts_used"]) == (True, 1)
    assert lines[-2:] == ["1", "[]"]


def test_compare_loads_scipy_optimize_with_an_unchanged_verdict(tmp_path, tilted_basis):
    # Positive control: a pair at the boundary reaches the order LP, which
    # does import the solver, and the verdict from a cold process matches
    # this (warm) one.
    tilted = str(tmp_path / "x.json")
    save_json(tilted, povm_to_obj(tilted_basis(2)))
    lines = _fresh(
        "import json, sys\nfrom mftk import compare, computational_povm, load_json, povm_from_obj\n"
        f"{LOADED}\n"
        f"for v in (compare(computational_povm(2), povm_from_obj(load_json({tilted!r}))),\n"
        "          compare(computational_povm(2), computational_povm(2))):\n"
        "    print(json.dumps([v.relation, v.residual_forward, v.residual_backward,\n"
        "                      v.witness_forward and v.witness_forward.entries.tolist()]))\n"
        f"{LOADED}")
    assert lines[0] == "False" and lines[-1] == "True"
    incomparable = compare(computational_povm(2), tilted_basis(2))
    equivalent = compare(computational_povm(2), computational_povm(2))
    assert json.loads(lines[1]) == [
        "incomparable", incomparable.residual_forward, incomparable.residual_backward, None]
    assert json.loads(lines[2]) == [
        "equivalent", equivalent.residual_forward, equivalent.residual_backward,
        equivalent.witness_forward.entries.tolist()]


def test_mf_compare_loads_scipy_optimize_only_at_the_boundary(tmp_path, capsys, tilted_basis):
    # Computational against X basis is settled without the LP; the pair at
    # the boundary needs it. Either way the cold verdict is the warm one.
    left = str(tmp_path / "z.json")
    save_json(left, povm_to_obj(computational_povm(2)))
    for right_povm, loaded in ((xbasis_povm(), "False"), (tilted_basis(2), "True")):
        right = str(tmp_path / "x.json")
        save_json(right, povm_to_obj(right_povm))
        argv = ["compare", "--left", left, "--right", right, "--json"]
        lines = _fresh(f"import sys\nfrom mftk.cli import main\n"
                       f"assert main({argv!r}) == 0\n{LOADED}")
        assert main(argv) == 0
        assert lines[:-1] == capsys.readouterr().out.splitlines()
        assert lines[-1] == loaded


def test_compare_with_linearly_dependent_effects_leaves_scipy_optimize_unloaded(tmp_path, capsys):
    # Six qubit effects are linearly dependent, so some passive blocks of the
    # order's least-squares solve are singular (exactly so when effects repeat,
    # as in the split SIC); the solve must still settle the pair without the LP.
    sic = build_sic(2).povm
    halves = np.repeat(sic.matrices()[:2] / 2, 2, axis=0)  # E0/2, E0/2, E1/2, E1/2
    split_sic = Povm.from_matrices(2, np.concatenate([halves, sic.matrices()[2:]]))
    raw = np.random.default_rng(81).uniform(size=(3, 6))
    post = StochasticMatrix(6, 3, raw / raw.sum(axis=0))
    runs, warm = [], []
    for i, left in enumerate((random_povm(2, 6, seed=80), split_sic)):
        for j, right in enumerate((post_process(left, post), sic)):
            files = [str(tmp_path / f"{i}{j}{side}.json") for side in "lr"]
            save_json(files[0], povm_to_obj(left))
            save_json(files[1], povm_to_obj(right))
            runs.append(["compare", "--left", files[0], "--right", files[1], "--json"])
            assert main(runs[-1]) == 0
            warm.append(capsys.readouterr().out)
    lines = _fresh("import sys\nfrom mftk.cli import main\n"
                   f"for argv in {runs!r}:\n    assert main(argv) == 0\n{LOADED}")
    assert lines[:-1] == "".join(warm).splitlines()
    assert [json.loads(out)["relation"] for out in warm[::2]] == ["geq", "geq"]
    assert lines[-1] == "False"
