import argparse
import json

import numpy as np
import pytest
import scipy.optimize

import mftk.order
import mftk.sicrep

from mftk import (
    Povm,
    ProbabilityTable,
    StochasticMatrix,
    agent_to_obj,
    AgentState,
    basis_state,
    build_sic,
    certificate_to_obj,
    computational_povm,
    deconstruct,
    dilation_to_obj,
    naimark_construct,
    povm_to_obj,
    povm_to_conditional,
    proxy_certificate,
    random_state,
    save_json,
    state_to_obj,
    state_to_sic_probs,
    stochastic_to_obj,
    table_to_obj,
    trivial_povm,
    urgleichung,
    verify_tuned,
    xbasis_povm,
)
from mftk.cli import build_parser, main


def _write(tmp_path, name, obj):
    target = tmp_path / name
    save_json(str(target), obj)
    return str(target)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


# ----------------------------------------------------------- update rules

def test_urgleichung_cli_matches_known_point(tmp_path, capsys):
    state = _write(tmp_path, "zero.json", state_to_obj(basis_state(2, 0)))
    povm = _write(tmp_path, "z.json", povm_to_obj(computational_povm(2)))
    code = main(["urgleichung", "--state", state, "--povm", povm, "--dim", "2", "--json"])
    assert code == 0
    out = _json_out(capsys)
    np.testing.assert_allclose(out["probs"], [1.0, 0.0], atol=1e-9)

    code = main(["classical", "--state", state, "--povm", povm, "--dim", "2", "--json"])
    assert code == 0
    out = _json_out(capsys)
    np.testing.assert_allclose(out["probs"], [2.0 / 3.0, 1.0 / 3.0], atol=1e-9)


def test_raw_probability_files(tmp_path, capsys):
    sic = build_sic(2)
    rho = random_state(2, seed=90)
    p = state_to_sic_probs(rho, sic)
    r = povm_to_conditional(sic, xbasis_povm())
    expected = urgleichung(p, r)
    p_file = _write(tmp_path, "p.json", {"dim": 2, "probs": [float(v) for v in p.probs]})
    r_file = _write(tmp_path, "r.json", stochastic_to_obj(r))
    code = main(["urgleichung", "--p-file", p_file, "--r-file", r_file, "--json"])
    assert code == 0
    out = _json_out(capsys)
    np.testing.assert_allclose(out["probs"], expected.probs, atol=1e-12)


def test_mixing_raw_and_converted_inputs_fails(tmp_path, capsys):
    p_file = _write(tmp_path, "p.json", {"dim": 2, "probs": [0.25] * 4})
    state = _write(tmp_path, "s.json", state_to_obj(basis_state(2, 0)))
    code = main(["urgleichung", "--p-file", p_file, "--state", state, "--json"])
    assert code == 2
    assert "error" in _json_out(capsys)


# -------------------------------------------------------------- validation

def test_validate_good_and_bad_povm(tmp_path, capsys):
    good = _write(tmp_path, "good.json", povm_to_obj(computational_povm(2)))
    assert main(["validate", good, "--json"]) == 0
    assert _json_out(capsys)["valid"] is True

    obj = povm_to_obj(computational_povm(2))
    obj["effects"][0][0][0] = [0.8, 0.0]  # breaks completeness
    bad = _write(tmp_path, "bad.json", obj)
    assert main(["validate", bad, "--json"]) == 2
    out = _json_out(capsys)
    assert out["valid"] is False and out["violations"]


def test_validate_tol_covers_positivity(tmp_path, capsys):
    tiny = Povm.from_matrices(2, [np.diag([1 + 1e-7, 0.5]), np.diag([-1e-7, 0.5])])
    target = _write(tmp_path, "tiny.json", povm_to_obj(tiny))
    assert main(["validate", target, "--json"]) == 2
    assert _json_out(capsys)["violations"] == [
        "positivity: effect '1' has eigenvalue -1.000e-07 (magnitude 1.000e-07)"]
    assert main(["validate", target, "--tol", "1e-6", "--json"]) == 0
    assert _json_out(capsys) == {"kind": "povm", "valid": True, "violations": []}


def _non_finite_files(tmp_path):
    nan = float("nan")
    table = table_to_obj(ProbabilityTable.from_model(
        [basis_state(2, 0), basis_state(2, 1)], [computational_povm(2)]))
    table["q"][0][0][0] = nan
    return {
        "model": _write(tmp_path, "decision.json", {
            "prior": [0.5, 0.5], "utility": [[1.0, 0.0], [0.0, 1.0]],
            "channels": {"bad": [[nan, 0.0], [0.0, 1.0]]}}),
        "p": _write(tmp_path, "p.json", {"dim": 2, "probs": [nan, 0.5, 0.25, 0.25]}),
        "r": _r_file(tmp_path),
        "table": _write(tmp_path, "table.json", table),
    }


@pytest.mark.parametrize("argv, error", [
    (["umax", "--model", "{model}", "--channel", "bad"],
     "decision.channels.bad: conditional probabilities must be finite"),
    (["validate", "{table}", "--kind", "table"], "table.q[0][0]: probabilities must be finite"),
    (["discover", "--table", "{table}", "--dim", "2"],
     "table.q[0][0]: probabilities must be finite"),
    (["urgleichung", "--p-file", "{p}", "--r-file", "{r}"],
     "reference probabilities must be finite"),
], ids=["umax", "validate-table", "discover", "urgleichung"])
def test_non_finite_probabilities_exit_2(tmp_path, capsys, argv, error):
    files = _non_finite_files(tmp_path)
    assert main([a.format(**files) for a in argv] + ["--json"]) == 2
    assert _json_out(capsys) == {"error": error}


def test_validate_state_kind(tmp_path, capsys):
    good = _write(tmp_path, "s.json", state_to_obj(basis_state(2, 1)))
    assert main(["validate", good, "--kind", "state", "--json"]) == 0
    obj = state_to_obj(basis_state(2, 1))
    obj["matrix"][0][0] = [0.5, 0.0]  # trace 1.5
    bad = _write(tmp_path, "sbad.json", obj)
    assert main(["validate", bad, "--kind", "state", "--json"]) == 2
    capsys.readouterr()


def test_validate_state_error_prints_plain_numbers(tmp_path, capsys):
    obj = state_to_obj(basis_state(2, 1))
    obj["matrix"][0][0] = [1e-9, 0.0]  # trace 1 + 1e-9
    bad = _write(tmp_path, "s.json", obj)
    assert main(["validate", bad, "--kind", "state", "--json"]) == 2
    out = _json_out(capsys)
    assert out == {"error": "state: state trace 1.000000001 differs from 1 beyond 1e-10"}


@pytest.mark.parametrize("kind", ["state", "channel", "dilation", "sic", "table", "agent"])
def test_tol_outside_povm_validation_is_a_usage_error(tmp_path, capsys, kind):
    state = _write(tmp_path, "s.json", state_to_obj(basis_state(2, 1)))
    with pytest.raises(SystemExit) as err:
        main(["validate", state, "--kind", kind, "--tol", "1e-6", "--json"])
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol applies only to --kind povm" in captured.err


def test_error_reporting_streams(tmp_path, capsys):
    code = main(["validate", str(tmp_path / "missing.json")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err

    code = main(["validate", str(tmp_path / "missing.json"), "--json"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "error" in json.loads(captured.out)


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_out_into_a_missing_directory_exits_2(tmp_path, capsys, json_flag):
    out = str(tmp_path / "missing" / "x.json")
    povm = _write(tmp_path, "z.json", povm_to_obj(computational_povm(2)))
    message = f"{out}: cannot write file: No such file or directory"
    for argv in (["sic", "build", "--dim", "2"], ["dilate", "naimark", "--povm", povm]):
        assert main(argv + ["--out", out] + json_flag) == 2
        captured = capsys.readouterr()
        if json_flag:
            assert (json.loads(captured.out), captured.err) == ({"error": message}, "")
        else:
            assert (captured.out, captured.err) == ("", f"error: {message}\n")


# ------------------------------------------------------------------- born

def test_born_and_dim_mismatch(tmp_path, capsys):
    state2 = _write(tmp_path, "s2.json", state_to_obj(basis_state(2, 0)))
    state3 = _write(tmp_path, "s3.json", state_to_obj(basis_state(3, 0)))
    povm2 = _write(tmp_path, "z2.json", povm_to_obj(computational_povm(2)))
    assert main(["born", "--state", state2, "--povm", povm2, "--json"]) == 0
    np.testing.assert_allclose(_json_out(capsys)["probs"], [1.0, 0.0], atol=1e-12)
    assert main(["born", "--state", state3, "--povm", povm2, "--json"]) == 2
    capsys.readouterr()


# -------------------------------------------------------------------- sic

def test_sic_build_json_is_byte_identical(capsys):
    assert main(["sic", "build", "--dim", "2", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["sic", "build", "--dim", "2", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)


def test_sic_build_unsupported_dimension(capsys):
    assert main(["sic", "build", "--dim", "7", "--json"]) == 2
    assert "no built-in fiducial" in _json_out(capsys)["error"]


def test_sic_probs_state_round_trip_via_files(tmp_path, capsys):
    rho = random_state(2, seed=91)
    state = _write(tmp_path, "rho.json", state_to_obj(rho))
    assert main(["sic", "probs", "--state", state, "--dim", "2", "--json"]) == 0
    probs = _json_out(capsys)["probs"]
    out = str(tmp_path / "back.json")
    probs_arg = ",".join(repr(v) for v in probs)
    assert main(["sic", "state", "--probs", probs_arg, "--dim", "2",
                 "--out", out, "--json"]) == 0
    capsys.readouterr()
    with open(out) as fh:
        back = json.load(fh)
    m = np.array([[complex(*e) for e in row] for row in back["matrix"]])
    np.testing.assert_allclose(m, rho.matrix, atol=1e-9)


# ------------------------------------------------------------------ order

def test_compare_incomparable(tmp_path, capsys):
    left = _write(tmp_path, "z.json", povm_to_obj(computational_povm(2)))
    right = _write(tmp_path, "x.json", povm_to_obj(xbasis_povm()))
    assert main(["compare", "--left", left, "--right", right, "--json"]) == 0
    out = _json_out(capsys)
    assert out["relation"] == "incomparable"
    assert out["witness_forward"] is None


def test_compare_reports_solver_failure(tmp_path, capsys, monkeypatch, tilted_basis):
    def failing_linprog(*args, **kwargs):
        return scipy.optimize.OptimizeResult(success=False, status=4,
                                             message="Numerical difficulties encountered.")

    monkeypatch.setattr(mftk.order, "linprog", failing_linprog)
    # A pair at the boundary, which only the LP decides.
    left = _write(tmp_path, "z.json", povm_to_obj(computational_povm(2)))
    right = _write(tmp_path, "x.json", povm_to_obj(tilted_basis(2)))
    assert main(["compare", "--left", left, "--right", right, "--json"]) == 2
    error = _json_out(capsys)["error"]
    assert "linprog failed (status 4)" in error
    assert "Numerical difficulties" in error


def test_umax_cli(tmp_path, capsys):
    model = _write(tmp_path, "decision.json", {
        "prior": [0.5, 0.5],
        "utility": [[1.0, 0.0], [0.0, 1.0]],
        "channels": {
            "perfect": [[1.0, 0.0], [0.0, 1.0]],
            "noisy": [[0.9, 0.2], [0.1, 0.8]],
        },
    })
    assert main(["umax", "--model", model, "--channel", "perfect", "--json"]) == 0
    assert _json_out(capsys)["value"] == pytest.approx(1.0)
    assert main(["umax", "--model", model, "--channel", "noisy", "--json"]) == 0
    assert _json_out(capsys)["value"] == pytest.approx(0.85)
    assert main(["umax", "--model", model, "--channel", "nonesuch", "--json"]) == 2
    capsys.readouterr()


# ----------------------------------------------------------------- dilate

def test_dilate_naimark_then_verify(tmp_path, capsys):
    z = computational_povm(2)
    target = _write(tmp_path, "z.json", povm_to_obj(z))
    spec_file = str(tmp_path / "spec.json")
    assert main(["dilate", "naimark", "--povm", target, "--out", spec_file, "--json"]) == 0
    capsys.readouterr()
    assert main(["dilate", "verify", "--spec", spec_file, "--target", target,
                 "--json"]) == 0
    out = _json_out(capsys)
    assert out["holds"] is True and out["residual"] < 1e-9

    other = _write(tmp_path, "x.json", povm_to_obj(xbasis_povm()))
    assert main(["dilate", "verify", "--spec", spec_file, "--target", other,
                 "--json"]) == 2
    assert _json_out(capsys)["holds"] is False


def test_dilate_probcheck(tmp_path, capsys):
    z = computational_povm(2)
    spec = naimark_construct(z)
    spec_file = _write(tmp_path, "spec.json", dilation_to_obj(spec))
    target = _write(tmp_path, "z.json", povm_to_obj(z))
    assert main(["dilate", "probcheck", "--spec", spec_file, "--target", target,
                 "--n-states", "10", "--json"]) == 0
    out = _json_out(capsys)
    assert out["holds"] and out["agrees"]


def test_dilate_probcheck_on_a_trivial_target_and_sic_in_dimension_one(tmp_path, capsys):
    # The single-outcome target's probe is one-dimensional.
    z = trivial_povm(2)
    spec_file = _write(tmp_path, "spec.json", dilation_to_obj(naimark_construct(z)))
    target = _write(tmp_path, "t.json", povm_to_obj(z))
    assert main(["dilate", "probcheck", "--spec", spec_file, "--target", target, "--json"]) == 0
    out = _json_out(capsys)
    assert out["holds"] and out["agrees"] and out["max_gap"] == 0.0
    assert main(["sic", "build", "--dim", "1", "--json"]) == 0
    assert _json_out(capsys)["effects"] == [[[[1.0, 0.0]]]]


def test_tuned_claims(tmp_path, capsys):
    z = computational_povm(2)
    spec = naimark_construct(z)
    claim = {"y": povm_to_obj(spec.y), "z": povm_to_obj(z),
             "spec": dilation_to_obj(spec)}
    claims = _write(tmp_path, "claims.json", {"pairs": [claim]})
    assert main(["tuned", "--claims", claims, "--json"]) == 0
    assert _json_out(capsys)["tuned"] is True

    bad_claim = dict(claim, z=povm_to_obj(xbasis_povm()))
    claims_bad = _write(tmp_path, "claims_bad.json", {"pairs": [claim, bad_claim]})
    assert main(["tuned", "--claims", claims_bad, "--json"]) == 2
    out = _json_out(capsys)
    assert out["tuned"] is False
    assert out["pairs"][0]["residual"] < 1e-9 < out["pairs"][1]["residual"]


# --------------------------------------------------------------- discover

def test_discover_cli_feasible_and_hint(tmp_path, capsys):
    states = [basis_state(2, 0), basis_state(2, 1), random_state(2, seed=92)]
    povms = [computational_povm(2), xbasis_povm()]
    table = ProbabilityTable.from_model(states, povms)
    table_file = _write(tmp_path, "table.json", table_to_obj(table, dim_hint=2))
    assert main(["discover", "--table", table_file, "--restarts", "3", "--json"]) == 0
    out = _json_out(capsys)
    assert out["feasible"] and out["dim"] == 2
    assert out["scanned"][0]["residual"] < 1e-6
    assert len(out["states"]) == 3 and len(out["povms"]) == 2


# ------------------------------------------------------------------ agent

def test_agent_cli_round_trip(tmp_path, capsys):
    agent = AgentState(target_dim=2, direct={"z": computational_povm(2)})
    agent_file = _write(tmp_path, "agent.json", agent_to_obj(agent))
    pushed_file = str(tmp_path / "pushed.json")
    assert main(["agent", "deconstruct", "--agent", agent_file,
                 "--measurement", "z", "--out", pushed_file, "--json"]) == 0
    capsys.readouterr()

    pushed = deconstruct(agent, "z")
    cert = proxy_certificate(pushed, "proxy:z")
    cert_file = _write(tmp_path, "cert.json", certificate_to_obj(cert))

    assert main(["agent", "classify", "--agent", pushed_file,
                 "--tuning", cert_file, "--json"]) == 0
    assert _json_out(capsys)["case"] == "upgrade"

    back_file = str(tmp_path / "back.json")
    assert main(["agent", "incorporate", "--agent", pushed_file,
                 "--system", "proxy:z", "--tuning", cert_file,
                 "--mode", "exclusive", "--out", back_file, "--json"]) == 0
    out = _json_out(capsys)
    assert out["case"] == "upgrade" and out["comparison"] == ">"
    assert out["direct_measurements"] == ["z"]
    with open(back_file) as fh:
        back = json.load(fh)
    assert list(back["direct"]) == ["z"]
    assert back["history"][-1]["event"] == "incorporate"


def _false_certificate(tmp_path, **edits):
    """An agent holding the computational basis's apparatus, and a certificate
    claiming that apparatus performs the X basis, with ``edits`` applied."""
    pushed = deconstruct(AgentState(target_dim=2, direct={"z": computational_povm(2)}), "z")
    spec = pushed.external["proxy:z"].proxies["z"]
    cert = certificate_to_obj(verify_tuned([(spec.y, xbasis_povm())], [spec]))
    cert.update(edits)
    for pair in cert["pairs"]:
        pair["residual"] = 0.0
    agent_file = _write(tmp_path, "agent.json", agent_to_obj(pushed))
    cert_file = str(tmp_path / "cert.json")
    with open(cert_file, "w") as fh:
        json.dump(cert, fh)  # writes an infinite tol as Infinity, which json reads back
    return ["agent", "incorporate", "--agent", agent_file, "--system", "proxy:z",
            "--tuning", cert_file, "--mode", "exclusive", "--json"]


@pytest.mark.parametrize("edits, error", [
    ({"tuned": True}, "tuning precedes extension: certificate residual 5.000e-01 exceeds 1.0e-09"),
    ({"tol": float("inf")}, "certificate: tol must be positive and finite, got inf"),
], ids=["residuals", "infinite-tol"])
def test_incorporate_refuses_a_certificate_that_states_false_residuals(tmp_path, capsys,
                                                                      edits, error):
    assert main(_false_certificate(tmp_path, **edits)) == 2
    assert _json_out(capsys) == {"error": error}


# ------------------------------------------------------------------- misc

def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1
    capsys.readouterr()


def test_nonpositive_tol_rejected(tmp_path, capsys):
    povm = _write(tmp_path, "z.json", povm_to_obj(computational_povm(2)))
    with pytest.raises(SystemExit) as err:
        main(["validate", povm, "--tol", "0"])
    assert err.value.code == 1
    capsys.readouterr()


def test_demo_runs_clean(capsys):
    assert main(["demo"]) == 0
    text = capsys.readouterr().out
    assert "1/3" in text
    assert main(["demo", "--json"]) == 0
    out = _json_out(capsys)
    assert out["classical_gap"] == pytest.approx(1.0 / 3.0, abs=1e-9)


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_malformed_tol_rejected(tmp_path, capsys, value):
    left = _write(tmp_path, "z.json", povm_to_obj(computational_povm(2)))
    right = _write(tmp_path, "x.json", povm_to_obj(xbasis_povm()))
    with pytest.raises(SystemExit) as err:
        main(["compare", "--left", left, "--right", right, "--tol", value, "--json"])
    assert err.value.code == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_malformed_fit_tol_rejected(tmp_path, capsys, value):
    states = [basis_state(2, 0), basis_state(2, 1), random_state(2, seed=92)]
    table = ProbabilityTable.from_model(states, [computational_povm(2), xbasis_povm()])
    table_file = _write(tmp_path, "table.json", table_to_obj(table, dim_hint=2))
    with pytest.raises(SystemExit) as err:
        main(["discover", "--table", table_file, "--fit-tol", value, "--json"])
    assert err.value.code == 1
    assert capsys.readouterr().out == ""


def _hinted_qubit_table(tmp_path):
    states = [basis_state(2, 0), basis_state(2, 1), random_state(2, seed=92)]
    table = ProbabilityTable.from_model(states, [computational_povm(2), xbasis_povm()])
    return _write(tmp_path, "table.json", table_to_obj(table, dim_hint=2))


@pytest.mark.parametrize("value", ["0", "-1"])
def test_discover_nonpositive_dim_is_an_error(tmp_path, capsys, value):
    # --dim 0 is not "no --dim": it must not fall back to the table's hint.
    table_file = _hinted_qubit_table(tmp_path)
    assert main(["discover", "--table", table_file, "--dim", value, "--json"]) == 2
    assert _json_out(capsys) == {"error": "dimension must be >= 1"}


def test_discover_reversed_scan_range_is_reported_as_empty(tmp_path, capsys):
    table_file = _hinted_qubit_table(tmp_path)
    assert main(["discover", "--table", table_file, "--scan-dim", "3..1", "--json"]) == 2
    assert _json_out(capsys) == {"error": "--scan-dim: range 3..1 is empty: MIN exceeds MAX"}
    assert main(["discover", "--table", table_file, "--scan-dim", "0..2", "--json"]) == 2
    assert _json_out(capsys) == {"error": "--scan-dim: range must start at 1 or above"}


@pytest.mark.parametrize("flag", ["--restarts", "--max-iters"])
@pytest.mark.parametrize("value", ["0", "-1", "-4"])
def test_discover_nonpositive_search_budget_rejected(tmp_path, capsys, flag, value):
    table_file = _hinted_qubit_table(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["discover", "--table", table_file, flag, value, "--json"])
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} must be at least 1" in captured.err


def test_discover_scan_rules_out_dimensions_without_a_restart(contradictory_table_file, capsys,
                                                              monkeypatch):
    searched, restart_batch = [], mftk.sicrep._restart_batch

    def recording(table, basis, restarts, *args):
        searched.append(basis.dim)
        return restart_batch(table, basis, restarts, *args)

    monkeypatch.setattr(mftk.sicrep, "_restart_batch", recording)
    table_file = contradictory_table_file
    assert main(["discover", "--table", table_file, "--scan-dim", "1..4", "--json"]) == 0
    out = _json_out(capsys)
    assert [row["verdict"] for row in out["scanned"]] == ["ruled_out"] * 3 + ["found"]
    assert [row["feasible"] for row in out["scanned"]] == [False] * 3 + [True]
    assert [row["certificate"]["bound"] for row in out["scanned"][:3]] == [
        "rank", "fidelity", "fidelity"]
    assert all(row["residual"] == float("inf") for row in out["scanned"][:3])
    assert "certificate" not in out["scanned"][3]
    assert (out["feasible"], out["dim"], out["restarts_used"]) == (True, 4, 1)
    assert searched == [4]  # restart 1 alone; it fits, so no batch follows

    assert main(["discover", "--table", table_file, "--scan-dim", "1..4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "dim 2: ruled out (fidelity bound 3.99995 > 2 on preparations [0, 1, 2, 3])"
    assert lines[-1] == "model found in dim 4 after 1 restart(s)"


def test_discover_claims_no_model_exists_only_when_every_dimension_is_ruled_out(
        tmp_path, capsys, contradictory_table_file):
    argv = ["discover", "--table", contradictory_table_file, "--scan-dim", "1..3"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "no dimension in range admits a model at this tolerance")
    # d = 1 is ruled out, but a one-iteration search in d = 2 merely gives up.
    argv = ["discover", "--table", _hinted_qubit_table(tmp_path), "--scan-dim", "1..2",
            "--restarts", "1", "--max-iters", "1"]
    assert main(argv + ["--json"]) == 0
    assert [row["verdict"] for row in _json_out(capsys)["scanned"]] == ["ruled_out", "not_found"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("dim 2: not found (best residual ")
    assert lines[-1] == "no model found at this tolerance; a search that gives up proves nothing"


def test_tol_on_discover_points_to_fit_tol(tmp_path, capsys):
    states = [basis_state(2, 0), basis_state(2, 1), random_state(2, seed=92)]
    table = ProbabilityTable.from_model(states, [computational_povm(2), xbasis_povm()])
    table_file = _write(tmp_path, "table.json", table_to_obj(table, dim_hint=2))
    with pytest.raises(SystemExit) as err:
        main(["discover", "--table", table_file, "--tol", "1e-3", "--json"])
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "use --fit-tol" in captured.err


# ------------------------------------------------- flags and file boundary

TOL_COMMANDS = {("validate",), ("compare",), ("dilate", "verify"), ("dilate", "probcheck"),
                ("tuned",), ("agent", "classify"), ("agent", "incorporate"), ("discover",)}
SEED_COMMANDS = {("dilate", "probcheck"), ("discover",)}


def _leaf_parsers(parser, path=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_parsers(sub, path + (name,))
            return
    yield path, parser


def _required_argv(path, parser):
    """The subcommand with a placeholder for every required argument."""
    argv = list(path)
    required = [a for a in parser._actions if a.required]
    required += [g._group_actions[0] for g in parser._mutually_exclusive_groups if g.required]
    for action in required:
        argv += action.option_strings[:1] + [action.choices[0] if action.choices else "1"]
    return argv


def test_tol_and_seed_only_where_they_act(capsys):
    leaves = dict(_leaf_parsers(build_parser()))
    assert len(leaves) == 18
    for path, parser in leaves.items():
        for flag, where in (("--tol", TOL_COMMANDS), ("--seed", SEED_COMMANDS)):
            argv = _required_argv(path, parser) + [flag, "1"]
            if path in where:
                assert getattr(build_parser().parse_args(argv), flag[2:]) == 1
                continue
            with pytest.raises(SystemExit) as err:
                main(argv + ["--json"])
            assert err.value.code == 1, (path, flag)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"unrecognized arguments: {flag} 1" in captured.err


@pytest.mark.parametrize("command", [["urgleichung", "--povm", "z.json"], ["sic", "probs"]])
def test_dim_zero_is_not_a_missing_dim(tmp_path, capsys, command):
    _write(tmp_path, "z.json", povm_to_obj(computational_povm(2)))
    state = _write(tmp_path, "s.json", state_to_obj(basis_state(2, 0)))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in command]
    assert main(argv + ["--state", state, "--dim", "0", "--json"]) == 2
    assert _json_out(capsys) == {"error": "no built-in fiducial for dimension 0"}


def _r_file(tmp_path):
    r = povm_to_conditional(build_sic(2), xbasis_povm())
    return _write(tmp_path, "r.json", stochastic_to_obj(r))


def test_probability_files_take_either_shape(tmp_path, capsys):
    probs = [float(v) for v in state_to_sic_probs(random_state(2, seed=94), build_sic(2)).probs]
    r_file = _r_file(tmp_path)
    updates, states = set(), set()
    for i, obj in enumerate([probs, {"probs": probs}, {"dim": 2, "probs": probs}]):
        p_file = _write(tmp_path, f"p{i}.json", obj)
        assert main(["urgleichung", "--p-file", p_file, "--r-file", r_file, "--json"]) == 0
        updates.add(capsys.readouterr().out)
        assert main(["sic", "state", "--probs-file", p_file, "--dim", "2", "--json"]) == 0
        states.add(capsys.readouterr().out)
    assert len(updates) == len(states) == 1


@pytest.mark.parametrize("extra", [[], ["--probs", "0.25,0.25,0.25,0.25",
                                          "--probs-file", "p.json"]])
def test_sic_state_takes_one_probability_source(capsys, extra):
    with pytest.raises(SystemExit) as err:
        main(["sic", "state", "--dim", "2", *extra, "--json"])
    assert err.value.code == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag, obj, path", [
    ("--probs-file", [None, 0.25, 0.25, 0.25], "probs[0]"),
    ("--probs-file", {"probs": [0.25, [[0.25]], 0.25, 0.25]}, "probs.probs[1]"),
    ("--p-file", {"dim": 2, "probs": [0.25, 0.25, None, 0.25]}, "p.probs[2]"),
    ("--p-file", {"dim": 2, "probs": [0.25, 0.25, 0.25, [[0.25]]]}, "p.probs[3]"),
])
def test_malformed_probability_entries_exit_2_with_path(tmp_path, capsys, flag, obj, path):
    p_file = _write(tmp_path, "p.json", obj)
    if flag == "--probs-file":
        argv = ["sic", "state", "--probs-file", p_file, "--dim", "2", "--json"]
    else:
        argv = ["urgleichung", "--p-file", p_file, "--r-file", _r_file(tmp_path), "--json"]
    assert main(argv) == 2
    assert _json_out(capsys)["error"].startswith(f"{path}: ")


def test_malformed_history_and_empty_table_exit_2_with_path(tmp_path, capsys):
    obj = agent_to_obj(AgentState(target_dim=2, direct={"z": computational_povm(2)}))
    obj["history"] = [{"event": "incorporate", "added": 5}]
    agent_file = _write(tmp_path, "agent.json", obj)
    assert main(["agent", "deconstruct", "--agent", agent_file, "--measurement", "z",
                 "--json"]) == 2
    assert _json_out(capsys)["error"].startswith("agent.history[0].added: ")

    table_file = _write(tmp_path, "table.json", {
        "preparations": 0, "measurements": [{"label": "Z", "n_outcomes": 2}], "q": [[]],
    })
    for argv in (["discover", "--table", table_file, "--dim", "2"],
                 ["validate", table_file, "--kind", "table"]):
        assert main(argv + ["--json"]) == 2
        assert _json_out(capsys)["error"].startswith("table.preparations: ")


def test_negative_n_states_is_a_usage_error(tmp_path, capsys):
    z = computational_povm(2)
    spec_file = _write(tmp_path, "spec.json", dilation_to_obj(naimark_construct(z)))
    target = _write(tmp_path, "z.json", povm_to_obj(z))
    argv = ["dilate", "probcheck", "--spec", spec_file, "--target", target, "--json"]
    with pytest.raises(SystemExit) as err:
        main(argv + ["--n-states", "-1"])
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n-states must be at least 0" in captured.err

    assert main(argv + ["--n-states", "0"]) == 0
    out = _json_out(capsys)
    assert out["vacuous"] and out["n_states"] == 0


def test_out_is_reported_in_human_output(tmp_path, capsys):
    out = str(tmp_path / "out.json")
    assert main(["sic", "state", "--probs", "0.25,0.25,0.25,0.25", "--dim", "2",
                 "--out", out]) == 0
    assert capsys.readouterr().out.endswith(f"written to {out}\n")

    z = computational_povm(2)
    spec = naimark_construct(z)
    claims = _write(tmp_path, "claims.json", {"pairs": [
        {"y": povm_to_obj(spec.y), "z": povm_to_obj(z), "spec": dilation_to_obj(spec)}
    ]})
    assert main(["tuned", "--claims", claims, "--out", out]) == 0
    assert capsys.readouterr().out.endswith(f"written to {out}\n")
    assert json.loads((tmp_path / "out.json").read_text())["tuned"] is True


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_a_usage_error_leaves_the_parser_as_it_was(tmp_path, capsys):
    # The call's bytes from a fresh parser, after usage errors on the cached
    # one, and again. The rejected calls carry --tol 1e-6, which would pass
    # this POVM if it lingered.
    tiny = Povm.from_matrices(2, [np.diag([1 + 1e-7, 0.5]), np.diag([-1e-7, 0.5])])
    target = _write(tmp_path, "tiny.json", povm_to_obj(tiny))
    build_parser.cache_clear()
    assert main(["validate", target]) == 2
    alone = capsys.readouterr()
    assert "positivity" in alone.out
    for bad in (["validate", target, "--tol", "1e-6", "--kind", "state"],
                ["validate", target, "--tol", "1e-6", "--kind", "nonesuch"]):
        with pytest.raises(SystemExit) as err:
            main(bad)
        assert err.value.code == 1
        assert capsys.readouterr().out == ""
        assert main(["validate", target]) == 2
        assert capsys.readouterr() == alone
