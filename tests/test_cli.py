import argparse
import json

import numpy as np
import pytest
import scipy.optimize

import mftk.order

from mftk import (
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
    urgleichung,
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
    back = json.load(open(out))
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


def test_compare_reports_solver_failure(tmp_path, capsys, monkeypatch):
    def failing_linprog(*args, **kwargs):
        return scipy.optimize.OptimizeResult(success=False, status=4,
                                             message="Numerical difficulties encountered.")

    monkeypatch.setattr(mftk.order, "linprog", failing_linprog)
    left = _write(tmp_path, "z.json", povm_to_obj(computational_povm(2)))
    right = _write(tmp_path, "x.json", povm_to_obj(xbasis_povm()))
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
    back = json.load(open(back_file))
    assert list(back["direct"]) == ["z"]
    assert back["history"][-1]["event"] == "incorporate"


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
