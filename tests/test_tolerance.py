"""The tolerance policy: one table of defaults in ``mftk.opalg``, used
unchanged by every public function and every ``mf`` subcommand."""

import ast
import inspect
import pathlib

import numpy as np
import pytest

import mftk
from mftk import (
    AgentState,
    Povm,
    ProbabilityTable,
    basis_state,
    agent_to_obj,
    certificate_to_obj,
    computational_povm,
    deconstruct,
    dilation_to_obj,
    naimark_construct,
    povm_to_obj,
    proxy_certificate,
    povm_from_obj,
    save_json,
    xbasis_povm,
)
from mftk import agent, cli, dilate, measure, opalg, order, sicrep

SRC = pathlib.Path(mftk.__file__).parent

TABLE = {
    "ROUNDOFF_ATOL": 1e-10,
    "CHECK_ATOL": 1e-9,
    "DECISION_ATOL": 1e-8,
    "PROB_CLAMP": 1e-12,
    "FIT_TOL": 1e-6,
}

# Every public function with a tolerance keyword, and its default.
DEFAULTS = {
    ("opalg", "is_hermitian", "atol"): 1e-10,
    ("opalg", "hermitian_eigensystem", "atol"): 1e-10,
    ("measure", "validate_povm", "atol"): 1e-9,
    ("sicrep", "discover_system", "tol"): 1e-6,
    ("order", "povm_geq", "tol"): 1e-8,
    ("order", "compare", "tol"): 1e-8,
    ("order", "is_trivial_class", "tol"): 1e-8,
    ("order", "is_rank_one_povm", "tol"): 1e-8,
    ("order", "blackwell_consistency", "tol"): 1e-8,
    ("order", "povm_set_geq", "tol"): 1e-8,
    ("dilate", "is_generalized_dilation", "tol"): 1e-9,
    ("dilate", "verify_tuned", "tol"): 1e-9,
    ("dilate", "check_tuning_probabilistic", "tol"): 1e-9,
    ("agent", "classify_extension", "tol"): 1e-8,
    ("agent", "final_measurements", "tol"): 1e-8,
    ("agent", "incorporate", "tol"): 1e-8,
    ("agent", "proxy_certificate", "tol"): 1e-9,
}


def _is_float_literal(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def test_float_constants_live_only_in_the_table():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_float_literal(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    found[(path.stem, target.id)] = node.value
    assert {name for module, name in found if module == "opalg"} == set(TABLE)
    assert {module for module, _ in found} == {"opalg"}
    for name, value in TABLE.items():
        assert getattr(opalg, name) == value


def test_public_tolerance_defaults_are_unchanged():
    seen = {}
    for module in (opalg, measure, sicrep, order, dilate, agent):
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            for param in inspect.signature(fn).parameters.values():
                if param.name in ("tol", "atol"):
                    seen[(module.__name__.split(".")[-1], name, param.name)] = param.default
    assert seen == DEFAULTS


def _record(monkeypatch, module, name, param, calls):
    original = getattr(module, name)
    signature = inspect.signature(original)

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments[param])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)


@pytest.fixture
def cli_files(tmp_path):
    def write(name, obj):
        target = str(tmp_path / name)
        save_json(target, obj)
        return target

    z = computational_povm(2)
    spec = naimark_construct(z)
    claim = {"y": povm_to_obj(spec.y), "z": povm_to_obj(z), "spec": dilation_to_obj(spec)}
    pushed = deconstruct(AgentState(target_dim=2, direct={"z": z}), "z")
    return {
        "z": write("z.json", povm_to_obj(z)),
        "x": write("x.json", povm_to_obj(xbasis_povm())),
        "spec": write("spec.json", dilation_to_obj(spec)),
        "claims": write("claims.json", {"pairs": [claim]}),
        "agent": write("agent.json", agent_to_obj(pushed)),
        "cert": write("cert.json", certificate_to_obj(proxy_certificate(pushed, "proxy:z"))),
    }


# (argv with {file} placeholders, module and function the subcommand calls,
# name of its tolerance parameter, default the subcommand passes)
SUBCOMMANDS = [
    (["validate", "{z}"], "cli", "validate_povm", "atol", 1e-9),
    (["dilate", "verify", "--spec", "{spec}", "--target", "{z}"],
     "dilate", "is_generalized_dilation", "tol", 1e-9),
    (["tuned", "--claims", "{claims}"], "dilate", "verify_tuned", "tol", 1e-9),
    (["compare", "--left", "{z}", "--right", "{x}"], "order", "compare", "tol", 1e-8),
    (["dilate", "probcheck", "--spec", "{spec}", "--target", "{z}", "--n-states", "3"],
     "dilate", "check_tuning_probabilistic", "tol", 1e-8),
    (["agent", "classify", "--agent", "{agent}", "--tuning", "{cert}"],
     "agent", "classify_extension", "tol", 1e-8),
    (["agent", "incorporate", "--agent", "{agent}", "--system", "proxy:z",
      "--tuning", "{cert}", "--mode", "exclusive"], "agent", "incorporate", "tol", 1e-8),
]


@pytest.mark.parametrize("argv, module, name, param, default", SUBCOMMANDS,
                         ids=[row[2] for row in SUBCOMMANDS])
def test_subcommand_tolerance_defaults(cli_files, monkeypatch, capsys,
                                       argv, module, name, param, default):
    target = {"cli": cli, "dilate": dilate, "order": order, "agent": agent}[module]
    calls = []
    _record(monkeypatch, target, name, param, calls)
    argv = [a.format(**cli_files) for a in argv] + ["--json"]
    assert cli.main(argv) == 0
    assert cli.main(argv + ["--tol", "0.25"]) == 0
    capsys.readouterr()
    assert calls == [default, 0.25]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-9])
def test_library_refuses_a_tolerance_that_is_not_positive_and_finite(value):
    # Each call is one that a NaN or infinite tolerance used to pass: a POVM
    # with an eigenvalue of -0.2, an X-basis apparatus against the Z basis.
    z = computational_povm(2)
    negative = povm_from_obj({"dim": 2, "effects": [[[1.2, 0], [0, 0.5]], [[-0.2, 0], [0, 0.5]]]})
    spec = naimark_construct(xbasis_povm())
    table = ProbabilityTable.from_model([basis_state(2, 0)], [z])
    calls = [
        ("atol", lambda: measure.validate_povm(negative, atol=value)),
        ("tol", lambda: dilate.is_generalized_dilation(spec.y, z, spec, tol=value)),
        ("tol", lambda: dilate.verify_tuned([(spec.y, z)], [spec], tol=value)),
        ("tol", lambda: dilate.verify_tuned([], [], tol=value)),
        ("tol", lambda: dilate.check_tuning_probabilistic(spec, z, tol=value)),
        ("tol", lambda: sicrep.discover_system(table, 2, tol=value)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got"):
            call()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-8])
def test_order_predicates_and_set_comparisons_refuse_a_bad_tolerance(value):
    # A NaN tolerance called the coin (I/2, I/2) rank one and an infinite one
    # called the computational basis trivial; empty sets skip every comparison.
    coin = Povm.from_matrices(2, [np.eye(2) / 2, np.eye(2) / 2])
    z = computational_povm(2)
    calls = [
        lambda: order.is_rank_one_povm(coin, value),
        lambda: order.is_trivial_class(z, value),
        lambda: order.povm_set_geq([z], [xbasis_povm()], value),
        lambda: order.povm_set_geq([], [], value),
        lambda: agent.classify_extension([z], [xbasis_povm()], value),
        lambda: agent.classify_extension([], [], value),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^tol must be positive and finite, got"):
            call()
