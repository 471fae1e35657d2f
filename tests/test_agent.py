import numpy as np
import pytest

import mftk.order

from mftk import (
    AgentState,
    ExternalSystem,
    PairResult,
    Povm,
    StochasticMatrix,
    TuningCertificate,
    classify_extension,
    compare,
    computational_povm,
    deconstruct,
    final_label,
    final_measurements,
    incorporate,
    naimark_construct,
    post_process,
    proxy_certificate,
    random_povm,
    trivial_povm,
    verify_tuned,
    xbasis_povm,
)
from mftk.errors import DimensionMismatchError, TuningRequiredError

Z = computational_povm(2)
X = xbasis_povm()
TRIVIAL = trivial_povm(2)
PERMUTED_Z = post_process(Z, StochasticMatrix.deterministic([1, 0], 2, 2))


def _certificate_for(targets, tol=1e-9):
    specs = [naimark_construct(z) for z in targets]
    return verify_tuned([(s.y, z) for s, z in zip(specs, targets)], specs, tol), specs


def _agent_with_external(direct, targets, system_name="probe"):
    cert, specs = _certificate_for(targets)
    system = ExternalSystem(
        dim=specs[0].dim_s if specs else 1,
        measurements={f"y{i}": spec.y for i, spec in enumerate(specs)},
    )
    agent = AgentState(target_dim=2, direct=direct, external={system_name: system})
    return agent, cert


# ------------------------------------------------------------- containers

def test_agent_state_validates_dimensions():
    with pytest.raises(DimensionMismatchError):
        AgentState(target_dim=3, direct={"z": Z})
    with pytest.raises(DimensionMismatchError):
        ExternalSystem(dim=3, measurements={"y": Z})
    with pytest.raises(ValueError):
        ExternalSystem(dim=2, measurements={}, proxies={"ghost": naimark_construct(Z)})


# ----------------------------------------------------------- classification

def test_classify_cases():
    assert classify_extension([Z], [TRIVIAL]) == "downgrade"
    assert classify_extension([Z], [PERMUTED_Z]) == "duplicate"
    assert classify_extension([TRIVIAL], [Z]) == "upgrade"
    assert classify_extension([Z], [X]) == "innovation"
    assert classify_extension([], [Z]) == "upgrade"
    assert classify_extension([], []) == "duplicate"
    with pytest.raises(DimensionMismatchError):
        classify_extension([Z], [computational_povm(3)])


def test_final_measurements_all_eight_rows():
    fixtures = {
        "downgrade": ([Z], [TRIVIAL]),
        "duplicate": ([Z], [PERMUTED_Z]),
        "upgrade": ([TRIVIAL], [Z]),
        "innovation": ([Z], [X]),
    }
    expected = {
        ("downgrade", "exclusive"): ("z", "<"),
        ("downgrade", "inclusive"): ("x", "="),
        ("duplicate", "exclusive"): ("x", "="),
        ("duplicate", "inclusive"): ("x", "="),
        ("upgrade", "exclusive"): ("z", ">"),
        ("upgrade", "inclusive"): ("z", ">"),
        ("innovation", "exclusive"): ("z", "≠"),
        ("innovation", "inclusive"): ("xz", "≠"),
    }
    for (case, mode), (which, symbol) in expected.items():
        x_set, z_set = fixtures[case]
        final, comparison = final_measurements(case, mode, x_set, z_set)
        assert comparison == symbol
        reference = {"x": tuple(x_set), "z": tuple(z_set), "xz": tuple(x_set) + tuple(z_set)}
        assert final == reference[which]


def test_final_measurements_rejects_mislabel():
    with pytest.raises(ValueError):
        final_measurements("upgrade", "inclusive", [Z], [TRIVIAL])
    with pytest.raises(ValueError):
        final_measurements("sideways", "inclusive", [Z], [TRIVIAL])
    with pytest.raises(ValueError):
        final_measurements("upgrade", "both", [TRIVIAL], [Z])


def test_final_label_matches_taxonomy():
    assert final_label("downgrade", "inclusive") == "{X}"
    assert final_label("downgrade", "exclusive") == "{Z}"
    assert final_label("duplicate", "inclusive") == "{X}"
    assert final_label("upgrade", "exclusive") == "{Z}"
    assert final_label("innovation", "inclusive") == "{X,Z}"
    assert final_label("innovation", "exclusive") == "{Z}"


# ------------------------------------------------------------ incorporation

def test_incorporate_requires_tuning():
    agent, cert = _agent_with_external({"z": Z}, [X])
    with pytest.raises(TuningRequiredError, match="tuning precedes extension"):
        incorporate(agent, "probe", None, "inclusive")

    vacuous = TuningCertificate(pairs=(), tol=1e-9)
    with pytest.raises(TuningRequiredError, match="tuning precedes extension"):
        incorporate(agent, "probe", vacuous, "inclusive")

    broken = TuningCertificate(
        pairs=tuple(PairResult(p.y, p.z, p.spec, residual=0.5) for p in cert.pairs),
        tol=cert.tol,
    )
    with pytest.raises(TuningRequiredError, match="tuning precedes extension"):
        incorporate(agent, "probe", broken, "inclusive")


def test_incorporate_force_overrides_and_is_logged():
    agent, cert = _agent_with_external({"z": Z}, [X])
    broken = TuningCertificate(
        pairs=tuple(PairResult(p.y, p.z, p.spec, residual=0.5) for p in cert.pairs),
        tol=cert.tol,
    )
    new_agent, report = incorporate(agent, "probe", broken, "inclusive", force=True)
    assert report.forced
    assert new_agent.history[-1]["forced"] is True
    assert "y0" in new_agent.direct


def test_incorporate_moves_measurements_across_boundary():
    agent, cert = _agent_with_external({"z": Z}, [X])
    new_agent, report = incorporate(agent, "probe", cert, "inclusive")
    assert report.case == "innovation"
    assert report.comparison == "≠"
    assert report.final_label == "{X,Z}"
    assert set(new_agent.direct) == {"z", "y0"}
    assert "probe" not in new_agent.external
    assert new_agent.history[-1]["event"] == "incorporate"
    # The original agent value is untouched.
    assert set(agent.direct) == {"z"}
    assert "probe" in agent.external


def test_incorporate_classifies_once(monkeypatch):
    calls = []
    povm_geq = mftk.order.povm_geq

    def counting_geq(*args, **kwargs):
        calls.append(args)
        return povm_geq(*args, **kwargs)

    monkeypatch.setattr(mftk.order, "povm_geq", counting_geq)
    agent, cert = _agent_with_external({"z": Z}, [X])
    _, report = incorporate(agent, "probe", cert, "inclusive")
    assert report.case == "innovation"
    # One LP per direction of the 1-vs-1 set comparison, none repeated.
    assert len(calls) == 2


def test_incorporate_exclusive_replaces():
    agent, cert = _agent_with_external({"z": Z}, [X])
    new_agent, report = incorporate(agent, "probe", cert, "exclusive")
    assert set(new_agent.direct) == {"y0"}
    assert report.final_label == "{Z}"


def test_incorporate_renames_on_collision():
    agent, cert = _agent_with_external({"y0": Z}, [X])
    new_agent, _ = incorporate(agent, "probe", cert, "inclusive")
    assert set(new_agent.direct) == {"y0", "probe:y0"}


def test_incorporate_rejects_unknown_system_and_bad_mode():
    agent, cert = _agent_with_external({"z": Z}, [X])
    with pytest.raises(ValueError):
        incorporate(agent, "nonesuch", cert, "inclusive")
    with pytest.raises(ValueError):
        incorporate(agent, "probe", cert, "sideways")


def test_incorporate_rejects_mismatched_certificate():
    agent, _ = _agent_with_external({"z": Z}, [X])
    other_cert, _ = _certificate_for([random_povm(2, 3, seed=70)])
    with pytest.raises(ValueError):
        incorporate(agent, "probe", other_cert, "inclusive")


def test_empty_initial_set_makes_modes_coincide():
    for mode in ("inclusive", "exclusive"):
        agent, cert = _agent_with_external({}, [Z])
        new_agent, report = incorporate(agent, "probe", cert, mode)
        assert report.case == "upgrade"
        assert report.comparison == ">"
        assert set(new_agent.direct) == {"y0"}
        assert [e.matrix.tolist() for e in new_agent.direct["y0"].effects] == [
            e.matrix.tolist() for e in Z.effects
        ]


# ------------------------------------------------------------ deconstruction

def test_deconstruct_moves_measurement_out():
    agent = AgentState(target_dim=2, direct={"m": Z, "keep": X})
    out = deconstruct(agent, "m")
    assert set(out.direct) == {"keep"}
    assert "proxy:m" in out.external
    system = out.external["proxy:m"]
    assert system.dim == Z.n_outcomes
    assert "m" in system.measurements and "m" in system.proxies
    assert out.history[-1]["event"] == "deconstruct"


def test_deconstruct_only_measurement_leaves_empty_set():
    agent = AgentState(target_dim=2, direct={"m": Z})
    out = deconstruct(agent, "m")
    assert out.direct == {}


def test_deconstruct_unknown_name():
    agent = AgentState(target_dim=2, direct={"m": Z})
    with pytest.raises(ValueError):
        deconstruct(agent, "nope")


def test_proxy_certificate_requires_stored_spec():
    system = ExternalSystem(dim=2, measurements={"y": computational_povm(2)})
    agent = AgentState(target_dim=2, external={"s": system})
    with pytest.raises(ValueError):
        proxy_certificate(agent, "s")
    with pytest.raises(ValueError):
        proxy_certificate(agent, "other")


def test_deconstruct_then_exclusive_reincorporation_round_trips():
    for i in range(3):
        z = random_povm(2, 2 + i, seed=[71, i])
        agent = AgentState(target_dim=2, direct={"m": z})
        pushed = deconstruct(agent, "m")
        cert = proxy_certificate(pushed, "proxy:m")
        assert cert.tuned
        back, report = incorporate(pushed, "proxy:m", cert, "exclusive")
        assert set(back.direct) == {"m"}
        assert compare(z, back.direct["m"]).relation == "equivalent"
        assert report.case == "upgrade"  # from the empty set, anything is


def test_history_is_append_only_across_operations():
    agent = AgentState(target_dim=2, direct={"m": Z})
    pushed = deconstruct(agent, "m")
    cert = proxy_certificate(pushed, "proxy:m")
    back, _ = incorporate(pushed, "proxy:m", cert, "exclusive")
    assert [e["event"] for e in back.history] == ["deconstruct", "incorporate"]
    assert agent.history == ()
    assert [e["event"] for e in pushed.history] == ["deconstruct"]
