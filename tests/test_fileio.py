import json

import numpy as np
import pytest

from mftk import (
    AgentState,
    DensityMatrix,
    ExternalSystem,
    OutcomeDistribution,
    ProbabilityTable,
    QuantumChannel,
    StochasticMatrix,
    agent_from_obj,
    agent_to_obj,
    build_sic,
    certificate_from_obj,
    certificate_to_obj,
    channel_from_obj,
    channel_to_obj,
    computational_povm,
    deconstruct,
    decision_from_obj,
    decision_to_obj,
    dilation_from_obj,
    dilation_to_obj,
    dump_json,
    incorporate,
    load_json,
    naimark_construct,
    povm_from_obj,
    povm_to_obj,
    proxy_certificate,
    pure_state,
    random_povm,
    random_state,
    save_json,
    sic_from_obj,
    sic_to_obj,
    state_from_obj,
    state_to_obj,
    stochastic_from_obj,
    stochastic_to_obj,
    table_from_obj,
    table_to_obj,
    verify_tuned,
    xbasis_povm,
)
from mftk.errors import SchemaError
from mftk.fileio import _complex_from, _matrix_from, candidates_from_obj, sic_probs_from_obj


def _assert_povms_equal(a, b):
    assert a.dim == b.dim and a.labels == b.labels
    for ea, eb in zip(a.effects, b.effects):
        np.testing.assert_allclose(ea.matrix, eb.matrix, atol=1e-15)


# -------------------------------------------------------------- round trips

def test_povm_round_trip():
    p = random_povm(3, 4, seed=80)
    _assert_povms_equal(p, povm_from_obj(povm_to_obj(p)))


def test_state_round_trip():
    rho = random_state(3, seed=81)
    back = state_from_obj(state_to_obj(rho))
    np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-15)


def test_channel_round_trip():
    phi = QuantumChannel.depolarizing(2)
    back = channel_from_obj(channel_to_obj(phi))
    assert (back.dim_in, back.dim_out) == (2, 2)
    for ka, kb in zip(phi.kraus, back.kraus):
        np.testing.assert_allclose(ka, kb, atol=1e-15)


def test_stochastic_round_trip():
    s = StochasticMatrix(2, 3, np.array([[0.2, 0.5], [0.3, 0.25], [0.5, 0.25]]))
    back = stochastic_from_obj(stochastic_to_obj(s))
    np.testing.assert_allclose(back.entries, s.entries, atol=1e-15)


def test_sic_round_trip():
    for d in (2, 3):
        sic = build_sic(d)
        back = sic_from_obj(sic_to_obj(sic))
        _assert_povms_equal(sic.povm, back.povm)
        for va, vb in zip(sic.fiducial_states, back.fiducial_states):
            np.testing.assert_allclose(va, vb, atol=1e-15)


def test_table_round_trip_keeps_dim_hint():
    states = [random_state(2, seed=[82, i]) for i in range(3)]
    povms = [computational_povm(2), xbasis_povm()]
    table = ProbabilityTable.from_model(states, povms, labels=["z", "x"])
    back, hint = table_from_obj(table_to_obj(table, dim_hint=2))
    assert hint == 2
    assert back.measurement_labels == ("z", "x")
    for ra, rb in zip(table.as_arrays(), back.as_arrays()):
        np.testing.assert_allclose(ra, rb, atol=1e-15)
    _, no_hint = table_from_obj(table_to_obj(table))
    assert no_hint is None


def test_dilation_round_trip():
    spec = naimark_construct(random_povm(2, 3, seed=83))
    back = dilation_from_obj(dilation_to_obj(spec))
    assert (back.dim_s, back.dim_t) == (spec.dim_s, spec.dim_t)
    np.testing.assert_allclose(back.sigma.matrix, spec.sigma.matrix, atol=1e-15)
    _assert_povms_equal(back.y, spec.y)
    for ka, kb in zip(spec.phi.kraus, back.phi.kraus):
        np.testing.assert_allclose(ka, kb, atol=1e-15)


def test_certificate_round_trip():
    z = random_povm(2, 3, seed=84)
    spec = naimark_construct(z)
    cert = verify_tuned([(spec.y, z)], [spec])
    back = certificate_from_obj(certificate_to_obj(cert))
    assert back.tol == cert.tol
    assert back.tuned and not back.vacuous
    assert len(back.pairs) == 1
    assert back.pairs[0].residual == cert.pairs[0].residual


def test_decision_round_trip():
    prior = OutcomeDistribution(("0", "1"), np.array([0.3, 0.7]))
    utility = np.array([[1.0, 0.0], [0.0, 1.0]])
    channels = {
        "noisy": StochasticMatrix(2, 2, np.array([[0.9, 0.2], [0.1, 0.8]])),
        "blind": StochasticMatrix.merge_all(2),
    }
    p2, u2, c2 = decision_from_obj(decision_to_obj(prior, utility, channels))
    np.testing.assert_allclose(p2.probs, prior.probs, atol=1e-15)
    np.testing.assert_allclose(u2, utility, atol=1e-15)
    assert set(c2) == {"noisy", "blind"}
    np.testing.assert_allclose(c2["noisy"].entries, channels["noisy"].entries, atol=1e-15)


def test_agent_round_trip_with_proxies_and_history():
    agent = AgentState(
        target_dim=2,
        direct={"z": computational_povm(2)},
        external={
            "lab": ExternalSystem(dim=2, measurements={"x": xbasis_povm()})
        },
    )
    pushed = deconstruct(agent, "z")
    cert = proxy_certificate(pushed, "proxy:z")
    rebuilt, _ = incorporate(pushed, "proxy:z", cert, "inclusive")
    back = agent_from_obj(agent_to_obj(rebuilt))
    assert back.target_dim == 2
    assert set(back.external) == {"lab"}
    assert back.history == rebuilt.history
    assert isinstance(back.history[-1]["added"], tuple)
    # the untouched external system survives too
    _assert_povms_equal(back.external["lab"].measurements["x"], xbasis_povm())


# ------------------------------------------------------------ schema errors

def test_missing_field_names_path():
    with pytest.raises(SchemaError, match=r"povm\.effects: missing required field"):
        povm_from_obj({"dim": 2})


def test_bad_complex_entries():
    assert _complex_from(3, "p") == 3 + 0j
    assert _complex_from([1, -2], "p") == 1 - 2j
    for bad in (True, [1], [1, 2, 3], "x", None):
        with pytest.raises(SchemaError):
            _complex_from(bad, "p")


def test_ragged_matrix_rejected():
    with pytest.raises(SchemaError, match="row has 1 entries, expected 2"):
        _matrix_from([[1, 0], [0]], "m")


def test_constructor_errors_carry_path():
    obj = state_to_obj(random_state(2, seed=85))
    obj["matrix"][0][0] = [5.0, 0.0]  # trace becomes wrong
    with pytest.raises(SchemaError) as err:
        state_from_obj(obj, "state")
    assert err.value.path == "state"
    assert "trace" in str(err.value)


def test_table_block_shape_errors():
    states = [random_state(2, seed=[86, i]) for i in range(2)]
    obj = table_to_obj(ProbabilityTable.from_model(states, [computational_povm(2)]))
    broken = json.loads(json.dumps(obj))
    broken["q"][0].pop()
    with pytest.raises(SchemaError, match=r"table.q\[0\]"):
        table_from_obj(broken)
    broken = json.loads(json.dumps(obj))
    broken["q"][0][1] = [0.5, 0.25, 0.25]
    with pytest.raises(SchemaError, match=r"table.q\[0\]\[1\]"):
        table_from_obj(broken)


def test_povm_label_count_mismatch():
    obj = povm_to_obj(computational_povm(2))
    obj["labels"] = ["only-one"]
    with pytest.raises(SchemaError, match="labels"):
        povm_from_obj(obj)


def test_decision_channel_world_mismatch():
    prior = OutcomeDistribution(("0", "1"), np.array([0.5, 0.5]))
    obj = decision_to_obj(prior, np.eye(2), {"c": StochasticMatrix.identity(2)})
    obj["channels"]["c"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]
    with pytest.raises(SchemaError, match="worlds"):
        decision_from_obj(obj)


def test_non_object_input():
    with pytest.raises(SchemaError, match="expected an object"):
        povm_from_obj([1, 2, 3])


def test_reference_probabilities_take_dim_from_the_file_or_the_length():
    probs = [0.1] * 8 + [0.2]
    assert sic_probs_from_obj(probs)[1] == 3
    assert sic_probs_from_obj({"probs": probs})[1] == 3
    values, dim = sic_probs_from_obj({"dim": 2, "probs": probs})
    assert dim == 2 and values.tolist() == probs
    with pytest.raises(SchemaError, match=r"^probs\.dim: expected an integer"):
        sic_probs_from_obj({"dim": "3", "probs": probs})
    with pytest.raises(SchemaError, match=r"^probs: expected an array or an object"):
        sic_probs_from_obj({"dim": 3})


def test_candidates_take_either_shape():
    obj = [povm_to_obj(computational_povm(2)), povm_to_obj(xbasis_povm())]
    for shape in (obj, {"povms": obj}):
        _assert_povms_equal(candidates_from_obj(shape)[1], xbasis_povm())
    with pytest.raises(SchemaError, match=r"^candidates\.povms\[1\]\.dim"):
        candidates_from_obj({"povms": [obj[0], {}]})


@pytest.mark.parametrize("added", [5, "z", [1]])
def test_history_added_must_be_an_array_of_names(added):
    obj = agent_to_obj(AgentState(target_dim=2, direct={"z": computational_povm(2)}))
    obj["history"] = [{"event": "incorporate", "added": added}]
    with pytest.raises(SchemaError, match=r"^agent\.history\[0\]\.added: expected an array"):
        agent_from_obj(obj)


# --------------------------------------------------------------------- I/O

def test_dump_json_is_deterministic():
    p = random_povm(2, 3, seed=87)
    text = dump_json(povm_to_obj(p))
    assert text == dump_json(povm_to_obj(p))
    assert text.endswith("\n")
    assert list(json.loads(text)) == sorted(json.loads(text))


def test_save_and_load(tmp_path):
    target = tmp_path / "state.json"
    rho = pure_state(np.array([1.0, 1.0j]) / np.sqrt(2))
    save_json(str(target), state_to_obj(rho))
    back = state_from_obj(load_json(str(target)))
    np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-15)


def test_load_json_failure_modes(tmp_path):
    with pytest.raises(SchemaError, match="cannot read"):
        load_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_json(str(bad))
