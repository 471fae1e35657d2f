"""JSON encodings for every value type the command line reads or writes.

Conventions: complex scalars are two-element arrays [re, im]; matrices
are nested row-major arrays; every file is a single JSON object. Readers
report the JSON path of the first violated expectation via
``SchemaError`` so broken files point at their own defect.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .agent import AgentState, ExternalSystem
from .dilate import DilationSpec, TuningCertificate, verify_tuned
from .errors import SchemaError
from .measure import (
    DensityMatrix,
    OutcomeDistribution,
    Povm,
    QuantumChannel,
    StochasticMatrix,
)
from .sicrep import ProbabilityTable, SicPovm, SicProbVector


# ---------------------------------------------------------------- scalars

def _complex_to_obj(a) -> list:
    """A complex vector or matrix, nested as the array is, each entry [re, im]."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _number(obj, path: str) -> float:
    if not _is_number(obj):
        raise SchemaError(path, "expected a number")
    return float(obj)


def _integer(obj, path: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise SchemaError(path, "expected an integer")
    return obj


def _array(obj, path: str, of: str) -> list:
    """``obj`` as a non-empty JSON array; ``of`` names its entries."""
    if not isinstance(obj, list) or not obj:
        raise SchemaError(path, f"expected a non-empty array of {of}")
    return obj


def _real(a: np.ndarray, path: str) -> np.ndarray:
    if np.max(np.abs(a.imag), initial=0.0) > 0:
        raise SchemaError(path, "expected real entries")
    return a.real


def _complex_from(obj, path: str) -> complex:
    if isinstance(obj, list) and len(obj) == 2 and _is_number(obj[0]) and _is_number(obj[1]):
        return complex(obj[0], obj[1])
    if _is_number(obj):
        return complex(obj)
    raise SchemaError(path, "expected a number or a [re, im] pair")


def _matrix_from(obj, path: str) -> np.ndarray:
    rows = []
    for i, row in enumerate(_array(obj, path, "rows")):
        row = _array(row, f"{path}[{i}]", "entries")
        width = len(rows[0]) if rows else len(row)
        if len(row) != width:
            raise SchemaError(f"{path}[{i}]", f"row has {len(row)} entries, expected {width}")
        rows.append([_complex_from(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(rows, dtype=complex)


def _vector_from(obj, path: str) -> np.ndarray:
    return np.array(
        [_complex_from(v, f"{path}[{i}]") for i, v in enumerate(_array(obj, path, "entries"))]
    )


def _object(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    return obj


def _field(obj, key: str, path: str):
    _object(obj, path)
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return obj[key]


def _int_field(obj, key: str, path: str) -> int:
    return _integer(_field(obj, key, path), f"{path}.{key}")


def _construct(builder, path: str):
    try:
        return builder()
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


# ---------------------------------------------------------------- measure

def povm_to_obj(p: Povm) -> dict:
    return {
        "dim": p.dim,
        "labels": list(p.labels),
        "effects": [_complex_to_obj(e.matrix) for e in p.effects],
    }


def povm_from_obj(obj, path: str = "povm") -> Povm:
    dim = _int_field(obj, "dim", path)
    effects_obj = _array(_field(obj, "effects", path), f"{path}.effects", "matrices")
    mats = [_matrix_from(e, f"{path}.effects[{i}]") for i, e in enumerate(effects_obj)]
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != len(mats):
            raise SchemaError(f"{path}.labels", "expected one label per effect")
        labels = [str(l) for l in labels]
    return _construct(lambda: Povm.from_matrices(dim, mats, labels=labels), path)


def state_to_obj(rho: DensityMatrix) -> dict:
    return {"dim": rho.dim, "matrix": _complex_to_obj(rho.matrix)}


def state_from_obj(obj, path: str = "state") -> DensityMatrix:
    dim = _int_field(obj, "dim", path)
    m = _matrix_from(_field(obj, "matrix", path), f"{path}.matrix")
    return _construct(lambda: DensityMatrix(dim=dim, matrix=m), path)


def channel_to_obj(phi: QuantumChannel) -> dict:
    return {
        "dim_in": phi.dim_in,
        "dim_out": phi.dim_out,
        "kraus": [_complex_to_obj(k) for k in phi.kraus],
    }


def channel_from_obj(obj, path: str = "channel") -> QuantumChannel:
    dim_in = _int_field(obj, "dim_in", path)
    dim_out = _int_field(obj, "dim_out", path)
    kraus_obj = _array(_field(obj, "kraus", path), f"{path}.kraus", "matrices")
    ops = [_matrix_from(k, f"{path}.kraus[{i}]") for i, k in enumerate(kraus_obj)]
    return _construct(lambda: QuantumChannel(dim_in, dim_out, tuple(ops)), path)


def stochastic_to_obj(s: StochasticMatrix) -> dict:
    return {"n_in": s.n_in, "n_out": s.n_out, "entries": s.entries.tolist()}


def stochastic_from_obj(obj, path: str = "stochastic") -> StochasticMatrix:
    n_in = _int_field(obj, "n_in", path)
    n_out = _int_field(obj, "n_out", path)
    here = f"{path}.entries"
    m = _real(_matrix_from(_field(obj, "entries", path), here), here)
    return _construct(lambda: StochasticMatrix(n_in=n_in, n_out=n_out, entries=m), path)


def distribution_to_obj(q: OutcomeDistribution) -> dict:
    return {"labels": list(q.labels), "probs": q.probs.tolist()}


# ----------------------------------------------------------------- sicrep

def sic_to_obj(sic: SicPovm) -> dict:
    out = povm_to_obj(sic.povm)
    out["fiducials"] = [_complex_to_obj(v) for v in sic.fiducial_states]
    return out


def sic_from_obj(obj, path: str = "sic") -> SicPovm:
    povm = povm_from_obj(obj, path)
    fid_obj = _array(_field(obj, "fiducials", path), f"{path}.fiducials", "vectors")
    vecs = [_vector_from(v, f"{path}.fiducials[{i}]") for i, v in enumerate(fid_obj)]
    return _construct(
        lambda: SicPovm(dim=povm.dim, fiducial_states=tuple(vecs), povm=povm), path
    )


def sic_probs_to_obj(p: SicProbVector) -> dict:
    return {"dim": p.dim, "probs": p.probs.tolist()}


def sic_probs_from_obj(obj, path: str = "probs") -> tuple[np.ndarray, int]:
    """Returns the entries and the dimension d of a reference-probability
    file: either a bare array of the d^2 probabilities or an object
    {"dim": d, "probs": [...]} as ``sic_probs_to_obj`` writes it. Without
    a "dim" field, d is the square root of the entry count."""
    dim = None
    if isinstance(obj, dict) and "probs" in obj:
        if "dim" in obj:
            dim = _integer(obj["dim"], f"{path}.dim")
        obj, path = obj["probs"], f"{path}.probs"
    elif not isinstance(obj, list):
        raise SchemaError(path, 'expected an array or an object with a "probs" field')
    probs = _real(_vector_from(obj, path), path)
    return probs, (math.isqrt(probs.size) if dim is None else dim)


def table_to_obj(table: ProbabilityTable, dim_hint: int | None = None) -> dict:
    out = {
        "preparations": table.n_preparations,
        "measurements": [
            {"label": label, "n_outcomes": len(row[0])}
            for label, row in zip(table.measurement_labels, table.distributions)
        ],
        "q": [[q.probs.tolist() for q in row] for row in table.distributions],
    }
    if dim_hint is not None:
        out["dim_hint"] = dim_hint
    return out


def table_from_obj(obj, path: str = "table") -> tuple[ProbabilityTable, int | None]:
    """Returns the table and the file's dimension hint, if any.

    The outer index of "q" follows the measurements array; the middle
    index runs over preparations; the inner over outcomes.
    """
    n_prep = _int_field(obj, "preparations", path)
    if n_prep < 1:
        raise SchemaError(f"{path}.preparations", "expected at least one preparation")
    meas_obj = _array(_field(obj, "measurements", path), f"{path}.measurements", "measurements")
    labels = []
    counts = []
    for i, m in enumerate(meas_obj):
        labels.append(str(_field(m, "label", f"{path}.measurements[{i}]")))
        counts.append(_int_field(m, "n_outcomes", f"{path}.measurements[{i}]"))
    q_obj = _field(obj, "q", path)
    if not isinstance(q_obj, list) or len(q_obj) != len(labels):
        raise SchemaError(f"{path}.q", f"expected {len(labels)} blocks, one per measurement")
    rows = []
    for k, block in enumerate(q_obj):
        if not isinstance(block, list) or len(block) != n_prep:
            raise SchemaError(f"{path}.q[{k}]", f"expected {n_prep} distributions")
        row = []
        for m, dist in enumerate(block):
            here = f"{path}.q[{k}][{m}]"
            v = _real(_vector_from(dist, here), here)
            if v.size != counts[k]:
                raise SchemaError(here, f"expected {counts[k]} outcome probabilities")
            row.append(
                _construct(
                    lambda v=v: OutcomeDistribution(
                        labels=tuple(str(j) for j in range(v.size)), probs=v
                    ),
                    here,
                )
            )
        rows.append(tuple(row))
    table = _construct(
        lambda: ProbabilityTable(
            n_preparations=n_prep, measurement_labels=tuple(labels), distributions=tuple(rows)
        ),
        path,
    )
    dim_hint = obj.get("dim_hint")
    if dim_hint is not None and _integer(dim_hint, f"{path}.dim_hint") < 1:
        raise SchemaError(f"{path}.dim_hint", "dimension must be >= 1")
    return table, dim_hint


# ----------------------------------------------------------------- dilate

def dilation_to_obj(spec: DilationSpec) -> dict:
    return {
        "dim_s": spec.dim_s,
        "dim_t": spec.dim_t,
        "sigma": state_to_obj(spec.sigma),
        "phi": channel_to_obj(spec.phi),
        "y": povm_to_obj(spec.y),
    }


def dilation_from_obj(obj, path: str = "dilation") -> DilationSpec:
    dim_s = _int_field(obj, "dim_s", path)
    dim_t = _int_field(obj, "dim_t", path)
    sigma = state_from_obj(_field(obj, "sigma", path), f"{path}.sigma")
    phi = channel_from_obj(_field(obj, "phi", path), f"{path}.phi")
    y = povm_from_obj(_field(obj, "y", path), f"{path}.y")
    return _construct(
        lambda: DilationSpec(sigma=sigma, phi=phi, y=y, dim_s=dim_s, dim_t=dim_t), path
    )


def claims_from_obj(obj, path: str = "claims"):
    """Returns (pairs, specs), the arguments of ``verify_tuned``, from a
    claims file {"pairs": [{"y": <povm>, "z": <povm>, "spec": <dilation>}, ...]}."""
    pairs_obj = _field(obj, "pairs", path)
    if not isinstance(pairs_obj, list):
        raise SchemaError(f"{path}.pairs", "expected an array of {y, z, spec} objects")
    pairs, specs = [], []
    for i, entry in enumerate(pairs_obj):
        here = f"{path}.pairs[{i}]"
        pairs.append((povm_from_obj(_field(entry, "y", here), f"{here}.y"),
                      povm_from_obj(_field(entry, "z", here), f"{here}.z")))
        specs.append(dilation_from_obj(_field(entry, "spec", here), f"{here}.spec"))
    return pairs, specs


def certificate_to_obj(cert: TuningCertificate) -> dict:
    return {
        "tol": float(cert.tol),
        "tuned": cert.tuned,
        "vacuous": cert.vacuous,
        "pairs": [
            {
                "residual": float(p.residual),
                "y": povm_to_obj(p.y),
                "z": povm_to_obj(p.z),
                "spec": dilation_to_obj(p.spec),
            }
            for p in cert.pairs
        ],
    }


def certificate_from_obj(obj, path: str = "certificate") -> TuningCertificate:
    """The claims of a certificate file verified again at its "tol"; the
    residuals, "tuned" and "vacuous" it states are not read."""
    tol = _number(_field(obj, "tol", path), f"{path}.tol")
    pairs, specs = claims_from_obj(obj, path)
    return _construct(lambda: verify_tuned(pairs, specs, tol), path)


# ------------------------------------------------------------------ order

def decision_from_obj(obj, path: str = "decision"):
    """Returns (prior, utility, channels): the raw pieces of a decision file.

    A concrete DecisionModel is assembled by picking one named channel.
    """
    prior = _real(_vector_from(_field(obj, "prior", path), f"{path}.prior"), f"{path}.prior")
    utility = _real(
        _matrix_from(_field(obj, "utility", path), f"{path}.utility"), f"{path}.utility"
    )
    channels_obj = _object(_field(obj, "channels", path), f"{path}.channels")
    if not channels_obj:
        raise SchemaError(f"{path}.channels", "expected at least one named channel")
    prior_dist = _construct(
        lambda: OutcomeDistribution(
            labels=tuple(str(i) for i in range(prior.size)), probs=prior
        ),
        f"{path}.prior",
    )
    channels = {}
    for name, m in channels_obj.items():
        here = f"{path}.channels.{name}"
        entries = _real(_matrix_from(m, here), here)
        if entries.shape[1] != prior.size:
            raise SchemaError(
                here, f"channel conditions on {entries.shape[1]} worlds, prior has {prior.size}"
            )
        channels[name] = _construct(
            lambda e=entries: StochasticMatrix(
                n_in=e.shape[1], n_out=e.shape[0], entries=e
            ),
            here,
        )
    return prior_dist, utility, channels


def decision_to_obj(prior: OutcomeDistribution, utility, channels) -> dict:
    return {
        "prior": prior.probs.tolist(),
        "utility": np.asarray(utility, dtype=float).tolist(),
        "channels": {name: s.entries.tolist() for name, s in channels.items()},
    }


# ------------------------------------------------------------------ agent

def agent_to_obj(agent: AgentState) -> dict:
    external = {}
    for name, system in agent.external.items():
        entry = {
            "dim": system.dim,
            "measurements": {k: povm_to_obj(v) for k, v in system.measurements.items()},
        }
        if system.proxies:
            entry["proxies"] = {k: dilation_to_obj(v) for k, v in system.proxies.items()}
        external[name] = entry
    return {
        "target_dim": agent.target_dim,
        "direct": {k: povm_to_obj(v) for k, v in agent.direct.items()},
        "external": external,
        "history": [dict(e, added=list(e["added"])) if "added" in e else dict(e)
                    for e in agent.history],
    }


def agent_from_obj(obj, path: str = "agent") -> AgentState:
    target_dim = _int_field(obj, "target_dim", path)
    direct_obj = _object(_field(obj, "direct", path), f"{path}.direct")
    direct = {
        str(k): povm_from_obj(v, f"{path}.direct.{k}") for k, v in direct_obj.items()
    }
    external_obj = _object(_field(obj, "external", path), f"{path}.external")
    external = {}
    for name, entry in external_obj.items():
        here = f"{path}.external.{name}"
        dim = _int_field(entry, "dim", here)
        meas_obj = _object(_field(entry, "measurements", here), f"{here}.measurements")
        measurements = {
            str(k): povm_from_obj(v, f"{here}.measurements.{k}") for k, v in meas_obj.items()
        }
        proxies = {}
        for k, v in _object(entry.get("proxies", {}), f"{here}.proxies").items():
            proxies[str(k)] = dilation_from_obj(v, f"{here}.proxies.{k}")
        external[str(name)] = _construct(
            lambda d=dim, m=measurements, p=proxies: ExternalSystem(
                dim=d, measurements=m, proxies=p
            ),
            here,
        )
    history = obj.get("history", [])
    if not isinstance(history, list):
        raise SchemaError(f"{path}.history", "expected an array")
    events = []
    for i, e in enumerate(history):
        here = f"{path}.history[{i}]"
        e = dict(_object(e, here))
        if "added" in e:
            if not isinstance(e["added"], list) or not all(isinstance(n, str) for n in e["added"]):
                raise SchemaError(f"{here}.added", "expected an array of names")
            e["added"] = tuple(e["added"])
        events.append(e)
    return _construct(
        lambda: AgentState(
            target_dim=target_dim, direct=direct, external=external, history=tuple(events)
        ),
        path,
    )


def candidates_from_obj(obj, path: str = "candidates") -> list[Povm]:
    """Candidate measurements for ``mf agent classify``: an array of POVMs
    or an object {"povms": [...]}."""
    if isinstance(obj, dict):
        obj, path = _field(obj, "povms", path), f"{path}.povms"
    if not isinstance(obj, list):
        raise SchemaError(path, 'expected an array or {"povms": [...]}')
    return [povm_from_obj(p, f"{path}[{i}]") for i, p in enumerate(obj)]


# ------------------------------------------------------------------- I/O

def load_json(filename: str):
    try:
        with open(filename, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(filename, f"cannot read file: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(filename, f"not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(filename, f"not valid UTF-8: {exc.reason} at byte {exc.start}") from exc


def dump_json(obj) -> str:
    """Canonical serialization: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def save_json(filename: str, obj) -> None:
    """Write ``dump_json(obj)`` to ``filename``. The object is serialized
    before the file is opened, so one that cannot be encoded leaves an
    existing file as it was."""
    text = dump_json(obj)
    try:
        with open(filename, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(filename, f"cannot write file: {exc.strerror or exc}") from exc
