"""Bookkeeping for an agent's measurement repertoire.

An agent owns a set of named measurements on a fixed target system,
plus named external systems it can probe but does not yet count as part
of its own instrumentarium. Incorporating a (tuned) external apparatus
moves its paired target measurements into the direct set, inclusively
(union) or exclusively (replacement); the extension taxonomy classifies
what that does to the agent's resources, at the level of equivalence
classes of the post-processing order:

    case        final class        versus old set
    downgrade   exclusive: {Z}     <
                inclusive: {X}     =
    duplicate   either:    {X}     =
    upgrade     either:    {Z}     >
    innovation  exclusive: {Z}     unordered
                inclusive: {X, Z}  unordered

``deconstruct`` runs the process in reverse: a direct measurement is
re-explained as a pointer reading on a postulated probe (via the
canonical dilation), and moves across the boundary to a new external
system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dilate import (
    DilationSpec,
    TuningCertificate,
    induced_povm,
    naimark_construct,
    verify_tuned,
)
from .errors import DimensionMismatchError, TuningRequiredError
from .measure import Povm
from .opalg import CHECK_ATOL, DECISION_ATOL
from .order import povm_set_geq

CASES = ("downgrade", "duplicate", "upgrade", "innovation")
MODES = ("inclusive", "exclusive")

# The table of the module docstring: (case, mode) -> (final class, comparison).
_TAXONOMY = {
    ("downgrade", "exclusive"): ("Z", "<"),
    ("downgrade", "inclusive"): ("X", "="),
    ("duplicate", "exclusive"): ("X", "="),
    ("duplicate", "inclusive"): ("X", "="),
    ("upgrade", "exclusive"): ("Z", ">"),
    ("upgrade", "inclusive"): ("Z", ">"),
    ("innovation", "exclusive"): ("Z", "≠"),
    ("innovation", "inclusive"): ("XZ", "≠"),
}


def _taxonomy_row(case: str, mode: str) -> tuple[str, str]:
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return _TAXONOMY[case, mode]


@dataclass(frozen=True)
class ExternalSystem:
    """A probeable system outside the agent's boundary.

    ``proxies`` remembers, per measurement name, the apparatus spec
    that explains the pointer measurement as a dilation of some target
    measurement; deconstruction installs these so the move can be
    undone.
    """

    dim: int
    measurements: dict[str, Povm]
    proxies: dict[str, DilationSpec] = field(default_factory=dict)

    def __post_init__(self):
        for name, p in self.measurements.items():
            if p.dim != self.dim:
                raise DimensionMismatchError(
                    f"measurement {name!r} has dim {p.dim}, system has dim {self.dim}"
                )
        for name in self.proxies:
            if name not in self.measurements:
                raise ValueError(f"proxy {name!r} has no matching measurement")


@dataclass(frozen=True)
class AgentState:
    """Immutable snapshot: target dimension, direct measurements, external
    systems, and an append-only event history."""

    target_dim: int
    direct: dict[str, Povm] = field(default_factory=dict)
    external: dict[str, ExternalSystem] = field(default_factory=dict)
    history: tuple[dict, ...] = ()

    def __post_init__(self):
        for name, p in self.direct.items():
            if p.dim != self.target_dim:
                raise DimensionMismatchError(
                    f"direct measurement {name!r} has dim {p.dim}, target is {self.target_dim}"
                )
        object.__setattr__(self, "direct", dict(self.direct))
        object.__setattr__(self, "external", dict(self.external))
        object.__setattr__(self, "history", tuple(self.history))


def classify_extension(x_set, z_set, tol: float = DECISION_ATOL) -> str:
    """Place a candidate measurement set z relative to the current set x.

    Mutual set-level post-processability means duplicate; one-sided
    strict dominance means upgrade (z above) or downgrade (z below);
    anything else is an innovation. An empty current set is dominated
    by anything, so extending from nothing classifies as an upgrade.
    """
    x_set = list(x_set)
    z_set = list(z_set)
    dims = {p.dim for p in x_set} | {p.dim for p in z_set}
    if len(dims) > 1:
        raise DimensionMismatchError(f"mixed dimensions in comparison: {sorted(dims)}")
    z_covers_x = povm_set_geq(z_set, x_set, tol).holds
    x_covers_z = povm_set_geq(x_set, z_set, tol).holds
    if z_covers_x and x_covers_z:
        return "duplicate"
    if z_covers_x:
        return "upgrade"
    if x_covers_z:
        return "downgrade"
    return "innovation"


def final_measurements(case: str, mode: str, x_set, z_set, tol: float = DECISION_ATOL):
    """Class-level final set and comparison symbol for a (case, mode) pair.

    The returned set is the representative of the final equivalence
    class, not the raw union: e.g. an inclusive downgrade leaves the
    class of the old set even though the agent now also owns the new
    measurements. Inputs are re-classified and must agree with ``case``.
    """
    _taxonomy_row(case, mode)
    x_set = list(x_set)
    z_set = list(z_set)
    found = classify_extension(x_set, z_set, tol)
    if found != case:
        raise ValueError(f"sets classify as {found!r}, not {case!r}")
    return _final_set(case, mode, x_set, z_set)


def _final_set(case: str, mode: str, x_set, z_set):
    """The (final set, comparison) of ``final_measurements`` for an
    already classified pair of sets."""
    sets, comparison = _taxonomy_row(case, mode)
    named = {"X": x_set, "Z": z_set}
    return tuple(p for s in sets for p in named[s]), comparison


def final_label(case: str, mode: str) -> str:
    """Symbolic name of the final equivalence class for a (case, mode) pair."""
    return "{" + ",".join(_taxonomy_row(case, mode)[0]) + "}"


@dataclass(frozen=True)
class ExtensionReport:
    mode: str
    case: str
    final_set: tuple[Povm, ...]
    final_label: str
    comparison: str
    forced: bool = False


def _povms_match(a: Povm, b: Povm) -> bool:
    if a.dim != b.dim or a.n_outcomes != b.n_outcomes:
        return False
    return float(np.max(np.abs(a.matrices() - b.matrices()))) <= CHECK_ATOL


def incorporate(
    agent: AgentState,
    system_name: str,
    tuning: TuningCertificate | None,
    mode: str,
    tol: float = DECISION_ATOL,
    force: bool = False,
) -> tuple[AgentState, ExtensionReport]:
    """Move an external system's measurements inside the agent's boundary.

    The tuning certificate pairs each pointer measurement of the system
    (in declaration order) with the target measurement it realizes;
    those targets become direct measurements. Without a valid,
    non-vacuous certificate the move is refused unless ``force`` is
    set, in which case the postulation is carried out anyway and logged
    as forced.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if system_name not in agent.external:
        raise ValueError(f"unknown external system {system_name!r}")
    system = agent.external[system_name]
    if tuning is None:
        raise TuningRequiredError(
            f"tuning precedes extension: no certificate given for {system_name!r}"
        )
    if not force:
        if tuning.vacuous:
            raise TuningRequiredError(
                f"tuning precedes extension: certificate for {system_name!r} is vacuous"
            )
        if not tuning.tuned:
            worst = max(tuning.residuals())
            raise TuningRequiredError(
                f"tuning precedes extension: certificate residual {worst:.3e} "
                f"exceeds {tuning.tol:.1e}"
            )
    pointer_povms = list(system.measurements.values())
    pointer_names = list(system.measurements.keys())
    if len(tuning.pairs) != len(pointer_povms):
        raise ValueError(
            f"certificate covers {len(tuning.pairs)} measurements, "
            f"system {system_name!r} has {len(pointer_povms)}"
        )
    for pair, pointer in zip(tuning.pairs, pointer_povms):
        if not _povms_match(pair.y, pointer):
            raise ValueError(
                f"certificate pointer measurements do not match system {system_name!r}"
            )
    z_named = []
    for name, pair in zip(pointer_names, tuning.pairs):
        if pair.z.dim != agent.target_dim:
            raise DimensionMismatchError(
                f"certified target measurement {name!r} has dim {pair.z.dim}, "
                f"agent target is {agent.target_dim}"
            )
        z_named.append((name, pair.z))

    x_set = list(agent.direct.values())
    z_set = [z for _, z in z_named]
    case = classify_extension(x_set, z_set, tol)
    final_set, comparison = _final_set(case, mode, x_set, z_set)
    label = final_label(case, mode)

    if mode == "exclusive":
        direct: dict[str, Povm] = {}
    else:
        direct = dict(agent.direct)
    added = []
    for name, z in z_named:
        final_name = name
        if final_name in direct:
            final_name = f"{system_name}:{name}"
        if final_name in direct:
            raise ValueError(f"name collision incorporating {name!r}")
        direct[final_name] = z
        added.append(final_name)

    external = {k: v for k, v in agent.external.items() if k != system_name}
    event = {
        "event": "incorporate",
        "system": system_name,
        "mode": mode,
        "case": case,
        "comparison": comparison,
        "added": tuple(added),
        "forced": bool(force),
        "tuned": tuning.tuned,
    }
    new_agent = AgentState(
        target_dim=agent.target_dim,
        direct=direct,
        external=external,
        history=agent.history + (event,),
    )
    report = ExtensionReport(
        mode=mode,
        case=case,
        final_set=final_set,
        final_label=label,
        comparison=comparison,
        forced=force,
    )
    return new_agent, report


def deconstruct(agent: AgentState, measurement_name: str) -> AgentState:
    """Push a direct measurement back out across the boundary.

    The measurement is re-explained as the canonical dilation's pointer
    reading on a postulated probe; a new external system holding that
    pointer measurement (and the remembered apparatus) replaces it.
    """
    if measurement_name not in agent.direct:
        raise ValueError(f"unknown direct measurement {measurement_name!r}")
    z = agent.direct[measurement_name]
    spec = naimark_construct(z)
    system_name = f"proxy:{measurement_name}"
    k = 2
    while system_name in agent.external:
        system_name = f"proxy:{measurement_name}:{k}"
        k += 1
    system = ExternalSystem(
        dim=spec.dim_s,
        measurements={measurement_name: spec.y},
        proxies={measurement_name: spec},
    )
    direct = {k: v for k, v in agent.direct.items() if k != measurement_name}
    event = {
        "event": "deconstruct",
        "measurement": measurement_name,
        "system": system_name,
        "probe_dim": spec.dim_s,
    }
    return AgentState(
        target_dim=agent.target_dim,
        direct=direct,
        external={**agent.external, system_name: system},
        history=agent.history + (event,),
    )


def proxy_certificate(
    agent: AgentState, system_name: str, tol: float = CHECK_ATOL
) -> TuningCertificate:
    """Tuning certificate for an external system with remembered apparatus specs.

    Each pointer measurement is paired with the target measurement its
    stored spec induces, so systems installed by ``deconstruct`` verify
    immediately.
    """
    if system_name not in agent.external:
        raise ValueError(f"unknown external system {system_name!r}")
    system = agent.external[system_name]
    pairs = []
    specs = []
    for name, pointer in system.measurements.items():
        if name not in system.proxies:
            raise ValueError(f"no apparatus spec stored for measurement {name!r}")
        spec = system.proxies[name]
        pairs.append((pointer, induced_povm(spec)))
        specs.append(spec)
    return verify_tuned(pairs, specs, tol)
