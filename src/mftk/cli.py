"""Command-line front end.

Every subcommand reads and writes the JSON formats of ``fileio``. With
``--json`` the command emits exactly one top-level JSON object (sorted
keys, so identical inputs and seeds give byte-identical output); the
human format rounds to six significant digits. Exit codes: 0 success,
2 a validation or verification failure (including malformed input
files), 1 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import agent as agentmod
from . import dilate, fileio, order, sicrep
from .errors import SchemaError
from .measure import (
    OutcomeDistribution,
    StochasticMatrix,
    basis_state,
    born_probabilities,
    computational_povm,
    post_process,
    trivial_povm,
    validate_povm,
    xbasis_povm,
)
from .opalg import CHECK_ATOL, DECISION_ATOL, FIT_TOL


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.6g}{z.imag:+.6g}j"


def _matrix_lines(m, indent: str = "  ") -> list[str]:
    return [f"{indent}[{', '.join(_fmt_complex(v) for v in row)}]" for row in m]


def _emit(args, obj: dict, lines: list[str], saved: dict | None = None) -> None:
    """Print ``obj`` (with --json) or ``lines``. With --out, first write
    ``saved`` there (``obj`` if not given) and report it in ``lines``."""
    out = getattr(args, "out", None)
    if out:
        fileio.save_json(out, obj if saved is None else saved)
        lines = lines + [f"written to {out}"]
    if args.json:
        sys.stdout.write(fileio.dump_json(obj))
    else:
        for line in lines:
            print(line)


def _distribution_output(args, q: OutcomeDistribution) -> None:
    lines = [f"  {label}: {_fmt(p)}" for label, p in zip(q.labels, q.probs)]
    _emit(args, fileio.distribution_to_obj(q), lines)


def _tol(args, default: float) -> float:
    """``--tol`` if given, else the operation's default from the tolerance table."""
    return args.tol if args.tol is not None else default


def _load_sic(args) -> sicrep.SicPovm:
    if args.sic:
        return fileio.sic_from_obj(fileio.load_json(args.sic))
    if args.dim is not None:
        return sicrep.build_sic(args.dim)
    raise SchemaError("arguments", "need --sic FILE or --dim D to fix the reference measurement")


# ------------------------------------------------------------- subcommands

def _cmd_validate(args) -> int:
    obj = fileio.load_json(args.file)
    if args.kind == "povm":
        p = fileio.povm_from_obj(obj)
        report = validate_povm(p, atol=_tol(args, CHECK_ATOL))
        payload = {"kind": "povm", "valid": report.ok, "violations": report.lines() if not report.ok else []}
        _emit(args, payload, report.lines())
        return 0 if report.ok else 2
    loaders = {
        "state": fileio.state_from_obj,
        "channel": fileio.channel_from_obj,
        "dilation": fileio.dilation_from_obj,
        "sic": fileio.sic_from_obj,
        "table": lambda o: fileio.table_from_obj(o)[0],
        "agent": fileio.agent_from_obj,
    }
    loaders[args.kind](obj)  # raises SchemaError when invalid
    _emit(args, {"kind": args.kind, "valid": True, "violations": []}, ["valid"])
    return 0


def _cmd_born(args) -> int:
    rho = fileio.state_from_obj(fileio.load_json(args.state))
    p = fileio.povm_from_obj(fileio.load_json(args.povm))
    _distribution_output(args, born_probabilities(rho, p))
    return 0


def _cmd_sic_build(args) -> int:
    sic = sicrep.build_sic(args.dim)
    _emit(args, fileio.sic_to_obj(sic), [
        f"reference measurement, dim {sic.dim}: {sic.povm.n_outcomes} effects",
        f"pairwise overlap 1/(d+1) = {_fmt(1.0 / (sic.dim + 1))}",
    ])
    return 0


def _cmd_sic_probs(args) -> int:
    sic = _load_sic(args)
    rho = fileio.state_from_obj(fileio.load_json(args.state))
    p = sicrep.state_to_sic_probs(rho, sic)
    _emit(args, fileio.sic_probs_to_obj(p),
          [f"  p({i}) = {_fmt(v)}" for i, v in enumerate(p.probs)])
    return 0


def _cmd_sic_state(args) -> int:
    sic = _load_sic(args)
    if args.probs is not None:
        try:
            values = np.array([float(tok) for tok in args.probs.split(",")])
        except ValueError:
            raise SchemaError("--probs", "expected comma-separated numbers")
    else:
        values, _ = fileio.sic_probs_from_obj(fileio.load_json(args.probs_file))
    p = sicrep.SicProbVector(dim=sic.dim, probs=values)
    rho = sicrep.sic_probs_to_state(p, sic)
    _emit(args, fileio.state_to_obj(rho), ["reconstructed state:"] + _matrix_lines(rho.matrix))
    return 0


def _conditional_inputs(args):
    """(p, r, labels) from either raw files or a (state, povm) pair."""
    raw = args.p_file is not None or args.r_file is not None
    converted = args.state is not None or args.povm is not None
    if raw == converted:
        raise SchemaError(
            "arguments", "give either --p-file and --r-file, or --state and --povm"
        )
    if raw:
        if args.p_file is None or args.r_file is None:
            raise SchemaError("arguments", "--p-file and --r-file go together")
        probs, dim = fileio.sic_probs_from_obj(fileio.load_json(args.p_file), "p")
        p = sicrep.SicProbVector(dim=dim, probs=probs)
        r = fileio.stochastic_from_obj(fileio.load_json(args.r_file))
        return p, r, None
    if args.state is None or args.povm is None:
        raise SchemaError("arguments", "--state and --povm go together")
    sic = _load_sic(args)
    rho = fileio.state_from_obj(fileio.load_json(args.state))
    target = fileio.povm_from_obj(fileio.load_json(args.povm))
    p = sicrep.state_to_sic_probs(rho, sic)
    r = sicrep.povm_to_conditional(sic, target)
    return p, r, target.labels


def _cmd_update(args) -> int:
    p, r, labels = _conditional_inputs(args)
    _distribution_output(args, args.rule(p, r, labels=labels))
    return 0


def _cmd_compare(args) -> int:
    left = fileio.povm_from_obj(fileio.load_json(args.left))
    right = fileio.povm_from_obj(fileio.load_json(args.right))
    verdict = order.compare(left, right, tol=_tol(args, DECISION_ATOL))
    obj = {
        "relation": verdict.relation,
        "residual_forward": float(verdict.residual_forward),
        "residual_backward": float(verdict.residual_backward),
        "witness_forward": (
            fileio.stochastic_to_obj(verdict.witness_forward)
            if verdict.witness_forward is not None else None
        ),
        "witness_backward": (
            fileio.stochastic_to_obj(verdict.witness_backward)
            if verdict.witness_backward is not None else None
        ),
    }
    lines = [f"relation: {verdict.relation}"]
    if verdict.witness_forward is not None:
        lines.append(f"forward witness residual {_fmt(verdict.residual_forward)}")
    if verdict.witness_backward is not None:
        lines.append(f"backward witness residual {_fmt(verdict.residual_backward)}")
    _emit(args, obj, lines)
    return 0


def _cmd_umax(args) -> int:
    prior, utility, channels = fileio.decision_from_obj(fileio.load_json(args.model))
    if args.channel not in channels:
        raise SchemaError(
            f"decision.channels.{args.channel}",
            f"no such channel; available: {', '.join(sorted(channels))}",
        )
    model = order.DecisionModel(prior=prior, channel=channels[args.channel], utility=utility)
    result = order.u_max(model)
    obj = {"value": result.value, "strategy": fileio.stochastic_to_obj(result.strategy)}
    picks = np.argmax(result.strategy.entries, axis=0)
    lines = [f"u_max = {_fmt(result.value)}",
             "strategy: " + ", ".join(f"x{ix}->w{w}" for ix, w in enumerate(picks))]
    _emit(args, obj, lines)
    return 0


def _cmd_dilate_naimark(args) -> int:
    z = fileio.povm_from_obj(fileio.load_json(args.povm))
    spec = dilate.naimark_construct(z)
    check = dilate.is_generalized_dilation(spec.y, z, spec)
    _emit(args, fileio.dilation_to_obj(spec), [
        f"probe dim {spec.dim_s}, target dim {spec.dim_t}",
        f"self-check residual {_fmt(check.residual)}",
    ])
    return 0


def _cmd_dilate_verify(args) -> int:
    spec = fileio.dilation_from_obj(fileio.load_json(args.spec))
    z = fileio.povm_from_obj(fileio.load_json(args.target))
    y = spec.y
    if args.pointer:
        y = fileio.povm_from_obj(fileio.load_json(args.pointer))
    tol = _tol(args, CHECK_ATOL)
    check = dilate.is_generalized_dilation(y, z, spec, tol)
    obj = {"holds": check.holds, "residual": float(check.residual), "tol": tol}
    _emit(args, obj, [f"holds: {check.holds}", f"residual: {_fmt(check.residual)}"])
    return 0 if check.holds else 2


def _cmd_dilate_probcheck(args) -> int:
    spec = fileio.dilation_from_obj(fileio.load_json(args.spec))
    z = fileio.povm_from_obj(fileio.load_json(args.target))
    report = dilate.check_tuning_probabilistic(
        spec, z, n_states=args.n_states, seed=args.seed, tol=_tol(args, DECISION_ATOL)
    )
    obj = {
        "max_gap": float(report.max_gap),
        "holds": report.holds,
        "operator_holds": report.operator_holds,
        "agrees": report.agrees,
        "vacuous": report.vacuous,
        "n_states": report.n_states,
    }
    _emit(args, obj, [
        f"max gap over {report.n_states} states: {_fmt(report.max_gap)}",
        f"holds: {report.holds} (operator check: {report.operator_holds})",
    ] + (["vacuous: no states sampled"] if report.vacuous else []))
    return 0 if report.holds and report.agrees else 2


def _cmd_tuned(args) -> int:
    pairs, specs = fileio.claims_from_obj(fileio.load_json(args.claims))
    cert = dilate.verify_tuned(pairs, specs, _tol(args, CHECK_ATOL))
    payload = fileio.certificate_to_obj(cert)
    lines = [f"tuned: {cert.tuned}" + (" (vacuous)" if cert.vacuous else "")]
    lines += [f"  pair {i}: residual {_fmt(p.residual)}" for i, p in enumerate(cert.pairs)]
    _emit(args, payload, lines)
    return 0 if cert.tuned else 2


def _cmd_discover(args) -> int:
    table, dim_hint = fileio.table_from_obj(fileio.load_json(args.table))
    if args.scan_dim:
        try:
            lo, hi = args.scan_dim.split("..")
            dims = list(range(int(lo), int(hi) + 1))
        except ValueError:
            raise SchemaError("--scan-dim", "expected MIN..MAX")
        if not dims:
            raise SchemaError("--scan-dim", f"range {args.scan_dim} is empty: MIN exceeds MAX")
        if dims[0] < 1:
            raise SchemaError("--scan-dim", "range must start at 1 or above")
    elif args.dim is not None:
        dims = [args.dim]
    elif dim_hint:
        dims = [dim_hint]
    else:
        raise SchemaError("arguments", "need --dim, --scan-dim, or a dim_hint in the table")
    scanned = []
    chosen = None
    for d in dims:
        result = sicrep.discover_system(
            table, d, max_iters=args.max_iters, tol=args.fit_tol,
            restarts=args.restarts, seed=args.seed,
        )
        row = {"dim": d, "feasible": result.feasible, "residual": float(result.residual),
               "verdict": result.verdict}
        if result.certificate is not None:
            row["certificate"] = result.certificate
        scanned.append(row)
        if result.feasible:
            chosen = (d, result)
            break
    obj = {"scanned": scanned, "feasible": chosen is not None}
    lines = [f"dim {row['dim']}: {_discovery_text(row)}" for row in scanned]
    if chosen is not None:
        d, result = chosen
        obj.update({
            "dim": d,
            "residual": float(result.residual),
            "restarts_used": result.restarts_used,
            "states": [fileio.state_to_obj(s) for s in result.states],
            "povms": [fileio.povm_to_obj(p) for p in result.povms],
        })
        lines.append(f"model found in dim {d} after {result.restarts_used} restart(s)")
    elif all(row["verdict"] == "ruled_out" for row in scanned):
        lines.append("no dimension in range admits a model at this tolerance")
    else:
        lines.append("no model found at this tolerance; a search that gives up proves nothing")
    _emit(args, obj, lines)
    return 0


def _discovery_text(row: dict) -> str:
    if row["verdict"] == "found":
        return f"found (residual {_fmt(row['residual'])})"
    if row["verdict"] == "not_found":
        return f"not found (best residual {_fmt(row['residual'])})"
    cert = row["certificate"]
    return (f"ruled out ({cert['bound']} bound {_fmt(cert['value'])} > {_fmt(cert['limit'])}"
            f" on preparations {cert['preparations']})")


def _cmd_agent_classify(args) -> int:
    state = fileio.agent_from_obj(fileio.load_json(args.agent))
    if (args.tuning is None) == (args.candidates is None):
        raise SchemaError("arguments", "give exactly one of --tuning or --candidates")
    if args.tuning:
        cert = fileio.certificate_from_obj(fileio.load_json(args.tuning))
        z_set = [p.z for p in cert.pairs]
    else:
        z_set = fileio.candidates_from_obj(fileio.load_json(args.candidates))
    case = agentmod.classify_extension(
        list(state.direct.values()), z_set, tol=_tol(args, DECISION_ATOL)
    )
    _emit(args, {"case": case}, [f"case: {case}"])
    return 0


def _cmd_agent_incorporate(args) -> int:
    state = fileio.agent_from_obj(fileio.load_json(args.agent))
    cert = fileio.certificate_from_obj(fileio.load_json(args.tuning))
    new_state, report = agentmod.incorporate(
        state, args.system, cert, args.mode, tol=_tol(args, DECISION_ATOL), force=args.force
    )
    obj = {
        "mode": report.mode,
        "case": report.case,
        "comparison": report.comparison,
        "final_label": report.final_label,
        "forced": report.forced,
        "final_set": [fileio.povm_to_obj(p) for p in report.final_set],
        "direct_measurements": sorted(new_state.direct),
    }
    lines = [
        f"case: {report.case} ({report.mode})",
        f"final class {report.final_label}, comparison {report.comparison}",
        f"direct measurements now: {', '.join(sorted(new_state.direct)) or '(none)'}",
    ]
    _emit(args, obj, lines, saved=fileio.agent_to_obj(new_state))
    return 0


def _cmd_agent_deconstruct(args) -> int:
    state = fileio.agent_from_obj(fileio.load_json(args.agent))
    new_state = agentmod.deconstruct(state, args.measurement)
    system_name = new_state.history[-1]["system"]
    _emit(args, fileio.agent_to_obj(new_state), [
        f"measurement {args.measurement!r} moved to external system {system_name!r}",
        f"direct measurements now: {', '.join(sorted(new_state.direct)) or '(none)'}",
    ])
    return 0


def _cmd_demo(args) -> int:
    sic = sicrep.build_sic(2)
    rho = basis_state(2, 0)
    zbasis = computational_povm(2)
    p = sicrep.state_to_sic_probs(rho, sic)
    r = sicrep.povm_to_conditional(sic, zbasis)
    q_quantum = sicrep.urgleichung(p, r)
    q_classical = sicrep.classical_rule(p, r)
    gap = float(abs(q_quantum.probs[0] - q_classical.probs[0]))

    qubit_sic_spec = dilate.naimark_construct(sic.povm)
    naimark_check = dilate.is_generalized_dilation(qubit_sic_spec.y, sic.povm, qubit_sic_spec)

    merge = post_process(zbasis, StochasticMatrix.merge_all(2))
    permuted = post_process(zbasis, StochasticMatrix.deterministic([1, 0], 2, 2))
    fixtures = {
        "downgrade": (["Z"], [zbasis], [merge]),
        "duplicate": (["Z"], [zbasis], [permuted]),
        "upgrade": (["1"], [trivial_povm(2)], [zbasis]),
        "innovation": (["Z"], [zbasis], [xbasis_povm()]),
    }
    rows = []
    for case, (_, x_set, z_set) in fixtures.items():
        for mode in agentmod.MODES:
            _, comparison = agentmod.final_measurements(case, mode, x_set, z_set)
            rows.append({
                "case": case,
                "mode": mode,
                "final": agentmod.final_label(case, mode),
                "comparison": comparison,
            })

    obj = {
        "reference_probabilities": [float(v) for v in p.probs],
        "born": [float(v) for v in q_quantum.probs],
        "classical": [float(v) for v in q_classical.probs],
        "classical_gap": gap,
        "naimark_probe_dim": qubit_sic_spec.dim_s,
        "naimark_residual": float(naimark_check.residual),
        "extension_table": rows,
    }
    lines = [
        "qubit worked example (standard-basis state, standard-basis measurement)",
        f"  reference probabilities p: {', '.join(_fmt(v) for v in p.probs)}",
        f"  quantum update  q: {', '.join(_fmt(v) for v in q_quantum.probs)}",
        f"  classical update q: {', '.join(_fmt(v) for v in q_classical.probs)}",
        f"  gap on outcome 0: {_fmt(gap)} (exactly 1/3)",
        "",
        "canonical dilation of the 4-outcome qubit reference measurement",
        f"  probe dimension {qubit_sic_spec.dim_s}, "
        f"verification residual {_fmt(naimark_check.residual)}",
        "",
        "extension taxonomy (final class and comparison to the old set)",
    ]
    for row in rows:
        lines.append(
            f"  {row['case']:<10} {row['mode']:<9} -> {row['final']:<6} {row['comparison']}"
        )
    _emit(args, obj, lines)
    return 0


# ------------------------------------------------------------------ wiring

def _flag(*args, **kwargs) -> argparse.ArgumentParser:
    """A one-flag parent parser; subcommands copy the flags they take."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(*args, **kwargs)
    return p


_TOL = _flag("--tol", type=float, help="override the decision tolerance (default: per operation)")
_SEED = _flag("--seed", type=int, default=0, help="seed for any randomness")
_JSON = _flag("--json", action="store_true", help="emit one JSON object")


@functools.cache
def build_parser() -> _Parser:
    """The ``mf`` parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="mf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(
            dest="subcommand", required=True, parser_class=_Parser
        )

    def command(parent, name, func, flags=(), **kwargs):
        """A subcommand with --json and the given flags (_TOL, _SEED)."""
        p = parent.add_parser(name, parents=[*flags, _JSON], **kwargs)
        p.set_defaults(func=func)
        return p

    p = command(sub, "validate", _cmd_validate, [_TOL], help="check a JSON file's invariants")
    p.add_argument("file")
    p.add_argument("--kind", default="povm",
                   choices=["povm", "state", "channel", "dilation", "sic", "table", "agent"])

    p = command(sub, "born", _cmd_born, help="outcome distribution of a measurement")
    p.add_argument("--state", required=True)
    p.add_argument("--povm", required=True)

    sic = group("sic", "reference-measurement operations")
    p = command(sic, "build", _cmd_sic_build)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out")
    p = command(sic, "probs", _cmd_sic_probs)
    p.add_argument("--state", required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--sic")
    p = command(sic, "state", _cmd_sic_state)
    probs = p.add_mutually_exclusive_group(required=True)
    probs.add_argument("--probs")
    probs.add_argument("--probs-file")
    p.add_argument("--dim", type=int)
    p.add_argument("--sic")
    p.add_argument("--out")

    for name, rule, kind in [("urgleichung", sicrep.urgleichung, "quantum"),
                             ("classical", sicrep.classical_rule, "classical")]:
        p = command(sub, name, _cmd_update, help=f"apply the {kind} update rule")
        p.set_defaults(rule=rule)
        p.add_argument("--p-file")
        p.add_argument("--r-file")
        p.add_argument("--state")
        p.add_argument("--povm")
        p.add_argument("--dim", type=int)
        p.add_argument("--sic")

    p = command(sub, "compare", _cmd_compare, [_TOL],
                help="post-processing order of two POVMs")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = command(sub, "umax", _cmd_umax, help="optimal expected utility of a channel")
    p.add_argument("--model", required=True)
    p.add_argument("--channel", required=True)

    dil = group("dilate", "apparatus constructions and checks")
    p = command(dil, "naimark", _cmd_dilate_naimark)
    p.add_argument("--povm", required=True)
    p.add_argument("--out")
    p = command(dil, "verify", _cmd_dilate_verify, [_TOL])
    p.add_argument("--spec", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--pointer")
    p = command(dil, "probcheck", _cmd_dilate_probcheck, [_TOL, _SEED])
    p.add_argument("--spec", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--n-states", type=int, default=50)

    p = command(sub, "tuned", _cmd_tuned, [_TOL], help="verify a batch of dilation claims")
    p.add_argument("--claims", required=True)
    p.add_argument("--out")

    # --tol is accepted here only to be refused with a pointer to --fit-tol.
    p = command(sub, "discover", _cmd_discover, [_TOL, _SEED],
                help="fit a quantum model to a probability table")
    p.add_argument("--table", required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--scan-dim", help="try each dimension in MIN..MAX")
    p.add_argument("--fit-tol", type=float, default=FIT_TOL)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--restarts", type=int, default=20)

    agent = group("agent", "measurement-set bookkeeping")
    p = command(agent, "classify", _cmd_agent_classify, [_TOL])
    p.add_argument("--agent", required=True)
    p.add_argument("--tuning")
    p.add_argument("--candidates")
    p = command(agent, "incorporate", _cmd_agent_incorporate, [_TOL])
    p.add_argument("--agent", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--tuning", required=True)
    p.add_argument("--mode", required=True, choices=["inclusive", "exclusive"])
    p.add_argument("--force", action="store_true",
                   help="postulate the extension even if the certificate fails")
    p.add_argument("--out")
    p = command(agent, "deconstruct", _cmd_agent_deconstruct)
    p.add_argument("--agent", required=True)
    p.add_argument("--measurement", required=True)
    p.add_argument("--out")

    command(sub, "demo", _cmd_demo, help="worked qubit narrative")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name in ("tol", "fit_tol"):
        value = getattr(args, name, None)
        if value is not None and not (math.isfinite(value) and value > 0):
            parser.error(f"--{name.replace('_', '-')} must be positive and finite")
    for name, low in (("restarts", 1), ("max_iters", 1), ("n_states", 0)):
        value = getattr(args, name, None)
        if value is not None and value < low:
            parser.error(f"--{name.replace('_', '-')} must be at least {low}")
    if getattr(args, "tol", None) is not None:
        if args.command == "discover":
            parser.error("--tol does not apply to discover; use --fit-tol")
        if getattr(args, "kind", "povm") != "povm":
            parser.error("--tol applies only to --kind povm; other kinds check at fixed tolerances")
    try:
        return args.func(args)
    except ValueError as exc:  # includes SchemaError and all domain errors
        if args.json:
            sys.stdout.write(fileio.dump_json({"error": str(exc)}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
