"""The two workloads: a stream of verification tasks and a stream of
model-discovery tables, both run in-process. Each builds a fixed, seeded
pool in its constructor (set-up) and runs one pool item per operation.

Pool sizes follow from ``--seconds`` alone, never from a measured time, so
one seed and one run length always give the same pool, and every count the
traced run reports repeats exactly. Runs stop once ``--seconds`` have passed
and every pool item has run once, and a pool holds as many distinct inputs as
a run can take, since the spread between seeds comes from how hard each
input is.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import mftk as mf
import mftk.cli
from mftk.errors import UnsupportedDimensionError

import inputs as gen

# The built-in reference measurements stop at d = 5, and the probabilistic
# dilation check needs one in the probe's dimension, which is the target's
# outcome count. Targets with more outcomes hit that limit (a known defect).
MAX_PROBE_DIM = 5


class CheckFailed(Exception):
    """An output of the program failed its independent re-check."""


@dataclass
class Op:
    """What one operation did, as the metrics need it."""

    status: str = "ok"  # ok | unsupported (known defect) | failed
    timed: bool = True  # counts toward op_p50_s / op_tail_s
    negative: bool = False  # the whole operation is a negative verdict
    negatives: list = field(default_factory=list)  # seconds to each negative verdict inside
    positives: int = 0  # instances that admit a positive answer
    found: int = 0  # ... that got one, with a re-verified witness
    checks: set = field(default_factory=set)  # names of the output checks that ran
    errors: list = field(default_factory=list)

    def check(self, name, condition, detail=""):
        self.checks.add(name)
        if not condition:
            raise CheckFailed(f"{name}: {detail}")

    def fail(self, message):
        self.status = "failed"
        self.errors.append(message)


def verify_relation(op, relation, fwd, bwd, left, right):
    """Re-check a compare verdict: its relation against its witnesses, and
    each witness (a column-stochastic matrix) against the effects."""
    expected = {(True, True): "equivalent", (True, False): "geq",
                (False, True): "leq", (False, False): "incomparable"}
    op.check("compare.relation", relation == expected[(fwd is not None, bwd is not None)],
             relation)
    for lam, a, b in ((fwd, left, right), (bwd, right, left)):
        if lam is not None:
            op.check("compare.witness", gen.witness_holds(lam, a, b))


# ------------------------------------------------------------ verify_batch

# One block: every (d, outcomes) shape with d in 2..5 and 2..min(5, d^2)
# outcomes, plus one target past the probe limit (6-outcome qubit and
# 9-outcome qutrit on alternate blocks), so 1 task in 16 hits the defect.
VERIFY_SHAPES = [(d, n) for d in (2, 3, 4, 5) for n in range(2, min(MAX_PROBE_DIM, d * d) + 1)]
VERIFY_DEFECT_SHAPES = [(2, 6), (3, 9)]
VERIFY_BLOCK_SECONDS = 1.35  # nominal block time, measured once; sizes the pool only
VERIFY_POOL_SHARE = 0.9  # a pool of 0.9 x --seconds: one pass fits in a run
VERIFY_STATES = 4
VERIFY_UTILITIES = 20
VERIFY_PROBE_STATES = 50


@dataclass
class VerifyTask:
    d: int
    n: int
    seed: int
    effects: np.ndarray
    post: np.ndarray  # column-stochastic (m, n) post-processing
    other: np.ndarray
    states: np.ndarray


# compare(z, other) relation -> extension case when z joins an agent holding other.
EXTENSION_CASE = {"geq": "upgrade", "leq": "downgrade", "equivalent": "duplicate",
                  "incomparable": "innovation"}


class VerifyBatch:
    name = "verify_batch"
    checks = ("naimark.self_check", "naimark.recheck", "probcheck", "cli.exit_code",
              "compare.copy_holds", "compare.relation", "compare.witness", "blackwell.consistent",
              "agent.proxy_tuned", "agent.direct_set", "agent.round_trip", "agent.case")

    def __init__(self, seed: int, seconds: float, work: str):
        self.work = work  # where each task writes its two POVM files
        n_blocks = max(1, round(VERIFY_POOL_SHARE * seconds / VERIFY_BLOCK_SECONDS))
        self.pool = []
        for b in range(n_blocks):
            for i, (d, n) in enumerate(VERIFY_SHAPES + [VERIFY_DEFECT_SHAPES[b % 2]]):
                rng = np.random.default_rng([seed, 1, b, i])
                m = int(rng.integers(2, n + 1))
                self.pool.append(VerifyTask(
                    d=d, n=n, seed=int(rng.integers(2**31)),
                    effects=gen.random_povm(rng, d, n),
                    post=gen.random_stochastic(rng, m, n),
                    other=gen.random_povm(rng, d, n),
                    states=gen.random_states(rng, d, VERIFY_STATES),
                ))
        np.random.default_rng([seed, 2]).shuffle(self.pool)
        self.provenance = {
            "pool_tasks": len(self.pool),
            "blocks": n_blocks,
            "shapes_per_block": VERIFY_SHAPES,
            "defect_shape_by_block_parity": VERIFY_DEFECT_SHAPES,
            "blackwell_states": VERIFY_STATES,
            "blackwell_utilities": VERIFY_UTILITIES,
            "probcheck_states": VERIFY_PROBE_STATES,
        }

    def warm_up(self):
        for d in (2, 3, 4, 5):
            mf.build_sic(d)
        for task in self.pool[:2]:
            self.run(task)

    def run(self, t: VerifyTask) -> Op:
        op = Op(positives=1)
        z = mf.Povm.from_matrices(t.d, t.effects)
        x_effects = np.einsum("xz,zij->xij", t.post, t.effects)
        ctx = {"z": z, "x": mf.Povm.from_matrices(t.d, x_effects),
               "other": mf.Povm.from_matrices(t.d, t.other)}
        for step in (self._dilation, self._order, self._blackwell, self._agent):
            try:
                step(t, ctx, op)
            except UnsupportedDimensionError as exc:
                if t.n <= MAX_PROBE_DIM:
                    op.fail(f"{step.__name__}: {exc}")
                elif op.status == "ok":
                    op.status = "unsupported"
            except Exception as exc:  # keep the stream running; the failure is counted
                op.fail(f"{step.__name__}: {exc!r}")
        return op

    def _dilation(self, t, ctx, op):
        z = ctx["z"]
        spec = mf.naimark_construct(z)
        verdict = mf.is_generalized_dilation(spec.y, z, spec)
        op.check("naimark.self_check", verdict.holds and verdict.residual <= gen.DILATION_TOL,
                 f"residual {verdict.residual:.3e}")
        gap = gen.dilation_gap(spec.sigma.matrix, spec.phi.kraus, spec.y.matrices(),
                               spec.dim_s, spec.dim_t, t.effects)
        op.check("naimark.recheck", gap <= gen.DILATION_TOL, f"gap {gap:.3e}")
        report = mf.check_tuning_probabilistic(spec, z, n_states=VERIFY_PROBE_STATES,
                                               seed=t.seed)
        op.check("probcheck", report.holds and report.agrees
                 and report.max_gap <= gen.DILATION_TOL, f"gap {report.max_gap:.3e}")

    def _order(self, t, ctx, op):
        z, x = ctx["z"], ctx["x"]
        # The post-processed copy goes through the file format and the CLI,
        # in-process, as `mf compare --left z.json --right x.json --json`.
        left, right = (os.path.join(self.work, f"{key}.json") for key in ("z", "x"))
        mf.save_json(left, mf.povm_to_obj(z))
        mf.save_json(right, mf.povm_to_obj(x))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = mftk.cli.main(["compare", "--left", left, "--right", right, "--json"])
        op.check("cli.exit_code", code == 0, f"exit {code}: {stdout.getvalue()[-300:]}")
        copy = json.loads(stdout.getvalue())
        op.check("compare.copy_holds", copy["relation"] in ("geq", "equivalent"),
                 copy["relation"])
        verify_relation(op, copy["relation"], _file_entries(copy["witness_forward"]),
                        _file_entries(copy["witness_backward"]), t.effects, x.matrices())
        op.found += 1
        sic = mf.build_sic(t.d).povm
        for key, left, right in (("other", z, ctx["other"]), ("sic", sic, z)):
            start = time.perf_counter()
            verdict = mf.compare(left, right)
            elapsed = time.perf_counter() - start
            verify_relation(op, verdict.relation, _entries(verdict.witness_forward),
                            _entries(verdict.witness_backward), left.matrices(), right.matrices())
            if verdict.relation == "incomparable":
                op.negatives.append(elapsed)
            ctx[f"relation_{key}"] = verdict.relation

    def _blackwell(self, t, ctx, op):
        states = [mf.DensityMatrix(t.d, rho) for rho in t.states]
        report = mf.blackwell_consistency(ctx["z"], ctx["x"], states, n_utilities=VERIFY_UTILITIES,
                                          seed=t.seed)
        op.check("blackwell.consistent", report.consistent and report.geq_holds
                 and report.n_utilities == VERIFY_UTILITIES, str(report.violations[:1]))

    def _agent(self, t, ctx, op):
        agent = mf.AgentState(target_dim=t.d, direct={"m": ctx["z"], "k": ctx["other"]})
        pushed = mf.deconstruct(agent, "m")
        cert = mf.proxy_certificate(pushed, "proxy:m")
        op.check("agent.proxy_tuned", cert.tuned and max(cert.residuals()) <= gen.DILATION_TOL)
        back, report = mf.incorporate(pushed, "proxy:m", cert, "exclusive")
        op.check("agent.direct_set", set(back.direct) == {"m"}, str(sorted(back.direct)))
        gap = float(np.max(np.abs(back.direct["m"].matrices() - t.effects)))
        op.check("agent.round_trip", gap <= gen.DILATION_TOL, f"moved by {gap:.3e}")
        # The re-incorporated measurement meets the agent's other one; its case
        # must agree with how compare() ordered the pair.
        expected = EXTENSION_CASE.get(ctx.get("relation_other"), report.case)
        op.check("agent.case", report.case == expected, f"{report.case}, compare says {expected}")


def _entries(witness):
    return None if witness is None else witness.entries


def _file_entries(obj):
    return None if obj is None else np.array(obj["entries"], dtype=float)


# ---------------------------------------------------------------- discover

# One block: 24 hidden-model qubit tables (3 preparations), 12 hidden-model
# qutrit tables (4 preparations), each from 2 projective measurements, and
# 1 qubit table no model reproduces. Qubit tables keep the median among
# themselves. About 40% of qutrit tables are polished slowly, and the tail
# percentile falls among those, so its seed-to-seed spread shrinks only with
# more of them; a no-model table costs as much as ~7 qutrit tables, hence
# one per block.
DISCOVER_BLOCK = (("hidden", 2, 3),) * 24 + (("hidden", 3, 4),) * 12 + (("nomodel", 2, 4),)
DISCOVER_BLOCK_SECONDS = 6.6  # nominal block time, measured once; sizes the pool only
DISCOVER_POOL_SHARE = 0.9  # as for verify_batch
# Acceptance #8's contradictory table: measurement A makes preparation 3
# coincide with preparation 1, measurement B separates them deterministically.
CONTRADICTORY = (((1, 0), (0, 1), (1, 0), (0, 1)), ((1, 0), (0, 1), (0, 1), (1, 0)))


@dataclass
class DiscoverTable:
    kind: str
    d: int
    q: list  # per measurement, (n_preparations, n_outcomes)


class Discover:
    name = "discover"
    checks = ("nomodel.infeasible", "model.valid", "model.fits_table")

    def __init__(self, seed: int, seconds: float):
        n_blocks = max(1, round(DISCOVER_POOL_SHARE * seconds / DISCOVER_BLOCK_SECONDS))
        self.pool = []
        for b in range(n_blocks):
            for i, (kind, d, n_prep) in enumerate(DISCOVER_BLOCK):
                rng = np.random.default_rng([seed, 3, b, i])
                if kind == "hidden":
                    states = gen.random_states(rng, d, n_prep)
                    q = [gen.born(states, gen.random_projective(rng, d)) for _ in range(2)]
                else:
                    prep = rng.permutation(n_prep)
                    q = [np.array(rows, dtype=float)[prep][:, rng.permutation(2)]
                         for rows in CONTRADICTORY]
                self.pool.append(DiscoverTable(kind, d, q))
        np.random.default_rng([seed, 4]).shuffle(self.pool)
        self.provenance = {
            "pool_tables": len(self.pool),
            "blocks": n_blocks,
            "block": [list(k) for k in DISCOVER_BLOCK],
            "discover_args": "mf discover defaults: max_iters=500 tol=1e-6 restarts=20 seed=0",
        }

    def warm_up(self):
        self.run(next(t for t in self.pool if t.kind == "hidden" and t.d == 2))

    def run(self, t: DiscoverTable) -> Op:
        hidden = t.kind == "hidden"
        op = Op(timed=hidden, negative=not hidden, positives=int(hidden))
        try:
            rows = tuple(
                tuple(mf.OutcomeDistribution(tuple(str(j) for j in range(q.shape[1])), p)
                      for p in q)
                for q in t.q)
            table = mf.ProbabilityTable(n_preparations=t.q[0].shape[0],
                                        measurement_labels=("A", "B"), distributions=rows)
            result = mf.discover_system(table, t.d)
            op.check("nomodel.infeasible", hidden or not result.feasible)
            if result.feasible:
                states = np.array([rho.matrix for rho in result.states])
                effect_sets = [p.matrices() for p in result.povms]
                op.check("model.valid", gen.is_valid_model(states, effect_sets))
                gap = gen.model_gap(states, effect_sets, t.q)
                op.check("model.fits_table", gap <= gen.FIT_TOL, f"gap {gap:.3e}")
                op.found = 1
        except Exception as exc:  # keep the stream running; the failure is counted
            op.fail(repr(exc))
        return op


