"""Spans around the calls into each mftk layer, recorded from outside the package.

``install`` wraps every listed public function at every place it is bound
(mftk modules import names with ``from .x import y``, so one function can be
bound in several module namespaces), plus the two scipy solvers as mftk
calls them and the validating ``__post_init__`` of the value types. Each
call records one span: name, start, end, parent span and operation id.
Spans stay in memory in flat arrays and are written out once, at the end.
``layer_metrics`` derives the per-layer numbers from them; a span's self
time is its duration minus the durations of its direct child spans.

Stdlib only.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter

# Span name -> (module, attribute). Every name must resolve, so a rename in
# mftk breaks the traced run loudly instead of silently dropping a layer.
FUNCTIONS = {
    "cli.main": ("mftk.cli", "main"),
    "cli.build_parser": ("mftk.cli", "build_parser"),
    "agent.classify_extension": ("mftk.agent", "classify_extension"),
    "agent.incorporate": ("mftk.agent", "incorporate"),
    "agent.deconstruct": ("mftk.agent", "deconstruct"),
    "order.povm_geq": ("mftk.order", "povm_geq"),
    "order.blackwell_consistency": ("mftk.order", "blackwell_consistency"),
    "order.decision_model_for": ("mftk.order", "decision_model_for"),
    "dilate.naimark_construct": ("mftk.dilate", "naimark_construct"),
    "dilate.induced_povm": ("mftk.dilate", "induced_povm"),
    "dilate.is_generalized_dilation": ("mftk.dilate", "is_generalized_dilation"),
    "dilate.check_tuning_probabilistic": ("mftk.dilate", "check_tuning_probabilistic"),
    "sicrep.urgleichung": ("mftk.sicrep", "urgleichung"),
    "sicrep.classical_rule": ("mftk.sicrep", "classical_rule"),
    "sicrep.state_to_sic_probs": ("mftk.sicrep", "state_to_sic_probs"),
    "sicrep.sic_probs_to_state": ("mftk.sicrep", "sic_probs_to_state"),
    "sicrep.povm_to_conditional": ("mftk.sicrep", "povm_to_conditional"),
    "sicrep.discover_system": ("mftk.sicrep", "discover_system"),
    "measure.born_probabilities": ("mftk.measure", "born_probabilities"),
    "measure.validate_povm": ("mftk.measure", "validate_povm"),
    "opalg.hermitian_basis": ("mftk.opalg", "hermitian_basis"),
    "opalg.psd_clip": ("mftk.opalg", "psd_clip"),
    "opalg.psd_sqrt": ("mftk.opalg", "psd_sqrt"),
}
FILEIO_READ = ("load_json", "povm_from_obj", "state_from_obj", "channel_from_obj",
               "stochastic_from_obj", "sic_from_obj", "table_from_obj", "dilation_from_obj",
               "certificate_from_obj", "decision_from_obj", "agent_from_obj")
FILEIO_WRITE = ("povm_to_obj", "state_to_obj", "channel_to_obj", "stochastic_to_obj",
                "distribution_to_obj", "sic_to_obj", "table_to_obj", "dilation_to_obj",
                "certificate_to_obj", "decision_to_obj", "agent_to_obj", "dump_json",
                "save_json")
for _name in FILEIO_READ:
    FUNCTIONS[f"fileio.read.{_name}"] = ("mftk.fileio", _name)
for _name in FILEIO_WRITE:
    FUNCTIONS[f"fileio.write.{_name}"] = ("mftk.fileio", _name)

# Span name -> (module, class, method).
METHODS = {
    "opalg.HermitianBasis.coords": ("mftk.opalg", "HermitianBasis", "coords"),
    "opalg.HermitianBasis.matrix": ("mftk.opalg", "HermitianBasis", "matrix"),
}
VALUE_TYPES = (("mftk.measure", "DensityMatrix"), ("mftk.measure", "Povm"),
               ("mftk.measure", "OutcomeDistribution"), ("mftk.measure", "StochasticMatrix"),
               ("mftk.sicrep", "SicProbVector"))
for _mod, _cls in VALUE_TYPES:
    METHODS[f"measure.build.{_cls}"] = (_mod, _cls, "__post_init__")

# scipy solvers, patched on the scipy.optimize module as well as wherever an
# mftk module bound them by name (mftk.order does ``from scipy.optimize import
# linprog``; mftk.sicrep calls ``scipy.optimize.least_squares``).
SOLVERS = {"order.linprog": "linprog", "discover.least_squares": "least_squares"}


class Recorder:
    """Spans of one traced run, in flat arrays, plus result-derived counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self.op_id = -1
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, on_result=None):
        """A wrapper of ``fn`` that records one span per call."""
        nid = self.name_id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def begin_op(self, op_id: int, name: str = "op"):
        """Open the root span of one operation; returns the closer."""
        self.op_id = op_id
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(-1)
        self.op.append(op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())

        def close():
            self.end[idx] = time.perf_counter()
            self._stack.pop()

        return close

    # ------------------------------------------------------------ patching

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _on_geq(self, result):
        self.counters["geq_holds"] += bool(result.holds)

    def _on_linprog(self, result):
        self.counters["lp_failed"] += not result.success

    def _on_least_squares(self, result):
        self.counters["polish_nfev"] += int(result.nfev)

    def _on_discover(self, result):
        self.counters["restarts"] += int(result.restarts_used)
        self.counters["found"] += bool(result.feasible)

    def install(self):
        """Wrap every listed callable at each of its binding sites."""
        hooks = {
            "order.povm_geq": self._on_geq,
            "order.linprog": self._on_linprog,
            "discover.least_squares": self._on_least_squares,
            "sicrep.discover_system": self._on_discover,
        }
        originals = {}
        for name, (module, attr) in FUNCTIONS.items():
            originals[name] = getattr(importlib.import_module(module), attr)
        mftk_modules = [m for key, m in list(sys.modules.items())
                        if m is not None and (key == "mftk" or key.startswith("mftk."))]
        optimize = sys.modules.get("scipy.optimize")
        if optimize is not None:
            for name, attr in SOLVERS.items():
                originals[name] = getattr(optimize, attr)
        for name, fn in originals.items():
            wrapper = self.span(name, fn, hooks.get(name))
            sites = [(m, key) for m in mftk_modules for key, value in vars(m).items()
                     if value is fn]
            if name in SOLVERS:
                sites.append((optimize, SOLVERS[name]))
            if not sites:
                raise RuntimeError(f"no binding site found for {name}")
            for owner, key in sites:
                self._set(owner, key, wrapper)
        for name, (module, cls_name, method) in METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            self._set(cls, method, self.span(name, getattr(cls, method)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------- output

    def to_obj(self) -> dict:
        """The spans as one JSON-shaped object (arrays for the per-span columns)."""
        return {"names": self.names, "name": self.name, "parent": self.parent,
                "op": self.op, "start": self.start, "end": self.end,
                "counters": dict(self.counters)}

    def dump(self, path: str):
        """Write the spans as one gzipped JSON object, one column at a time."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("{")
            for i, (key, value) in enumerate(self.to_obj().items()):
                if isinstance(value, array):
                    value = value.tolist()
                fh.write(("," if i else "") + json.dumps(key) + ":" + json.dumps(value))
            fh.write("}")


class SpanTable:
    """Self and total time per span name, from one or more recorded runs."""

    def __init__(self):
        self.count: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.minus: Counter = Counter()  # (name, child name) -> child time
        self.counters: Counter = Counter()

    def add(self, obj: dict):
        names = obj["names"]
        name, parent = obj["name"], obj["parent"]
        dur = [e - s for s, e in zip(obj["start"], obj["end"])]
        child = [0.0] * len(dur)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]
                self.minus[(names[name[p]], names[name[i]])] += dur[i]
        for i, nid in enumerate(name):
            key = names[nid]
            self.count[key] += 1
            self.total[key] += dur[i]
            self.self_time[key] += dur[i] - child[i]
        self.counters.update(obj["counters"])

    def add_file(self, path: str):
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            self.add(json.load(fh))

    def calls(self, *prefixes) -> int:
        return sum(n for k, n in self.count.items() if k.startswith(prefixes))

    def self_s(self, *prefixes) -> float:
        return sum(t for k, t in self.self_time.items() if k.startswith(prefixes))

    def total_s(self, *prefixes) -> float:
        return sum(t for k, t in self.total.items() if k.startswith(prefixes))


def layer_metrics(table: SpanTable) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, except the import and overhead ones, as (value, unit)."""
    t = table
    geq_calls = t.calls("order.povm_geq")
    restarts = t.counters["restarts"]
    return {
        "cli.parser_s": (t.self_s("cli.build_parser"), "s"),
        "cli.self_s": (t.self_s("cli.main"), "s"),
        "fileio.read_calls": (t.calls("fileio.read."), "count"),
        "fileio.read_s": (t.self_s("fileio.read."), "s"),
        "fileio.write_calls": (t.calls("fileio.write."), "count"),
        "fileio.write_s": (t.self_s("fileio.write."), "s"),
        "order.geq_calls": (geq_calls, "count"),
        "order.lp_build_s": (t.total_s("order.povm_geq")
                             - t.minus[("order.povm_geq", "order.linprog")], "s"),
        "order.lp_solve_s": (t.total_s("order.linprog"), "s"),
        "order.lp_failed": (t.counters["lp_failed"], "count"),
        "order.geq_holds_ratio": (t.counters["geq_holds"] / geq_calls if geq_calls else 0.0,
                                  "ratio"),
        "order.blackwell_s": (t.total_s("order.blackwell_consistency")
                              - t.minus[("order.blackwell_consistency", "order.povm_geq")],
                              "s"),
        "order.decision_models": (t.calls("order.decision_model_for"), "count"),
        "dilate.naimark_s": (t.self_s("dilate.naimark_construct"), "s"),
        "dilate.induced_s": (t.self_s("dilate.induced_povm"), "s"),
        "dilate.operator_check_s": (t.self_s("dilate.is_generalized_dilation"), "s"),
        "dilate.probcheck_s": (t.self_s("dilate.check_tuning_probabilistic"), "s"),
        "dilate.probcheck_calls": (t.calls("dilate.check_tuning_probabilistic"), "count"),
        "sicrep.update_calls": (t.calls("sicrep.urgleichung", "sicrep.classical_rule"),
                                "count"),
        "sicrep.update_s": (t.self_s("sicrep.urgleichung", "sicrep.classical_rule"), "s"),
        "sicrep.refmap_calls": (t.calls("sicrep.state_to_sic_probs", "sicrep.sic_probs_to_state",
                                        "sicrep.povm_to_conditional"), "count"),
        "sicrep.refmap_s": (t.self_s("sicrep.state_to_sic_probs", "sicrep.sic_probs_to_state",
                                     "sicrep.povm_to_conditional"), "s"),
        "measure.values_built": (t.calls("measure.build."), "count"),
        "measure.born_calls": (t.calls("measure.born_probabilities"), "count"),
        "measure.born_s": (t.self_s("measure.born_probabilities"), "s"),
        "measure.validate_s": (t.self_s("measure.build.", "measure.validate_povm"), "s"),
        "opalg.basis_calls": (t.calls("opalg.hermitian_basis", "opalg.HermitianBasis."), "count"),
        "opalg.basis_s": (t.self_s("opalg.hermitian_basis", "opalg.HermitianBasis."), "s"),
        "opalg.psd_s": (t.self_s("opalg.psd_clip", "opalg.psd_sqrt"), "s"),
        "discover.polish_calls": (t.calls("discover.least_squares"), "count"),
        "discover.polish_s": (t.total_s("discover.least_squares"), "s"),
        "discover.polish_nfev": (t.counters["polish_nfev"], "count"),
        "discover.self_s": (t.self_s("sicrep.discover_system"), "s"),
        "discover.restarts": (restarts, "count"),
        "discover.restart_yield": (t.counters["found"] / restarts if restarts else 0.0, "ratio"),
        "agent.classify_s": (t.total_s("agent.classify_extension"), "s"),
        "agent.incorporate_s": (t.total_s("agent.incorporate"), "s"),
        "agent.deconstruct_s": (t.total_s("agent.deconstruct"), "s"),
    }


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of the first import of each module, from ``-X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        out.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return out
