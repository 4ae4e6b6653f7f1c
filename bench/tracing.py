"""Span tracing of the package's layers, installed from the benchmark.

Every public function of each layer module is replaced, in every package
module that binds it, by a wrapper that records a span: name, start, end,
parent span and a work count.  Python resolves module globals at call time,
so calls from one layer into another inside the package are seen too.
Spans stay in memory until the run ends; the per-layer metrics are derived
from them afterwards.  A span opened on a pool thread with no open span of
its own takes the main thread's innermost span as its parent.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
import time
from array import array

import numpy as np

LAYERS = ("cli", "serialize", "experiments", "codebook", "roots", "capacity",
          "array_model")
# Called once per emitted number; a span each would swamp the work measured.
UNTRACED = {"serialize.format_float"}
SOLVES = ("codebook.solve_right_edge", "codebook.solve_focus_from_left",
          "codebook.solve_left_edge")
IMPROVEMENT = ("codebook.improvement_max", "codebook.improvement_ratio")


def _grid_points(args, kwargs) -> float:
    """Size of coverage_check's grid over [-psi_m, psi_m]."""
    step = kwargs["grid_step"] if "grid_step" in kwargs else args[3]
    return float(math.ceil((2.0 * args[0].psi_m + step / 2.0) / step))


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.on = True
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start, self.end, self.work, self.evals = (array("d") for _ in range(4))
        self.parent, self.name = array("q"), array("q")
        self.raised = array("b")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []

    def _nid(self, qual: str) -> int:
        if qual not in self._ids:
            self._ids[qual] = len(self.names)
            self.names.append(qual)
        return self._ids[qual]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, nid: int, work: float = 0.0, evals: float = 0.0) -> int:
        stack = self._stack()
        owner = stack if stack or stack is self._main_stack else self._main_stack
        parent = owner[-1] if owner else -1
        with self._lock:
            idx = len(self.start)
            self.parent.append(parent)
            self.name.append(nid)
            self.work.append(work)
            self.evals.append(evals)
            self.raised.append(0)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def exit(self, idx: int, raised: bool) -> None:
        self.end[idx] = time.perf_counter()
        if raised:
            self.raised[idx] = 1
        self._stack().pop()

    def _wrap(self, qual: str, fn):
        tracer = self
        nid = self._nid(qual)
        counts_steps = qual.startswith("roots.")
        pre = post = None
        if qual == "capacity.capacity_bs":
            vec_nid = self._nid(qual + ":vector")

            def pre(args, kwargs):  # capacity_bs(psi_f, psi, band, arr)
                psi, band = args[1], args[2]
                pts = float(np.size(psi))
                evals = pts * (band.n_f if band.b != 0.0 else 1)
                return (nid if np.ndim(psi) == 0 else vec_nid), pts, evals
        elif qual in ("array_model.gain_mag", "array_model.gain"):
            def pre(args, kwargs):
                return nid, float(np.size(args[0])), 0.0
        elif qual == "codebook.coverage_check":
            def pre(args, kwargs):
                return nid, _grid_points(args, kwargs), 0.0
        elif qual.startswith("serialize."):
            def post(result):
                return float(len(result))
        elif qual.startswith("experiments."):
            def post(result):
                return float(len(result.rows))
        elif qual == "codebook.design_codebook":
            def post(result):
                return float(result.size)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if counts_steps:  # count the calls of the bisection's predicate
                f, steps = args[0], [0]

                def counted(x):
                    steps[0] += 1
                    return f(x)
                args = (counted,) + args[1:]
            span, work, evals = pre(args, kwargs) if pre else (nid, 0.0, 0.0)
            idx = tracer.enter(span, work, evals)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                if counts_steps:
                    tracer.work[idx] = steps[0]
                elif post is not None and not raised:
                    tracer.work[idx] = post(result)
                tracer.exit(idx, raised)
            return result

        return wrapper

    def install(self) -> None:
        self._main_stack = self._stack()
        prefix = self.pkg.__name__
        modules = [m for name, m in list(sys.modules.items())
                   if name == prefix or name.startswith(prefix + ".")]
        for layer in LAYERS:
            mod = sys.modules[f"{prefix}.{layer}"]
            for name, fn in list(vars(mod).items()):
                qual = f"{layer}.{name}"
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or qual in UNTRACED):
                    continue
                wrapper = self._wrap(qual, fn)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._patches.append((m, attr, fn))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over every recorded span."""
        n = len(self.start)
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        start, end = np.array(self.start), np.array(self.end)
        dur = end - start
        work, evals = np.array(self.work), np.array(self.evals)
        raised = np.array(self.raised, dtype=bool)
        layer_of = np.array([LAYERS.index(q.split(".")[0]) for q in self.names] or [0])
        layer = layer_of[name] if n else np.zeros(0, dtype=np.int64)

        # Ancestor bookkeeping; a parent always precedes its children.
        mask = np.zeros(n, dtype=np.int64)
        outer_of = np.arange(n)  # outermost ancestor span of the same layer
        bsup = self._ids.get("codebook.estimate_bsup", -1)
        in_bsup = np.zeros(n, dtype=bool)
        for i in range(n):
            p = parent[i]
            bit = 1 << int(layer[i])
            if p >= 0:
                mask[i] = mask[p] | bit
                if mask[p] & bit:
                    outer_of[i] = outer_of[p]
                in_bsup[i] = in_bsup[p] or name[p] == bsup
            else:
                mask[i] = bit
        outer = outer_of == np.arange(n)

        def sel(*quals: str) -> np.ndarray:
            ids = [self._ids[q] for q in quals if q in self._ids]
            return np.isin(name, ids)

        def in_layer(lname: str) -> np.ndarray:
            return layer == LAYERS.index(lname)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def cli_self() -> float:
            """Outermost cli spans minus the union of their non-cli children."""
            cli_spans = in_layer("cli")
            boundary = np.flatnonzero(~cli_spans & (parent >= 0)
                                      & np.isin(parent, np.flatnonzero(cli_spans)))
            covered: dict[int, list] = {}
            for c in boundary:
                covered.setdefault(int(outer_of[parent[c]]), []).append((start[c], end[c]))
            total = 0.0
            for i in np.flatnonzero(cli_spans & outer):
                busy, edge = 0.0, start[i]
                for s, e in sorted(covered.get(int(i), [])):
                    s, e = max(s, edge), min(e, end[i])
                    if e > s:
                        busy += e - s
                        edge = e
                total += dur[i] - busy
            return total

        roots = in_layer("roots")
        scalar, vector = sel("capacity.capacity_bs"), sel("capacity.capacity_bs:vector")
        gains = sel("array_model.gain_mag", "array_model.gain")
        design = sel("codebook.design_codebook")
        kept_basis = sel("codebook.solve_right_edge", "codebook.solve_focus_from_left")
        cover = sel("codebook.coverage_check")
        imp_ids = [self._ids[q] for q in IMPROVEMENT if q in self._ids]
        imp = np.isin(name, imp_ids) & ~np.isin(np.where(parent >= 0, name[parent], -1), imp_ids)
        exp_outer = in_layer("experiments") & outer
        ser_outer = in_layer("serialize") & outer
        cli_outer = in_layer("cli") & outer
        cap_bs = scalar | vector

        def busy(lname: str) -> float:
            return float(dur[in_layer(lname) & outer].sum())

        m = {
            "roots.solves": (roots.sum(), "count"),
            "roots.steps": (work[roots].sum(), "count"),
            "roots.steps_per_solve": (ratio(work[roots].sum(), roots.sum()), "steps/solve"),
            "roots.busy_s": (busy("roots"), "s"),
            "capacity.scalar_calls": (scalar.sum(), "count"),
            "capacity.us_per_scalar_call": (1e6 * ratio(dur[scalar].sum(), scalar.sum()), "us"),
            "capacity.busy_s": (busy("capacity"), "s"),
            "capacity.vector_calls": (vector.sum(), "count"),
            "capacity.points": (work[vector].sum(), "count"),
            "capacity.subcarrier_evals": (evals[cap_bs].sum(), "count"),
            "capacity.computed_bytes": (8.0 * evals[cap_bs].max(initial=0.0), "B"),
            "array_model.gain_calls": (gains.sum(), "count"),
            "array_model.gain_elements": (work[gains].sum(), "count"),
            "array_model.busy_s": (busy("array_model"), "s"),
            "codebook.design_calls": (design.sum(), "count"),
            "codebook.design_infeasible_share": (ratio(raised[design].sum(), design.sum()), "share"),
            "codebook.solves": (sel(*SOLVES).sum(), "count"),
            "codebook.kept_solve_ratio": (ratio(work[design].sum(), kept_basis.sum()), "share"),
            "codebook.bsup_probes_per_call": (
                ratio((design & in_bsup).sum(), sel("codebook.estimate_bsup").sum()), "probes/call"),
            "codebook.design_busy_s": (float(dur[design].sum()), "s"),
            "codebook.coverage_points": (work[cover].sum(), "count"),
            "codebook.coverage_busy_s": (float(dur[cover].sum()), "s"),
            "codebook.improvement_busy_s": (float(dur[imp].sum()), "s"),
            "experiments.calls": (exp_outer.sum(), "count"),
            "experiments.rows": (work[exp_outer].sum(), "count"),
            "experiments.busy_s": (busy("experiments"), "s"),
            "serialize.calls": (ser_outer.sum(), "count"),
            "serialize.bytes": (work[ser_outer].sum(), "B"),
            "serialize.busy_s": (busy("serialize"), "s"),
            "cli.calls": (cli_outer.sum(), "count"),
            "cli.self_s": (cli_self(), "s"),
        }
        return {k: (float(v), u) for k, (v, u) in m.items()}
