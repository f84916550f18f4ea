"""Outside-in layer trace: wrappers around the package's public functions.

Each traced name is wrapped wherever it is looked up: in its defining module
and in every loaded ``sorfilt`` module that bound the same object by import.
Spans nest through one stack, so a span's self time is its duration minus
the durations of its child spans, and the self times of one step add up to
the step's duration exactly.  Everything is restored when tracing ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

PACKAGE = "sorfilt"

# (layer, defining module, attribute path).  A dotted path patches a class
# attribute, which every instance looks up through its class.
SPAN_TARGETS = (
    ("model.GaussianBelief", "sorfilt.model", "GaussianBelief.__post_init__"),
    ("model.ensure_spd", "sorfilt.model", "ensure_spd"),
    ("model.chol_lower", "sorfilt.model", "chol_lower"),
    ("unscented.draw_sigma_points", "sorfilt.unscented", "draw_sigma_points"),
    ("unscented.eval_sigma_points", "sorfilt.unscented", "eval_sigma_points"),
    ("gaussian.predict", "sorfilt.gaussian", "predict"),
    ("gaussian.predict_measurement", "sorfilt.gaussian", "predict_measurement"),
    ("gaussian.joint_factor_from_sigma", "sorfilt.gaussian", "joint_factor_from_sigma"),
    ("gaussian.update_parallel", "sorfilt.gaussian", "update_parallel"),
    ("gaussian.serial_conditioning", "sorfilt.gaussian", "serial_conditioning"),
    ("gaussian.posterior_predictive_meas", "sorfilt.gaussian", "posterior_predictive_meas"),
    ("vb.sor_step", "sorfilt.vb", "sor_step"),
    ("vb.ukf_step", "sorfilt.vb", "ukf_step"),
    ("vb.omega_update", "sorfilt.vb", "omega_update"),
    ("tracking.simulate_trajectory", "sorfilt.tracking", "simulate_trajectory"),
    ("uwb.make_synthetic_dataset", "sorfilt.uwb", "make_synthetic_dataset"),
)


def _solve_gflop(a, b, *args, **kwargs) -> float:
    """LU of the m x m system plus two triangular solves per right-hand side."""
    m = np.shape(a)[-1]
    rhs = np.shape(b)[-1] if np.ndim(b) > 1 else 1
    return (2.0 / 3.0 * m**3 + 2.0 * m * m * rhs) * 1e-9


# Counted, not timed: their time stays in the calling span's self time.
# (layer, module, attribute, GFLOP computed from the argument shapes or None)
COUNT_TARGETS = (
    ("linalg.cholesky", "numpy.linalg", "cholesky", None),
    ("linalg.solve", "numpy.linalg", "solve", _solve_gflop),
)

STEP = "step"  # root span of one predict + update pair


class Tracer:
    """Span stack plus per-(scope, layer) totals, all kept in memory.

    The scope names who caused the work: a filter name inside a step, or a
    phase such as "setup".  Raw spans are kept up to span_cap and written by
    write_spans once the run is over.
    """

    def __init__(self, span_cap: int = 20_000) -> None:
        self.scope = "setup"
        self.step_id = 0
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        # (scope, layer) -> [calls, self_ns]
        self.totals: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
        # (scope, key) -> value
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        # scope -> summed duration of its step root spans
        self.step_ns: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._next_id = 0

    def enter(self, layer: str) -> None:
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else 0
        self._stack.append([layer, time.perf_counter_ns(), 0, self._next_id, parent])

    def exit(self) -> int:
        """Close the innermost span and return its duration."""
        end = time.perf_counter_ns()
        layer, start, child_ns, span_id, parent = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        total = self.totals[(self.scope, layer)]
        total[0] += 1
        total[1] += duration - child_ns
        if len(self.spans) < self.span_cap:
            self.spans.append(
                (self.step_id, span_id, parent, self.scope, layer, start, end)
            )
        return duration

    @contextmanager
    def step(self, scope: str):
        """Root span of one filter step, attributed to scope."""
        self.scope = scope
        self.step_id += 1
        self.enter(STEP)
        try:
            yield
        finally:
            self.step_ns[scope] += self.exit()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[(self.scope, key)] += amount

    def span_wrapper(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def count_wrapper(self, layer: str, fn, gflop=None):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(f"{layer}.calls")
            if gflop is not None:
                self.count(f"{layer}.gflop", gflop(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            except np.linalg.LinAlgError:
                self.count(f"{layer}.failed")
                raise

        return counted

    def write_spans(self, path: Path, header: dict) -> None:
        """One JSON header line naming the fields, then one list per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["step", "id", "parent", "scope", "layer", "start_ns", "end_ns"]
        with path.open("w") as handle:
            handle.write(json.dumps({**header, "fields": fields}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _resolve(module_name: str, path: str):
    """Return (owner, attribute, original) or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


def _lookup_sites(owner, attr: str, original) -> list[tuple[object, str]]:
    """Every place the package looks the original up: the owner itself and,
    for a module-level name, each package module that imported it."""
    sites = [(owner, attr)]
    if isinstance(owner, type):
        return sites
    for name, module in list(sys.modules.items()):
        if module is owner or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                sites.append((module, key))
    return sites


class Patches:
    """Installs the wrappers and restores every original."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, module_name, path in SPAN_TARGETS:
            wrap = functools.partial(self.tracer.span_wrapper, layer)
            self._patch(module_name, path, wrap)
        for layer, module_name, path, gflop in COUNT_TARGETS:
            wrap = functools.partial(self.tracer.count_wrapper, layer, gflop=gflop)
            self._patch(module_name, path, wrap)

    def _patch(self, module_name: str, path: str, wrap) -> None:
        found = _resolve(module_name, path)
        if found is None:
            self.absent.append(f"{module_name}.{path}")
            return
        owner, attr, original = found
        wrapper = wrap(original)
        for site, key in _lookup_sites(owner, attr, original):
            self._saved.append((site, key, original))
            setattr(site, key, wrapper)

    def restore(self) -> None:
        while self._saved:
            site, key, original = self._saved.pop()
            setattr(site, key, original)


@contextmanager
def traced(tracer: Tracer):
    """Wrappers installed for the body, originals back afterwards."""
    patches = Patches(tracer)
    try:
        patches.install()
        yield patches
    finally:
        patches.restore()


def traced_model(tracer: Tracer, model, prefix: str):
    """A copy of model whose process and measurement callbacks are spans.

    Only tracking's process map is traced: the uwb random walk's is the
    identity, and its time stays in eval_sigma_points."""
    changes = {"meas_fn": tracer.span_wrapper(f"{prefix}.meas_fn", model.meas_fn)}
    if prefix == "tracking":
        changes["process_fn"] = tracer.span_wrapper(
            f"{prefix}.process_fn", model.process_fn
        )
    return dataclasses.replace(model, **changes)
