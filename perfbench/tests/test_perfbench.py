"""Tests of the benchmark's own code, on shrunken workloads.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sorfilt
from perfbench import bench, layers
from perfbench.workloads import Spec

SMALL = {
    "tracking_m6": Spec("tracking", runs=2, steps=12, num_pairs=3),
    "uwb_room": Spec("uwb", runs=1, steps=25),
}

COUNT_SUFFIXES = (
    "calls_per_step",
    ".failed",
    "gflop_computed",
    "iterations_mean",
    "iterations_max",
    "converged_frac",
    "reject_frac",
    "reject_recall",
    "reject_precision",
)


def traced_run(name: str, seed: int = 3):
    workload, tally, traced = bench.run_traced(name, seed, 0.0, SMALL[name], setups=1)
    return workload, tally, bench.per_layer(workload, tally, traced)


def untraced_run(name: str, seed: int = 3):
    workload, tally, setup_seconds = bench.run_untraced(name, seed, 0.0, SMALL[name])
    return workload, tally, bench.end_to_end(workload, tally, setup_seconds)


def every_site():
    """(layer, site, attribute, value) for every lookup site of every target."""
    found = []
    targets = [(layer, mod, path) for layer, mod, path in layers.SPAN_TARGETS]
    targets += [(layer, mod, path) for layer, mod, path, _ in layers.COUNT_TARGETS]
    for layer, module_name, path in targets:
        owner, attr, original = layers._resolve(module_name, path)
        for site, key in layers._lookup_sites(owner, attr, original):
            found.append((layer, site, key, getattr(site, key)))
    return found


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_identical_counts(name):
    _, _, first = traced_run(name)
    _, _, second = traced_run(name)
    counts = {k for k in first if k.endswith(COUNT_SUFFIXES)}
    assert len(counts) > 20
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}

    _, _, plain_a = untraced_run(name)
    _, _, plain_b = untraced_run(name)
    for key in plain_a:
        if key.endswith("rmse_m") or key == "completed_frac":
            assert plain_a[key] == plain_b[key]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_self_times_and_unattributed_sum_to_step_time(name):
    _, _, metrics = traced_run(name)
    for filt in bench.FILTERS:
        parts = sum(
            value
            for key, (value, _) in metrics.items()
            if key.startswith(f"{filt}.")
            and (key.endswith(".self_us_per_step") or key.endswith(".unattributed_us_per_step"))
        )
        step = metrics[f"{filt}.step.us_per_step"][0]
        assert step > 0.0
        assert parts == pytest.approx(step, rel=1e-9)
        assert metrics[f"{filt}.step.unattributed_us_per_step"][0] < 0.5 * step


def test_wrappers_are_gone_after_a_traced_run():
    before = every_site()
    assert any(site is sorfilt.vb and key == "serial_conditioning" for _, site, key, _ in before)
    assert any(site is np.linalg and key == "cholesky" for _, site, key, _ in before)
    traced_run("tracking_m6")
    after = every_site()
    assert [(l, s, k) for l, s, k, _ in after] == [(l, s, k) for l, s, k, _ in before]
    for (_, _, _, old), (_, site, key, new) in zip(before, after):
        assert new is old, f"{site}.{key} still wrapped"


def test_wrappers_restored_when_the_traced_body_raises():
    original = sorfilt.vb.sor_step
    tracer = layers.Tracer()
    with pytest.raises(RuntimeError):
        with layers.traced(tracer):
            assert sorfilt.vb.sor_step is not original
            raise RuntimeError("boom")
    assert sorfilt.vb.sor_step is original


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(sorfilt.gaussian, "posterior_predictive_meas")
    tracer = layers.Tracer()
    with layers.traced(tracer) as patches:
        pass
    assert patches.absent == ["sorfilt.gaussian.posterior_predictive_meas"]


def test_numerics_error_in_one_filter_keeps_the_others(monkeypatch):
    def broken(*args, **kwargs):
        raise sorfilt.FilterNumericsError("forced")

    workload = bench.setup("tracking_m6", 3, SMALL["tracking_m6"])
    monkeypatch.setattr(sorfilt.vb, "serial_conditioning", broken)
    tally = bench.measure(workload, 0.0)
    assert tally.failed == len(workload.runs)
    assert tally.attempted == len(workload.runs) * len(bench.FILTERS)
    for outcome, run in zip(tally.first_pass, workload.runs):
        assert outcome["msor"].error is not None
        assert len(outcome["sor"].posteriors) == len(run.measurements)
        assert len(outcome["ukf"].posteriors) == len(run.measurements)
    metrics = bench.end_to_end(workload, tally, [1.0])
    assert metrics["completed_frac"][0] == pytest.approx(2.0 / 3.0)
    assert np.isfinite(metrics["sor.rmse_m"][0])


def test_timings_keep_each_steps_fastest_pass():
    tally = bench.Tally()
    for times in ([5, 3, 9], [2, 4, 9], [6, 1, 8]):
        outcome = {name: bench.FilterPass(step_ns=list(times)) for name in bench.FILTERS}
        tally.add(0, outcome)
        tally.passes += 1
    for name in bench.FILTERS:
        assert tally.best_ns[name][0].tolist() == [2, 1, 8]
        assert tally.step_ns[name] == [5, 3, 9, 2, 4, 9, 6, 1, 8]


def test_reference_check_passes_and_catches_a_mismatch():
    workload, tally, _ = untraced_run("uwb_room")
    assert bench.check_against_reference(workload, tally.first_pass[0]) == []
    sor = tally.first_pass[0]["sor"]
    post = sor.posteriors[5]
    sor.posteriors[5] = sorfilt.GaussianBelief(post.mean + 1e-12, post.cov)
    assert bench.check_against_reference(workload, tally.first_pass[0]) == [
        "sor: posterior differs at step 6"
    ]


def test_command_fails_without_the_package_source(tmp_path):
    here = Path(bench.__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tracking_m6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_times_are_scaled_to_the_reference_probe():
    workload, tally, _ = untraced_run("tracking_m6")
    base = bench.end_to_end(workload, tally, [1.0])
    tally.probe_ns = [2 * ns for ns in tally.probe_ns]  # the same steps on a host half as fast
    slow = bench.end_to_end(workload, tally, [1.0])
    for key, (value, unit) in base.items():
        expected = {"s": value / 2, "ms": value / 2, "1/s": value * 2}.get(unit, value)
        assert slow[key][0] == pytest.approx(expected, rel=1e-12), key
