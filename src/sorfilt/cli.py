"""Command line interface: simulate, uwb, bench, check."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .harness import (
    ScenarioConfig,
    bench_runtime,
    invariant_checks,
    run_sweep,
    run_uwb_experiment,
)
from .uwb import DatasetError
from .vb import FILTER_NAMES


def _add_common(parser: argparse.ArgumentParser, filters: bool = True) -> None:
    parser.add_argument("--config", help="YAML scenario config file")
    parser.add_argument("--seed", type=int, help="base experiment seed")
    parser.add_argument("--runs", type=int, help="Monte Carlo runs")
    parser.add_argument("--out", help="output directory for reports")
    if filters:
        parser.add_argument(
            "--filters", help=f"comma-separated subset of {','.join(FILTER_NAMES)}"
        )


def _build_config(args, scenario: str) -> ScenarioConfig:
    if args.config:
        cfg = ScenarioConfig.from_yaml(args.config)
    else:
        cfg = ScenarioConfig(scenario=scenario)
    filters = None
    if getattr(args, "filters", None):
        filters = tuple(p.strip() for p in args.filters.split(",") if p.strip())
    return cfg.with_overrides(
        scenario=scenario,
        seed=args.seed,
        runs=args.runs,
        out=args.out,
        filters=filters,
        variant=getattr(args, "variant", None),
        tag_z=getattr(args, "tag_z", None),
        dataset=getattr(args, "dataset", None),
        steps=getattr(args, "steps", None),
    )


def _cmd_simulate(args) -> int:
    cfg = _build_config(args, "tracking")
    report = run_sweep(cfg)
    for point in report.points:
        label = "" if report.sweep_axis is None else (
            f"{report.sweep_axis}={point.axis_value} "
        )
        for name, rep in point.filters.items():
            print(
                f"{label}{name}: rmse={rep.rmse_aggregate:.4f} "
                f"median_run={float(np.median(rep.rmse_per_run)):.4f} "
                f"mean_iters={rep.iterations_mean:.2f}"
            )
    for value, run_index, message in report.failures:
        print(f"FAILED value={value} run={run_index}: {message}", file=sys.stderr)
    print(f"reports written to {cfg.out}")
    return 0 if report.ok else 1


def _cmd_uwb(args) -> int:
    cfg = _build_config(args, "uwb")
    try:
        report = run_uwb_experiment(cfg)
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, indent=2))
    return 0


# bench_runtime keywords that a flag or the config file may set; a key set
# by neither keeps bench_runtime's own default, not ScenarioConfig's
BENCH_KEYS = ("runs", "steps", "lam", "gamma_law", "filters")
# every config key bench reads; a file setting any other key is refused, since
# bench_runtime always runs its own outlier world and would ignore it
BENCH_CONFIG_KEYS = BENCH_KEYS + ("seed", "out")


def _cmd_bench(args) -> int:
    given = set(ScenarioConfig.read_yaml(args.config)) if args.config else set()
    ignored = sorted(given - set(BENCH_CONFIG_KEYS))
    if ignored:
        print(
            f"config error: bench does not use the keys {ignored}; "
            f"it reads only {sorted(BENCH_CONFIG_KEYS)}",
            file=sys.stderr,
        )
        return 2
    cfg = _build_config(args, "tracking")
    m_values = tuple(int(p) for p in args.m.split(","))
    given |= {key for key in BENCH_KEYS if getattr(args, key, None) is not None}
    chosen = {key: getattr(cfg, key) for key in BENCH_KEYS if key in given}
    report = bench_runtime(m_values=m_values, seed=cfg.seed, out=cfg.out, **chosen)
    for name, slope in report.slopes.items():
        means = report.seconds[name].mean(axis=1)
        pretty = ", ".join(
            f"m={m}: {s:.3f}s" for m, s in zip(report.m_values, means)
        )
        print(f"{name}: slope={slope:.3f} ({pretty})")
    print(f"reports written to {cfg.out}")
    return 0


def _cmd_check(args) -> int:
    results = invariant_checks()
    failed = 0
    for result in results:
        status = "OK" if result.ok else "FAIL"
        line = f"[{status}] {result.name}"
        if not result.ok:
            line += f": {result.detail}"
            failed += 1
        print(line)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sorfilt",
        description="Outlier-robust variational nonlinear filtering experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser(
        "simulate", help="tracking Monte Carlo sweep with RMSE reports"
    )
    _add_common(simulate)
    simulate.add_argument("--steps", type=int, help="trajectory length")
    simulate.set_defaults(fn=_cmd_simulate)

    uwb = sub.add_parser("uwb", help="range-only localization experiment")
    _add_common(uwb, filters=False)  # uwb runs the one filter --variant names
    uwb.add_argument("--variant", choices=FILTER_NAMES)
    uwb.add_argument("--tag-z", dest="tag_z", type=float, help="fixed tag height [m]")
    uwb.add_argument("--dataset", help="dataset directory (anchors.csv + steps.csv)")
    uwb.set_defaults(fn=_cmd_uwb)

    bench = sub.add_parser("bench", help="runtime scaling versus measurement count")
    _add_common(bench)
    bench.add_argument("--m", default="200,400,800", help="comma-separated m values")
    bench.add_argument("--steps", type=int, help="trajectory length per run")
    bench.set_defaults(fn=_cmd_bench)

    check = sub.add_parser("check", help="fast invariant self-test battery")
    check.set_defaults(fn=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
