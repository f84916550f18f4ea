"""Command line interface: simulate, uwb, bench, check."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .harness import (
    ScenarioConfig,
    _check_m_values,
    bench_runtime,
    invariant_checks,
    run_sweep,
    run_uwb_experiment,
)
from .unscented import UTParams
from .uwb import DatasetError
from .vb import FILTER_NAMES, IndicatorConfig


def _filter_names(text: str) -> tuple[str, ...] | None:
    """A --filters list; an empty string sets nothing."""
    return tuple(p.strip() for p in text.split(",") if p.strip()) if text else None


def _add_common(parser: argparse.ArgumentParser, filters: bool = True) -> None:
    parser.add_argument("--config", help="YAML scenario config file")
    parser.add_argument("--seed", type=int, help="base experiment seed")
    parser.add_argument("--runs", type=int, help="Monte Carlo runs")
    parser.add_argument("--out", help="output directory for reports")
    if filters:
        parser.add_argument(
            "--filters",
            type=_filter_names,
            help=f"comma-separated subset of {','.join(FILTER_NAMES)}",
        )


class _ConfigError(Exception):
    """A config file or flag value the command cannot run with."""


# bench_runtime keywords that a flag or the config file may set; a key set
# by neither keeps bench_runtime's own default, not ScenarioConfig's
BENCH_KEYS = ("runs", "steps", "lam", "gamma_law", "filters")

# the config keys each command reads; a --config file setting any other key
# is refused, since the command would ignore it
CONFIG_KEYS = {
    # the tracking sweep: every key but the uwb-only ones
    "simulate": tuple(
        f.name for f in fields(ScenarioConfig)
        if f.name not in ("dataset", "variant", "tag_z")
    ),
    # the one filter 'variant' names, on a dataset or the synthetic room,
    # with the indicator and unscented-transform parameters it runs with
    "uwb": ("dataset", "runs", "seed", "out", "variant", "tag_z")
    + tuple(f.name for part in (IndicatorConfig, UTParams) for f in fields(part)),
    # bench_runtime always runs its own outlier world
    "bench": BENCH_KEYS + ("seed", "out"),
}


def _build_config(args) -> tuple[ScenarioConfig, set[str]]:
    """args.command's config, built once from the --config file and the flags,
    and the keys that the file or a flag set."""
    allowed = CONFIG_KEYS[args.command]
    try:
        values = ScenarioConfig.read_yaml(args.config) if args.config else {}
        ignored = sorted(set(values) - set(allowed))
        if ignored:
            raise ValueError(
                f"{args.command} does not use the keys {ignored}; "
                f"it reads only {sorted(allowed)}"
            )
        # flags override the file; each is stored under the key it sets
        flags = vars(args).items()
        values.update((k, v) for k, v in flags if k in allowed and v is not None)
        return ScenarioConfig(**values), set(values)
    except (TypeError, ValueError) as exc:  # TypeError: a value of the wrong type
        raise _ConfigError(str(exc)) from exc


def _cmd_simulate(args) -> int:
    cfg, _ = _build_config(args)
    summary = run_sweep(cfg)
    axis = summary["sweep_axis"]
    for point in summary["points"]:
        label = "" if axis is None else f"{axis}={point['value']} "
        for name, stats in point["filters"].items():
            print(
                f"{label}{name}: rmse={stats['rmse_aggregate']:.4f} "
                f"median_run={stats['rmse_median']:.4f} "
                f"mean_iters={stats['iterations_mean']:.2f}"
            )
    for failure in summary["failures"]:
        print(
            f"FAILED value={failure['value']} run={failure['run']}: {failure['error']}",
            file=sys.stderr,
        )
    print(f"reports written to {cfg.out}")
    return 1 if summary["failures"] else 0


def _cmd_uwb(args) -> int:
    cfg, _ = _build_config(args)
    try:
        report = run_uwb_experiment(cfg)
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, indent=2))
    return 0


def _cmd_bench(args) -> int:
    cfg, given = _build_config(args)
    try:
        m_values = _check_m_values(args.m.split(","))
    except ValueError as exc:
        raise _ConfigError(f"--m {args.m}: {exc}") from exc
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
    try:
        return args.fn(args)
    except _ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
