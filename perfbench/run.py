"""Benchmark entry point.

    python3 perfbench/run.py --workload tracking_m6 --seed 1 --seconds 20 --trace 0

Run from the repository root: the package is imported from ./src, never
from an installed copy.  The run is one process and one thread, with BLAS
pinned to one thread before numpy is imported.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
The exit code is 1 when a correctness check fails and 2 when the package
cannot be imported.
"""

from __future__ import annotations

import os
import sys

PINNED_THREADS = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
if "numpy" in sys.modules:  # the pin only works before numpy loads BLAS
    raise RuntimeError("numpy was imported before the BLAS thread pin")
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"


def import_package():
    """Import sorfilt from the checkout's src/ and nowhere else."""
    if not (SOURCE / "sorfilt" / "__init__.py").is_file():
        raise ImportError(f"no package source under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(ROOT))
    import sorfilt

    if Path(sorfilt.__file__).resolve().parent != SOURCE / "sorfilt":
        raise ImportError(f"sorfilt imported from {sorfilt.__file__}, not {SOURCE}")
    return sorfilt


def blas_threads(np) -> int | None:
    """Threads OpenBLAS will use, read from the loaded library if it says."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_thread_pin": PINNED_THREADS["OPENBLAS_NUM_THREADS"],
        "blas_threads_reported": blas_threads(np),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    facts = machine_facts()
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(facts))

    if args.trace:
        workload, tally, traced = bench.run_traced(args.workload, args.seed, args.seconds)
        metrics = bench.per_layer(workload, tally, traced)
        spans_path = OUT_DIR / f"spans-{args.workload}.jsonl"
        traced.tracer.write_spans(spans_path, {"workload": args.workload, "seed": args.seed,
                                               "machine": facts, "absent": traced.absent})
        for name in traced.absent:
            print(f"absent: {name} (its layer reads 0)")
        print(f"passes: {tally.passes}; spans: {len(traced.tracer.spans)} written to "
              f"{spans_path.relative_to(ROOT)}")
    else:
        workload, tally, setup_seconds = bench.run_untraced(args.workload, args.seed, args.seconds)
        metrics = bench.end_to_end(workload, tally, setup_seconds)
        cells = sum(len(v) for v in tally.best_ns[bench.FILTERS[0]].values())
        print(f"passes: {tally.passes}; p50 and steps/s use the fastest pass of each of "
              f"{cells} steps, p90 every timed step; {bench.WARMUP_STEPS} warm-up steps excluded")
        for name in bench.FILTERS:
            print(f"samples {name}: {len(tally.step_ns[name])} timed steps")
        print(f"setup: median of {len(setup_seconds)} set-ups spread over the run")
        probes = sorted(tally.probe_ns)
        print(f"host probe before each run: {len(probes)} probes, fastest "
              f"{probes[0] * 1e-3:.0f} us, median {probes[len(probes) // 2] * 1e-3:.0f} us")
        scale = bench.host_scale(tally)
        print(f"times below are scaled by {scale!r}: the reference probe "
              f"{bench.REFERENCE_PROBE_NS * 1e-3:.0f} us over this run's fastest probe; "
              f"divide by it for the times as measured")

    problems = bench.check_against_reference(workload, tally.first_pass[0])
    problems += [f"{name} is not finite" for name, (value, _) in metrics.items()
                 if not math.isfinite(value)]
    for error in tally.errors:
        print(f"failed: {error}")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")

    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
