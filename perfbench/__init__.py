"""Benchmark for sorfilt: per-step latency, throughput and accuracy of the
ukf, sor and msor filters, plus a per-layer trace taken from outside the
package.  Run it with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root."""
