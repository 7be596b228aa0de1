"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``BENCHMARK.json`` and ``bench.workloads``) for
about S seconds in this process, prints per-input rows and provenance,
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` they are the per-layer ones, from passes run with
wrappers installed around each layer.  Spans and a full result record go
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Keep BLAS at no more threads than this process may run on.  Must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    threads = nproc
    for var in BLAS_THREAD_VARIABLES:
        try:
            threads = min(threads, max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            pass
    for var in BLAS_THREAD_VARIABLES:
        os.environ[var] = str(threads)
    return threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("analyze-wide", "construct-simplex", "verify-csv"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    blas_threads = cap_blas_threads()

    import bench
    import tracing

    try:
        run = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), blas_threads)
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot load quasifold from src/: {exc}\n")
        return 2

    results = run.results()
    failed = [r for r in results if r.problems]
    print(f"# provenance {json.dumps(run.provenance, sort_keys=True)}")
    print(f"# workload {args.workload}: closed loop, one caller; {len(run.passes)} passes "
          f"({sum(run.traced)} traced), {len(results)} ops, "
          f"error_rate {len(failed) / len(results):.4f}")
    for r in failed[:20]:
        print(f"# FAILED {r.name}: {'; '.join(r.problems)}")
    raw_ms = run.op_medians_ms(raw=True)
    for name, ms in run.op_medians_ms().items():
        print(f"# input {name:16s} median_op_ms {ms:10.3f} (wall {raw_ms[name]:10.3f})")
    untraced = run.pass_seconds()
    for label, times in (("pass_s", untraced), ("pass_s wall", run.pass_seconds(raw=True))):
        if len(times) >= 2:
            q1, q2, q3 = statistics.quantiles(times, n=4)
            print(f"# {label} median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f} n {len(times)}")
    print(f"# setup_s runs {' '.join(f'{s:.4f}' for s in run.setup_s)}")

    if args.trace:
        metrics = run.per_layer()
        units = {name: spec[0] for name, spec in tracing.LAYER_METRICS.items()}
        moves = {name: spec[2] for name, spec in tracing.LAYER_METRICS.items()}
        for name, value in metrics.items():
            print(f"# layer {name:36s} {value:14.6g} {units[name]:6s} -> {moves[name]}")
        print(f"# tracing_overhead {run.tracing_overhead():.4f} (traced / untraced pass_s)")
    else:
        metrics = run.end_to_end()
        units = {"setup_s": "s", "pass_s": "s", "op_ms_geomean": "ms",
                 "peak_rss_mb": "MiB", "verify_max_dim": "dim"}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": run.provenance,
        "setup_s": run.setup_s,
        "pass_s": untraced,
        "pass_wall_s": run.pass_seconds(raw=True),
        "traced_pass_s": run.pass_seconds(traced=True),
        "op_median_ms": run.op_medians_ms(),
        "op_median_wall_ms": raw_ms,
        "failures": [{"input": r.name, "problems": r.problems} for r in failed],
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (bench.OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        origin = min((s[1] for s in run.spans), default=0.0)
        with (bench.OUT_DIR / f"{stem}-spans.jsonl").open("w") as handle:
            for name, start, end, parent, op in run.spans:
                handle.write(json.dumps({"name": name, "start": start - origin,
                                         "end": end - origin, "parent": parent,
                                         "op": op}) + "\n")

    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
