"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet_profile --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no wrappers
installed.  ``--trace 1`` prints the per-layer metrics: the same
workload runs once with every layer's entry points wrapped, then the
same closed-loop work runs again unwrapped, and the difference is the
tracing overhead.  The metric names are those in ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it carries the environment fingerprint and the open-loop
generator's lateness.  A failed output check prints ``correct: false``
and exits 1; a tree without the program's sources exits 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 5


def fingerprint(obs_enabled: bool) -> dict:
    """Where and on what the numbers were taken."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "obs_enabled": obs_enabled,
    }


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.layers import LAYERS, SETUP_LAYERS, LayerTracer, quantile
    from perfbench.workloads import REFERENCE_NOMINAL_S, WORKLOADS, CheckFailed, reference_s

    workload = WORKLOADS[args.workload]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    correct = True
    try:
        setup_wall_s, setup_s = [], []
        setup_tracer = LayerTracer({name: LAYERS[name] for name in SETUP_LAYERS})
        for _ in range(SETUP_REPEATS):
            before = reference_s()
            if args.trace:
                setup_tracer.install()
            t0 = time.perf_counter()
            try:
                inputs = workload.setup(args.seed)
            finally:
                elapsed = time.perf_counter() - t0
                setup_tracer.uninstall()
            setup_wall_s.append(elapsed)
            setup_s.append(elapsed * REFERENCE_NOMINAL_S * 2.0 / (before + reference_s()))
        if args.trace:
            tracer = LayerTracer({k: v for k, v in LAYERS.items() if k not in SETUP_LAYERS})
            with tracer:
                outcome = workload.measure(inputs, args.seconds, untimed=tracer.suspended)
            untraced = workload.measure(inputs, float("inf"), closed_ops=outcome.closed_ops, open_loop=False)
        else:
            outcome = workload.measure(inputs, args.seconds)
    except CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        correct = False

    if not correct:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    lag = outcome.generator_lag_s
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "work_unit": workload.work_unit,
        "closed_loop": {
            "work": outcome.work,
            "ops": outcome.closed_ops,
            "wall_s": outcome.wall_s,
            "nominal_s": outcome.nominal_s,
            "wall_throughput_per_s": outcome.work / outcome.wall_s,
        },
        "reference_loop_ms": {
            "nominal": 1000.0 * REFERENCE_NOMINAL_S,
            "p50": 1000.0 * quantile(outcome.reference_s, 0.5),
            "min": 1000.0 * min(outcome.reference_s),
            "max": 1000.0 * max(outcome.reference_s),
        },
        "generator_lag_ms": {
            "sends": len(lag),
            "p50": 1000.0 * quantile(lag, 0.5),
            "p99": 1000.0 * quantile(lag, 0.99),
            "max": 1000.0 * max(lag, default=0.0),
        },
        "setup_wall_s": setup_wall_s,
        "counts": outcome.counts,
        "fingerprint": fingerprint(workload.obs_enabled),
    }))

    if args.trace:
        waits = tracer.serve_waits_s()
        values = {**setup_tracer.metrics(SETUP_LAYERS), **tracer.metrics(
            name for name in LAYERS if name not in SETUP_LAYERS)}
        values.update({
            "serve.wait.p50_ms": 1000.0 * quantile(waits, 0.5),
            "serve.wait.p99_ms": 1000.0 * quantile(waits, 0.99),
            "serve.batch_size.mean": statistics.fmean(tracer.batch_sizes) if tracer.batch_sizes else 0.0,
            "ingest.rows_per_drain.mean": (
                statistics.fmean(tracer.rows_per_drain) if tracer.rows_per_drain else 0.0),
            "ingest.late": outcome.counts.get("ingest.late", 0.0),
            "ingest.overflowed": outcome.counts.get("ingest.overflowed", 0.0),
            "ingest.duplicates": outcome.counts.get("ingest.duplicates", 0.0),
            "trace.traced_s": outcome.nominal_s,
            "trace.untraced_s": untraced.nominal_s,
            "trace.overhead_s": outcome.nominal_s - untraced.nominal_s,
        })
        names = [m["name"] for m in bench["per_layer"]]
    else:
        latencies = outcome.latencies_s
        values = {
            "throughput_per_s": outcome.work / outcome.nominal_s,
            "p50_ms": 1000.0 * quantile(latencies, 0.5),
            "p90_ms": 1000.0 * quantile(latencies, 0.9),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_frac": 1.0 - outcome.failed / outcome.attempted,
        }
        names = [m["name"] for m in bench["end_to_end"]]
    missing = set(names) - set(values)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
