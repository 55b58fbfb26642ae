"""Run one workload of the S3PG benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {bulk,cdc,fig6,join} \\
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it are a report for people.  ``--workload all`` runs
the four workloads one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import ROOT, WORK_ROOT, import_repro  # noqa: E402
from perfbench.measure import beyond, percentile, supports  # noqa: E402
from perfbench.spans import SpanRecorder, layer_self_seconds  # noqa: E402
from perfbench.workloads import TAIL, WORK_UNIT, run_pass  # noqa: E402

WORKLOADS = ("bulk", "cdc", "fig6", "join")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  Times are self
#: seconds per request, or per set-up for layers that run in set-up.
PER_LAYER = {
    "rdf.parse_s": "s",
    "shacl.parse_s": "s",
    "core.schema_s": "s",
    "core.data_s": "s",
    "pg.csv_s": "s",
    "pg.csv_bytes": "bytes",
    "pg.load_s": "s",
    "pg.nodes": "count",
    "pg.edges": "count",
    "storage.snapshot_load_s": "s",
    "shacl.validator_build_s": "s",
    "cdc.reduce_s": "s",
    "core.incremental_s": "s",
    "shacl.revalidate_s": "s",
    "shacl.focus_rechecked": "count",
    "shacl.recheck_ratio": "ratio",
    "cdc.checkpoint_s": "s",
    "cdc.checkpoint_bytes": "bytes",
    "cdc.pipeline_self_s": "s",
    "query.parse_s": "s",
    "query.plan_s": "s",
    "query.plan_cache_hit_ratio": "ratio",
    "query.execute_s": "s",
    "obs.record_s": "s",
    "query.engine_self_s": "s",
    "query.rows_per_request": "count",
    "trace.overhead_pct": "%",
}

#: Request-root spans whose self time is a layer of its own.
ROOT_LAYERS = {
    "cdc.delta": "cdc.pipeline_self_s",
    "query.engine": "query.engine_self_s",
}


def end_to_end(workload: str, run) -> dict[str, float]:
    """The end-to-end metrics of one untraced pass.

    Timings are at the reference host speed; requests are
    :meth:`~perfbench.workloads.Pass.steady` samples.
    """
    steady = run.steady()
    return {
        "setup_s": statistics.median(run.setup_scaled()),
        "peak_rss_mb": run.peak_rss_mb,
        "throughput_per_s": run.unit_work * len(steady) / sum(steady),
        "latency_p50_ms": percentile(steady, 0.5) * 1000.0,
        "latency_tail_ms": percentile(steady, TAIL[workload] or 1.0) * 1000.0,
    }


def per_layer(run, phases, baseline) -> dict[str, float]:
    """The per-layer metrics of a traced pass (``baseline``: untraced).

    ``phases`` is :func:`perfbench.spans.layer_self_seconds` of its spans.
    """
    metrics = {name: 0.0 for name in PER_LAYER}
    for layers in phases.values():
        for name, seconds in layers.items():
            key = ROOT_LAYERS.get(name, f"{name}_s")
            if key in metrics:
                metrics[key] += seconds
    metrics.update({k: v for k, v in run.counts.items() if k in metrics})
    traced = statistics.mean(run.steady())
    untraced = statistics.mean(baseline.steady())
    metrics["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
    return metrics


def print_report(workload: str, seed: int, run, metrics) -> None:
    """The figures, also under their workload-specific names, with counts."""
    print(f"workload {workload} seed {seed}: "
          f"{run.attempted} attempted, {run.failed} failed")
    for why in run.failures:
        print(f"  FAILED: {why}")
    for name, value in metrics.items():
        print(f"  {name} {value:.4f} {END_TO_END[name]}")
    probes = run.host.seconds
    print(f"  host probe: fastest {min(probes) * 1000.0:.4f} ms, median "
          f"{statistics.median(probes) * 1000.0:.4f} ms (n={len(probes)}); the figures "
          "above are at the reference host speed, those below as measured")
    print("  setup_s of each set-up: "
          + ", ".join(f"{seconds:.4f}" for seconds, *_ in run.setups))
    repeats = sorted(run.repeats().values())
    steady = run.steady()
    print(f"  {WORK_UNIT[workload]}_per_s {run.unit_work * len(steady) / sum(steady):.4f} 1/s "
          f"({len(repeats)} distinct requests, {repeats[0]}-{repeats[-1]} repeats each, "
          f"{len(steady)} in whole rounds)")
    tail = TAIL[workload]
    quantiles = sorted({0.5, tail or 1.0})
    for title, of in (("each request at its unit's typical time, reference speed", run.steady),
                      ("every repeat as measured", run.samples.get)):
        print(f"  {title}:")
        for kind in sorted(run.samples):
            samples = of(kind)
            n = len(samples)
            for q in quantiles:
                label = "max" if q == 1.0 else f"p{round(q * 100)}"
                note = f"n={n}"
                if 0.5 < q < 1.0 and not supports(n, q):
                    note += f", only {beyond(n, q)} beyond: below the 10-sample rule"
                value = percentile(samples, q) * 1000.0
                print(f"    {kind}_{label}_ms {value:.4f} ms ({note})")


def print_breakdown(phases, dump: Path) -> None:
    """Self time per layer and phase, largest first, with its share."""
    print(f"traced pass (spans in {dump.relative_to(ROOT)}):")
    for phase, title in (("req", "per request"), ("setup", "per set-up")):
        layers = phases.get(phase)
        if not layers:
            continue
        total = sum(layers.values())
        ranked = sorted(layers.items(), key=lambda item: -item[1])
        print(f"  {title}: {total * 1000.0:.4f} ms; top layer {ranked[0][0]}")
        for name, seconds in ranked:
            print(f"    {name:24s} {seconds * 1000.0:10.4f} ms "
                  f"{100.0 * seconds / total:5.1f}%")


def run_one(args) -> dict:
    """Generate inputs, run the pass(es), print the report; the result."""
    workdir = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    inputs = workdir / "inputs"
    try:
        command = [sys.executable, "-m", "perfbench.inputs",
                   args.workload, str(args.seed), str(inputs)]
        if args.tiny:
            command.append("--tiny")
        env = dict(os.environ, PYTHONPATH=str(ROOT))
        subprocess.run(command, cwd=ROOT, env=env, check=True)

        run = run_pass(args.workload, inputs, args.seed, args.seconds, tiny=args.tiny)
        metrics, units = end_to_end(args.workload, run), END_TO_END
        print_report(args.workload, args.seed, run, metrics)
        attempted, failed = run.attempted, run.failed
        if args.trace:
            recorder = SpanRecorder()
            traced = run_pass(args.workload, inputs, args.seed, args.seconds,
                              recorder=recorder, tiny=args.tiny)
            attempted += traced.attempted
            failed += traced.failed
            for why in traced.failures:
                print(f"  FAILED (traced pass): {why}")
            phases = layer_self_seconds(recorder.spans)
            metrics, units = per_layer(traced, phases, run), PER_LAYER
            dump = WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            dump.parent.mkdir(parents=True, exist_ok=True)
            recorder.dump(dump)
            print_breakdown(phases, dump)
            for name, unit in PER_LAYER.items():
                print(f"  {name} {metrics[name]:.6g} {unit}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            command.append("--tiny")
        status = subprocess.run(command).returncode or status
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny inputs, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    try:
        import_repro()
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
