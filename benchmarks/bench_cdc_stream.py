"""CDC streaming throughput: deltas/sec, apply latency, and staleness.

Replays a randomized add/remove delta history of the DBpedia-2022-like
dataset through the :mod:`repro.cdc` pipeline and measures the service
characteristics the subsystem exists for:

* **throughput** — deltas applied per second end-to-end;
* **service latency** — p50/p99 of per-delta service time, from the
  moment the pipeline dequeues a delta until it is applied and
  revalidated;
* **staleness** — p99 of how far the materialized PG lagged the stream.
  The replay enqueues the whole stream before the first delta is
  applied, so this is backlog lag: it grows with queue position, not
  with the cost of a delta;
* **revalidation sparsity** — focus nodes rechecked incrementally vs.
  what a full revalidation per batch would have inspected;
* **revalidation cost** — milliseconds of ``DeltaValidator.apply_delta``
  per delta, and nested ``sh:class``/``sh:node`` checks computed per
  focus recheck (the amplification the shared verdict cache bounds).

The run also asserts the subsystem's correctness claim (the streamed
store equals the from-scratch transform of the final graph, catalogs
included) so a perf number is never reported for a wrong result.

``REPRO_BENCH_QUICK=1`` shrinks the stream for smoke runs (CI).
"""

from __future__ import annotations

import os
import random
import time

from conftest import write_json_result, write_result

from repro.cdc import CDCConfig, CDCPipeline, Delta, replay_deltas
from repro.core import transform
from repro.eval import render_table
from repro.obs import histogram_from_samples, quantiles_from_histogram
from repro.pg import PropertyGraphStore
from repro.rdf.graph import Graph
from repro.shacl.validator import DeltaValidator

BENCH_QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Deltas in the stream (quick mode keeps CI in the seconds range).
N_DELTAS = 60 if BENCH_QUICK else 600
#: Triples per delta (mixed adds/removes).
DELTA_SIZE = 4
#: Ceiling on nested checks computed per focus recheck, a deterministic
#: count.  The quick stream measured 23.4 when every focus node started
#: from an empty memo, and 0.56 with verdicts shared across focus nodes.
MAX_AMPLIFICATION = 10


def _quantiles_ms(samples: list[float], qs: tuple) -> list[float]:
    """Histogram-derived quantiles in milliseconds (shared obs helper)."""
    histogram = histogram_from_samples(samples)
    return [
        round(q * 1000, 3) for q in quantiles_from_histogram(histogram, qs)
    ]


def _build_stream(graph: Graph) -> tuple[list, list[Delta], set]:
    """Split the dataset into a base graph and a delta history."""
    rng = random.Random(11)
    triples = sorted(graph, key=str)
    rng.shuffle(triples)
    n_stream_adds = min(len(triples) // 10, N_DELTAS * DELTA_SIZE)
    base = triples[n_stream_adds:]
    pending = triples[:n_stream_adds]
    current = set(base)
    removed_pool: list = []
    deltas: list[Delta] = []
    for seq in range(1, N_DELTAS + 1):
        added, removed = [], []
        for _ in range(DELTA_SIZE):
            roll = rng.random()
            if roll < 0.55 and pending:
                added.append(pending.pop())
            elif roll < 0.70 and removed_pool:
                added.append(removed_pool.pop())
            elif current:
                victim = rng.choice(sorted(current, key=str))
                if victim not in added:
                    removed.append(victim)
        for t in removed:
            if t in current:
                current.discard(t)
                removed_pool.append(t)
        current.update(added)
        if added or removed:
            deltas.append(Delta(seq, tuple(added), tuple(removed)))
    return base, deltas, current


def test_cdc_stream(benchmark, dbpedia2022_bundle):
    """Stream a delta history and report service-level measurements."""
    base, deltas, final = _build_stream(dbpedia2022_bundle.graph)
    shapes = dbpedia2022_bundle.shapes

    graph = Graph(base)
    result = transform(graph, shapes)
    store = PropertyGraphStore(result.graph)
    validator = DeltaValidator(shapes, graph)
    pipeline = CDCPipeline(
        result.transformed,
        graph,
        store=store,
        validator=validator,
        # One delta per batch: the replay pre-enqueues the whole stream,
        # so larger batches would merge every delta into one revalidation
        # pass and hide the per-delta service characteristics.
        config=CDCConfig(max_batch_size=1, max_linger_s=0.0),
    )

    revalidate_s: list[float] = []
    apply_delta = validator.apply_delta

    def timed_apply_delta(*args, **kwargs):
        start = time.perf_counter()
        try:
            return apply_delta(*args, **kwargs)
        finally:
            revalidate_s.append(time.perf_counter() - start)

    validator.apply_delta = timed_apply_delta

    # Service time: one batch is one delta (max_batch_size=1), timed from
    # dequeue until it is applied and revalidated.
    service_s: list[float] = []
    process_batch = pipeline._process_batch

    async def timed_process_batch(batch):
        start = time.perf_counter()
        try:
            await process_batch(batch)
        finally:
            service_s.append(time.perf_counter() - start)

    pipeline._process_batch = timed_process_batch
    nested_before = validator.total_nested_checks

    def run_stream():
        start = time.perf_counter()
        stats = replay_deltas(pipeline, deltas)
        return stats, time.perf_counter() - start

    stats, elapsed = benchmark.pedantic(run_stream, rounds=1, iterations=1)
    nested = validator.total_nested_checks - nested_before

    # Correctness first: the streamed result is the from-scratch result.
    scratch = transform(Graph(final), shapes).graph
    assert store.graph.structurally_equal(scratch)
    assert store.catalog_discrepancies() == []
    fresh = DeltaValidator(shapes, graph)
    assert validator.snapshot() == fresh.snapshot()

    # Delta-scoped revalidation inspects far fewer focus nodes than a
    # full recheck per batch would have.
    full_equivalent = validator.focus_count * stats.batches
    sparsity = (
        stats.focus_rechecked / full_equivalent if full_equivalent else 0.0
    )
    assert stats.focus_rechecked < full_equivalent

    amplification = nested / stats.focus_rechecked if stats.focus_rechecked else 0.0
    throughput = stats.deltas_applied / elapsed if elapsed else 0.0
    wall_ms_per_delta = 1000 * elapsed / max(stats.deltas_applied, 1)
    service_p50_ms, service_p99_ms = _quantiles_ms(service_s, (0.5, 0.99))
    (staleness_p99_ms,) = _quantiles_ms(stats.staleness, (0.99,))
    measurements = {
        "deltas_applied": stats.deltas_applied,
        "batches": stats.batches,
        "triples_added": stats.triples_added,
        "triples_removed": stats.triples_removed,
        "deltas_per_s": round(throughput, 1),
        "wall_ms_per_delta": round(wall_ms_per_delta, 3),
        "service_p50_ms": service_p50_ms,
        "service_p99_ms": service_p99_ms,
        "staleness_p99_ms": staleness_p99_ms,
        "focus_rechecked": stats.focus_rechecked,
        "focus_full_equivalent": full_equivalent,
        "recheck_fraction": round(sparsity, 4),
        "revalidate_ms_per_delta": round(
            1000 * sum(revalidate_s) / max(stats.deltas_applied, 1), 3
        ),
        "nested_checks": nested,
        "nested_checks_per_recheck": round(amplification, 2),
    }
    write_result(
        "cdc_stream.txt",
        render_table(
            [{"metric": key, "value": str(value)}
             for key, value in measurements.items()],
            title="CDC streaming (delta apply + delta-scoped revalidation)",
        ),
    )
    write_json_result(
        "cdc_stream", measurements,
        quick=BENCH_QUICK, n_deltas=len(deltas), delta_size=DELTA_SIZE,
    )

    assert stats.deltas_applied == len(deltas)
    assert stats.deltas_quarantined == 0
    assert len(service_s) == stats.batches
    # A per-delta service time, not a queue position: the median delta
    # cannot take much longer than the run's mean wall time per delta.
    assert service_p50_ms <= 2 * wall_ms_per_delta, (
        service_p50_ms, wall_ms_per_delta,
    )
    assert amplification < MAX_AMPLIFICATION, amplification
