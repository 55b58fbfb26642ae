"""The four workloads: set-up from the input files, a measured loop, gates.

Every workload runs one client in one thread.  A *pass* sets up
``SETUPS`` times (the last set-up serves the requests), measures for the
requested seconds, reads the process's peak RSS and then runs its
correctness gates, so that gate work stays out of every figure.

Within the window the same requests come back again and again: a
conversion of one file (``bulk``), one cycle of deltas in which every
delta meets the same graph state each time (``cdc``), or one round of
every query (``fig6``, ``join``).  Each distinct request is a *unit*,
and every repeat of it does the same work (see ``Pass.steady``).

With a :class:`~perfbench.spans.SpanRecorder`, a pass also records spans
around the public calls into each layer.  Spans of set-up ``i`` carry
request id ``setup-i``; spans of request ``n`` carry ``req-n``.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import hashlib
import json
import math
import random
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .inputs import bag_from_json, sizes
from .measure import HostProbe, peak_rss_mb
from .spans import Patches, SpanRecorder

#: Set-ups per pass; ``setup_s`` is their median.
SETUPS = 3

#: The tail percentile each workload reports (``None``: the slowest
#: sample).  A run of ``bulk`` holds only a few conversions.
TAIL = {"bulk": None, "cdc": 0.95, "fig6": 0.95, "join": 0.95}

#: What one unit of ``throughput_per_s`` is, per workload.
WORK_UNIT = {"bulk": "triples", "cdc": "deltas", "fig6": "queries", "join": "queries"}


@dataclass
class Pass:
    """What one pass measured."""

    #: ``(seconds, start, end)`` of each set-up.
    setups: list[tuple[float, float, float]] = field(default_factory=list)
    #: Service seconds per request, by kind (``convert``, ``delta``,
    #: ``sparql``, ``cypher``).
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: ``(unit, seconds, start, end)`` of every request in the order they
    #: ran.  A unit is one distinct request: the conversion, a position
    #: in the delta cycle, or a request of the query round.
    log: list[tuple[object, float, float, float]] = field(default_factory=list)
    #: The kind of each unit.
    kinds: dict[object, str] = field(default_factory=dict)
    #: Requests in one whole round, in which every unit comes up equally
    #: often.
    period: int = 1
    #: Work one unit does, in ``WORK_UNIT``s (a conversion: its triples).
    unit_work: float = 1.0
    attempted: int = 0
    failed: int = 0
    #: Why operations failed (one line per gate that fired).
    failures: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Exact per-layer counts (``pg.nodes``, ``query.rows_per_request``...).
    counts: dict[str, float] = field(default_factory=dict)
    #: Host-speed probes, taken before each set-up and between requests.
    host: HostProbe = field(default_factory=HostProbe)

    def add_setup(self, start: float, end: float, seconds: float | None = None) -> None:
        self.setups.append((end - start if seconds is None else seconds, start, end))

    def add_sample(
        self, kind: str, unit, start: float, end: float, seconds: float | None = None
    ) -> None:
        """A request of ``unit`` that ran from ``start`` to ``end``.

        ``seconds`` is its service time when that is not ``end - start``.
        """
        seconds = end - start if seconds is None else seconds
        self.samples.setdefault(kind, []).append(seconds)
        self.log.append((unit, seconds, start, end))
        self.kinds[unit] = kind

    def repeats(self) -> dict[object, int]:
        """How often each unit ran."""
        return Counter(unit for unit, *_ in self.log)

    def setup_scaled(self) -> list[float]:
        """Each set-up's seconds at the reference host speed."""
        return [seconds * self.host.scale(start, end) for seconds, start, end in self.setups]

    def steady(self, kind: str | None = None) -> list[float]:
        """The requests of the whole rounds, each at its unit's typical time.

        The shared machine the benchmark runs on changes speed for
        seconds to minutes at a time, and the same work then reads up to
        1.6 times slower, on the process's CPU clock too.  So each
        request is first scaled to the reference host speed by the
        probes taken around it (:meth:`HostProbe.scale`), and each unit
        counts at the median of its scaled repeats.  Counting whole
        rounds only keeps the mix of units fixed: a median that falls
        between two units of different cost would otherwise follow the
        units that the window's last, partial round happened to reach.
        """
        scaled: dict[object, list[float]] = {}
        for unit, seconds, start, end in self.log:
            scaled.setdefault(unit, []).append(seconds * self.host.scale(start, end))
        typical = {unit: statistics.median(values) for unit, values in scaled.items()}
        whole = len(self.log) - len(self.log) % self.period or len(self.log)
        return [
            typical[unit]
            for unit, *_ in self.log[:whole]
            if kind is None or self.kinds[unit] == kind
        ]

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.failures.append(why)


class _WindowClosed(Exception):
    """Raised from the CDC completion hook when the window is over."""


def _span(recorder: SpanRecorder | None, name: str):
    return recorder.span(name) if recorder else contextlib.nullcontext()


def _patches(recorder: SpanRecorder | None, targets):
    """Trace ``(owner, attr, name)`` targets for the ``with`` body."""
    if recorder is None:
        return contextlib.nullcontext()
    patches = Patches(recorder)
    try:
        for owner, attr, name in targets:
            patches.trace(owner, attr, name)
    except BaseException:
        patches.restore()
        raise
    return patches


def _tag(recorder: SpanRecorder | None, request: str) -> None:
    if recorder is not None:
        recorder.request = request


def _transform_targets():
    from repro.core import S3PG

    return [(S3PG, "transform_schema", "core.schema")]


def _load_base(inputs: Path, recorder):
    """``load_snapshot`` + ``parse_shacl`` + transform + store load."""
    from repro.core import S3PG
    from repro.pg import PropertyGraphStore
    from repro.shacl.parser import parse_shacl
    from repro.storage import load_snapshot

    with _span(recorder, "storage.snapshot_load"):
        graph = load_snapshot(inputs / "base.snap")
    text = (inputs / "shapes.ttl").read_text(encoding="utf-8")
    with _span(recorder, "shacl.parse"):
        shapes = parse_shacl(text)
    with _patches(recorder, _transform_targets()), _span(recorder, "core.data"):
        result = S3PG().transform(graph, shapes)
    with _span(recorder, "pg.load"):
        store = PropertyGraphStore(result.graph)
    return graph, shapes, result, store


def _set_up(run: Pass, recorder, build):
    """Run ``build(recorder)`` ``SETUPS`` times; keep the last state."""
    for i in range(SETUPS):
        state = None
        gc.collect()
        run.host.tick()
        _tag(recorder, f"setup-{i}")
        start = time.perf_counter()
        with _span(recorder, "setup"):
            state = build(recorder)
        run.add_setup(start, time.perf_counter())
    return state


# --------------------------------------------------------------------- #
# bulk: repro transform + the Table 4 load
# --------------------------------------------------------------------- #

def _csv_digest(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def run_bulk(inputs: Path, seed: int, seconds: float, recorder=None, tiny=False) -> Pass:
    """Convert ``data.nt`` under ``shapes.ttl`` repeatedly for ``seconds``.

    One conversion: ``parse_ntriples`` -> ``parse_shacl`` ->
    ``S3PG().transform`` -> ``write_csv`` -> ``PropertyGraphStore``.
    The whole conversion is the user's set-up cost, so ``setup_s`` is
    its median.
    """
    from repro.core import S3PG
    from repro.pg import PropertyGraphStore
    from repro.pg.csv_io import write_csv
    from repro.rdf.ntriples import parse_ntriples
    from repro.shacl.parser import parse_shacl

    triples = json.loads((inputs / "meta.json").read_text())["triples"]
    run = Pass(unit_work=triples)
    out = inputs / "pg"
    digests, parsed = [], []
    graph = result = store = None
    start = time.perf_counter()
    with _patches(recorder, _transform_targets()):
        while not digests or time.perf_counter() - start < seconds:
            graph = result = store = None
            run.host.tick()
            _tag(recorder, f"req-{len(digests)}")
            t0 = time.perf_counter()
            # A conversion runs for seconds, so the host is also probed
            # while it runs; the probes' time is not the program's.
            with run.host.during() as probed, _span(recorder, "bulk.convert"):
                with _span(recorder, "rdf.parse"):
                    graph = parse_ntriples(inputs / "data.nt")
                text = (inputs / "shapes.ttl").read_text(encoding="utf-8")
                with _span(recorder, "shacl.parse"):
                    shapes = parse_shacl(text)
                with _span(recorder, "core.data"):
                    result = S3PG().transform(graph, shapes)
                with _span(recorder, "pg.csv"):
                    csv_paths = write_csv(result.graph, out)
                with _span(recorder, "pg.load"):
                    store = PropertyGraphStore(result.graph)
            end = time.perf_counter()
            run.add_sample("convert", "convert", t0, end, end - t0 - probed[0])
            run.add_setup(t0, end, end - t0 - probed[0])
            parsed.append(len(graph))
            digests.append(_csv_digest(csv_paths))
    run.peak_rss_mb = peak_rss_mb()
    run.attempted = len(digests)
    run.counts.update({
        "pg.nodes": store.node_count(),
        "pg.edges": store.edge_count(),
        "pg.csv_bytes": sum(Path(p).stat().st_size for p in csv_paths),
    })
    check_bulk(run, graph, result, triples, parsed, digests)
    return run


def check_bulk(run: Pass, graph, result, triples: int, parsed, digests) -> None:
    """Prop. 4.1 on the last conversion; the others must match it.

    ``M(F_dt(G))`` must equal the parsed input ``G`` modulo blank nodes,
    ``G`` must hold every generated triple, and every conversion must
    have written byte-identical CSV files to the verified last one.
    """
    from repro.core.inverse import pg_to_rdf
    from repro.rdf.graph import graphs_equal_modulo_bnodes

    if not graphs_equal_modulo_bnodes(pg_to_rdf(result.graph, result.mapping), graph):
        run.fail(len(digests), "M(F_dt(G)) differs from G")
        return
    lossy = {i for i, n in enumerate(parsed) if n != triples}
    if lossy:
        run.fail(len(lossy), f"{len(lossy)} parse(s) lost triples of {triples}")
    differing = {i for i, d in enumerate(digests) if d != digests[-1]} - lossy
    if differing:
        run.fail(len(differing), f"{len(differing)} conversion(s) wrote other CSV bytes")


# --------------------------------------------------------------------- #
# cdc: the repro serve --once path over a backlog
# --------------------------------------------------------------------- #

def build_cdc(inputs: Path, recorder, checkpoint_every: int, checkpoints: Path):
    """One CDC set-up: the pipeline over the base graph, and the shapes."""
    from repro.cdc import CDCConfig, CDCPipeline
    from repro.shacl.validator import DeltaValidator

    graph, shapes, result, store = _load_base(inputs, recorder)
    with _span(recorder, "shacl.validator_build"):
        validator = DeltaValidator(shapes, graph)
    shutil.rmtree(checkpoints, ignore_errors=True)
    pipeline = CDCPipeline(
        result.transformed,
        graph,
        store=store,
        validator=validator,
        config=CDCConfig(max_batch_size=1, checkpoint_every=checkpoint_every),
        checkpoint_dir=checkpoints,
    )
    return shapes, pipeline


def run_cdc(inputs: Path, seed: int, seconds: float, recorder=None, tiny=False) -> Pass:
    """Drain ``deltas.jsonl`` through ``CDCPipeline`` for ``seconds``.

    Set-up: ``load_snapshot`` + ``parse_shacl`` + ``S3PG().transform`` +
    store load + ``DeltaValidator`` + the pipeline (``repro serve``
    defaults except one delta per batch and a checkpoint every 40).
    A delta's service time runs from the previous delta's completion to
    its own, on a backlog that never empties during the window.  The
    log repeats one cycle of deltas that returns the graph to its base
    state, so a delta's unit is its position in the cycle, and whether
    it saved a checkpoint.
    """
    from repro.cdc import JsonlChangefeed
    from repro.core.incremental import IncrementalTransformer
    import repro.cdc.checkpoint as checkpoint_module

    run = Pass()
    checkpoints = inputs / "checkpoint"
    every = sizes("cdc", tiny)["checkpoint_every"]
    shapes, pipeline = _set_up(
        run, recorder, lambda rec: build_cdc(inputs, rec, every, checkpoints)
    )
    run.counts.update({
        "pg.nodes": pipeline.store.node_count(),
        "pg.edges": pipeline.store.edge_count(),
    })

    # (completed, resumed): a delta's end, and when the next one started
    # after the host probe that may follow it.
    completions: list[tuple[float, float]] = []
    original = pipeline._process_batch
    root = None

    async def process_batch(batch):
        nonlocal root
        await original(batch)
        done = time.perf_counter()
        run.host.tick()
        resumed = time.perf_counter()
        completions.append((done, resumed))
        if recorder is not None:
            recorder.close(root, end=done)
            _tag(recorder, f"req-{len(completions)}")
            root = recorder.open("cdc.delta", start=resumed)
        if done - start >= seconds:
            raise _WindowClosed

    pipeline._process_batch = process_batch
    targets = [
        (pipeline.graph, "add", "cdc.reduce"),
        (pipeline.graph, "remove", "cdc.reduce"),
        (IncrementalTransformer, "probe_additions", "core.incremental"),
        (IncrementalTransformer, "apply_additions", "core.incremental"),
        (IncrementalTransformer, "apply_deletions", "core.incremental"),
        (pipeline.validator, "apply_delta", "shacl.revalidate"),
        (checkpoint_module, "save_checkpoint", "cdc.checkpoint"),
    ]
    feed = JsonlChangefeed(inputs / "deltas.jsonl")
    with _patches(recorder, targets):
        _tag(recorder, "req-0")
        start = time.perf_counter()
        if recorder is not None:
            root = recorder.open("cdc.delta", start=start)
        try:
            asyncio.run(pipeline.run(feed))
        except _WindowClosed:
            pass
        finally:
            if recorder is not None:
                recorder.abandon(root)
    run.peak_rss_mb = peak_rss_mb()
    del pipeline._process_batch
    if not completions:
        raise RuntimeError("the pipeline completed no delta")
    cycle = 2 * sizes("cdc", tiny)["pool"]
    run.period = math.lcm(cycle, every)
    previous = start
    for i, (done, resumed) in enumerate(completions):
        # A delta that closes a checkpoint interval also saves one.
        unit = (i % cycle, (i + 1) % every == 0)
        run.add_sample("delta", unit, previous, done)
        previous = resumed
    run.attempted = len(completions)
    stats = pipeline.stats
    per_delta = stats.focus_rechecked / len(completions)
    run.counts.update({
        "shacl.focus_rechecked": per_delta,
        "shacl.recheck_ratio": per_delta / max(pipeline.validator.focus_count, 1),
        "cdc.checkpoint_bytes": sum(
            p.stat().st_size for p in checkpoints.glob("*") if p.is_file()
        ) if stats.checkpoints else 0,
    })
    check_cdc(run, pipeline, shapes, inputs)
    return run


def check_cdc(run: Pass, pipeline, shapes, inputs: Path) -> None:
    """Every offered delta applied; the result equals a fresh build.

    The first ``run.attempted`` deltas of the log must all be applied
    (none quarantined or skipped).  Replaying them onto the base graph
    must give the tracked graph; transforming that graph from scratch
    must give a store ``structurally_equal`` to the maintained one, with
    exact catalogs; and a fresh ``DeltaValidator`` must report exactly
    the standing report.  A failed end-state check fails every delta.
    """
    from repro.cdc import read_delta_log
    from repro.core import S3PG
    from repro.shacl.validator import DeltaValidator
    from repro.storage import load_snapshot

    offered = run.attempted
    stats = pipeline.stats
    missing = offered - stats.deltas_applied
    if missing or stats.deltas_quarantined or stats.deltas_skipped:
        run.fail(
            max(missing, stats.deltas_quarantined + stats.deltas_skipped),
            f"{stats.deltas_applied} of {offered} deltas applied "
            f"({stats.deltas_quarantined} quarantined, "
            f"{stats.deltas_skipped} skipped)",
        )
    expected = load_snapshot(inputs / "base.snap")
    for delta in read_delta_log(inputs / "deltas.jsonl")[:offered]:
        for triple in delta.removed:
            expected.remove(triple)
        for triple in delta.added:
            expected.add(triple)
    end_state = []
    if set(pipeline.graph) != set(expected):
        end_state.append("tracked graph differs from base + deltas")
    scratch = S3PG().transform(expected, shapes).graph
    if not pipeline.store.graph.structurally_equal(scratch):
        end_state.append("store differs from the from-scratch transform")
    if pipeline.store.catalog_discrepancies():
        end_state.append("store catalogs drifted")
    if pipeline.validator.snapshot() != DeltaValidator(shapes, expected).snapshot():
        end_state.append("standing report differs from a fresh validator")
    if end_state:
        run.fail(offered - run.failed, "; ".join(end_state))


# --------------------------------------------------------------------- #
# fig6 and join: closed-loop query serving
# --------------------------------------------------------------------- #

@dataclass
class Request:
    lang: str
    qid: str
    text: str
    reference: object


def check_response(run: Pass, request: Request, response) -> None:
    """The response's normalized bag must equal the request's reference."""
    from repro.eval.metrics import normalize_cypher_rows, normalize_sparql_rows

    normalize = normalize_sparql_rows if request.lang == "sparql" else normalize_cypher_rows
    if normalize(response) != request.reference:
        run.fail(1, f"{request.lang} {request.qid} differs from its reference")


def _query_targets():
    import repro.obs as obs
    import repro.query.cypher.parser as cypher_parser
    import repro.query.sparql.evaluator as sparql_evaluator
    import repro.query.sparql.parser as sparql_parser
    from repro.query import CypherEngine
    from repro.query.plan import CypherPlanner, SparqlPlanner

    return [
        (sparql_parser, "parse_sparql", "query.parse"),
        (cypher_parser, "parse_cypher", "query.parse"),
        (sparql_evaluator, "evaluate", "query.execute"),
        (CypherEngine, "evaluate", "query.execute"),
        (SparqlPlanner, "plan_bgp", "query.plan"),
        # Cypher plans each MATCH inside execute_match; its plan-cache
        # lookup is the one place that separates planning from execution.
        (CypherPlanner, "_lookup_plan", "query.plan"),
        (obs, "record_query", "obs.record"),
        (obs, "record_statement", "obs.record"),
    ]


def run_queries(
    workload: str, inputs: Path, seed: int, seconds: float, recorder=None, tiny=False
) -> Pass:
    """Serve ``requests.json`` in seeded rounds for ``seconds``.

    Set-up: ``load_snapshot`` + ``parse_shacl`` + ``S3PG().transform`` +
    store load + both engines + (``fig6``) the SPARQL-to-Cypher
    translation + one warm-up pass over every request.  Each round sends
    every request once, in an order drawn from the seed; a request is
    sent after the previous one returns.  Every response must equal its
    reference bag.
    """
    from repro.query import CypherEngine, SparqlEngine
    from repro.query.translate import SparqlToCypherTranslator

    run = Pass()
    specs = json.loads((inputs / "requests.json").read_text(encoding="utf-8"))

    def build(rec):
        graph, _, result, store = _load_base(inputs, rec)
        engines = {"sparql": SparqlEngine(graph), "cypher": CypherEngine(store)}
        requests = []
        translator = SparqlToCypherTranslator(result.mapping)
        for spec in specs:
            reference = bag_from_json(spec["reference"])
            requests.append(Request(spec["lang"], spec["qid"], spec["text"], reference))
            if workload == "fig6":
                # Query preservation (Def. 3.2): the translated Cypher
                # must return the SPARQL query's reference bag.
                requests.append(Request(
                    "cypher", spec["qid"],
                    translator.translate_text(spec["text"]), reference,
                ))
        with _span(rec, "setup.warmup"):
            for request in requests:
                engines[request.lang].query(request.text)
        return store, engines, requests

    store, engines, requests = _set_up(run, recorder, build)
    run.period = len(requests)
    caches = [engine.planner.cache for engine in engines.values()]
    before = [(c.hits, c.misses) for c in caches]
    rng = random.Random(seed)
    rows = 0
    start = time.perf_counter()
    with _patches(recorder, _query_targets()):
        while time.perf_counter() - start < seconds:
            order = list(enumerate(requests))
            rng.shuffle(order)
            for unit, request in order:
                _tag(recorder, f"req-{run.attempted}")
                t0 = time.perf_counter()
                with _span(recorder, "query.engine"):
                    response = engines[request.lang].query(request.text)
                run.add_sample(request.lang, unit, t0, time.perf_counter())
                run.attempted += 1
                rows += len(response)
                check_response(run, request, response)
                del response
                run.host.tick()
                if time.perf_counter() - start >= seconds:
                    break
    run.peak_rss_mb = peak_rss_mb()
    hits = sum(c.hits - h for c, (h, _) in zip(caches, before))
    misses = sum(c.misses - m for c, (_, m) in zip(caches, before))
    run.counts.update({
        "pg.nodes": store.node_count(),
        "pg.edges": store.edge_count(),
        "query.plan_cache_hit_ratio": hits / max(hits + misses, 1),
        "query.rows_per_request": rows / run.attempted,
    })
    return run


def run_pass(workload: str, inputs: Path, seed: int, seconds: float,
             recorder=None, tiny=False) -> Pass:
    """One pass of ``workload`` over the generated ``inputs``."""
    if workload == "bulk":
        return run_bulk(inputs, seed, seconds, recorder, tiny)
    if workload == "cdc":
        return run_cdc(inputs, seed, seconds, recorder, tiny)
    return run_queries(workload, inputs, seed, seconds, recorder, tiny)
