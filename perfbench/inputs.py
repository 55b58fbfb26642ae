"""Input generation: the files each workload's run reads.

Runs in its own process (``python -m perfbench.inputs WORKLOAD SEED DIR``)
so that the generator's memory never counts toward the measured
process's peak RSS.  The program under test receives only these files;
the reference results stored next to them are computed here with the
``planner=False`` reference evaluator.

Files per workload:

* ``bulk``: ``data.nt`` (N-Triples), ``shapes.ttl`` (SHACL Turtle) and
  ``meta.json`` (the generated triple count);
* ``cdc``: ``base.snap`` (``RPROSNAP`` snapshot), ``shapes.ttl`` and
  ``deltas.jsonl`` (the delta log);
* ``fig6`` / ``join``: ``base.snap``, ``shapes.ttl`` and
  ``requests.json`` (query texts with their reference bags).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

#: Generator parameters per workload; ``tiny`` sizes serve the tests.
#: A ``cdc`` log repeats one cycle of ``2 * pool`` deltas ``cycles`` times.
SIZES = {
    "full": {
        "bulk": {"scale": 4.0},
        "cdc": {"scale": 0.5, "pool": 10, "cycles": 100, "checkpoint_every": 40},
        "fig6": {"scale": 1.0},
        "join": {"scale": 4.0},
    },
    "tiny": {
        "bulk": {"scale": 0.05},
        "cdc": {"scale": 0.05, "pool": 5, "cycles": 4, "checkpoint_every": 10},
        "fig6": {"scale": 0.05},
        "join": {"scale": 0.1},
    },
}

#: Triples per delta in the ``cdc`` log.
DELTA_SIZE = 4
#: Seed of the ``cdc`` delta pool.
POOL_SEED = 0
#: Share of a pool delta's triples that add a held-back triple; the
#: rest remove a present one (the 55 : 30 add : remove ratio of
#: ``benchmarks/bench_cdc_stream.py``).
ADD_SHARE = 0.55 / 0.85


def sizes(workload: str, tiny: bool) -> dict:
    return SIZES["tiny" if tiny else "full"][workload]


def build_pool(graph, n_deltas: int, rng: random.Random):
    """Split ``graph`` into a base and a pool of ``n_deltas`` deltas.

    Each of a delta's ``DELTA_SIZE`` triples either adds a held-back
    triple or removes a present one, and no triple is touched twice, so
    every delta changes the graph whatever order the pool is applied in.
    Returns ``(base, deltas)``; the deltas carry sequence number 0.
    """
    from repro.cdc import Delta

    triples = sorted(graph, key=str)
    rng.shuffle(triples)
    n_held = len(triples) // 10
    pending, base = triples[:n_held], triples[n_held:]
    victims = iter(base)
    deltas = []
    for _ in range(n_deltas):
        added, removed = [], []
        for _ in range(DELTA_SIZE):
            if rng.random() < ADD_SHARE and pending:
                added.append(pending.pop())
            else:
                removed.append(next(victims))
        deltas.append(Delta(0, tuple(added), tuple(removed)))
    return base, deltas


def build_cycle(pool) -> list:
    """Each delta of the pool, in its given order, followed by its inverse.

    Every delta meets the graph in the state it was drawn against (the
    base, or the base plus the delta it undoes), whatever the order, so
    a log that repeats the cycle applies the same deltas to the same
    states in every cycle.  Undoing an addition is a removal and undoing
    a removal is a re-add, which gives the add / re-add / remove mix of
    ``benchmarks/bench_cdc_stream.py``.
    """
    from repro.cdc import Delta

    cycle = []
    for delta in pool:
        cycle += [delta, Delta(0, delta.removed, delta.added)]
    return cycle


def _bag_to_json(bag) -> list:
    return sorted([list(row), count] for row, count in bag.items())


def bag_from_json(rows: list):
    """Inverse of the reference-bag encoding in ``requests.json``."""
    from collections import Counter

    return Counter({tuple(row): count for row, count in rows})


def generate(workload: str, seed: int, out: Path, tiny: bool = False) -> None:
    """Write ``workload``'s input files for ``seed`` into ``out``."""
    from repro.eval import load_dataset
    from repro.eval.metrics import normalize_cypher_rows, normalize_sparql_rows
    from repro.query import CypherEngine, SparqlEngine
    from repro.shacl.serializer import serialize_shacl
    from repro.storage import save_snapshot

    size = sizes(workload, tiny)
    out.mkdir(parents=True, exist_ok=True)
    if workload == "bulk":
        from repro.rdf.ntriples import write_ntriples

        bundle = load_dataset("dbpedia2022", scale=size["scale"], seed=seed)
        write_ntriples(bundle.graph, out / "data.nt")
        shapes = bundle.shapes
        meta = {"triples": len(bundle.graph)}
        (out / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    elif workload == "cdc":
        from repro.cdc import Delta, write_delta_log
        from repro.rdf.graph import Graph

        # The same inputs for every seed.  A delta's revalidation cost
        # grows with the number of referrers of the entities it touches,
        # so a fresh draw of data or pool per seed would change the work
        # of a run by a quarter or more.  The order of the pool changes
        # no delta's cost (``build_cycle``), only which delta also saves
        # a checkpoint, and that moved the median delta by a third.
        bundle = load_dataset("dbpedia2022", scale=size["scale"])
        base, pool = build_pool(bundle.graph, size["pool"], random.Random(POOL_SEED))
        cycle = build_cycle(pool)
        deltas = [
            Delta(seq, delta.added, delta.removed)
            for seq, delta in enumerate(cycle * size["cycles"], start=1)
        ]
        save_snapshot(Graph(base), out / "base.snap")
        write_delta_log(deltas, out / "deltas.jsonl")
        shapes = bundle.shapes
    elif workload == "fig6":
        from repro.datasets import dbpedia_workload

        bundle = load_dataset("dbpedia2022", scale=size["scale"], seed=seed)
        save_snapshot(bundle.graph, out / "base.snap")
        shapes = bundle.shapes
        reference = SparqlEngine(bundle.graph, planner=False)
        requests = [
            {
                "qid": query.qid,
                "lang": "sparql",
                "text": query.sparql,
                "reference": _bag_to_json(
                    normalize_sparql_rows(reference.query(query.sparql))
                ),
            }
            for query in dbpedia_workload(bundle.spec)
        ]
        (out / "requests.json").write_text(json.dumps(requests), encoding="utf-8")
    elif workload == "join":
        from repro.core import S3PG
        from repro.datasets.university import (
            UNIVERSITY_CYPHER_WORKLOAD,
            generate_university,
            university_shapes,
            university_workload,
        )
        from repro.pg import PropertyGraphStore

        graph = generate_university(scale=size["scale"], seed=seed)
        shapes = university_shapes()
        save_snapshot(graph, out / "base.snap")
        sparql = SparqlEngine(graph, planner=False)
        store = PropertyGraphStore(S3PG().transform(graph, shapes).graph)
        cypher = CypherEngine(store, planner=False)
        requests = [
            {
                "qid": qid,
                "lang": "sparql",
                "text": text,
                "reference": _bag_to_json(normalize_sparql_rows(sparql.query(text))),
            }
            for qid, _, text in university_workload()
        ] + [
            {
                "qid": qid,
                "lang": "cypher",
                "text": text,
                "reference": _bag_to_json(normalize_cypher_rows(cypher.query(text))),
            }
            for qid, _, text in UNIVERSITY_CYPHER_WORKLOAD
        ]
        (out / "requests.json").write_text(json.dumps(requests), encoding="utf-8")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (out / "shapes.ttl").write_text(serialize_shacl(shapes), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(SIZES["full"]))
    parser.add_argument("seed", type=int)
    parser.add_argument("out", type=Path)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    from perfbench import import_repro

    import_repro()
    generate(args.workload, args.seed, args.out, tiny=args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
