"""Each correctness gate passes on a right result and fires on a wrong one."""

from collections import Counter

import pytest

from perfbench.inputs import generate
from perfbench.workloads import Pass, Request, build_cdc, check_bulk, check_cdc, check_response


@pytest.fixture(scope="module")
def bulk_inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bulk")
    generate("bulk", 5, out, tiny=True)
    return out


@pytest.fixture(scope="module")
def cdc_inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("cdc")
    generate("cdc", 5, out, tiny=True)
    return out


def _convert(inputs):
    import json

    from repro.core import S3PG
    from repro.rdf.ntriples import parse_ntriples
    from repro.shacl.parser import parse_shacl

    graph = parse_ntriples(inputs / "data.nt")
    shapes = parse_shacl((inputs / "shapes.ttl").read_text(encoding="utf-8"))
    triples = json.loads((inputs / "meta.json").read_text())["triples"]
    return graph, S3PG().transform(graph, shapes), triples


def test_bulk_gate_passes_on_the_conversion(bulk_inputs):
    graph, result, triples = _convert(bulk_inputs)
    run = Pass(attempted=2)
    check_bulk(run, graph, result, triples, [triples, triples], ["d", "d"])
    assert run.failed == 0, run.failures


def test_bulk_gate_fires_on_a_dropped_edge(bulk_inputs):
    graph, result, triples = _convert(bulk_inputs)
    result.graph.remove_edge(next(iter(result.graph.edges)))
    run = Pass(attempted=2)
    check_bulk(run, graph, result, triples, [triples, triples], ["d", "d"])
    assert run.failed == 2


def test_bulk_gate_fires_on_lost_triples_and_other_bytes(bulk_inputs):
    graph, result, triples = _convert(bulk_inputs)
    run = Pass(attempted=3)
    check_bulk(run, graph, result, triples, [triples - 1, triples, triples], ["d", "x", "d"])
    assert run.failed == 2
    run = Pass(attempted=3)
    check_bulk(run, graph, result, triples, [triples - 1, triples, triples], ["x", "d", "d"])
    assert run.failed == 1


def _replay(inputs, tmp_path, deltas):
    from repro.cdc import replay_deltas

    shapes, pipeline = build_cdc(inputs, None, 10, tmp_path / "checkpoint")
    replay_deltas(pipeline, deltas)
    return shapes, pipeline


def test_cdc_gate_passes_when_every_delta_is_applied(cdc_inputs, tmp_path):
    from repro.cdc import read_delta_log

    deltas = read_delta_log(cdc_inputs / "deltas.jsonl")[:12]
    shapes, pipeline = _replay(cdc_inputs, tmp_path, deltas)
    run = Pass(attempted=12)
    check_cdc(run, pipeline, shapes, cdc_inputs)
    assert run.failed == 0, run.failures


def test_cdc_gate_fires_on_a_skipped_delta(cdc_inputs, tmp_path):
    from repro.cdc import read_delta_log

    deltas = read_delta_log(cdc_inputs / "deltas.jsonl")[:12]
    shapes, pipeline = _replay(cdc_inputs, tmp_path, deltas[:5] + deltas[6:])
    run = Pass(attempted=12)
    check_cdc(run, pipeline, shapes, cdc_inputs)
    assert run.failed == 12
    assert any("11 of 12 deltas applied" in why for why in run.failures)


def test_cdc_gate_fires_on_a_stale_standing_report(cdc_inputs, tmp_path):
    from repro.cdc import read_delta_log

    deltas = read_delta_log(cdc_inputs / "deltas.jsonl")[:12]
    shapes, pipeline = _replay(cdc_inputs, tmp_path, deltas)
    from repro.rdf.graph import Graph
    from repro.shacl.validator import DeltaValidator

    pipeline.validator = DeltaValidator(shapes, Graph())
    run = Pass(attempted=12)
    check_cdc(run, pipeline, shapes, cdc_inputs)
    assert run.failed == 12
    assert any("standing report" in why for why in run.failures)


def test_query_gate_fires_on_a_dropped_row():
    from repro.eval.metrics import normalize_sparql_rows
    from repro.rdf.terms import IRI, Literal

    rows = [{"e": IRI("http://x/a"), "p": Literal("1")}, {"e": IRI("http://x/b"), "p": Literal("2")}]
    request = Request("sparql", "Q1", "", normalize_sparql_rows(rows))
    run = Pass()
    check_response(run, request, rows)
    assert run.failed == 0
    check_response(run, request, rows[:1])
    assert run.failed == 1


def test_query_gate_compares_cypher_bags():
    # Columns sort by name: ("p", "s").
    request = Request("cypher", "C1", "", Counter({("1", "a"): 2}))
    run = Pass()
    check_response(run, request, [{"s": "a", "p": 1}, {"s": "a", "p": 1}])
    assert run.failed == 0
    check_response(run, request, [{"s": "a", "p": 1}])
    assert run.failed == 1
