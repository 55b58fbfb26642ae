"""Edge cases of the vectorized batch operators.

Each test pins a batch-boundary hazard of
:mod:`repro.query.plan.vectorized` against the naive (``planner=False``)
evaluators: batches straddling LIMIT, empty batches, OPTIONAL null
columns around ``BatchHashJoin``, self-loops through ``BatchExpand``,
and a batch-size sweep (``BATCH_SIZE`` monkeypatched) asserting
identical bags at sizes 1, 2, and 1024.
"""

from __future__ import annotations

from array import array

import pytest

from repro.eval.metrics import normalize_cypher_rows, normalize_sparql_rows
from repro.pg.model import PropertyGraph
from repro.pg.store import PropertyGraphStore
from repro.query.cypher.evaluator import CypherEngine
from repro.query.plan import vectorized
from repro.query.sparql.evaluator import SparqlEngine
from repro.rdf.graph import Graph, Triple
from repro.rdf.terms import IRI, Literal
from repro.storage.postings import IntPostings

EX = "http://ex/"


def _person_graph(n: int = 50) -> Graph:
    g = Graph()
    rdf_type = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
    for i in range(n):
        p = IRI(EX + f"p/{i}")
        g.add(Triple(p, rdf_type, IRI(EX + "Person")))
        g.add(Triple(p, IRI(EX + "name"), Literal(f"name{i:03d}")))
        g.add(Triple(p, IRI(EX + "knows"), IRI(EX + f"p/{(i * 7) % n}")))
    return g


def _pg() -> PropertyGraph:
    pg = PropertyGraph()
    for i in range(30):
        pg.add_node(f"p{i}", {"Person"}, {"name": f"n{i:02d}", "age": i % 7})
    for i in range(30):
        pg.add_edge(f"p{i}", f"p{(i * 11) % 30}", {"KNOWS"})
        if i % 5 == 0:
            pg.add_edge(f"p{i}", f"p{i}", {"KNOWS"})  # self-loops
    pg.add_edge("p1", "p2", {"KNOWS", "LIKES"})  # multi-label edge
    return pg


def _sparql_bags(graph, query, **kwargs):
    return {
        "reference": normalize_sparql_rows(
            SparqlEngine(graph, planner=False).query(query)
        ),
        "batched": normalize_sparql_rows(
            SparqlEngine(graph, **kwargs).query(query)
        ),
    }


def _cypher_bags(store, query, **kwargs):
    return {
        "reference": normalize_cypher_rows(
            CypherEngine(store, planner=False).query(query)
        ),
        "batched": normalize_cypher_rows(
            CypherEngine(store, **kwargs).query(query)
        ),
    }


def _assert_modes_agree(bags, query):
    assert bags["batched"] == bags["reference"], query


# --------------------------------------------------------------------- #
# LIMIT straddling batch boundaries
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("batch_size", [1, 2, 7, 1024])
@pytest.mark.parametrize("limit", [1, 7, 8, 9, 49, 200])
def test_sparql_limit_straddles_batches(batch_size, limit, monkeypatch):
    """ORDER BY + LIMIT must cut at the same rows regardless of how the
    result bag was chunked into batches (including limits equal to, one
    below, and one past a batch boundary)."""
    g = _person_graph()
    q = (
        f"SELECT ?s ?n WHERE {{ ?s a <{EX}Person> . ?s <{EX}name> ?n . }} "
        f"ORDER BY ?n LIMIT {limit}"
    )
    expected = SparqlEngine(g, planner=False).query(q)
    monkeypatch.setattr(vectorized, "BATCH_SIZE", batch_size)
    got = SparqlEngine(g).query(q)
    assert [r["n"].lexical for r in got] == [r["n"].lexical for r in expected]


@pytest.mark.parametrize("limit", [1, 5, 30, 99])
def test_cypher_limit_straddles_batches(limit, monkeypatch):
    store = PropertyGraphStore(_pg())
    q = f"MATCH (a:Person) RETURN a.name ORDER BY a.name LIMIT {limit}"
    expected = CypherEngine(store, planner=False).query(q)
    for batch_size in (1, 2, 1024):
        monkeypatch.setattr(vectorized, "BATCH_SIZE", batch_size)
        got = CypherEngine(store).query(q)
        assert got == expected, batch_size


# --------------------------------------------------------------------- #
# Empty batches / empty inputs
# --------------------------------------------------------------------- #

def test_empty_results_all_modes():
    g = _person_graph(5)
    store = PropertyGraphStore(_pg())
    sparql = [
        f"SELECT ?s WHERE {{ ?s a <{EX}Nothing> . }}",
        f"SELECT ?s ?n WHERE {{ ?s a <{EX}Person> . ?s <{EX}missing> ?n . }}",
        # ?x binds to literals in the first pattern, so the second
        # probes with a literal subject — dead at run time.
        f"SELECT ?o WHERE {{ ?s <{EX}name> ?x . ?x <{EX}name> ?o . }}",
    ]
    for q in sparql:
        bags = _sparql_bags(g, q)
        assert not bags["reference"]
        _assert_modes_agree(bags, q)
    cypher = [
        "MATCH (a:Ghost) RETURN a.name",
        "MATCH (a:Person)-[:MISSING]->(b) RETURN a.name",
        "MATCH (a:Person {age: 99}) RETURN a.name",
    ]
    for q in cypher:
        bags = _cypher_bags(store, q)
        assert not bags["reference"]
        _assert_modes_agree(bags, q)


def test_empty_graph_all_modes():
    g = Graph()
    q = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o . ?o <{EX}q> ?x . }}"
    _assert_modes_agree(_sparql_bags(g, q), q)
    store = PropertyGraphStore(PropertyGraph())
    cq = "MATCH (a)-[:R]->(b) RETURN a.name"
    _assert_modes_agree(_cypher_bags(store, cq), cq)


# --------------------------------------------------------------------- #
# OPTIONAL null columns around the batched hash join
# --------------------------------------------------------------------- #

def test_optional_null_shared_var_through_batched_join():
    """OPTIONAL MATCH binds some rows to null; a later MATCH sharing the
    variable must treat null as unbound (rebind), which a hash-join key
    cannot express — the planner must take the correlated fallback and
    agree with the reference, even with hash joins forced."""
    pg = _pg()
    pg.add_node("lonely", {"Person"}, {"name": "zz"})  # no KNOWS edges
    store = PropertyGraphStore(pg)
    q = (
        "MATCH (a:Person) "
        "OPTIONAL MATCH (a)-[:LIKES]->(b) "
        "MATCH (b)-[:KNOWS]->(c) "
        "RETURN a.name, b.name, c.name"
    )
    bags = _cypher_bags(store, q)
    assert bags["reference"], "query must return rows for the check to bite"
    _assert_modes_agree(bags, q)
    forced = _cypher_bags(store, q, force_join="hash")
    _assert_modes_agree(forced, q)


def test_optional_rows_survive_batched_bgp():
    """OPTIONAL groups run downstream of the batched BGP; unmatched rows
    keep their null extension."""
    g = _person_graph(10)
    g.add(Triple(IRI(EX + "p/3"), IRI(EX + "nick"), Literal("trey")))
    q = (
        f"SELECT ?s ?n ?k WHERE {{ ?s a <{EX}Person> . ?s <{EX}name> ?n . "
        f"OPTIONAL {{ ?s <{EX}nick> ?k . }} }}"
    )
    bags = _sparql_bags(g, q)
    assert any("k" in row for row in SparqlEngine(g, planner=False).query(q))
    _assert_modes_agree(bags, q)


# --------------------------------------------------------------------- #
# Self-loops through BatchExpand
# --------------------------------------------------------------------- #

def test_self_loops_directed_and_undirected():
    store = PropertyGraphStore(_pg())
    queries = [
        # Directed: a self-loop matches (a)-[:KNOWS]->(a).
        "MATCH (a:Person)-[:KNOWS]->(a) RETURN a.name",
        # Undirected: openCypher yields a self-loop once, not twice.
        "MATCH (a:Person)-[:KNOWS]-(b) RETURN a.name, b.name",
        # Unconstrained undirected expansion over multi-label edges.
        "MATCH (a)-[r]-(b) RETURN a.name, b.name",
    ]
    for q in queries:
        bags = _cypher_bags(store, q)
        assert bags["reference"], q
        _assert_modes_agree(bags, q)


def test_rel_var_equals_node_var_is_empty():
    """-[x]->(x) can never match: the same variable cannot be both the
    edge and its endpoint."""
    store = PropertyGraphStore(_pg())
    q = "MATCH (a:Person)-[x:KNOWS]->(x) RETURN a.name"
    _assert_modes_agree(_cypher_bags(store, q), q)
    assert CypherEngine(store).query(q) == []


# --------------------------------------------------------------------- #
# Batch-size sweep
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("batch_size", [1, 2, 1024])
def test_batch_size_sweep_sparql(batch_size, monkeypatch):
    g = _person_graph()
    queries = [
        f"SELECT ?s ?n WHERE {{ ?s a <{EX}Person> . ?s <{EX}name> ?n . }}",
        f"SELECT ?a ?b WHERE {{ ?a <{EX}knows> ?b . ?b <{EX}knows> ?a . }}",
        f"SELECT ?x WHERE {{ ?x <{EX}knows> ?x . }}",
        f"SELECT ?s ?p ?o WHERE {{ ?s ?p ?o . }}",
    ]
    monkeypatch.setattr(vectorized, "BATCH_SIZE", batch_size)
    for q in queries:
        _assert_modes_agree(_sparql_bags(g, q), q)


@pytest.mark.parametrize("batch_size", [1, 2, 1024])
def test_batch_size_sweep_cypher(batch_size, monkeypatch):
    store = PropertyGraphStore(_pg())
    queries = [
        "MATCH (a:Person)-[:KNOWS]->(b) RETURN a.name, b.name",
        "MATCH (a)-[:KNOWS]->(b)-[:KNOWS]->(c) RETURN a.name, c.name",
        "MATCH (a:Person {age: 3}) RETURN a.name",
    ]
    monkeypatch.setattr(vectorized, "BATCH_SIZE", batch_size)
    for q in queries:
        _assert_modes_agree(_cypher_bags(store, q), q)


# --------------------------------------------------------------------- #
# Storage batch-read API
# --------------------------------------------------------------------- #

def test_postings_extend_into():
    postings = IntPostings()
    for v in (5, 1, 9, 3):
        postings.add(v)
    out = array("q", [42])
    assert postings.extend_into(out) == 4
    assert list(out) == [42, 1, 3, 5, 9]


def test_store_endpoint_arrays_track_version():
    pg = _pg()
    store = PropertyGraphStore(pg)
    src, dst = store.endpoint_arrays()
    names = store._names
    for edge in pg.edges.values():
        eid = names.lookup(edge.id)
        assert names.value(src[eid]) == edge.src
        assert names.value(dst[eid]) == edge.dst
    assert store.endpoint_arrays()[0] is src  # cached per version
    node_ids = store.node_id_array()
    assert {names.value(i) for i in node_ids} == set(pg.nodes)


def test_exec_mode_knob_is_gone():
    """Batched is the only planned executor: there is no mode to pick."""
    with pytest.raises(TypeError):
        SparqlEngine(Graph(), exec_mode="batched")
