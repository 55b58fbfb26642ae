"""The ``cdc`` delta cycle: every delta changes the graph, and every
delta meets the same state in every cycle."""

import random

from perfbench.inputs import DELTA_SIZE, build_cycle, build_pool


def _apply(state: set, delta) -> bool:
    """Apply ``delta`` as the pipeline does; whether every triple took effect."""
    effective = all(t in state for t in delta.removed)
    state.difference_update(delta.removed)
    effective &= all(t not in state for t in delta.added)
    state.update(delta.added)
    return effective


def _graph():
    from repro.rdf.graph import Graph
    from repro.rdf.terms import IRI, Triple

    return Graph(
        Triple(IRI(f"http://x/s{i}"), IRI(f"http://x/p{i % 3}"), IRI(f"http://x/o{i % 7}"))
        for i in range(200)
    )


def test_pool_deltas_take_effect_in_any_order():
    graph = _graph()
    base, pool = build_pool(graph, 8, random.Random(0))
    assert set(base) < set(graph)
    assert all(len(delta) == DELTA_SIZE for delta in pool)
    for seed in range(5):
        random.Random(seed).shuffle(pool)
        state = set(base)
        assert all(_apply(state, delta) for delta in pool)


def test_every_delta_meets_the_same_state_in_every_cycle():
    base, pool = build_pool(_graph(), 8, random.Random(0))
    random.Random(3).shuffle(pool)
    cycle = build_cycle(pool)
    assert len(cycle) == 2 * len(pool)
    state = set(base)
    for delta in cycle * 2:
        before = frozenset(state)
        assert _apply(state, delta)
        if state != set(base):
            assert before == set(base)
    assert state == set(base)
