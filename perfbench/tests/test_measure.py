"""Percentiles and the ten-samples-beyond rule."""

import random
import statistics

import pytest

from perfbench.measure import beyond, percentile, supports


def test_percentile_matches_inclusive_quantiles():
    values = [random.Random(7).expovariate(1.0) for _ in range(57)]
    cuts = statistics.quantiles(values, n=20, method="inclusive")
    for i, cut in enumerate(cuts, start=1):
        assert percentile(values, i / 20) == pytest.approx(cut)


def test_percentile_edges():
    assert percentile([3.0], 0.95) == 3.0
    assert percentile([1.0, 2.0], 0.0) == 1.0
    assert percentile([1.0, 2.0], 1.0) == 2.0
    assert percentile([1.0, 3.0], 0.5) == 2.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_p95_needs_200_samples():
    assert beyond(200, 0.95) == 10
    assert supports(200, 0.95)
    assert beyond(199, 0.95) == 9
    assert not supports(199, 0.95)


def test_p90_needs_100_samples():
    assert supports(100, 0.90)
    assert not supports(99, 0.90)


def test_median_of_twenty_is_supported():
    assert beyond(20, 0.5) == 10
    assert supports(20, 0.5)
    assert not supports(19, 0.5)





def _steady_host(pass_, seconds=0.001):
    """Probes of ``seconds`` every second from 0 to 100."""
    pass_.host.times = [float(t) for t in range(101)]
    pass_.host.seconds = [seconds] * 101
    return pass_


def test_steady_counts_whole_rounds_at_each_units_median_repeat():
    from perfbench.workloads import Pass

    run = _steady_host(Pass(period=2))
    samples = [("a", 0.3), ("b", 0.5), ("a", 0.2), ("b", 0.9), ("a", 0.25)]
    for t, (unit, seconds) in enumerate(samples):
        run.add_sample("sparql" if unit == "a" else "cypher", unit, t, t + seconds)
    # The third "a" starts a round that never completed; it still counts
    # toward "a"'s median.
    assert run.steady() == pytest.approx([0.25, 0.7, 0.25, 0.7])
    assert run.steady("cypher") == pytest.approx([0.7, 0.7])
    assert run.samples["sparql"] == pytest.approx([0.3, 0.2, 0.25])
    assert run.repeats() == {"a": 3, "b": 2}
    # Less than one whole round: every request counts.
    short = _steady_host(Pass(period=4))
    short.add_sample("delta", 0, 1.0, 1.1)
    assert short.steady() == pytest.approx([0.1])


def test_each_timing_is_scaled_by_the_probes_around_it():
    from perfbench.measure import PROBE_REF_S, HostProbe

    host = HostProbe(times=[0.0, 1.0, 2.0, 3.0, 4.0],
                     seconds=[PROBE_REF_S, 2 * PROBE_REF_S, 4 * PROBE_REF_S,
                              4 * PROBE_REF_S, PROBE_REF_S])
    # Between probes 1 and 2: the median of the two.
    assert host.scale(1.2, 1.8) == pytest.approx(1 / 3)
    # Probes 2 and 3 ran inside; 1 and 4 are the neighbours.
    assert host.scale(1.5, 3.5) == pytest.approx(1 / 3)
    # Before the first probe and after the last one.
    assert host.scale(-1.0, -0.5) == pytest.approx(1.0)
    assert host.scale(5.0, 6.0) == pytest.approx(1.0)


def test_end_to_end_figures_are_steady_and_at_the_reference_speed():
    from perfbench.run import end_to_end
    from perfbench.workloads import Pass

    run = _steady_host(Pass(unit_work=2.0, peak_rss_mb=40.0, period=3), seconds=0.002)
    for start, seconds in [(0, 3.0), (10, 1.0), (20, 2.0)]:
        run.add_setup(start, start + seconds)
    samples = [(0, 0.1), (1, 0.2), (2, 0.6), (0, 0.3), (1, 0.2), (2, 0.8), (0, 0.5)]
    for t, (unit, seconds) in enumerate(samples, start=30):
        run.add_sample("delta", unit, t, t + seconds)
    metrics = end_to_end("cdc", run)
    # The host ran at half the reference speed throughout.
    assert metrics["setup_s"] == pytest.approx(1.0)
    assert metrics["peak_rss_mb"] == 40.0
    # Steady samples: 0.15, 0.1, 0.35, each twice.
    assert metrics["throughput_per_s"] == pytest.approx(6 * 2.0 / 1.2)
    assert metrics["latency_p50_ms"] == pytest.approx(150.0)
    assert metrics["latency_tail_ms"] == pytest.approx(350.0)


def test_probes_run_during_a_long_request_and_are_accounted():
    import time

    from perfbench.measure import HostProbe

    host = HostProbe()
    host.tick()
    start = time.perf_counter()
    with host.during() as spent:
        while time.perf_counter() - start < 0.35:
            sum(range(1000))
    assert len(host.times) >= 3
    assert 0.0 < spent[0] < 0.35
    assert host.times == sorted(host.times)
