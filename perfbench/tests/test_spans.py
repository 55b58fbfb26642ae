"""Span recording, attribute patching and the self-time arithmetic."""

import types

import pytest

from perfbench.spans import Patches, Span, SpanRecorder, covered, layer_self_seconds, self_times


def span(id, name, start, end, parent=None, request="req-0"):
    return Span(id=id, name=name, start=start, end=end, parent=parent, request=request)


def test_covered_unions_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == 4.0
    assert covered([(1.0, 2.0), (4.0, 6.0)], 0.0, 10.0) == 3.0
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert covered([(3.0, 4.0), (1.0, 8.0)], 0.0, 10.0) == 7.0


def test_self_time_subtracts_children_only():
    spans = [
        span(1, "root", 0.0, 10.0),
        span(2, "a", 1.0, 4.0, parent=1),
        span(3, "a.child", 2.0, 3.0, parent=2),
        span(4, "b", 6.0, 9.0, parent=1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(4.0)  # 10 - (3 + 3)
    assert own[2] == pytest.approx(2.0)  # 3 - 1; the grandchild is not subtracted twice
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_layer_seconds_are_per_operation_of_their_phase():
    spans = [
        span(1, "setup", 0.0, 4.0, request="setup-0"),
        span(2, "load", 0.0, 3.0, parent=1, request="setup-0"),
        span(3, "setup", 4.0, 6.0, request="setup-1"),
        span(4, "load", 4.0, 5.0, parent=3, request="setup-1"),
        span(5, "query", 10.0, 11.0, request="req-0"),
        span(6, "execute", 10.0, 10.5, parent=5, request="req-0"),
        span(7, "query", 11.0, 14.0, request="req-1"),
        span(8, "execute", 11.0, 13.5, parent=7, request="req-1"),
        span(9, "query", 14.0, 15.0, request="req-2"),
    ]
    phases = layer_self_seconds(spans)
    assert phases["setup"] == pytest.approx({"setup": 1.0, "load": 2.0})
    assert phases["req"] == pytest.approx({"query": 2.0 / 3, "execute": 1.0})
    # Per phase, the layers sum to the mean root duration.
    assert sum(phases["req"].values()) == pytest.approx((1.0 + 3.0 + 1.0) / 3)


def test_recorder_nests_and_tags_requests():
    recorder = SpanRecorder()
    recorder.request = "req-3"
    with recorder.span("outer") as outer:
        with recorder.span("inner") as inner:
            pass
    assert inner.parent == outer.id
    assert outer.parent is None
    assert {s.request for s in recorder.spans} == {"req-3"}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_recorder_rejects_out_of_order_close():
    recorder = SpanRecorder()
    outer = recorder.open("outer")
    recorder.open("inner")
    with pytest.raises(RuntimeError):
        recorder.close(outer)


def test_abandon_drops_the_request():
    recorder = SpanRecorder()
    recorder.request = "req-0"
    with recorder.span("kept"):
        pass
    recorder.request = "req-1"
    root = recorder.open("root")
    with recorder.span("orphan"):
        pass
    recorder.abandon(root)
    assert [s.name for s in recorder.spans] == ["kept"]


class Target:
    def method(self, x):
        return x + 1


def test_patches_wrap_and_restore_every_kind_of_attribute():
    module = types.ModuleType("m")
    module.function = lambda x: x * 2
    original_function = module.function
    instance = Target()
    recorder = SpanRecorder()
    with Patches(recorder) as patches:
        patches.trace(module, "function", "layer.module")
        patches.trace(Target, "method", "layer.class")
        patches.trace(instance, "method", "layer.instance")
        assert module.function(2) == 4
        assert Target().method(1) == 2
        assert instance.method(1) == 2
    assert [s.name for s in recorder.spans] == [
        "layer.module", "layer.class", "layer.class", "layer.instance",
    ]
    # The instance call nests the class wrapper inside the instance one.
    instance_span = recorder.spans[-1]
    assert recorder.spans[2].parent == instance_span.id
    assert module.function is original_function
    assert "method" not in vars(instance)
    assert Target.method.__name__ == "method" and not hasattr(Target.method, "__wrapped__")


def test_patching_a_missing_attribute_fails():
    with Patches(SpanRecorder()) as patches:
        with pytest.raises(AttributeError):
            patches.trace(Target, "renamed", "layer")
