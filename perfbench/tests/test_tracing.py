"""Self-time arithmetic and the wrapping tracer."""

import pytest

from tracing import Span, Tracer, layer_totals, self_times


def test_nested_children_are_subtracted_from_their_parent():
    spans = [Span("outer", 0.0, 10.0, -1),
             Span("mid", 1.0, 6.0, 0),
             Span("inner", 2.0, 3.0, 1)]
    assert self_times(spans) == pytest.approx([5.0, 4.0, 1.0])


def test_siblings_each_count_once():
    spans = [Span("parent", 0.0, 10.0, -1),
             Span("a", 1.0, 3.0, 0),
             Span("b", 4.0, 7.0, 0)]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0])


def test_overlapping_children_cover_their_union():
    # children on two threads may overlap; the union is 1..5
    spans = [Span("parent", 0.0, 10.0, -1),
             Span("a", 1.0, 4.0, 0),
             Span("b", 2.0, 5.0, 0)]
    assert self_times(spans)[0] == pytest.approx(6.0)


def test_child_time_outside_the_parent_is_clipped():
    spans = [Span("parent", 0.0, 2.0, -1), Span("late", 1.0, 3.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_inclusive_time_skips_nested_spans_of_the_same_name():
    spans = [Span("labels", 0.0, 10.0, -1),
             Span("labels", 1.0, 9.0, 0),   # subclass calling its base
             Span("solve", 2.0, 5.0, 1, rows=7),
             Span("labels", 20.0, 22.0, -1)]
    totals = layer_totals(spans)
    assert totals["labels"].calls == 3
    assert totals["labels"].inclusive_s == pytest.approx(12.0)
    assert totals["labels"].self_s == pytest.approx(2.0 + 5.0 + 2.0)
    assert totals["solve"].rows == 7


class Thing:
    def work(self, n):
        return self.helper(n) + 1

    def helper(self, n):
        return n * 2


def test_wrapped_methods_record_parents_and_are_restored():
    original = Thing.__dict__["work"]
    tracer = Tracer()
    tracer.wrap_method(Thing, "work", "work", rows=lambda self, n: n)
    tracer.wrap_method(Thing, "helper", "helper")
    try:
        assert Thing().work(3) == 7
    finally:
        tracer.uninstall()
    assert Thing.__dict__["work"] is original
    work, helper = tracer.spans
    assert (work.name, work.parent, work.rows) == ("work", -1, 3)
    assert (helper.name, helper.parent) == ("helper", 0)
    assert work.start <= helper.start <= helper.end <= work.end


def test_span_context_nests_under_wrapped_calls():
    tracer = Tracer()
    with tracer.span("request"):
        with tracer.span("inner"):
            pass
    assert [s.parent for s in tracer.spans] == [-1, 0]
    assert tracer.as_rows()[1][0] == "inner"
