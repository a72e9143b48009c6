import threading

import pytest

from perfbench.spans import Span, SpanRecorder, covered_length, self_times


def span(span_id, start, end, parent=None):
    return Span(span_id, f"s{span_id}", "layer", start, end, parent)


def test_self_time_subtracts_children():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),
        span(2, 5.0, 6.0, parent=0),
        span(3, 2.0, 3.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(1.0)
    # The self times of one thread's spans add up to the root's duration.
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_overlapping_children_count_once_and_are_clipped():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 2.0, 6.0, parent=0),
        span(2, 4.0, 8.0, parent=0),
        span(3, 9.0, 12.0, parent=0),  # runs past its parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_covered_length_merges_intervals():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)


def test_recorder_links_parents_and_requests():
    rec = SpanRecorder()
    with rec.span("request", "bench") as root:
        with rec.span("call", "engine") as child:
            with rec.span("kernel", "batch") as grandchild:
                pass
    with rec.span("next", "bench") as other:
        pass
    assert child.parent == root.span_id
    assert grandchild.parent == child.span_id
    assert {root.request, child.request, grandchild.request} == {root.span_id}
    assert other.parent is None and other.request == other.span_id
    assert len(rec.spans) == 4


def test_threads_keep_separate_stacks():
    rec = SpanRecorder()
    ready = threading.Barrier(2)

    def client(name):
        with rec.span(name, "bench"):
            ready.wait(timeout=5)
            with rec.span(f"{name}-call", "pool"):
                pass

    threads = [threading.Thread(target=client, args=(n,)) for n in "ab"]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    by_name = {s.name: s for s in rec.spans}
    assert by_name["a-call"].parent == by_name["a"].span_id
    assert by_name["b-call"].parent == by_name["b"].span_id


def test_wrap_counts_after_the_span_closes():
    rec = SpanRecorder()
    seen = []
    traced = rec.wrap(lambda x: x * 2, "double", "layer",
                      count=lambda s, r: seen.append((s.end > 0, r)))
    assert traced(21) == 42
    assert seen == [(True, 42)]


def test_out_of_order_close_is_refused():
    rec = SpanRecorder()
    outer = rec.open("outer", "bench")
    rec.open("inner", "bench")
    with pytest.raises(RuntimeError):
        rec.close(outer)
