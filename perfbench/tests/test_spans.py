"""Span self-time arithmetic and in-place wrapping."""

import sys
import threading
import types

import pytest

from perfbench.spans import (
    Recorder,
    Span,
    covered,
    dump,
    load,
    self_times,
    summarize,
)


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent)


def test_nested_children_are_subtracted_once():
    root = _span("root", 0.0, 10.0)
    child = _span("child", 1.0, 6.0, root)
    grandchild = _span("grandchild", 2.0, 5.0, child)
    selves = self_times([root, child, grandchild])
    assert selves[id(root)] == pytest.approx(5.0)
    assert selves[id(child)] == pytest.approx(2.0)
    assert selves[id(grandchild)] == pytest.approx(3.0)


def test_back_to_back_children_add_up():
    root = _span("root", 0.0, 10.0)
    first = _span("a", 1.0, 4.0, root)
    second = _span("b", 4.0, 9.0, root)
    assert self_times([root, first, second])[id(root)] == pytest.approx(2.0)


def test_overlapping_children_count_their_union():
    root = _span("root", 0.0, 10.0)
    children = [_span("a", 1.0, 5.0, root), _span("b", 3.0, 7.0, root)]
    assert self_times([root] + children)[id(root)] == pytest.approx(4.0)


def test_children_are_clipped_to_the_parent():
    assert covered((2.0, 6.0), [(0.0, 3.0), (5.0, 9.0)]) == pytest.approx(2.0)
    assert covered((2.0, 6.0), []) == 0.0


def test_summarize_totals_calls_total_and_self():
    root = _span("op", 0.0, 4.0)
    spans = [root, _span("leaf", 0.0, 1.0, root), _span("leaf", 2.0, 3.0, root)]
    table = summarize(spans)
    assert table["leaf"] == {"calls": 2, "total": 2.0, "self": 2.0}
    assert table["op"] == {"calls": 1, "total": 4.0, "self": 2.0}


def test_recorder_links_parents_per_thread_and_tags_ops():
    recorder = Recorder()
    recorder.set_op(7)
    outer = recorder.open("outer")
    inner = recorder.open("inner")
    recorder.close(inner)
    other = []
    thread = threading.Thread(
        target=lambda: other.append(recorder.call("elsewhere", int, (), {})))
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    recorder.close(outer)
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["inner"].parent is outer
    assert by_name["elsewhere"].parent is None
    assert by_name["inner"].op == 7


def test_patch_wraps_in_place_and_unpatch_restores():
    module = types.ModuleType("perfbench_patch_target")

    def double(x):
        return 2 * x

    class Thing:
        def size(self):
            return 3

    module.double = double
    module.Thing = Thing
    sys.modules[module.__name__] = module
    try:
        recorder = Recorder()
        recorder.patch(f"{module.__name__}:double", "double",
                       tag=lambda args, kwargs: args[0])
        recorder.patch(f"{module.__name__}:Thing.size", "size")
        assert module.double(4) == 8
        assert Thing().size() == 3
        assert [(s.name, s.tag) for s in recorder.spans] == [
            ("double", 4), ("size", None)]
        recorder.unpatch()
        assert module.double is double
        assert Thing.__dict__["size"] is not None
        assert Thing().size() == 3 and len(recorder.spans) == 2
    finally:
        del sys.modules[module.__name__]


def test_dump_and_load_keep_parents_and_self_times(tmp_path):
    recorder = Recorder()
    outer = recorder.open("outer", op=3, tag="t")
    recorder.close(recorder.open("inner"))
    recorder.close(outer)
    path = str(tmp_path / "spans.json")
    dump(recorder.spans, path)
    loaded = load(path)
    assert [(s.name, s.op, s.tag) for s in loaded] == [
        ("inner", 3, None), ("outer", 3, "t")]
    assert loaded[0].parent is loaded[1]
    assert list(self_times(loaded).values()) == pytest.approx(
        list(self_times(recorder.spans).values()))


def test_counting_recorder_counts_calls_and_keeps_no_spans():
    counter = Recorder(keep_spans=False)
    wrapped = counter.wrap(lambda x: x + 1, "inc")
    assert [wrapped(i) for i in range(3)] == [1, 2, 3]
    assert counter.counts == {"inc": 3} and counter.spans == []


def test_patch_skips_a_binding_that_already_holds_its_wrapper():
    module = types.ModuleType("perfbench_patch_twice")
    module.f = lambda: 1
    sys.modules[module.__name__] = module
    try:
        recorder = Recorder()
        recorder.patch(f"{module.__name__}:f", "f")
        module.g = module.f  # a caller that imported the wrapper by name
        recorder.patch(f"{module.__name__}:g", "f")
        module.g()
        assert len(recorder.spans) == 1
        recorder.unpatch()
        assert module.f() == 1 and module.g is not module.f
    finally:
        del sys.modules[module.__name__]
