"""Self-time arithmetic and the outside-in wrappers."""

import types

import pytest

from perfbench import spans
from perfbench.spans import Point, Tracer, self_times


def test_self_times_on_a_nested_tree():
    tree = [
        [0, -1, 0, 100],  # root: 100 long
        [1, 0, 10, 30],   # child: 20, with a 5-long grandchild
        [2, 1, 15, 20],
        [1, 0, 40, 70],   # second child: 30
        [3, -1, 200, 210],  # second root, no children
    ]
    assert self_times(tree) == [100 - 20 - 30, 20 - 5, 5, 30, 10]


def test_self_times_clip_children_and_count_overlap_once():
    tree = [
        [0, -1, 0, 50],
        [1, 0, 10, 30],
        [1, 0, 20, 40],   # overlaps the first child by 10
        [1, 0, 45, 60],   # runs past the parent's end
    ]
    covered = (40 - 10) + (50 - 45)
    assert self_times(tree)[0] == 50 - covered


def _fake_package():
    module = types.ModuleType("fakepkg")

    def leaf(x):
        return x if x > 0 else None

    def inner(x):
        return [module.leaf(x), module.leaf(-x)]

    def outer(x):
        if x == 0:
            raise KeyError("zero")
        return module.inner(x)

    module.leaf, module.inner, module.outer = leaf, inner, outer
    return module


def test_tracer_counts_calls_hits_and_nesting(monkeypatch):
    module = _fake_package()
    monkeypatch.setitem(__import__("sys").modules, "fakepkg", module)
    monkeypatch.setattr(spans, "RAISE_COUNTERS", {("outer", "KeyError"): "zeros"})
    points = (
        Point("fakepkg", "outer", "outer"),
        Point("fakepkg", "inner", "inner"),
        Point("fakepkg", "leaf", "leaf", "hits", spans._is_hit),
    )
    tracer = Tracer(span_cap=4)
    originals = (module.outer, module.inner, module.leaf)
    tracer.install(points)
    try:
        module.outer(3)
        tracer.end_operation()
        with pytest.raises(KeyError):
            module.outer(0)
        tracer.end_operation()
    finally:
        tracer.uninstall()
    assert (module.outer, module.inner, module.leaf) == originals
    assert dict(tracer.calls) == {"outer": 2, "inner": 1, "leaf": 2}
    assert tracer.counters["leaf.hits"] == 1
    assert tracer.counters["outer.zeros"] == 1
    # The first operation's spans: outer <- inner <- leaf, leaf; capped at four.
    assert [(op, tracer.names[nid], parent) for op, _, nid, parent, _, _ in tracer.kept] == [
        (0, "outer", -1), (0, "inner", 0), (0, "leaf", 1), (0, "leaf", 1),
    ]
    assert all(ns >= 0 for ns in tracer.self_ns.values())


def test_every_point_names_a_real_attribute():
    import importlib

    for point in spans.POINTS:
        module = importlib.import_module(point.module)
        assert callable(getattr(module, point.attr)), point
