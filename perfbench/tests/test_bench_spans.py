"""Span bookkeeping of the traced run: self times, nesting, undoing the wraps."""

import types

import numpy as np
import pytest

from spans import Tracer, self_times


def test_self_time_of_nested_spans():
    #   0 root      [0, 10]
    #   1  child    [1, 3]
    #   2  child    [4, 8]
    #   3   grand   [5, 6]
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 3.0, 8.0, 6.0]
    parent = [-1, 0, 0, 2]
    np.testing.assert_allclose(self_times(start, end, parent), [4.0, 2.0, 3.0, 1.0])
    # self times of a tree add up to the root's duration
    assert float(np.sum(self_times(start, end, parent))) == pytest.approx(10.0)


def test_child_is_clipped_to_its_parent():
    np.testing.assert_allclose(self_times([0.0, 4.0], [5.0, 7.0], [-1, 0]), [4.0, 3.0])


def test_overlapping_children_are_rejected():
    with pytest.raises(ValueError):
        self_times([0.0, 1.0, 2.0], [10.0, 3.0, 4.0], [-1, 0, 0])


def test_wrapped_calls_nest_and_count():
    tracer = Tracer()
    calls = []

    def leaf(v):
        return v + 1

    def outer(v):
        return ns.leaf(v) + ns.leaf(v)

    ns = types.SimpleNamespace(leaf=leaf, outer=outer)
    ns.leaf = tracer.wrap("x.leaf", leaf, lambda t, i, a, k, r: calls.append((i, a, r)))
    ns.outer = tracer.wrap("x.outer", outer)
    assert ns.outer(1) == 4
    sp = tracer.arrays()
    names = [tracer.names[i] for i in sp["name"]]
    assert names == ["x.outer", "x.leaf", "x.leaf"]
    assert list(sp["parent"]) == [-1, 0, 0]
    assert [(i, r) for i, _, r in calls] == [(1, 2), (2, 2)]
    own = self_times(sp["start"], sp["end"], sp["parent"])
    assert float(np.sum(own)) == pytest.approx(float(sp["end"][0] - sp["start"][0]))


def test_generator_spans_each_resumption_and_patch_is_undone():
    tracer = Tracer()

    def numbers(k):
        yield from range(k)

    ns = types.ModuleType("ns")
    ns.numbers = numbers
    tracer.patch(ns, "numbers", tracer.wrap_generator("x.numbers", numbers))
    outer = tracer.open("bench")
    for v in ns.numbers(5):
        if v == 2:
            break
    tracer.close(outer)
    sp = tracer.arrays()
    # three resumptions yielded 0, 1, 2; each is a child of the open span
    assert [tracer.names[i] for i in sp["name"]] == ["bench"] + ["x.numbers"] * 3
    assert list(sp["parent"]) == [-1, 0, 0, 0]
    tracer.uninstall()
    assert ns.numbers is numbers
