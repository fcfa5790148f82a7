"""Span arithmetic of the tracer, on toy layers driven by a fake clock."""

import types

import pytest

from tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


def test_self_time_is_duration_minus_children(clock):
    t = Tracer(clock)

    def leaf():
        clock.advance(3.0)

    def outer():
        clock.advance(1.0)
        leaf_b()
        clock.advance(2.0)
        leaf_b()

    leaf_b = t.wrap(leaf, "b")
    outer_a = t.wrap(outer, "a")
    outer_a()

    a, b = t.groups["a"], t.groups["b"]
    assert (a.calls, a.total_s, a.self_s) == (1, 9.0, 3.0)
    assert (b.calls, b.total_s, b.self_s) == (2, 6.0, 6.0)
    assert t.covered_s() == 9.0


def test_span_opens_only_at_a_layer_boundary(clock):
    t = Tracer(clock)

    def inner():
        clock.advance(1.0)

    inner_a = t.wrap(inner, "a", group="a.inner")

    def outer():
        clock.advance(1.0)
        inner_a()

    outer_a = t.wrap(outer, "a", group="a.outer")
    outer_a()
    assert t.groups["a.outer"].calls == 1
    assert t.groups["a.outer"].self_s == 2.0
    # the same-layer call ran untimed, inside the outer span
    assert t.groups["a.inner"].calls == 0
    inner_a()
    assert t.groups["a.inner"].calls == 1


def test_metered_call_opens_a_span_inside_its_own_layer(clock):
    t = Tracer(clock)

    def op():
        clock.advance(4.0)

    op_a = t.wrap(op, "a", group="a.op", metered=True)

    def outer():
        clock.advance(1.0)
        op_a()

    t.wrap(outer, "a")()
    assert t.groups["a.op"].calls == 1
    assert t.groups["a.op"].self_s == 4.0
    assert t.groups["a"].self_s == 1.0
    # the layer's self time is partitioned, not counted twice
    assert t.groups["a.op"].self_s + t.groups["a"].self_s == 5.0 == t.covered_s()


def test_nested_spans_of_one_group_count_once_in_total(clock):
    t = Tracer(clock)

    def op(depth):
        clock.advance(1.0)
        if depth:
            traced(depth - 1)

    traced = t.wrap(op, "a", group="a.op", metered=True)
    traced(2)
    g = t.groups["a.op"]
    assert g.calls == 3
    assert g.total_s == 3.0
    assert g.self_s == 3.0


def test_observer_time_is_charged_to_no_span(clock):
    t = Tracer(clock)

    def observe(args, result):
        clock.advance(5.0)
        t.count("seen", result)

    def leaf(x):
        clock.advance(1.0)
        return x + 1

    leaf_b = t.wrap(leaf, "b", observe=observe)

    def outer():
        clock.advance(2.0)
        return leaf_b(1)

    assert t.wrap(outer, "a")() == 2
    assert t.groups["a"].total_s == 8.0
    assert t.groups["a"].self_s == 2.0
    assert t.groups["b"].self_s == 1.0
    assert t.counters["seen"] == 2


def test_exception_closes_the_span(clock):
    t = Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap(boom, "a")()
    assert len(t.stack) == 1
    assert t.groups["a"].calls == 1
    assert t.groups["a"].self_s == 1.0


def test_rebind_and_restore(clock):
    t = Tracer(clock)

    def f():
        return 7

    class K:
        @staticmethod
        def s():
            return 1

        @classmethod
        def c(cls):
            return cls

        def m(self):
            return 2

    ns = types.SimpleNamespace(f=f)
    t.rebind(ns, "f", t.wrap(f, "a"))
    for name in ("s", "c", "m"):
        t.patch_method(K, name, "a")
    assert ns.f() == 7 and ns.f is not f
    assert (K.s(), K.c(), K().m()) == (1, K, 2)
    assert t.groups["a"].calls == 4
    t.restore()
    assert ns.f is f
    assert isinstance(K.__dict__["s"], staticmethod)
    assert K.__dict__["m"].__name__ == "m" and not hasattr(K.__dict__["m"], "__wrapped__")


def test_reset_keeps_wrappers(clock):
    t = Tracer(clock)
    g = t.wrap(lambda: clock.advance(1.0), "a")
    g()
    t.count("n", 3)
    t.reset()
    assert t.groups["a"].calls == 0 and t.counters == {}
    g()
    assert t.groups["a"].calls == 1
