import types

import pytest

from tracing import HOOK_SPAN, Span, Tracer, covered, repeat_frac, self_times, unique_frac


def test_self_time_of_nested_spans():
    spans = [Span("a", 0.0, 10.0),
             Span("b", 1.0, 4.0, parent=0),
             Span("c", 5.0, 7.0, parent=0),
             Span("d", 2.0, 3.0, parent=1)]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a", 0.0, 10.0),
             Span("b", 1.0, 6.0, parent=0),
             Span("c", 4.0, 8.0, parent=0),      # overlaps b on [4, 6]
             Span("d", 2.0, 3.0, parent=0),      # inside b
             Span("e", 9.0, 12.0, parent=0)]     # runs past the parent's end
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_covered_clips_to_the_interval():
    assert covered(0.0, 1.0, []) == 0.0
    assert covered(2.0, 4.0, [(0.0, 1.0), (1.0, 3.0), (3.5, 9.0)]) == pytest.approx(1.5)


def test_repeat_frac_is_per_operation():
    calls = [(1, "a"), (1, "b"), (1, "a"), (2, "a"), (2, "a"), (2, "b")]
    # op 1 repeats "a" once; op 2 sees "a" anew, then repeats it once
    assert repeat_frac(calls) == pytest.approx(2 / 6)
    assert repeat_frac([]) == 0.0


def test_unique_frac_is_per_operation():
    rows = [(1, "r1"), (1, "r2"), (1, "r1"), (1, "r1"), (2, "r1")]
    assert unique_frac(rows) == pytest.approx(3 / 5)
    assert unique_frac([]) == 0.0
    # an epoch loop over the same rows: unique_frac is 1/epochs
    epochs = [(1, row) for _ in range(4) for row in range(10)]
    assert unique_frac(epochs) == pytest.approx(1 / 4)


def _module_with(fn):
    mod = types.ModuleType("fake")
    mod.work = fn
    mod.alias = fn
    return mod


def test_wrapper_records_spans_probes_and_restores():
    def work(x):
        return x * 2

    mod = _module_with(work)
    tracer = Tracer()
    tracer.op = 3
    tracer.patch([mod], work, "fake.work", lambda a, k, r: tracer.add("fake.work.rows", a[0]))
    assert mod.work is mod.alias and mod.work is not work
    assert mod.alias(5) == 10
    tracer.restore()
    assert mod.work is work and mod.alias is work and tracer.restored()
    names = [s.name for s in tracer.spans]
    assert names == ["fake.work", HOOK_SPAN]
    assert tracer.spans[0].op == 3 and tracer.spans[1].parent == -1
    assert tracer.counts[(3, "fake.work.rows")] == 5


def test_wrapper_marks_a_raising_call_and_keeps_nesting():
    def inner():
        raise ValueError("boom")

    def outer():
        return mod.inner()

    mod = types.ModuleType("fake")
    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    tracer.patch([mod], inner, "fake.inner")
    tracer.patch([mod], outer, "fake.outer")
    with pytest.raises(ValueError):
        mod.outer()
    tracer.restore()
    outer_span, inner_span = tracer.spans
    assert inner_span.parent == 0 and inner_span.error and outer_span.error
    assert mod.inner is inner and mod.outer is outer


def test_patch_rejects_a_function_nobody_holds():
    with pytest.raises(LookupError):
        Tracer().patch([types.ModuleType("empty")], len, "builtins.len")
