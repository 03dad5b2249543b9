import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tima.errors import (
    DegenerateRow,
    InvalidTemperature,
    NonFiniteValue,
    NonScalarLoss,
    ShapeMismatch,
)
from tima.tensor import (
    Tensor,
    backward,
    l2_normalize_rows,
    log_softmax_backward,
    log_softmax_forward,
    normalize_rows_backward,
    normalize_rows_forward,
)

from oracles import (
    add_rowvec,
    finite_diff_grad,
    plain_log_softmax,
    plain_log_softmax_backward,
    plain_normalize_rows,
    plain_normalize_rows_backward,
    plain_row_norm_error,
    row_log_softmax,
)

REL_TOL = 1e-4
ABS_FLOOR = 1e-7


def assert_grads_close(analytic, numeric):
    denom = np.maximum(np.abs(numeric), ABS_FLOOR / REL_TOL)
    assert np.max(np.abs(analytic - numeric) / denom) < REL_TOL


def grad_of(f, x):
    xt = Tensor(x)
    return backward(f(xt), [xt])[xt]


class TestBasicOps:
    def test_square_gradient(self):
        x = Tensor(3.0)
        loss = x * x
        assert backward(loss, [x])[x] == pytest.approx(6.0)

    def test_finite_diff_square(self):
        g = finite_diff_grad(lambda v: float(v) ** 2, np.array(3.0), h=1e-5)
        assert g == pytest.approx(6.0, abs=1e-6)

    def test_finite_diff_exp(self):
        g = finite_diff_grad(lambda v: float(np.exp(v)), np.array(0.0), h=1e-5)
        assert g == pytest.approx(1.0, abs=1e-6)

    def test_matmul_sum_matches_backward(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))

        def f(av):
            return (Tensor(av) @ Tensor(b)).sum().item()

        assert_grads_close(grad_of(lambda t: (t @ Tensor(b)).sum(), a),
                           finite_diff_grad(f, a))

    def test_detached_leaf_gets_exact_zero(self):
        x = Tensor(np.array([1.0, 2.0]))
        w = Tensor(np.array([5.0, 5.0]))
        loss = (x * x).sum()
        g = backward(loss, [w])[w]
        assert g.shape == (2,)
        assert np.all(g == 0.0)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((2, 2)))
        with pytest.raises(NonScalarLoss):
            backward(x + x)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            Tensor(np.ones((2, 3))) + Tensor(np.ones((3, 2)))
        with pytest.raises(ShapeMismatch):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))

    def test_non_finite_raises_at_producing_op(self):
        with pytest.raises(NonFiniteValue):
            Tensor(np.array([1.0])) / Tensor(np.array([0.0]))
        with pytest.raises(NonFiniteValue):
            Tensor(np.array([1000.0])).exp()

    def test_second_backward_identical(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 5)))
        loss = (l2_normalize_rows(x) @ Tensor(rng.normal(size=(5, 2)))).tanh().sum()
        g1 = backward(loss, [x])[x]
        g2 = backward(loss, [x])[x]
        assert np.array_equal(g1, g2)

    def test_scalar_broadcast(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        loss = (x * 2.0 + 1.0).sum()
        assert np.all(backward(loss, [x])[x] == 2.0)


class TestNormalizeRows:
    def test_unit_rows(self):
        out = l2_normalize_rows(Tensor(np.array([[3.0, 4.0]])))
        assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-12)

    def test_already_unit(self):
        out = l2_normalize_rows(Tensor(np.array([[1.0, 0.0]])))
        assert np.allclose(out.data, [[1.0, 0.0]], atol=1e-12)

    def test_zero_row_degenerate(self):
        with pytest.raises(DegenerateRow):
            l2_normalize_rows(Tensor(np.array([[0.0, 0.0]])))

    @pytest.mark.parametrize("big", [1.4e154, 1e160, 1e308])
    def test_row_whose_squared_norm_overflows_is_degenerate(self, big):
        # its norm would be inf and the row would scale to a silent zero
        # vector; no RuntimeWarning either (the suite turns one into an error)
        m = np.array([[3.0, 4.0], [big, big], [1.0, 0.0]])
        with pytest.raises(DegenerateRow) as exc:
            normalize_rows_forward(m)
        assert str(exc.value) == (f"row 1 has norm {big * np.sqrt(2.0):.3e}: "
                                  "its square overflows")

    def test_gradient_matches_finite_diff(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=(4, 3))

        def f(x):
            return l2_normalize_rows(Tensor(x)).sum().item()

        assert_grads_close(grad_of(lambda t: l2_normalize_rows(t).sum(), v),
                           finite_diff_grad(f, v))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_rows_always_unit(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(3, 4)) + 0.5
        out = l2_normalize_rows(Tensor(m)).data
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-12


class TestRowLogSoftmax:
    def test_symmetric_pair(self):
        out = row_log_softmax(Tensor(np.array([[0.0, 0.0]])), 1.0)
        assert np.allclose(out.data, np.log(0.5), atol=1e-12)

    def test_hand_probabilities(self):
        out = row_log_softmax(Tensor(np.array([[1.0, 0.0]])), 1.0)
        probs = np.exp(out.data)
        assert probs[0, 0] == pytest.approx(np.e / (np.e + 1.0), abs=1e-12)
        assert probs[0, 1] == pytest.approx(1.0 / (np.e + 1.0), abs=1e-12)

    def test_small_temperature(self):
        out = row_log_softmax(Tensor(np.array([[1.0, 0.0]])), 0.01)
        assert out.data[0, 1] == pytest.approx(-100.0, abs=1e-9)
        assert np.exp(out.data)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_invalid_temperature(self):
        for tau in (0.0, -1.0, np.inf, np.nan, "0.1"):
            with pytest.raises(InvalidTemperature):
                row_log_softmax(Tensor(np.zeros((1, 2))), tau)

    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([0.01, 0.1, 1.0]),
           st.floats(min_value=0.1, max_value=1e4))
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_one_extreme_logits(self, seed, tau, scale):
        rng = np.random.default_rng(seed)
        logits = rng.uniform(-scale, scale, size=(3, 5))
        out = row_log_softmax(Tensor(logits), tau)
        sums = np.exp(out.data).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12

    def test_gradient_matches_finite_diff(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4))

        def f(x):
            return (row_log_softmax(Tensor(x), 0.5) * Tensor(w)).sum().item()

        assert_grads_close(
            grad_of(lambda t: (row_log_softmax(t, 0.5) * Tensor(w)).sum(), s),
            finite_diff_grad(f, s))


def _composition(seed):
    """A random composition of the primitive set, in one of five shapes."""
    rng = np.random.default_rng(seed)
    n, d, k = rng.integers(2, 5), rng.integers(2, 5), rng.integers(2, 5)
    w1 = rng.normal(size=(d, k))
    w2 = rng.normal(size=(k, k))
    bias = rng.normal(size=k)
    pick = rng.integers(0, 5)

    def tape_fn(x):
        h = add_rowvec(x @ Tensor(w1), Tensor(bias)).tanh()
        if pick == 0:
            h = l2_normalize_rows(h) @ Tensor(w2)
        elif pick == 1:
            h = row_log_softmax(h @ Tensor(w2), 0.7)
        elif pick == 2:
            h = (h @ Tensor(w2)).exp() * 0.1
        elif pick == 3:
            h = ((h * h + 0.1) / (h + 2.0)) @ Tensor(w2)
        else:
            h = (h @ Tensor(w2)).tanh() - (h - h.sum())
        return (h * h).sum()

    return n, d, tape_fn


class TestGradientOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_backward_matches_finite_diff(self, seed):
        n, d, tape_fn = _composition(seed)
        x = np.random.default_rng(seed + 1000).normal(size=(n, d))
        analytic = grad_of(tape_fn, x)
        numeric = finite_diff_grad(lambda v: tape_fn(Tensor(v)).item(), x, h=1e-5)
        assert_grads_close(analytic, numeric)

    def test_normalized_sum_matches_finite_diff(self):
        v = np.random.default_rng(2).normal(size=(3, 4))
        analytic = grad_of(lambda t: l2_normalize_rows(t).sum(), v)
        numeric = finite_diff_grad(
            lambda x: l2_normalize_rows(Tensor(x)).sum().item(), v)
        assert_grads_close(analytic, numeric)


class TestPrunedBackward:
    """``backward`` over a subset of the nodes: each requested node gets the
    bits it gets when every leaf is requested."""

    @pytest.mark.parametrize("seed", range(20))
    def test_pruned_equals_full_on_random_graphs(self, seed):
        n, d, tape_fn = _composition(seed)
        xt = Tensor(np.random.default_rng(seed + 1000).normal(size=(n, d)))
        loss = tape_fn(xt)
        full = backward(loss)
        assert xt in full
        for leaf, g in full.items():
            assert np.array_equal(backward(loss, [leaf])[leaf], g)

    def test_intermediate_node_can_be_requested(self):
        x = Tensor(np.array([1.0, 2.0]))
        h = x * 3.0
        loss = (h * h).sum()
        assert np.array_equal(backward(loss, [h])[h], 2.0 * h.data)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestKernelsMatchPlainFormulas:
    """The row kernels reduce through the ufunc and update temporaries in
    place; the plain numpy formulas are the reference, bit for bit."""

    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([1e-10, 1e-3, 1.0, 1e4, 1e150]),
           st.integers(min_value=1, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_normalize_rows(self, seed, scale, width):
        rng = np.random.default_rng(seed)
        # entries of magnitude [0.5, 2) * scale: every row norm clears the floor
        m = rng.uniform(0.5, 2.0, size=(7, width)) * rng.choice([-scale, scale], size=(7, width))
        g = rng.normal(size=m.shape)
        out, norms = normalize_rows_forward(m)
        want_out, want_norms = plain_normalize_rows(m)
        assert np.array_equal(bits(out), bits(want_out))
        assert np.array_equal(bits(norms), bits(want_norms))
        assert np.array_equal(bits(normalize_rows_backward(g, out, norms)),
                              bits(plain_normalize_rows_backward(g, out, norms)))

    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([0.001, 0.01, 0.1, 1.0]),
           st.floats(min_value=0.1, max_value=1e4))
    @settings(max_examples=40, deadline=None)
    def test_log_softmax(self, seed, tau, scale):
        rng = np.random.default_rng(seed)
        s = rng.uniform(-scale, scale, size=(6, 9))
        g = rng.normal(size=s.shape)
        out = log_softmax_forward(s, tau)
        assert np.array_equal(bits(out), bits(plain_log_softmax(s, tau)))
        assert np.array_equal(bits(log_softmax_backward(g, out, tau)),
                              bits(plain_log_softmax_backward(g, out, tau)))

    def test_inputs_are_left_alone(self):
        rng = np.random.default_rng(3)
        m, g = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        before = m.copy(), g.copy()
        out, norms = normalize_rows_forward(m)
        normalize_rows_backward(g, out, norms)
        log_softmax_backward(g, log_softmax_forward(m, 0.1), 0.1)
        assert np.array_equal(m, before[0]) and np.array_equal(g, before[1])


class TestOneReductionChecks:
    """The log-softmax row max (down a transposed copy) and the degenerate-row
    test (one fmin and one fmax) reduce once per array; the plain elementwise
    forms are the reference, for NaN, inf and empty inputs too."""

    @pytest.mark.parametrize("fault", [None, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("rows", [0, 1, 5, 128])
    def test_log_softmax(self, fault, rows):
        rng = np.random.default_rng(rows)
        s = rng.uniform(-3.0, 3.0, size=(rows, 8))
        if fault is not None and rows:
            s[rows // 2, 3] = fault
        with np.errstate(invalid="ignore"):  # inf - inf in a faulty row
            out, want = log_softmax_forward(s, 0.1), plain_log_softmax(s, 0.1)
        assert out.shape == (rows, 8)
        assert np.array_equal(bits(out), bits(want))

    def test_log_softmax_without_columns_raises_as_before(self):
        with pytest.raises(ValueError) as got:
            log_softmax_forward(np.zeros((3, 0)), 0.1)
        with pytest.raises(ValueError) as want:
            plain_log_softmax(np.zeros((3, 0)), 0.1)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("faults", [
        (), ("zero",), ("huge",), ("nan",), ("nan", "zero"), ("zero", "nan"),
        ("nan", "huge"), ("huge", "zero"), ("zero", "huge", "nan"), ("empty",),
    ], ids=lambda f: "-".join(f) or "clean")
    def test_degenerate_rows(self, faults):
        rng = np.random.default_rng(len(faults))
        m = rng.normal(size=(6, 4))
        if faults == ("empty",):
            m = m[:0]
        else:
            for row, fault in enumerate(faults):
                m[row + 1] = {"zero": 0.0, "huge": 1e200, "nan": np.nan}[fault]
        want = plain_row_norm_error(m)
        if want is None:
            with np.errstate(invalid="ignore"):  # a NaN row divides to NaN
                out, norms = normalize_rows_forward(m)
                want_out, want_norms = plain_normalize_rows(m)
            assert np.array_equal(bits(out), bits(want_out))
            assert np.array_equal(bits(norms), bits(want_norms))
        else:
            with pytest.raises(DegenerateRow) as exc:
                normalize_rows_forward(m)
            assert str(exc.value) == want
