import math
import tracemalloc

import numpy as np
import pytest

from levybound import (
    Dataset,
    ModelSpec,
    RngStream,
    SyntheticSpec,
    generate_synthetic,
    init_params,
    param_count,
    surrogate_loss_and_grad,
    zero_one_error,
)
from levybound.errors import DimensionMismatchError, InvalidParameterError
from levybound.models import ModelKernel, error_rates

import oracles


def make_dataset(n, dim, classes, seed=0):
    rng = RngStream(seed)
    features = rng.gen.standard_normal((n, dim))
    labels = rng.gen.integers(0, classes, size=n)
    return Dataset(features, labels.astype(np.int64), classes)


def grad_rel_error(g, fd):
    scale = max(np.abs(g).max(), np.abs(fd).max())
    return np.abs(g - fd).max() / scale


class TestParamCount:
    def test_linear_mnist_shape(self):
        assert param_count(ModelSpec((784, 10))) == 7840

    def test_fcn_width_formula(self):
        assert param_count(ModelSpec((784, 100, 10))) == 79400

    def test_tiny_fcn(self):
        assert param_count(ModelSpec((2, 1, 2))) == 4

    def test_invalid_specs(self):
        with pytest.raises(InvalidParameterError):
            ModelSpec((5,))
        with pytest.raises(InvalidParameterError):
            ModelSpec((5, 0, 2))


class TestInitParams:
    def test_zero_scale(self):
        params = init_params(ModelSpec((3, 4, 2)), 0.0, RngStream(0))
        assert params.shape == (20,) and (params == 0.0).all()

    def test_deterministic(self):
        spec = ModelSpec((5, 3))
        a = init_params(spec, 1.0, RngStream(9))
        b = init_params(spec, 1.0, RngStream(9))
        assert (a == b).all()

    def test_fan_in_std(self):
        params = init_params(ModelSpec((784, 10)), 1.0, RngStream(3))
        assert params.std() == pytest.approx(1.0 / math.sqrt(784), rel=0.05)


class TestLossAndGrad:
    def test_zero_params_uniform_softmax(self):
        data = make_dataset(50, 6, 10)
        spec = ModelSpec((6, 10))
        loss, grad = surrogate_loss_and_grad(
            spec, np.zeros(param_count(spec)), data, np.arange(50)
        )
        assert loss == pytest.approx(math.log(10.0), rel=1e-12)
        assert grad.shape == (60,)

    def test_finite_difference_tiny_fcn(self):
        spec = ModelSpec((2, 1, 2))
        data = make_dataset(3, 2, 2, seed=5)
        params = init_params(spec, 1.0, RngStream(6))
        idx = np.arange(3)
        _, grad = surrogate_loss_and_grad(spec, params, data, idx)
        fd = oracles.finite_difference(spec.widths, params, data.features, data.labels)
        assert grad_rel_error(grad, fd) <= 1e-5

    @pytest.mark.parametrize("widths", [(4, 3), (4, 5, 3), (3, 4, 4, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_finite_difference_architectures(self, widths, seed):
        spec = ModelSpec(widths)
        data = make_dataset(6, widths[0], widths[-1], seed=seed)
        params = init_params(spec, 1.0, RngStream(seed + 100))
        idx = np.arange(6)
        _, grad = surrogate_loss_and_grad(spec, params, data, idx)
        fd = oracles.finite_difference(spec.widths, params, data.features, data.labels)
        assert grad_rel_error(grad, fd) <= 1e-5

    def test_duplicated_point_matches_single(self):
        spec = ModelSpec((3, 2))
        data = make_dataset(5, 3, 2)
        params = init_params(spec, 1.0, RngStream(1))
        loss1, grad1 = surrogate_loss_and_grad(spec, params, data, [2])
        loss2, grad2 = surrogate_loss_and_grad(spec, params, data, [2, 2])
        assert loss1 == loss2
        assert (grad1 == grad2).all()

    def test_batch_permutation_invariance(self):
        spec = ModelSpec((4, 3, 2))
        data = make_dataset(40, 4, 2, seed=2)
        params = init_params(spec, 1.0, RngStream(2))
        idx = np.arange(40)
        loss_a, grad_a = surrogate_loss_and_grad(spec, params, data, idx)
        perm = RngStream(8).gen.permutation(40)
        loss_b, grad_b = surrogate_loss_and_grad(spec, params, data, idx[perm])
        assert loss_a == pytest.approx(loss_b, abs=1e-12)
        assert np.abs(grad_a - grad_b).max() < 1e-12

    def test_errors(self):
        spec = ModelSpec((3, 2))
        data = make_dataset(5, 3, 2)
        params = np.zeros(6)
        with pytest.raises(InvalidParameterError):
            surrogate_loss_and_grad(spec, params, data, [])
        with pytest.raises(IndexError):
            surrogate_loss_and_grad(spec, params, data, [7])
        bad = params.copy()
        bad[0] = np.nan
        with pytest.raises(InvalidParameterError):
            surrogate_loss_and_grad(spec, bad, data, [0])

    def test_softmax_rows_sum_to_one(self):
        spec = ModelSpec((4, 5, 3))
        data = make_dataset(12, 4, 3, seed=9)
        params = 3.0 * init_params(spec, 1.0, RngStream(9))
        kernel = ModelKernel(spec, data.n)
        kernel.gradient(params, data.features, kernel.row_starts + data.labels)
        probs = np.exp(kernel.log_p)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("widths", [(784, 10), (25, 32, 2), (6, 5, 4, 3)])
    def test_gradient_reuses_its_buffer_and_allocates_nothing(self, widths):
        # every array the gradient writes is sized in __init__: ten calls
        # return the one buffer, and the traced memory stays where it was
        spec = ModelSpec(widths)
        data = make_dataset(64, widths[0], widths[-1], seed=len(widths))
        rng = RngStream(5)
        ps = [init_params(spec, 1.0, rng) for _ in range(10)]
        kernel = ModelKernel(spec, data.n)
        x, label_index = data.features, kernel.row_starts + data.labels
        first = kernel.gradient(ps[0], x, label_index)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grads = [kernel.gradient(p, x, label_index) for p in ps]
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert all(grad is first for grad in grads)
        assert after - before <= 1024  # the list of ten references, not an array
        rows = np.arange(data.n)
        want = surrogate_loss_and_grad(spec, ps[-1], data, rows)[1]
        assert first.tobytes() == want.tobytes()

    def test_huge_logits_stay_finite(self):
        spec = ModelSpec((3, 2))
        data = make_dataset(5, 3, 2)
        params = np.full(6, 1e6)
        loss, grad = surrogate_loss_and_grad(spec, params, data, np.arange(5))
        assert math.isfinite(loss) and np.isfinite(grad).all()


class TestZeroOneError:
    def test_zero_params_tie_break_picks_class_zero(self):
        data = make_dataset(200, 4, 2, seed=3)
        spec = ModelSpec((4, 2))
        err = zero_one_error(spec, np.zeros(8), data)
        assert err == float(np.mean(data.labels != 0))

    def test_separable_data_zero_error(self):
        features = np.array([[2.0, 0.0], [0.0, 2.0], [3.0, 1.0], [1.0, 3.0]])
        labels = np.array([0, 1, 0, 1])
        data = Dataset(features, labels, 2)
        params = np.array([1.0, 0.0, 0.0, 1.0])  # identity weights separate
        assert zero_one_error(ModelSpec((2, 2)), params, data) == 0.0

    def test_label_flip_complements_error(self):
        rng = RngStream(4)
        features = rng.gen.standard_normal((100, 3))
        labels = rng.gen.integers(0, 2, size=100).astype(np.int64)
        data = Dataset(features, labels, 2)
        flipped = Dataset(features, 1 - labels, 2)
        spec = ModelSpec((3, 2))
        params = init_params(spec, 1.0, rng)
        # no argmax ties almost surely with continuous weights
        err = zero_one_error(spec, params, data)
        assert zero_one_error(spec, params, flipped) == pytest.approx(1.0 - err)

    def test_positive_scaling_of_last_layer_is_invariant(self):
        spec = ModelSpec((4, 6, 3))
        data = make_dataset(60, 4, 3, seed=11)
        params = init_params(spec, 1.0, RngStream(11))
        scaled = params.copy()
        scaled[-18:] *= 7.5  # final 6x3 block
        assert zero_one_error(spec, params, data) == zero_one_error(spec, scaled, data)

    # the inputs surrogate_loss_and_grad refuses are refused here too, with
    # its messages: a data set of another class count or input width, and
    # non-finite parameters
    def test_refuses_a_data_set_of_another_class_count(self):
        with pytest.raises(DimensionMismatchError, match="dataset shape does not match"):
            zero_one_error(ModelSpec((4, 3)), np.zeros(12), make_dataset(6, 4, 2))

    def test_refuses_a_data_set_of_another_input_width(self):
        with pytest.raises(DimensionMismatchError, match="dataset shape does not match"):
            zero_one_error(ModelSpec((4, 3)), np.zeros(12), make_dataset(6, 5, 3))

    def test_refuses_non_finite_parameters(self):
        params = np.zeros(12)
        params[5] = np.nan
        with pytest.raises(InvalidParameterError, match="non-finite parameters"):
            zero_one_error(ModelSpec((4, 3)), params, make_dataset(6, 4, 3))


class TestErrorRates:
    """``error_rates`` over a group of runs against one call per run."""

    def test_matches_one_call_per_run(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(
            rows=st.integers(1, 70), inputs=st.integers(1, 30), classes=st.integers(2, 10),
            hidden=st.sampled_from([(), (1,), (6,), (4, 3)]), count=st.integers(1, 10),
            init_scale=st.sampled_from([0.0, 1.0]), repeat=st.booleans(),
            exact=st.booleans(), seed=st.integers(0, 2**32 - 1),
        )
        def check(rows, inputs, classes, hidden, count, init_scale, repeat, exact, seed):
            rng = np.random.default_rng(seed)
            spec = ModelSpec((inputs, *hidden, classes))
            d = param_count(spec)
            if exact:
                # small dyadic values: every sum is exact in any order, so
                # the stacked product equals the one-run product bit for bit
                # and the many logit ties must break the same way
                x = rng.integers(-4, 5, (rows, inputs)).astype(float)
                ps = [init_scale * rng.integers(-8, 9, d) / 8.0 for _ in range(count)]
            else:
                x = rng.standard_normal((rows, inputs))
                ps = [init_scale * rng.standard_normal(d) for _ in range(count)]
            if repeat:  # the first vector in three rows
                ps = [ps[0], *ps[1:], ps[0], ps[0].copy()]
            labels = rng.integers(0, classes, rows)
            rates = error_rates(spec, np.array(ps), x, labels)
            alone = [error_rates(spec, p[None], x, labels)[0] for p in ps]
            assert rates == alone
            # the runs in reverse order, and the last run alone
            assert error_rates(spec, np.array(ps[::-1]), x, labels) == alone[::-1]
            assert error_rates(spec, np.array(ps[-1:]), x, labels)[0] == alone[-1]
            if exact:
                assert rates == [oracles.zero_one_error(spec.widths, p, x, labels) for p in ps]
            if init_scale == 0.0:  # every logit ties: class 0 is every prediction
                assert rates == [float(np.mean(labels != 0))] * len(ps)

        check()

    def test_mnist_profile_shape(self):
        # the MNIST-shaped linear profile: 2504 train and 626 test rows of 784
        # inputs, 10 classes, a group of 10 runs
        train, test = generate_synthetic(SyntheticSpec(313, 784, 10, 3.0, 1.0, seed=0))
        spec = ModelSpec((784, 10))
        rng = RngStream(1)
        ps = [init_params(spec, 1.0, rng) for _ in range(10)]
        for data in (train, test):
            rates = error_rates(spec, np.array(ps), data.features, data.labels)
            assert rates == [zero_one_error(spec, p, data) for p in ps]
            assert rates == [oracles.zero_one_error(spec.widths, p, data.features, data.labels)
                             for p in ps]

    def test_reference_profile_train_shape(self):
        # the reference profile's train set: 500 rows of 25 inputs through a
        # 25 -> 32 -> 2 ReLU net, a group of 10 runs, as every eval step of a
        # reference group evaluates it
        train, _ = generate_synthetic(SyntheticSpec(313, 25, 2, 2.0, 1.0, seed=2024))
        assert train.n == 500
        spec = ModelSpec((25, 32, 2))
        rng = RngStream(1)
        ps = [init_params(spec, 1.0, rng) for _ in range(10)]
        rates = error_rates(spec, np.array(ps), train.features, train.labels)
        assert rates == [zero_one_error(spec, p, train) for p in ps]
        assert rates == [oracles.zero_one_error(spec.widths, p, train.features, train.labels)
                         for p in ps]

    @pytest.mark.parametrize("rows", [400, 100])
    def test_reference_widths_match_plain_forward_pass(self, rows):
        # test_mnist_profile_shape pins the 2504- and 626-row 784 -> 10 shapes
        data = make_dataset(rows, 25, 2, seed=rows)
        spec = ModelSpec((25, 32, 2))
        rng = RngStream(2)
        ps = [init_params(spec, 1.0, rng) for _ in range(10)]
        rates = error_rates(spec, np.array(ps), data.features, data.labels)
        assert rates == [oracles.zero_one_error(spec.widths, p, data.features, data.labels)
                         for p in ps]

    def test_eval_keeps_no_memory(self):
        # the MNIST-shaped train set (2504 rows, 784 -> 10) evaluated for a
        # group of 10 runs allocates its 2504 x 100 first-layer product and
        # more, but nothing outlives the call: the traced memory after it is
        # the memory before it, up to the returned list and interpreter
        # caches, under 16 KiB
        train, _ = generate_synthetic(SyntheticSpec(313, 784, 10, 3.0, 1.0, seed=0))
        spec = ModelSpec((784, 10))
        rng = RngStream(1)
        ps = np.array([init_params(spec, 1.0, rng) for _ in range(10)])
        rates = error_rates(spec, ps, train.features, train.labels)  # warm caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            again = error_rates(spec, ps, train.features, train.labels)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert again == rates
        assert peak - before >= train.n * 10 * 10 * 8  # the product was allocated here
        assert after - before <= 16 * 1024


class TestDataset:
    def test_row_label_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Dataset(np.zeros((3, 2)), np.zeros(4, dtype=np.int64), 2)

    def test_label_range(self):
        with pytest.raises(InvalidParameterError):
            Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)
