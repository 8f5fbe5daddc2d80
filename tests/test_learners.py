import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.special import expit

from sceneselect import learners
from sceneselect.errors import ConfigError, DivergedError
from sceneselect.learners import TrainConfig

from conftest import params_hash, train_pooled


def tiny_model(i=3, h=4, o=3, seed=0):
    return learners.new_classifier(i, h, o, seed)


class TestForward:
    def test_zero_parameters_give_uniform_probs(self):
        m = tiny_model()
        for arr in (m.W1, m.b1, m.W2, m.b2):
            arr[...] = 0.0
        probs = learners.softmax(learners.logits(m, np.ones((1, 3))))
        assert np.allclose(probs, 1.0 / 3.0)

    def test_single_output_is_certain(self):
        m = tiny_model(o=1)
        (probs,) = learners.softmax(learners.logits(m, np.array([[1.0, -2.0, 0.5]])))
        assert probs.shape == (1,)
        assert probs[0] == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            learners.logits(tiny_model(), np.ones((1, 5)))

    def test_single_sample_must_be_a_batch_of_one(self):
        for fn in (learners.logits, learners.predict, learners.embed):
            with pytest.raises(ConfigError):
                fn(tiny_model(), np.ones(3))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-500, max_value=500), min_size=2, max_size=6))
    def test_softmax_normalized_for_bounded_logits(self, logits):
        logits = np.array(logits)
        probs = learners.softmax(logits)
        assert abs(probs.sum() - 1.0) <= 1e-9
        if np.ptp(logits) <= 700:  # beyond this exp() underflows to an exact 0
            assert np.all(probs > 0.0)


class TestPredictEmbed:
    def test_argmax_prediction(self):
        m = tiny_model()
        m.W1[...] = 0.0
        m.b1[...] = 1.0
        m.W2[...] = 0.0
        m.b2[:] = [0.2, 0.5, 0.3]
        assert learners.predict(m, np.zeros((1, 3)))[0] == 1

    def test_tie_breaks_to_lowest_index(self):
        m = tiny_model(o=2)
        for arr in (m.W1, m.W2):
            arr[...] = 0.0
        m.b2[:] = [0.5, 0.5]
        assert learners.predict(m, np.zeros((1, 3)))[0] == 0

    def test_embed_length(self):
        m = tiny_model(h=7)
        assert learners.embed(m, np.zeros((1, 3)))[0].shape == (7,)

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
            # few distinct values, so that equal and near-equal logits are common
            elements=st.sampled_from([-800.0, -3.0, 0.1, np.nextafter(0.1, 1.0), 0.1 + 1e-15, 2.5, 40.0])
            | st.floats(-1e3, 1e3),
        )
    )
    def test_predict_is_the_softmax_argmax_where_the_top_probability_is_unique(self, logits):
        # one-hot rows into an identity hidden layer make row r's logits
        # exactly W2[:, r]
        n, o = logits.shape
        m = learners.VectorClassifier(n, n, o, np.eye(n), np.zeros(n), logits.T.copy(), np.zeros(o))
        X = np.eye(n)
        assert np.array_equal(learners._layers(m, X)[2], logits)
        P = learners.softmax(learners.logits(m, X))
        pred = learners.predict(m, X)
        top = P == P.max(axis=1, keepdims=True)
        # softmax is monotone: the top logit always has a top probability
        assert top[np.arange(n), pred].all()
        unique = top.sum(axis=1) == 1
        assert np.array_equal(pred[unique], np.argmax(P, axis=1)[unique])

    def test_predict_differs_where_a_lower_class_rounds_to_the_top_probability(self):
        # classes 0 and 1 have different logits but equal probabilities, so the
        # softmax argmax is 0 while the top logit is class 1's
        m = tiny_model()
        for arr in (m.W1, m.b1, m.W2):
            arr[...] = 0.0
        m.b2[:] = [0.1, np.nextafter(0.1, 1.0), -3.0]
        P = learners.softmax(learners.logits(m, np.zeros((1, 3))))
        assert P[0, 0] == P[0, 1] and np.argmax(P, axis=1)[0] == 0
        assert learners.predict(m, np.zeros((1, 3)))[0] == 1

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 6), st.integers(1, 8), st.integers(1, 5), st.integers(0, 9)),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
        scale=st.floats(0.1, 10.0),
    )
    def test_embed_bit_equal_to_the_full_forward_hidden_layer(self, dims, k, seed, scale):
        i, h, o, n = dims
        rng = np.random.default_rng(seed)
        models = [learners.new_classifier(i, h, o, seed + j) for j in range(k)]
        for m in models:
            m.b1[:] = rng.normal(size=h)
            m.b2[:] = rng.normal(size=o)
        X = rng.normal(size=(k, n, i)) * scale
        for m, Xm in zip(models, X):
            assert bits(learners.embed(m, Xm)).tolist() == bits(learners._layers(m, Xm)[1]).tolist()
        stacked = learners.VectorClassifier(
            i, h, o, *(np.stack([getattr(m, name) for m in models]) for name in ("W1", "b1", "W2", "b2"))
        )
        E = learners.embed(stacked, X)
        assert E.shape == (k, n, h)
        assert bits(E).tolist() == bits(learners._layers(stacked, X)[1]).tolist()


class TestGradient:
    def test_matches_central_differences(self):
        # the acceptance suite repeats the softmax case over 20 random networks;
        # a 2-D 0/1 target matrix exercises the sigmoid-BCE gradient
        rng = np.random.default_rng(3)
        m = tiny_model(4, 5, 3, seed=9)
        X = rng.normal(size=(4, 4))
        labels = rng.integers(0, 3, size=4)
        bits = (rng.random((4, 3)) < 0.5).astype(float)
        for y in (labels, bits):
            g = learners.gradient(m, X, y, l2=0.01)
            h = 1e-4
            for arr, garr in ((m.W1, g.dW1), (m.b1, g.db1), (m.W2, g.dW2), (m.b2, g.db2)):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    old = arr[ix]
                    arr[ix] = old + h
                    up = learners.cross_entropy(m, X, y, 0.01)
                    arr[ix] = old - h
                    dn = learners.cross_entropy(m, X, y, 0.01)
                    arr[ix] = old
                    fd = (up - dn) / (2 * h)
                    rel = abs(garr[ix] - fd) / max(abs(garr[ix]), abs(fd), 1e-8)
                    assert rel < 1e-4

    def test_near_minimum_gradient_vanishes(self):
        m = tiny_model()
        for arr in (m.W1, m.b1, m.W2):
            arr[...] = 0.0
        m.b2[:] = [50.0, 0.0, 0.0]  # probs ~ one-hot class 0
        g = learners.gradient(m, np.ones((1, 3)), np.array([0]))
        norm = max(np.abs(x).max() for x in (g.dW1, g.db1, g.dW2, g.db2))
        assert norm < 1e-12

    def test_duplicated_batch_same_mean_gradient(self):
        rng = np.random.default_rng(0)
        m = tiny_model(seed=4)
        X = rng.normal(size=(3, 3))
        y = np.array([0, 1, 2])
        g1 = learners.gradient(m, X, y)
        g2 = learners.gradient(m, np.vstack([X, X]), np.concatenate([y, y]))
        assert np.allclose(g1.dW1, g2.dW1) and np.allclose(g1.db2, g2.db2)

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigError):
            learners.gradient(tiny_model(), np.zeros((0, 3)), np.array([], dtype=int))

    @pytest.mark.parametrize("y", [
        np.array([0, 1]),  # one label short
        np.zeros((3, 2)),  # a matrix one output short
        np.zeros((1, 3)),  # one row, which would broadcast over the batch
    ], ids=["labels", "matrix-width", "matrix-rows"])
    def test_targets_that_do_not_fit_the_batch_rejected(self, y):
        with pytest.raises(ConfigError, match="targets have shape"):
            learners.gradient(tiny_model(), np.zeros((3, 3)), y)


class TestTrain:
    def test_two_separable_points_reach_perfect_accuracy(self):
        m = tiny_model(i=2, h=4, o=2, seed=1)
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([0, 1])
        learners.train(m, X, y, TrainConfig(0.1, 200, 2, seed=5))
        assert (learners.predict(m, X) == y).all()

    def test_zero_learning_rate_is_identity(self):
        m = tiny_model(seed=2)
        before = params_hash(m)
        rng = np.random.default_rng(1)
        learners.train(m, rng.normal(size=(8, 3)), rng.integers(0, 3, 8), TrainConfig(0.0, 5, 4, seed=3))
        assert params_hash(m) == before

    def test_same_seed_bitwise_identical(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 3))
        y = rng.integers(0, 3, 10)
        runs = []
        for _ in range(2):
            m = tiny_model(seed=11)
            learners.train(m, X, y, TrainConfig(0.05, 10, 4, seed=12))
            runs.append(params_hash(m))
        assert runs[0] == runs[1]

    def test_loss_non_increasing_full_batch(self):
        # training e epochs with the same seed repeats the first e epochs of
        # a longer run, so the loss after each epoch is that of an e-epoch run
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 3, 20)
        losses = []
        for epochs in range(1, 31):
            m = tiny_model(seed=6)
            learners.train(m, X, y, TrainConfig(0.05, epochs, 20, seed=7))
            losses.append(learners.cross_entropy(m, X, y))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_empty_training_set(self):
        with pytest.raises(ConfigError):
            learners.train(tiny_model(), np.zeros((0, 3)), np.array([], dtype=int), TrainConfig(0.1, 1, 1))

    def test_divergence_names_epoch(self):
        rng = np.random.default_rng(8)
        m = tiny_model(seed=8)
        with np.errstate(all="ignore"), pytest.raises(DivergedError) as err:
            learners.train(
                m, rng.normal(size=(6, 3)) * 100, rng.integers(0, 3, 6), TrainConfig(1e160, 5, 6, seed=9)
            )
        assert err.value.epoch == 0

    @pytest.mark.parametrize(
        "cfg",
        [
            TrainConfig(float("nan"), 1, 1),
            TrainConfig(float("inf"), 1, 1),
            TrainConfig(-0.1, 1, 1),
            TrainConfig(0.1, 1, 1, l2=float("inf")),
            TrainConfig(0.1, 1, 1, l2=float("nan")),
            TrainConfig(0.1, 1, 1, l2=-1.0),
        ],
        ids=["lr nan", "lr inf", "lr negative", "l2 inf", "l2 nan", "l2 negative"],
    )
    def test_non_finite_or_negative_rate_rejected(self, cfg):
        with pytest.raises(ConfigError, match="must be finite and non-negative"):
            cfg.validate()

    def test_label_out_of_range(self):
        with pytest.raises(ConfigError):
            learners.train(tiny_model(), np.ones((2, 3)), np.array([0, 7]), TrainConfig(0.1, 1, 2))

    def test_target_matrix_must_fit_outputs(self):
        # a 2-D target matrix needs one 0/1 column per output
        for Y in (np.ones((2, 4)), np.full((2, 3), 0.5)):
            with pytest.raises(ConfigError):
                learners.train(tiny_model(o=3), np.ones((2, 3)), Y, TrainConfig(0.1, 1, 2))

    @pytest.mark.parametrize("call, message", [
        (lambda: TrainConfig(0.1, 0, 2).validate(), "epochs and batch_size must be positive"),
        (lambda: TrainConfig(0.1, 1, 0).validate(), "epochs and batch_size must be positive"),
        (lambda: learners.new_classifier(3, 0, 3, seed=0), "all dimensions must be positive"),
        (lambda: learners.train(tiny_model(), np.ones((2, 3)), np.zeros((2, 3, 1)), TrainConfig(0.1, 1, 2)),
         "targets have shape (2, 3, 1), expected (n,) labels or an (n, output) matrix"),
        (lambda: learners.train(tiny_model(), np.ones((2, 5)), np.array([0, 1]), TrainConfig(0.1, 1, 2)),
         "training set has shape (2, 5), expected (n, 3)"),
    ], ids=["epochs", "batch size", "dimension", "3-D targets", "feature width"])
    def test_bad_argument_named(self, call, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("dims", [
        (3, 10**30, 3), (10**30, 4, 3), (3, 4, 2**63 - 1), (3, 8, 2**59),
    ], ids=["hidden 1e30", "input 1e30", "output 2**63-1", "8 x 2**59 floats"])
    def test_weights_past_numpy_array_size_refused(self, dims):
        # each allocation numpy would refuse with a ValueError, allocating nothing
        with pytest.raises(ConfigError, match="weight matrix past numpy's array size$"):
            learners.new_classifier(*dims, seed=0)


def reference_row(model, x):
    """Per-sample reference: relu(W1 x + b1), then softmax(W2 h + b2)."""
    h = np.maximum(model.W1 @ x + model.b1, 0.0)
    z = model.W2 @ h + model.b2
    e = np.exp(z - z.max())
    return h, e / e.sum()


class TestBatchAgainstPerRowReference:
    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 6), st.integers(1, 8), st.integers(1, 5), st.integers(1, 9)),
        seed=st.integers(0, 2**31 - 1),
        scale=st.floats(0.1, 10.0),
    )
    def test_forward_embed_predict_match_reference(self, dims, seed, scale):
        i, h, o, n = dims
        rng = np.random.default_rng(seed)
        m = learners.new_classifier(i, h, o, seed)
        m.b1[:] = rng.normal(size=h)
        m.b2[:] = rng.normal(size=o)
        X = rng.normal(size=(n, i)) * scale
        P = learners.softmax(learners.logits(m, X))
        E = learners.embed(m, X)
        pred = learners.predict(m, X)
        assert E.shape == (n, h) and P.shape == (n, o) and pred.shape == (n,)
        for r in range(n):
            h_ref, p_ref = reference_row(m, X[r])
            assert np.allclose(E[r], h_ref)
            assert np.allclose(P[r], p_ref)
            top = np.sort(p_ref)[::-1]
            if o == 1 or top[0] - top[1] > 1e-9:
                assert pred[r] == int(np.argmax(p_ref))


# Reference: the plain form of the training arithmetic (fresh arrays, numpy's
# row max, one fancy-indexed gather per batch), input validation left out.
# The in-place loop in `learners` must reproduce it bit for bit.
def ref_softmax(logits):
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=-1, keepdims=True)


def ref_layers(model, X):
    Z1 = X @ model.W1.T + model.b1
    H = np.maximum(Z1, 0.0)
    return Z1, H, H @ model.W2.T + model.b2


def ref_cross_entropy(model, X, y, l2=0.0):
    _, _, Z2 = ref_layers(model, X)
    if y.ndim == 2:
        per_row = (np.logaddexp(0.0, Z2) - y * Z2).sum(axis=1)
    else:
        P = ref_softmax(Z2)
        per_row = -np.log(np.maximum(P[np.arange(Z2.shape[0]), y], 1e-300))
    penalty = 0.5 * l2 * (np.sum(model.W1**2) + np.sum(model.W2**2))
    return float(np.mean(per_row) + penalty)


def ref_gradient(model, X, y, l2=0.0):
    n = X.shape[0]
    Z1, H, Z2 = ref_layers(model, X)
    if y.ndim == 2:
        delta = (expit(Z2) - y) / n
    else:
        delta = ref_softmax(Z2)
        delta[np.arange(n), y] -= 1.0
        delta /= n
    dW2 = delta.T @ H + l2 * model.W2
    db2 = delta.sum(axis=0)
    dH = delta @ model.W2
    dZ1 = dH * (Z1 > 0.0)
    dW1 = dZ1.T @ X + l2 * model.W1
    db1 = dZ1.sum(axis=0)
    return dW1, db1, dW2, db2


def ref_train(model, X, y, cfg):
    rng = np.random.default_rng(cfg.seed)
    n = X.shape[0]
    losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            dW1, db1, dW2, db2 = ref_gradient(model, X[idx], y[idx], cfg.l2)
            model.W1 -= cfg.learning_rate * dW1
            model.b1 -= cfg.learning_rate * db1
            model.W2 -= cfg.learning_rate * dW2
            model.b2 -= cfg.learning_rate * db2
        losses.append(ref_cross_entropy(model, X, y, cfg.l2))
    return losses


class TestLeanLoopMatchesReference:
    @pytest.mark.parametrize("targets", ["labels", "matrix"])
    @pytest.mark.parametrize("l2", [0.0, 0.01])
    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 6), st.integers(1, 8), st.integers(1, 9)),
        batching=st.tuples(st.integers(1, 7), st.integers(1, 5), st.integers(0, 6)),
        epochs=st.integers(1, 4),
        lr=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(dims=(3, 4, 3), batching=(4, 3, 0), epochs=2, lr=0.1, seed=0)  # batch divides n
    @example(dims=(3, 4, 3), batching=(4, 3, 1), epochs=2, lr=0.1, seed=0)  # it does not
    def test_params_and_losses_bit_identical(self, targets, l2, dims, batching, epochs, lr, seed):
        i, h, o = dims
        batch, full_batches, extra = batching
        n = batch * full_batches + extra % batch  # batch divides n when extra % batch == 0
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, i)) * 3.0
        if targets == "labels":
            y = rng.integers(0, o, size=n)
        else:
            y = (rng.random((n, o)) < 0.5).astype(float)
        lean = learners.new_classifier(i, h, o, seed)
        lean.b1[:] = rng.normal(size=h)
        lean.b2[:] = rng.normal(size=o)
        ref = learners.model_from_dict(learners.model_to_dict(lean))
        cfg = TrainConfig(lr, epochs, batch, l2=l2, seed=seed + 1)

        learners.train(lean, X, y, cfg)
        ref_losses = ref_train(ref, X, y, cfg)
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(lean, name), getattr(ref, name)), name
        assert learners.cross_entropy(lean, X, y, cfg.l2) == ref_losses[-1]

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=9),
            elements=st.floats(-500, 500),
        )
    )
    def test_softmax_bit_identical(self, logits):
        assert np.array_equal(learners.softmax(logits), ref_softmax(logits))

    # below width 8 the normaliser is a column-wise sum, from 8 on numpy's;
    # many rows, so that a sum in the wrong order shows at every width
    @pytest.mark.parametrize("width", range(1, 10))
    @pytest.mark.parametrize("lead", [(400,), (4, 100)])
    def test_softmax_bit_identical_on_large_stacks(self, width, lead):
        rng = np.random.default_rng(width)
        scale = rng.choice([0.1, 3.0, 50.0], size=(*lead, 1))
        logits = rng.normal(size=(*lead, width)) * scale
        assert np.array_equal(learners.softmax(logits), ref_softmax(logits))


class TestStackMatchesPerModelTrain:
    @pytest.mark.parametrize("targets", ["labels", "matrix"])
    @pytest.mark.parametrize("l2", [0.0, 0.01])
    @settings(max_examples=30, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 6), st.integers(1, 8), st.integers(1, 9)),
        batch=st.integers(1, 7),
        # up to 6 sizes drawn from at most 4 values, so sizes often repeat
        # and equal ragged last batches step as one stack
        sizes=st.lists(st.integers(1, 30), min_size=1, max_size=4).flatmap(
            lambda values: st.lists(st.sampled_from(values), min_size=1, max_size=6)
        ),
        epochs=st.integers(1, 3),
        lr=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(dims=(3, 4, 3), batch=4, sizes=[12, 8, 4], epochs=2, lr=0.1, seed=0)  # batch divides every n
    @example(dims=(3, 4, 3), batch=4, sizes=[3, 13, 9, 13, 6], epochs=2, lr=0.1, seed=0)  # it does not
    @example(dims=(3, 4, 3), batch=4, sizes=[9, 13, 9, 13, 6, 9], epochs=2, lr=0.1, seed=0)  # equal ragged sets
    def test_params_and_losses_bit_identical(self, targets, l2, dims, batch, sizes, epochs, lr, seed):
        i, h, o = dims
        rng = np.random.default_rng(seed)
        Xs = [rng.normal(size=(n, i)) * 3.0 for n in sizes]
        if targets == "labels":
            ys = [rng.integers(0, o, size=n) for n in sizes]
        else:
            ys = [(rng.random((n, o)) < 0.5).astype(float) for n in sizes]
        models = [learners.new_classifier(i, h, o, j) for j in range(len(sizes))]
        for m in models:
            m.b1[:] = rng.normal(size=h)
            m.b2[:] = rng.normal(size=o)
        alone = [learners.model_from_dict(learners.model_to_dict(m)) for m in models]
        cfgs = [TrainConfig(lr, epochs, batch, l2=l2, seed=seed + j) for j in range(len(sizes))]

        train_pooled(models, Xs, ys, cfgs)
        for stacked, single, X, y, cfg in zip(models, alone, Xs, ys, cfgs):
            learners.train(single, X, y, cfg)
            for name in ("W1", "b1", "W2", "b2"):
                assert np.array_equal(getattr(stacked, name), getattr(single, name)), name

    def test_first_diverging_model_in_input_order_raises(self):
        # models 0 and 2 diverge in epoch 1 with different losses (inf and
        # nan); the stack holds them largest first, 1, 2, 0, so model 2 comes
        # first in stack order, yet model 0 raises, and every model stops
        # where training it alone for epochs 0 and 1 leaves it
        rng = np.random.default_rng(1)
        Xs = [rng.normal(size=(n, 3)) for n in (6, 12, 9)]
        Ys = [(rng.random((n, 3)) < 0.5).astype(float) for n in (6, 12, 9)]
        Xs[0] *= 1e50
        Xs[2] *= 1e50
        cfgs = [TrainConfig(1e-10, 3, 4, seed=1) for _ in range(3)]
        models = [tiny_model(seed=j) for j in range(3)]
        with np.errstate(all="ignore"), pytest.raises(DivergedError) as err:
            train_pooled(models, Xs, Ys, cfgs)
        assert (err.value.epoch, str(err.value)) == (1, "training diverged at epoch 1 (loss=inf)")
        alone_errors = []
        for j, stacked in enumerate(models):
            single = tiny_model(seed=j)
            try:
                with np.errstate(all="ignore"):
                    learners.train(single, Xs[j], Ys[j], dataclasses.replace(cfgs[j], epochs=2))
            except DivergedError as exc:
                alone_errors.append((j, str(exc)))
            assert params_hash(stacked) == params_hash(single), j
        assert alone_errors == [
            (0, "training diverged at epoch 1 (loss=inf)"),
            (2, "training diverged at epoch 1 (loss=nan)"),
        ]

    def test_mixed_dims_or_configs_rejected(self):
        rng = np.random.default_rng(0)
        X, y = rng.normal(size=(6, 3)), rng.integers(0, 3, 6)
        rows = np.arange(6)
        cfg = TrainConfig(0.1, 2, 4, seed=1)
        for other, other_cfg in [
            (tiny_model(h=5), cfg),  # hidden width differs
            (tiny_model(o=4), cfg),  # output width differs
            (tiny_model(), TrainConfig(0.1, 2, 3, seed=1)),  # batch size differs
            (tiny_model(), TrainConfig(0.1, 2, 4, l2=0.01, seed=2)),  # l2 differs
        ]:
            with pytest.raises(ConfigError):
                learners.train_stack([tiny_model(), other], X, y, [rows, rows], [cfg, other_cfg])
        with pytest.raises(ConfigError):
            learners.train_stack([], X, y, [], [])
        with pytest.raises(ConfigError):
            learners.train_stack([tiny_model()], X, y, [rows, rows], [cfg])
        with pytest.raises(ConfigError, match="disagree in length"):
            learners.train_stack([tiny_model()], X, y[:5], [rows[:5]], [cfg])

    @pytest.mark.parametrize("bad", [
        np.array([], dtype=int),  # empty
        np.array([0, -1, 2]),  # negative
        np.array([0, 6, 2]),  # one past the last row
        np.array([0.0, 1.0, 2.0]),  # float
        np.array([True, False, True, False, True, False]),  # boolean mask
        np.array([[0, 1], [2, 3]]),  # not 1-D
    ], ids=["empty", "negative", "out-of-range", "float", "bool", "2-d"])
    def test_bad_row_index_rejected_before_any_update(self, bad):
        # the steps gather with mode="clip", which would turn a bad index
        # into a valid row without a word
        rng = np.random.default_rng(2)
        X, y = rng.normal(size=(6, 3)), rng.integers(0, 3, 6)
        models = [tiny_model(seed=s) for s in range(2)]
        before = [params_hash(m) for m in models]
        cfgs = [TrainConfig(0.1, 2, 4, seed=s) for s in range(2)]
        with pytest.raises(ConfigError):
            learners.train_stack(models, X, y, [np.arange(6), bad], cfgs)
        assert [params_hash(m) for m in models] == before

    def test_rows_gather_from_the_pool_in_order(self):
        # a model's rows of a shared pool, repeats and any order allowed,
        # train it exactly as the gathered copy does alone
        rng = np.random.default_rng(4)
        X, y = rng.normal(size=(20, 3)), rng.integers(0, 3, 20)
        rows = [np.array([19, 3, 3, 7, 0, 12, 5]), np.arange(20)[::-2], np.arange(20)]
        cfgs = [TrainConfig(0.1, 3, 4, seed=s) for s in range(3)]
        models = [tiny_model(seed=s) for s in range(3)]
        learners.train_stack(models, X, y, rows, cfgs)
        for j, (r, cfg) in enumerate(zip(rows, cfgs)):
            single = tiny_model(seed=j)
            learners.train(single, X[r], y[r], cfg)
            assert params_hash(models[j]) == params_hash(single), j

    def test_one_bad_label_model_rejected_before_any_update(self):
        rng = np.random.default_rng(1)
        models = [tiny_model(seed=s) for s in range(3)]
        before = [params_hash(m) for m in models]
        Xs = [rng.normal(size=(n, 3)) for n in (9, 5, 7)]
        ys = [rng.integers(0, 3, 9), np.array([0, 1, 3, 2, 0]), rng.integers(0, 3, 7)]
        cfgs = [TrainConfig(0.1, 2, 4, seed=s) for s in range(3)]
        with pytest.raises(ConfigError):
            train_pooled(models, Xs, ys, cfgs)
        assert [params_hash(m) for m in models] == before


class TestBiasSum:
    """`gradient`'s bias sums take einsum above width 1; each must be the bits
    of ``sum(axis=-2)``, stacked or not, into a buffer or not."""

    @settings(max_examples=200, deadline=None)
    @given(
        width=st.integers(1, 9),
        stack=st.one_of(st.just(()), st.tuples(st.integers(1, 12))),
        rows=st.integers(1, 300),
        scale=st.sampled_from([1e-3, 1.0, 1e5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_equal_to_numpys_sum(self, width, stack, rows, scale, seed):
        a = np.random.default_rng(seed).normal(size=stack + (rows, width)) * scale
        expected = a.sum(axis=-2)
        out = np.full(stack + (width,), np.nan)
        assert learners._bias_sum(a).tobytes() == expected.tobytes()
        assert learners._bias_sum(a, out) is out
        assert out.tobytes() == expected.tobytes()


class TestPreallocatedBuffers:
    @pytest.mark.parametrize("targets", ["labels", "matrix"])
    @pytest.mark.parametrize("l2", [0.0, 0.01])
    @pytest.mark.parametrize("stack", [(), (3,)], ids=["single", "stacked"])
    @settings(max_examples=25, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 6), st.integers(1, 8), st.integers(1, 9)),
        n=st.integers(1, 9),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_gradient_into_buffers_is_bit_equal(self, targets, l2, stack, dims, n, seed):
        # one scratch, sized for n rows, serves a work per batch length: n,
        # then shrinking, then n again over what the shorter steps left. The
        # scratch and the gradients start as nan, so an entry a call reads
        # before it writes it shows
        i, h, o = dims
        rng = np.random.default_rng(seed)
        shapes = [(h, i), (h,), (o, h), (o,)]
        model = learners.VectorClassifier(i, h, o, *(rng.normal(size=stack + shape) for shape in shapes))
        sigmoid = targets == "matrix"
        scratch = [np.full(a.shape, np.nan, a.dtype) for a in learners._scratch(dims, math.prod(stack) * n, sigmoid)]
        out = learners.Gradients(*(np.full(stack + shape, np.nan) for shape in shapes))
        for rows in [n, *range(n - 1, 0, -2), n]:
            X = rng.normal(size=stack + (rows, i)) * 3.0
            if sigmoid:
                y = (rng.random(stack + (rows, o)) < 0.5).astype(float)
            else:
                y = rng.integers(0, o, size=stack + (rows,))
            expected = learners.gradient(model, X, y, l2)
            work = learners._step_work(model, stack + (rows,), sigmoid, scratch, out)
            Y = y if sigmoid else learners._one_hot(y, o)
            got = learners.gradient(model, X, Y, l2, work)
            for name in ("dW1", "db1", "dW2", "db2"):
                assert getattr(got, name) is getattr(out, name), name
                assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), (name, rows)

    @pytest.mark.parametrize("targets", ["labels", "matrix"])
    def test_strided_output_buffer(self, targets):
        # the output layer's scratch is a column slice of a wider array:
        # one-hot targets need no ravel, so labels too are bit-equal
        rng = np.random.default_rng(3)
        model = tiny_model(seed=1)
        X = rng.normal(size=(4, model.input_dim))
        dims = (model.input_dim, model.hidden_dim, model.output_dim)
        o = model.output_dim
        sigmoid = targets == "matrix"
        if sigmoid:
            y = Y = (rng.random((4, o)) < 0.5).astype(float)
        else:
            y = rng.integers(0, o, 4)
            Y = learners._one_hot(y, o)
        scratch = learners._scratch(dims, 4, sigmoid)
        scratch[2] = np.full((4, o + 2), np.nan)[:, :o]
        assert not scratch[2].flags.c_contiguous
        out = learners.Gradients(*(np.empty_like(a) for a in (model.W1, model.b1, model.W2, model.b2)))
        got = learners.gradient(model, X, Y, 0.0, learners._step_work(model, (4,), sigmoid, scratch, out))
        expected = learners.gradient(model, X, y)
        for name in ("dW1", "db1", "dW2", "db2"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name

    @pytest.mark.parametrize("targets", ["labels", "matrix"])
    def test_shrinking_steps_leave_no_stale_rows(self, targets, monkeypatch):
        # sizes 23, 16, 9, 4 at batch 5 give stacked steps of 3, 2, 2 and 1
        # models, between ragged stacks of one of 4, 4, 1 and 3 rows, so each
        # step uses fewer buffer rows than an earlier one. Every buffer comes
        # from np.empty, here filled with nan (-1 for integers), so a row a
        # step reads without writing it first shows in the parameters.
        rng = np.random.default_rng(5)
        sizes = (23, 9, 16, 4)
        Xs = [rng.normal(size=(n, 3)) for n in sizes]
        if targets == "labels":
            ys = [rng.integers(0, 3, n) for n in sizes]
        else:
            ys = [(rng.random((n, 3)) < 0.5).astype(float) for n in sizes]
        cfgs = [TrainConfig(0.1, 2, 5, seed=j) for j in range(len(sizes))]
        models = [tiny_model(seed=j) for j in range(len(sizes))]
        refs = [tiny_model(seed=j) for j in range(len(sizes))]
        for ref, X, y, cfg in zip(refs, Xs, ys, cfgs):
            ref_train(ref, X, y, cfg)

        empty = np.empty

        def poisoned(shape, dtype=float, *args, **kwargs):
            a = empty(shape, dtype, *args, **kwargs)
            a.fill(np.nan if np.issubdtype(a.dtype, np.floating) else -1)
            return a

        monkeypatch.setattr(np, "empty", poisoned)
        train_pooled(models, Xs, ys, cfgs)
        monkeypatch.undo()
        assert [params_hash(m) for m in models] == [params_hash(m) for m in refs]


def reference_train_stack(models, Xs, ys, cfgs):
    """`learners.train_stack` as it was before the loss bound, input checks
    left out: every model's full training-set `cross_entropy` after every
    epoch, the first non-finite one in input order raising."""
    k = len(models)
    first, cfg = models[0], cfgs[0]
    dims = (first.input_dim, first.hidden_dim, first.output_dim)
    Xs = [np.asarray(X, dtype=float) for X in Xs]
    ys = [learners._targets(y) for y in ys]
    order = sorted(range(k), key=lambda i: -len(Xs[i]))
    Xs, ys = [Xs[i] for i in order], [ys[i] for i in order]
    sizes = [len(X) for X in Xs]
    W1, b1, W2, b2 = (
        np.stack([getattr(models[i], name) for i in order]) for name in ("W1", "b1", "W2", "b2")
    )

    def view(index):
        return learners.VectorClassifier(*dims, W1[index], b1[index], W2[index], b2[index])

    b = cfg.batch_size
    X_batch = np.empty((k, min(b, sizes[0]), dims[0]))
    y_batch = np.empty(X_batch.shape[:2] + ys[0].shape[1:], dtype=ys[0].dtype)
    steps = []
    for start in range(0, sizes[0], b):
        full = sum(1 for n in sizes if n >= start + b)
        batches = [(range(full), start + b)] if full else []
        batches += [(range(p, p + 1), n) for p, n in enumerate(sizes) if start < n < start + b]
        for members, stop in batches:
            size = stop - start
            gathers = [(p, X_batch[p, :size], y_batch[p, :size]) for p in members]
            stacked = slice(members.start, members.stop)
            steps.append(
                (slice(start, stop), gathers, view(stacked), X_batch[stacked, :size], y_batch[stacked, :size])
            )
    alone = [view(p) for p in range(k)]
    rngs = [np.random.default_rng(cfgs[i].seed) for i in order]
    by_input = sorted(range(k), key=order.__getitem__)
    try:
        for epoch in range(cfg.epochs):
            perms = [rng.permutation(n) for rng, n in zip(rngs, sizes)]
            for rows, gathers, model, Xb, yb in steps:
                for p, X_out, y_out in gathers:
                    np.take(Xs[p], perms[p][rows], axis=0, out=X_out, mode="clip")
                    np.take(ys[p], perms[p][rows], axis=0, out=y_out, mode="clip")
                g = learners.gradient(model, Xb, yb, cfg.l2)
                params = (model.W1, model.b1, model.W2, model.b2)
                for param, grad in zip(params, (g.dW1, g.db1, g.dW2, g.db2)):
                    grad *= cfg.learning_rate
                    param -= grad
            for p in by_input:
                loss = learners.cross_entropy(alone[p], Xs[p], ys[p], cfg.l2)
                if not np.isfinite(loss):
                    raise DivergedError(epoch, loss)
    finally:
        for p, i in enumerate(order):
            for name in ("W1", "b1", "W2", "b2"):
                getattr(models[i], name)[...] = getattr(alone[p], name)


def divergence(train, models, Xs, ys, cfgs):
    """(epoch, message) of the DivergedError ``train`` raises, or None."""
    try:
        with np.errstate(all="ignore"):
            train(models, Xs, ys, cfgs)
    except DivergedError as exc:
        return exc.epoch, str(exc)
    return None


def powers_of_ten(lo, mid, hi):
    """10**e, e as likely in [lo, mid] as in [mid, hi]."""
    return st.one_of(st.floats(lo, mid), st.floats(mid, hi)).map(lambda e: 10.0**e)


class TestLossBound:
    @pytest.mark.parametrize("targets", ["labels", "matrix"])
    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 5), st.integers(1, 6), st.integers(1, 5)),
        batch=st.integers(1, 6),
        sets=st.lists(st.tuples(st.integers(1, 16), powers_of_ten(0, 3, 200)), min_size=1, max_size=4),
        epochs=st.integers(1, 4),
        l2=st.sampled_from([0.0, 0.01, 1.0]),
        lr=powers_of_ten(-3, 0, 300),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(dims=(3, 4, 3), batch=6, sets=[(6, 100.0)], epochs=5, l2=0.0, lr=1e160, seed=9)  # logits overflow
    @example(dims=(3, 4, 3), batch=4, sets=[(6, 1e150), (4, 1.0)], epochs=2, l2=0.0, lr=1e-3, seed=62)  # past the bound, finite
    # no step moves the parameters, so only max|x| bounds the logits; the
    # loss of 0/1 targets overflows, that of labels stays finite
    @example(dims=(3, 4, 3), batch=4, sets=[(5, 1.0), (6, 5e307)], epochs=1, l2=0.0, lr=0.0, seed=0)
    def test_matches_a_loss_every_epoch(self, targets, dims, batch, sets, epochs, l2, lr, seed):
        # each training set has its own size and scale; parameters and the
        # divergence, or its absence, must match bit for bit
        i, h, o = dims
        sizes = [n for n, _ in sets]
        rng = np.random.default_rng(seed)
        Xs = [rng.normal(size=(n, i)) * scale for n, scale in sets]
        if targets == "labels":
            ys = [rng.integers(0, o, size=n) for n in sizes]
        else:
            ys = [(rng.random((n, o)) < 0.5).astype(float) for n in sizes]
        fast = [learners.new_classifier(i, h, o, seed + j) for j in range(len(sizes))]
        ref = [learners.model_from_dict(learners.model_to_dict(m)) for m in fast]
        cfgs = [TrainConfig(lr, epochs, batch, l2=l2, seed=seed + j) for j in range(len(sizes))]

        assert divergence(train_pooled, fast, Xs, ys, cfgs) == divergence(
            reference_train_stack, ref, Xs, ys, cfgs
        )
        assert [params_hash(m) for m in fast] == [params_hash(m) for m in ref]

    @pytest.mark.parametrize("l2", [0.0, 0.01])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["X", "W1", "b1", "W2", "b2"])
    def test_a_non_finite_input_falls_through_to_the_loss(self, name, value, l2):
        # one entry of model 1's training set or parameters; model 0 stays bounded
        rng = np.random.default_rng(3)
        models = [tiny_model(seed=j) for j in range(2)]
        Xs = [rng.normal(size=(5, 3)) for _ in models]
        target = Xs[1] if name == "X" else getattr(models[1], name)
        target.flat[-1] = value
        x_max = np.array([np.abs(X).max() for X in Xs])
        stacked = (np.stack([getattr(m, a) for m in models]) for a in ("W1", "b1", "W2", "b2"))
        bounds = learners._loss_bounds(x_max, *stacked, l2)
        assert bounds[0] < learners.SAFE_BOUND
        assert not bounds[1] < learners.SAFE_BOUND


class TestExtremeLogits:
    @settings(max_examples=100, deadline=None)
    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9),
            elements=st.floats(-1e300, 1e300),
        )
    )
    def test_softmax_finite_normalized_and_argmax(self, logits):
        probs = learners.softmax(logits)
        assert np.isfinite(probs).all()
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-12)
        for row, p in zip(logits, probs):
            top = np.sort(row)[::-1]
            if len(row) == 1 or top[0] - top[1] > 1e-9:
                assert np.argmax(p) == np.argmax(row)

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=9),
            elements=st.floats(allow_nan=True, allow_infinity=True),
        )
    )
    def test_row_max_is_numpys_max(self, a):
        # equal values; a zero max's sign and a nan's payload may differ
        got, expected = learners.row_max(a), a.max(axis=-1, keepdims=True)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected, equal_nan=True)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=9))
    def test_sigmoid_probs_finite_in_unit_interval(self, logits):
        # one hidden unit fixed at 1 makes the output logits exactly W2[:, 0]
        m = learners.new_classifier(2, 1, len(logits), 0)
        m.W1[...] = 0.0
        m.b1[:] = 1.0
        m.W2[:, 0] = logits
        m.b2[:] = 0.0
        probs = learners.expit(learners.logits(m, np.zeros((1, 2))))
        assert probs.shape == (1, len(logits))
        assert np.isfinite(probs).all() and np.all((probs >= 0.0) & (probs <= 1.0))


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestExpitMatchesScipy:
    """`learners.expit` against ``scipy.special.expit``, a test-only reference."""

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=9), elements=st.floats(-709, 709)))
    # numpy's float64 exp misses the C library's in the last bit on a few
    # percent of these, so 1 / (1 + np.exp(-z)) fails on them
    @example(np.random.default_rng(0).normal(0.0, 10.0, 20000))
    @example(np.random.default_rng(1).uniform(-709.0, 709.0, 20000))
    def test_bit_equal_in_range(self, z):
        assert np.array_equal(bits(learners.expit(z)), bits(expit(z)))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(710, 1e4),
                st.floats(-1e4, -710),
                st.sampled_from([np.inf, -np.inf, np.nan]),
            ),
            min_size=1,
            max_size=9,
        )
    )
    def test_extreme_inputs_in_unit_interval_without_warning(self, values):
        z = np.array(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours = learners.expit(z)
        ref = expit(z)
        nan = np.isnan(z)
        assert np.array_equal(np.isnan(ours), nan)
        assert np.all((ours[~nan] >= 0.0) & (ours[~nan] <= 1.0))
        assert np.all(np.abs(ours[~nan] - ref[~nan]) <= 1e-300)

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=9), elements=st.floats(-1e4, 1e4)))
    def test_out_aliasing_the_input(self, z):
        expected = learners.expit(z)
        aliased = z.copy()
        assert learners.expit(aliased, out=aliased) is aliased
        assert np.array_equal(bits(aliased), bits(expected))

    def test_reused_scratch(self):
        # a training step passes the same zeroed scratch to every call; the
        # special values must leave its imaginary part +0.0 for the next one
        special = np.array([[np.inf, -np.inf, np.nan, 0.0], [-0.0, 709.5, -709.5, 1e4], [-1e4, 745.2, -745.2, 2.0]])
        normal = np.random.default_rng(3).normal(0.0, 5.0, special.shape)
        scratch = np.zeros(special.shape, complex)
        for z in (special, normal, special):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = learners.expit(z, scratch=scratch)
            assert np.array_equal(bits(out), bits(learners.expit(z)))
            assert np.array_equal(bits(scratch.imag), np.zeros(z.shape, np.uint64))
        assert np.array_equal(bits(learners.expit(normal)), bits(expit(normal)))


class TestSerialization:
    def test_round_trip_bitwise(self):
        m = tiny_model(5, 6, 4, seed=13)
        again = learners.model_from_dict(learners.model_to_dict(m))
        assert params_hash(again) == params_hash(m)
        assert (again.input_dim, again.hidden_dim, again.output_dim) == (5, 6, 4)

    def test_bad_format_version(self):
        for change, text in [
            ({"model_format": 99}, "unsupported model format"),
            ({"model_format": True}, "unsupported model format"),
            ({"model_format": 1.0}, "unsupported model format"),
            ({"hidden_dim": 0}, "dims must be positive"),
            ({"W1": [0.5] * 5}, "W1 has shape (5,)"),
            ({"W2": [0.5] * 99}, "W2 has shape (99,)"),
            ({"b1": [float("nan")] * 6}, "b1 holds a non-finite value"),
            ({"b2": [0.0, 0.0, 0.0, float("inf")]}, "b2 holds a non-finite value"),
            ({"b1": ["a"] * 6}, "model parameters must be lists of numbers, and b1 is not"),
            ({"W1": [True] + [0.5] * 29}, "model parameters must be lists of numbers, and W1 is not"),
            ({"b1": [0.5] * 5 + [False]}, "model parameters must be lists of numbers, and b1 is not"),
            ({"W2": ["0.5"] * 24}, "model parameters must be lists of numbers, and W2 is not"),
            ({"b2": [[0.5]] * 4}, "model parameters must be lists of numbers, and b2 is not"),
            ({"b2": None}, "model parameters must be lists of numbers, and b2 is not"),
        ]:
            d = {**learners.model_to_dict(tiny_model(5, 6, 4)), **change}
            with pytest.raises(ConfigError, match=re.escape(text)):
                learners.model_from_dict(d)
