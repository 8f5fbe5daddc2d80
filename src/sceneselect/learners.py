"""One-hidden-layer networks trained by mini-batch gradient descent.

The same architecture plays every model role in the pipeline: the scene
encoder, the per-scene compressed models, the decision head, and the deep
baseline. Capacity is the only dial, set through ``hidden_dim``; the output
is a softmax over classes, or independent sigmoids when the model is
trained on a 0/1 target matrix (the decision head). The hidden
(penultimate) activation doubles as the embedding of the input.

Every function takes an (n, input_dim) batch; a single sample is a batch
of one.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import is_int
from .errors import ConfigError, DivergedError

MODEL_FORMAT = 1

# The most floats one numpy array holds: its size in bytes must fit an index.
MAX_FLOATS = np.iinfo(np.intp).max // np.dtype(float).itemsize


@dataclass
class VectorClassifier:
    """x -> relu(W1 x + b1) -> softmax or sigmoid of (W2 h + b2).

    Parameters are float64; ``W1`` is (hidden, input), ``W2`` is (output, hidden).
    """

    input_dim: int
    hidden_dim: int
    output_dim: int
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray


@dataclass
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int
    l2: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        # written so that nan fails each check: every comparison with nan is False
        if not 0 <= self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be finite and non-negative")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if not 0 <= self.l2 < np.inf:
            raise ConfigError("l2 must be finite and non-negative")


@dataclass
class Gradients:
    dW1: np.ndarray
    db1: np.ndarray
    dW2: np.ndarray
    db2: np.ndarray


def new_classifier(input_dim: int, hidden_dim: int, output_dim: int, seed: int) -> VectorClassifier:
    """Fresh classifier with Glorot-uniform weights and zero biases."""
    if min(input_dim, hidden_dim, output_dim) < 1:
        raise ConfigError("all dimensions must be positive")
    if hidden_dim * max(input_dim, output_dim) > MAX_FLOATS:
        raise ConfigError(
            f"a {input_dim}-{hidden_dim}-{output_dim} classifier has a weight matrix past numpy's array size"
        )
    rng = np.random.default_rng(seed)

    def glorot(rows, cols):
        limit = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-limit, limit, size=(rows, cols))

    return VectorClassifier(
        input_dim=input_dim,
        hidden_dim=hidden_dim,
        output_dim=output_dim,
        W1=glorot(hidden_dim, input_dim),
        b1=np.zeros(hidden_dim),
        W2=glorot(output_dim, hidden_dim),
        b2=np.zeros(output_dim),
    )


def _first_column(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A copy of ``a[..., :1]``, into ``out`` if given."""
    if out is None:
        return a[..., :1].copy()
    out[...] = a[..., :1]
    return out


def row_max(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Max along the last axis, which is kept with length 1, into ``out`` if
    given.

    Computed one column at a time: max is exact, so this equals
    ``a.max(axis=-1, keepdims=True)`` in value (a zero max may differ in
    sign, a nan in payload), and numpy's reduction over a short last axis
    costs far more than a few strided maximum calls.
    """
    out = _first_column(a, out)
    for j in range(1, a.shape[-1]):
        np.maximum(out, a[..., j : j + 1], out=out)
    return out


def softmax(logits: np.ndarray, out: np.ndarray | None = None, columns: tuple | None = None) -> np.ndarray:
    """Max-subtracted softmax along the last axis, into ``out`` if given
    (``out`` may be ``logits`` itself); exact for |logit| <= 500.
    ``columns``, if given, is two arrays shaped like one column of
    ``logits``, which receive the row max and the row total."""
    logits = np.asarray(logits, dtype=float)
    width = logits.shape[-1]
    peak, total = columns or (None, None)
    out = np.subtract(logits, row_max(logits, peak), out=out)
    np.exp(out, out=out)
    if width < 8:
        # numpy sums fewer than 8 terms left to right, so a column-wise sum
        # is bit-equal; from 8 on its pairwise sum unrolls and differs
        total = _first_column(out, total)
        for j in range(1, width):
            total += out[..., j : j + 1]
    else:
        total = out.sum(axis=-1, keepdims=True, out=total)
    out /= total
    return out


def _batch(model: VectorClassifier, X: np.ndarray) -> np.ndarray:
    """``X`` as a float array, a ConfigError unless it is an (n, input_dim)
    batch, or for a stacked model a (k, n, input_dim) stack of them."""
    X = np.asarray(X, dtype=float)
    if X.ndim != model.W1.ndim or X.shape[-1] != model.input_dim:
        raise ConfigError(f"batch has shape {X.shape}, expected (n, {model.input_dim})")
    return X


def _affine_views(W: np.ndarray, b: np.ndarray) -> tuple:
    """A layer's weights and biases as its forward pass multiplies and adds
    them: ``W`` with its last two axes swapped, ``b`` broadcast over the
    rows of a batch."""
    return W.swapaxes(-1, -2), b[..., None, :]


def _hidden(model: VectorClassifier, X: np.ndarray, Z1=None, H=None, views=None):
    """(Z1, H) for an (n, input_dim) batch: hidden pre-activation and hidden
    activation, into ``Z1`` and ``H`` if given. The one place the hidden
    layer is computed.

    A stacked model, whose parameters carry a leading axis of k models,
    takes a (k, n, input_dim) stack of batches, one per model. Given
    ``views``, the hidden layer's `_affine_views`, the batch is taken as
    checked.
    """
    if views is None:
        X, views = _batch(model, X), _affine_views(model.W1, model.b1)
    W1T, b1 = views
    Z1 = np.matmul(X, W1T, out=Z1)
    Z1 += b1
    return Z1, np.maximum(Z1, 0.0, out=H)


def _layers(model: VectorClassifier, X: np.ndarray, Z1=None, H=None, Z2=None, views=None):
    """(Z1, H, Z2): `_hidden`'s two arrays and the output logits, each into
    its argument if given. The one place the output layer is computed;
    stacks as `_hidden` does. ``views``, if given, is the `_affine_views`
    of both layers, and the batch is taken as checked."""
    hidden, (W2T, b2) = views or (None, _affine_views(model.W2, model.b2))
    Z1, H = _hidden(model, X, Z1, H, hidden)
    Z2 = np.matmul(H, W2T, out=Z2)
    Z2 += b2
    return Z1, H, Z2


def logits(model: VectorClassifier, X: np.ndarray) -> np.ndarray:
    """Output logits (n, output) of a batch, before softmax or sigmoid."""
    return _layers(model, X)[2]


def predict(model: VectorClassifier, X: np.ndarray) -> np.ndarray:
    """Argmax class per row of the output logits; ties resolve to the lowest
    index.

    This equals ``np.argmax`` of the softmax probabilities on every
    row but one where a lower-index class's probability rounds equal to the
    top one's while its logit is smaller: the probabilities' argmax is then
    that lower index, this one the top logit's.
    """
    return logits(model, X).argmax(axis=1)


def embed(model: VectorClassifier, X: np.ndarray) -> np.ndarray:
    """Hidden activations (n, hidden) of a batch; the output layer is not
    computed."""
    return _hidden(model, X)[1]


def expit(z: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """Logistic sigmoid ``1 / (1 + exp(-z))``, elementwise, into ``out`` if given
    (``out`` may be ``z`` itself). Never warns. ``scratch``, if given, is a
    complex array shaped like ``z`` whose imaginary part is +0.0, as in a
    zeroed array; it receives the exponentials and its imaginary part stays
    +0.0, so it can be passed again.

    The result is bit-equal, for |z| <= 709, to that formula evaluated in C
    doubles with the C library's ``exp``, which is how the common reference
    ``expit`` computes it; beyond 709 it agrees within 1e-300. numpy's
    float64 ``exp`` is its own SIMD kernel and differs from the C library's
    in the last bit on a few percent of inputs. numpy's complex ``exp``
    calls the C library's ``cexp`` instead, whose real part for a zero
    imaginary part is the C library's ``exp`` of the real part, so
    ``exp(-z + 0j).real`` is the C result; its imaginary part is +0.0 for
    every real part, ±inf and nan included. Only ``-z`` is written to the
    strided real part; ``1 + e`` and its reciprocal, a correctly rounded
    ``1.0 / x``, run in ``out``, which a training step keeps contiguous.
    Below z of about -709.78 the exponential overflows to inf and the
    sigmoid is 0.0, silently.
    """
    if scratch is None:
        scratch = np.zeros(np.shape(z), complex)
    np.negative(z, out=scratch.real)
    with np.errstate(over="ignore"):
        np.exp(scratch, out=scratch)
    out = np.add(scratch.real, 1.0, out=out)
    return np.reciprocal(out, out=out)


def _targets(y, ndim: int = 2) -> np.ndarray:
    """Class labels (softmax outputs) or a 0/1 matrix (sigmoid outputs), told
    apart by rank: a matrix has the ``ndim`` of the logits, labels one less."""
    y = np.asarray(y)
    if y.ndim == ndim - 1:
        return y.astype(int, copy=False)
    if y.ndim == ndim:
        return y.astype(float, copy=False)
    raise ConfigError(f"targets have shape {y.shape}, expected (n,) labels or an (n, output) matrix")


def _one_hot(y: np.ndarray, width: int) -> np.ndarray:
    """Labels as 0/1 float rows of ``width`` entries, one more axis than ``y``;
    a label outside [0, width) gives a row of zeros."""
    return (y[..., None] == np.arange(width)).astype(float)


def cross_entropy(model: VectorClassifier, X: np.ndarray, y: np.ndarray, l2: float = 0.0) -> float:
    """Mean per-row loss plus (l2/2)*||W||^2 on the weight matrices.

    1-D labels give softmax cross-entropy; a 2-D 0/1 matrix gives binary
    cross-entropy of independent sigmoids, summed over the outputs. Labels
    must lie in [0, output_dim); they are not checked here, `train_stack`
    checks them once.
    """
    _, _, Z2 = _layers(model, X)
    y = _targets(y)
    if y.ndim == 2:
        # log(1 + e^z) - y z, summed over coordinates
        per_row = (np.logaddexp(0.0, Z2) - y * Z2).sum(axis=1)
    else:
        P = softmax(Z2)
        per_row = -np.log(np.maximum(np.take_along_axis(P, y[:, None], axis=1)[:, 0], 1e-300))
    # a zero penalty is still added: it turns the -0.0 mean of certain outputs into 0.0
    penalty = 0.5 * l2 * (np.sum(model.W1**2) + np.sum(model.W2**2)) if l2 else 0.0
    return float(np.mean(per_row) + penalty)


def _bias_sum(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a.sum(axis=-2, out=out)``, bit for bit: a bias gradient, summed over
    the batch rows of an (..., n, width) array.

    numpy's reduction loops over only ``width`` contiguous elements per row,
    so for a stack it costs about three times what einsum does; einsum adds
    the rows in the same order wherever the width is above 1. At width 1
    numpy sums the rows pairwise and einsum does not, so the bits differ
    and the reduction stays.
    """
    if a.shape[-1] > 1:
        return np.einsum("...nw->...w", a, out=out)
    return a.sum(axis=-2, out=out)


def _rows(pool: np.ndarray, shape: tuple) -> np.ndarray:
    """The first prod(``shape``) rows of ``pool``, a view shaped ``shape``
    followed by the shape of one row."""
    return pool[: math.prod(shape)].reshape(shape + pool.shape[1:])


def _scratch(dims, rows: int, sigmoid: bool) -> list:
    """Zeroed buffers of ``rows`` rows for `_step_work`: Z1, H, Z2, dZ1 and
    the ReLU mask, then the activation's own, the complex exponentials of
    `expit` for sigmoid outputs, whose imaginary part `expit` needs at
    +0.0, else the row max and row total columns of `softmax`."""
    _, hidden, outputs = dims
    widths = [(hidden, float)] * 2 + [(outputs, float)] + [(hidden, float)] * 2
    widths += [(outputs, complex)] if sigmoid else [(1, float)] * 2
    return [np.zeros((rows, width), dtype) for width, dtype in widths]


def _step_work(model: VectorClassifier, shape: tuple, sigmoid: bool, scratch: list, grads: Gradients) -> tuple:
    """The ``work`` of `gradient` for ``model`` on a batch of ``shape``, that
    is (n,), or (k, n) for a stack of k models: both layers'
    `_affine_views`, the forward and backward buffers cut from ``scratch``
    (`_scratch`, at least prod(``shape``) rows) and their transposes, the
    activation and its buffers, the batch size n as a float, so that the
    step's division converts nothing, and ``grads``, which receives the
    gradients. Everything one step touches but the batch and its
    targets."""
    Z1, H, Z2, dZ1, mask, *act = (_rows(a, shape) for a in scratch)
    activate, act = (expit, act[0]) if sigmoid else (softmax, tuple(act))
    views = (_affine_views(model.W1, model.b1), _affine_views(model.W2, model.b2))
    return (views, Z1, H, Z2, Z2.swapaxes(-1, -2), dZ1, dZ1.swapaxes(-1, -2), mask,
            activate, act, float(shape[-1]), grads)


def gradient(model: VectorClassifier, X: np.ndarray, y: np.ndarray, l2: float = 0.0,
             work: tuple | None = None) -> Gradients:
    """Backpropagated gradient of `cross_entropy` (mean over the batch), for
    the same targets. Labels are not range-checked here; `train_stack`
    checks them once.

    A stacked model (see `_layers`) with a (k, n, input_dim) stack of
    batches and (k, n) labels or a (k, n, output_dim) matrix gives stacked
    gradients, each equal to that model's own call.

    ``work``, from `_step_work` for this model and the batch's shape, holds
    everything the step needs but ``X`` and ``y``, so the call makes only
    numpy calls: `train_stack` builds one for each step of its epochs, once
    per call, and refills that step's ``X`` and ``y`` before each call. With ``work``, ``y``
    must be an output-shaped 0/1 matrix (labels one-hot), the activation is
    the work's, and the gradients land in the work's arrays; nothing is
    checked. Without it, the call checks its inputs, builds the same work
    for itself and runs the same body. Labels enter as one-hot rows:
    softmax minus 1.0 at the label and minus 0.0 elsewhere, the bits of
    subtracting 1.0 at the label alone.
    """
    if work is None:
        X = _batch(model, X)
        shape = X.shape[:-1]
        if shape[-1] == 0:
            raise ConfigError("gradient needs a non-empty batch")
        y = _targets(y, X.ndim)
        sigmoid = y.ndim == X.ndim
        if not sigmoid:
            y = _one_hot(y, model.output_dim)
        if y.shape != shape + (model.output_dim,):
            raise ConfigError(f"targets have shape {y.shape}, expected {shape + (model.output_dim,)}")
        grads = Gradients(*(np.empty(a.shape) for a in (model.W1, model.b1, model.W2, model.b2)))
        dims = (model.input_dim, model.hidden_dim, model.output_dim)
        work = _step_work(model, shape, sigmoid, _scratch(dims, math.prod(shape), sigmoid), grads)
    views, Z1, H, Z2, delta_T, dZ1, dZ1_T, mask, activate, act, n, g = work
    _layers(model, X, Z1, H, Z2, views)
    delta = activate(Z2, Z2, act)
    delta -= y
    delta /= n
    np.matmul(delta_T, H, out=g.dW2)
    _bias_sum(delta, g.db2)
    np.matmul(delta, model.W2, out=dZ1)
    np.greater(Z1, 0.0, out=mask)
    dZ1 *= mask
    np.matmul(dZ1_T, X, out=g.dW1)
    _bias_sum(dZ1, g.db1)
    if l2:
        g.dW2 += l2 * model.W2
        g.dW1 += l2 * model.W1
    return g


def train(model: VectorClassifier, X: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> None:
    """Mini-batch gradient descent on `cross_entropy`; mutates ``model`` in place.

    The loss follows the targets: 1-D integer labels train softmax outputs,
    an (n, output_dim) 0/1 matrix trains independent sigmoid outputs.
    Shuffling comes from a PRNG seeded with ``cfg.seed``, so equal seeds give
    bit-identical parameters. After each epoch's updates `DivergedError`
    is raised if the full training-set loss is not finite; that loss is
    computed only when `_loss_bounds` cannot rule it out (see
    `train_stack`). A stack of one in `train_stack`, over every row of ``X``.
    """
    train_stack([model], X, y, [np.arange(len(X))], [cfg])


def _check_training_set(X: np.ndarray, y: np.ndarray, model: VectorClassifier) -> None:
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ConfigError(f"training set has shape {X.shape}, expected (n, {model.input_dim})")
    if X.shape[0] == 0:
        raise ConfigError("training set is empty")
    if X.shape[0] != y.shape[0]:
        raise ConfigError("features and labels disagree in length")
    if y.ndim == 2:
        if y.shape[1] != model.output_dim:
            raise ConfigError(f"targets have {y.shape[1]} columns, expected output_dim {model.output_dim}")
        if not np.isin(y, (0.0, 1.0)).all():
            raise ConfigError("target matrix must be 0/1")
    elif y.min() < 0 or y.max() >= model.output_dim:
        raise ConfigError("labels must lie in [0, output_dim)")


# Far below float64's overflow at about 1.8e308, so the rounding of the
# bound's own arithmetic and of the loss's sums cannot carry a quantity
# under it past overflow.
SAFE_BOUND = 1e150


def _loss_bounds(x_max, W1, b1, W2, b2, l2: float) -> np.ndarray:
    """Per-model bound on every |logit| and on the l2 term of `cross_entropy`,
    for a stack of k models and ``x_max``, the (k,) largest |x| of each
    training set; nan or inf wherever an input holds one.

    |Z1| <= input_dim * max|x| * max|W1| + max|b1| bounds the hidden
    activations, and hidden_dim times that times max|W2|, plus max|b2|,
    bounds the logits. With every logit finite, softmax cross-entropy is at
    most -log(1e-300), about 691, per row, and binary cross-entropy at most
    output_dim * (2|z| + log 2), so a bound under `SAFE_BOUND` makes the
    loss finite.
    """
    k, hidden, inputs = W1.shape
    w1, c1, w2, c2 = (np.abs(a).reshape(k, -1).max(axis=1) for a in (W1, b1, W2, b2))
    with np.errstate(over="ignore", invalid="ignore"):
        bound = hidden * (inputs * x_max * w1 + c1) * w2 + c2
        if l2:
            # np.maximum, unlike max(), keeps a nan
            bound = np.maximum(bound, 0.5 * l2 * hidden * (inputs * w1**2 + W2.shape[1] * w2**2))
    return bound


PARAMS = ("W1", "b1", "W2", "b2")


def _param_views(flat: np.ndarray, dims) -> list:
    """W1, b1, W2, b2 of an (m, P) array whose rows each hold one model's
    parameters, flattened and in that order: views, each with a leading
    axis of m."""
    inputs, hidden, outputs = dims
    shapes = ((hidden, inputs), (hidden,), (outputs, hidden), (outputs,))
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[:, at : at + size].reshape((len(flat),) + shape))
        at += size
    return views


def _row_index(rows, n: int) -> np.ndarray:
    """A model's training rows as an intp index into the n rows of X; a
    ConfigError unless they are a non-empty 1-D array of integers in [0, n).
    The steps gather with ``mode="clip"``, which would clip a bad index to a
    valid row in silence, so every index is checked here."""
    r = np.asarray(rows)
    if r.ndim != 1 or r.dtype.kind not in "iu":
        raise ConfigError(f"row index must be a 1-D integer array, not {r.dtype} of shape {r.shape}")
    if len(r) == 0:
        raise ConfigError("training set is empty")
    if r.min() < 0 or r.max() >= n:
        raise ConfigError(f"row index must lie in [0, {n}), got [{r.min()}, {r.max()}]")
    return r.astype(np.intp, copy=False)


def train_stack(models: list, X: np.ndarray, y: np.ndarray, rows: list, cfgs: list) -> None:
    """`train` for k models at once, each on its own rows of one training
    pool; mutates the models in place.

    ``X`` and ``y`` hold the pool: features (N, input_dim) and labels (N,)
    or a 0/1 matrix (N, output_dim), every one of them valid. ``rows[j]``
    indexes model j's training set in it, in order; rows are gathered per
    step and never copied per model. The models share their dims and every
    TrainConfig field but ``seed``. Each keeps its own PRNG, per-epoch
    permutation, ragged last batch and divergence check, so its parameters
    equal those of training it alone on ``X[rows[j]]``, bit for bit. Only
    the steps are shared: with the models ordered largest training set
    first (a stable sort), the ones that still have a full batch at step t
    form a prefix and take one stacked `gradient` call, and the models of
    one training-set size sit side by side, so their ragged last batches
    take one call too. Each step's `gradient` work (views, buffers and
    targets, labels as one-hot rows) is built once per call, not per step.
    Every input is checked before any parameter moves.

    After each epoch, a model whose full training-set `cross_entropy` is
    not finite has diverged, and the first such model in input order
    raises `DivergedError` with that epoch and loss. The loss itself is
    computed only for a model whose `_loss_bounds` value, from the largest
    magnitudes of its training set and parameters, is not below
    `SAFE_BOUND`: under that bound the loss is provably finite, so the
    same epoch, model and loss raise as if every loss were computed.
    """
    k = len(models)
    if k == 0 or not len(rows) == len(cfgs) == k:
        raise ConfigError("train_stack needs at least one model and one row index and config per model")
    first = models[0]
    dims = (first.input_dim, first.hidden_dim, first.output_dim)
    cfg = cfgs[0]
    cfg.validate()
    for model, c in zip(models[1:], cfgs[1:]):
        if (model.input_dim, model.hidden_dim, model.output_dim) != dims:
            raise ConfigError("stacked models must share their dims")
        if dataclasses.replace(c, seed=cfg.seed) != cfg:
            raise ConfigError("stacked training configs may differ only in seed")
    X = np.asarray(X, dtype=float)
    y = _targets(y)
    _check_training_set(X, y, first)
    rows = [_row_index(r, len(X)) for r in rows]
    sigmoid = y.ndim == 2
    # the steps' targets: a 0/1 matrix as given, labels as one-hot rows
    Y = y if sigmoid else _one_hot(y, dims[2])

    order = sorted(range(k), key=lambda i: -len(rows[i]))  # stable: ties keep input order
    # from here on, position p in the stack holds model order[p]
    rows = [rows[i] for i in order]
    sizes = [len(r) for r in rows]
    # each position's parameters are one row of theta, its gradients one
    # row of grads; W1, b1, W2, b2 are views into them
    theta = np.stack([np.concatenate([getattr(models[i], name).ravel() for name in PARAMS]) for i in order])
    grads = np.empty(theta.shape)
    W1, b1, W2, b2 = _param_views(theta, dims)

    def view(members):
        return VectorClassifier(*dims, W1[members], b1[members], W2[members], b2[members])

    # An epoch's steps: at each start, one call for the models that still
    # have a full batch, then one call per length of ragged last batch; the
    # models of one training-set size are adjacent, so each is one slice.
    # A step of m models and `size` rows gathers its batches from the pool
    # through its rows of the epoch's index, and runs in the first m * size
    # rows of buffers allocated once, for the largest step; its gradients
    # are the first m rows of grads.
    b = cfg.batch_size
    batches = []
    for start in range(0, sizes[0], b):
        full = sum(1 for n in sizes if n >= start + b)
        batches += [(slice(0, full), start, start + b)] if full else []
        for n in sorted({n for n in sizes if start < n < start + b}, reverse=True):
            first_at = sizes.index(n)
            batches.append((slice(first_at, first_at + sizes.count(n)), start, n))
    most = max((m.stop - m.start) * (stop - start) for m, start, stop in batches)
    X_pool, Y_pool = (np.empty((most,) + a.shape[1:]) for a in (X, Y))
    scratch = _scratch(dims, most, sigmoid)
    index = np.empty((k, sizes[0]), dtype=np.intp)
    steps = []
    for members, start, stop in batches:
        shape = (members.stop - members.start, stop - start)
        g = Gradients(*_param_views(grads[: shape[0]], dims))
        model = view(members)
        steps.append((index[members, start:stop], _rows(X_pool, shape), _rows(Y_pool, shape), model,
                      _step_work(model, shape, sigmoid, scratch, g), grads[: shape[0]], theta[members]))
    alone = [view(p) for p in range(k)]
    rngs = [np.random.default_rng(cfgs[i].seed) for i in order]
    by_input = sorted(range(k), key=order.__getitem__)  # positions, in input order
    # max |x| of each training set, from each row's largest and smallest entry
    row_abs = np.maximum(X.max(axis=1), -X.min(axis=1))
    x_max = np.array([row_abs[r].max() for r in rows])
    lr = cfg.learning_rate
    try:
        for epoch in range(cfg.epochs):
            for p, (rng, r) in enumerate(zip(rngs, rows)):
                r.take(rng.permutation(len(r)), out=index[p, : len(r)])
            for step_rows, X_b, Y_b, model, work, g_flat, params in steps:
                # every index is in range (`_row_index`), so mode="clip"
                # clips nothing; the default mode would gather into a
                # temporary and copy it into out
                X.take(step_rows, axis=0, out=X_b, mode="clip")
                Y.take(step_rows, axis=0, out=Y_b, mode="clip")
                gradient(model, X_b, Y_b, cfg.l2, work)
                g_flat *= lr
                params -= g_flat
            bounded = _loss_bounds(x_max, W1, b1, W2, b2, cfg.l2) < SAFE_BOUND  # False for nan
            for p in by_input:
                if bounded[p]:
                    continue
                loss = cross_entropy(alone[p], X[rows[p]], y[rows[p]], cfg.l2)
                if not np.isfinite(loss):
                    raise DivergedError(epoch, loss)
    finally:
        for p, i in enumerate(order):
            for name in PARAMS:
                getattr(models[i], name)[...] = getattr(alone[p], name)


def model_to_dict(model: VectorClassifier) -> dict:
    """JSON-ready form: dims plus flat row-major parameter arrays."""
    return {
        "model_format": MODEL_FORMAT,
        "input_dim": model.input_dim,
        "hidden_dim": model.hidden_dim,
        "output_dim": model.output_dim,
        "W1": [float(v) for v in model.W1.ravel()],
        "b1": [float(v) for v in model.b1],
        "W2": [float(v) for v in model.W2.ravel()],
        "b2": [float(v) for v in model.b2],
    }


def model_from_dict(d: dict) -> VectorClassifier:
    """The model `model_to_dict` wrote as ``d``; anything else raises `ConfigError`."""
    if not isinstance(d, dict):
        raise ConfigError(f"a model must be a JSON object, got {type(d).__name__}")
    if not is_int(d.get("model_format")) or d["model_format"] != MODEL_FORMAT:
        raise ConfigError(f"unsupported model format {d.get('model_format')!r}")
    i, h, o = d.get("input_dim"), d.get("hidden_dim"), d.get("output_dim")
    if not all(is_int(dim) and dim >= 1 for dim in (i, h, o)):
        raise ConfigError(f"model dims must be positive integers, got {i}, {h}, {o}")
    params = {}
    for name in PARAMS:
        # numpy would read true as 1.0 and "0.5" as 0.5
        if not isinstance(d.get(name), list) or not set(map(type, d[name])) <= {int, float}:
            raise ConfigError(f"model parameters must be lists of numbers, and {name} is not")
        try:
            params[name] = np.array(d[name], dtype=float)
        except OverflowError:
            raise ConfigError(f"{name} holds an integer past float range") from None
    for name, size in (("W1", h * i), ("b1", h), ("W2", o * h), ("b2", o)):
        if params[name].shape != (size,):
            raise ConfigError(f"{name} has shape {params[name].shape}, but the dims give ({size},)")
        if not np.isfinite(params[name]).all():
            raise ConfigError(f"{name} holds a non-finite value")
    return VectorClassifier(i, h, o, params["W1"].reshape(h, i), params["b1"],
                            params["W2"].reshape(o, h), params["b2"])
