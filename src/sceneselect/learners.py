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

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import ConfigError, DivergedError

MODEL_FORMAT = 1


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
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be non-negative")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.l2 < 0:
            raise ConfigError("l2 must be non-negative")


@dataclass
class TrainReport:
    final_loss: float
    epochs_run: int
    losses: list = field(default_factory=list)


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


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis; exact for |logit| <= 500."""
    logits = np.asarray(logits, dtype=float)
    # Row max one column at a time: max is exact, so this equals
    # logits.max(axis=-1) bit for bit, and numpy's reduction over a short
    # last axis costs far more than a few strided maximum calls.
    row_max = logits[..., :1].copy()
    for j in range(1, logits.shape[-1]):
        np.maximum(row_max, logits[..., j : j + 1], out=row_max)
    out = logits - row_max
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _layers(model: VectorClassifier, X: np.ndarray):
    """(Z1, H, Z2) for an (n, input_dim) batch: hidden pre-activation, hidden
    activation, output logits. The one place the two layers are computed."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ConfigError(f"batch has shape {X.shape}, expected (n, {model.input_dim})")
    Z1 = X @ model.W1.T
    Z1 += model.b1
    H = np.maximum(Z1, 0.0)
    Z2 = H @ model.W2.T
    Z2 += model.b2
    return Z1, H, Z2


def forward(model: VectorClassifier, X: np.ndarray):
    """(n, input_dim) batch forward; returns hidden (n, hidden) and softmax probs (n, output)."""
    _, H, Z2 = _layers(model, X)
    return H, softmax(Z2)


def predict(model: VectorClassifier, X: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest index."""
    _, P = forward(model, X)
    return np.argmax(P, axis=1)


def embed(model: VectorClassifier, X: np.ndarray) -> np.ndarray:
    """Hidden activations (n, hidden) of a batch."""
    return _layers(model, X)[1]


def sigmoid_probs(model: VectorClassifier, X: np.ndarray) -> np.ndarray:
    """Independent per-output probabilities (n, output) in [0, 1]: the outputs
    a model trained on a 2-D 0/1 target matrix fits. Each lies in (0, 1)
    for moderate logits; ``expit`` rounds to exactly 0.0 or 1.0 beyond
    |logit| of about 37."""
    return expit(_layers(model, X)[2])


def _targets(y) -> np.ndarray:
    """1-D class labels (softmax outputs) or a 2-D 0/1 matrix (sigmoid outputs)."""
    y = np.asarray(y)
    if y.ndim == 1:
        return y.astype(int, copy=False)
    if y.ndim == 2:
        return y.astype(float, copy=False)
    raise ConfigError(f"targets have shape {y.shape}, expected (n,) labels or an (n, output) matrix")


def cross_entropy(model: VectorClassifier, X: np.ndarray, y: np.ndarray, l2: float = 0.0) -> float:
    """Mean per-row loss plus (l2/2)*||W||^2 on the weight matrices.

    1-D labels give softmax cross-entropy; a 2-D 0/1 matrix gives binary
    cross-entropy of independent sigmoids, summed over the outputs. Labels
    must lie in [0, output_dim); they are not checked here, `train` checks
    them once.
    """
    _, _, Z2 = _layers(model, X)
    y = _targets(y)
    if y.ndim == 2:
        # log(1 + e^z) - y z, summed over coordinates
        per_row = (np.logaddexp(0.0, Z2) - y * Z2).sum(axis=1)
    else:
        P = softmax(Z2)
        per_row = -np.log(np.maximum(P.ravel()[_flat_index(y, P.shape[1])], 1e-300))
    # a zero penalty is still added: it turns the -0.0 mean of certain outputs into 0.0
    penalty = 0.5 * l2 * (np.sum(model.W1**2) + np.sum(model.W2**2)) if l2 else 0.0
    return float(np.mean(per_row) + penalty)


def _flat_index(y: np.ndarray, width: int) -> np.ndarray:
    """Positions of each row's label in the row-major ravel of an (n, width) array."""
    flat = np.arange(0, y.shape[0] * width, width)
    flat += y
    return flat


def gradient(model: VectorClassifier, X: np.ndarray, y: np.ndarray, l2: float = 0.0) -> Gradients:
    """Backpropagated gradient of `cross_entropy` (mean over the batch), for
    the same targets."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] == 0:
        raise ConfigError("gradient needs a non-empty batch")
    n = X.shape[0]
    Z1, H, Z2 = _layers(model, X)
    y = _targets(y)
    if y.ndim == 2:
        delta = expit(Z2, out=Z2)
        delta -= y
    else:
        delta = softmax(Z2)
        delta.ravel()[_flat_index(y, delta.shape[1])] -= 1.0
    delta /= n
    dW2 = delta.T @ H
    db2 = delta.sum(axis=0)
    dZ1 = delta @ model.W2
    dZ1 *= Z1 > 0.0
    dW1 = dZ1.T @ X
    db1 = dZ1.sum(axis=0)
    if l2:
        dW2 += l2 * model.W2
        dW1 += l2 * model.W1
    return Gradients(dW1, db1, dW2, db2)


def train(model: VectorClassifier, X: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> TrainReport:
    """Mini-batch gradient descent on `cross_entropy`; mutates ``model`` in place.

    The loss follows the targets: 1-D integer labels train softmax outputs,
    an (n, output_dim) 0/1 matrix trains independent sigmoid outputs.
    Shuffling comes from a PRNG seeded with ``cfg.seed``, so equal seeds give
    bit-identical parameters. The loss recorded for each epoch is the full
    training-set loss after that epoch's updates.
    """
    cfg.validate()
    X = np.asarray(X, dtype=float)
    y = _targets(y)
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

    rng = np.random.default_rng(cfg.seed)
    n = X.shape[0]
    # one shuffled copy per epoch, into buffers reused across epochs; the
    # batches are contiguous row slices of it
    X_epoch = np.empty(X.shape)
    y_epoch = np.empty(y.shape, dtype=y.dtype)
    params = (model.W1, model.b1, model.W2, model.b2)
    losses = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        # mode="clip" never clips a permutation; the default mode would
        # gather into a temporary and copy it into out
        np.take(X, order, axis=0, out=X_epoch, mode="clip")
        np.take(y, order, axis=0, out=y_epoch, mode="clip")
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            g = gradient(model, X_epoch[start:stop], y_epoch[start:stop], cfg.l2)
            for param, grad in zip(params, (g.dW1, g.db1, g.dW2, g.db2)):
                grad *= cfg.learning_rate
                param -= grad
        loss = cross_entropy(model, X, y, cfg.l2)
        if not np.isfinite(loss):
            raise DivergedError(epoch, loss)
        losses.append(loss)
    return TrainReport(final_loss=losses[-1], epochs_run=cfg.epochs, losses=losses)


def param_count(model: VectorClassifier) -> int:
    return model.W1.size + model.b1.size + model.W2.size + model.b2.size


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
    if d.get("model_format") != MODEL_FORMAT:
        raise ConfigError(f"unsupported model format {d.get('model_format')!r}")
    i, h, o = d["input_dim"], d["hidden_dim"], d["output_dim"]
    W1 = np.asarray(d["W1"], dtype=float).reshape(h, i)
    b1 = np.asarray(d["b1"], dtype=float)
    W2 = np.asarray(d["W2"], dtype=float).reshape(o, h)
    b2 = np.asarray(d["b2"], dtype=float)
    if b1.shape != (h,) or b2.shape != (o,):
        raise ConfigError("bias arrays disagree with declared dims")
    return VectorClassifier(i, h, o, W1, b1, W2, b2)
