"""Model-ranking head trained on allocation vectors.

Each probed sample yields an allocation vector: bit i marks whether
repository model i handled the sample. A two-layer head on top of the frozen
scene encoder learns to reproduce those vectors with independent sigmoid
outputs (several models can suit a sample at once, and an all-zero row is a
valid "nothing fits" signal), trained with per-coordinate binary
cross-entropy. At inference the head's logits rank the repository.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import learners
from .artifacts import artifact_body, read_artifact, write_artifact
from .errors import ConfigError
from .learners import TrainConfig, VectorClassifier


@dataclass
class DecisionModel:
    backbone: VectorClassifier  # frozen scene encoder
    head: VectorClassifier  # relu hidden + sigmoid outputs, one per model

    @property
    def n(self) -> int:
        return self.head.output_dim


def train_decision(
    encoder: VectorClassifier,
    ds,
    sample_indices: np.ndarray,
    labels: np.ndarray,
    head_hidden: int,
    cfg: TrainConfig,
) -> DecisionModel:
    """Train the head on frozen-backbone embeddings; the encoder is never touched.

    ``labels`` holds one 0/1 allocation vector per sample, so the head is
    trained with independent sigmoid outputs.
    """
    labels = np.asarray(labels, dtype=float)
    if labels.ndim != 2 or labels.shape[0] != len(sample_indices):
        raise ConfigError("labels must be one allocation vector per sample")
    E = learners.embed(encoder, ds.features[np.asarray(sample_indices, dtype=int)])
    head = learners.new_classifier(encoder.hidden_dim, head_hidden, labels.shape[1], cfg.seed)
    learners.train(head, E, labels, cfg)
    return DecisionModel(backbone=encoder, head=head)


def rank_models(decision: DecisionModel, X: np.ndarray):
    """(confidence, rankings) for a batch: each row's top suitability
    probability (n,), and its model indices (n, models) by descending
    logit, ties by index.

    The confidence is bit-equal to the row max of the per-model
    probabilities, the `learners.expit` of the logits: the sigmoid is
    non-decreasing, so the top logit's probability is the top probability.
    The rankings equal the probabilities' stable argsort on every row but
    one where two distinct logits' probabilities round to the same value
    (above a logit of about 37 both round to 1.0): the probabilities then
    put the lower index first, these rankings the larger logit.
    """
    z = learners.logits(decision.head, learners.embed(decision.backbone, X))
    return learners.expit(learners.row_max(z)[:, 0]), np.argsort(-z, axis=1, kind="stable")


def save_decision(path, decision: DecisionModel, encoder_hash: str, repository_hash: str) -> str:
    return write_artifact(path, {
        "kind": "decision",
        "encoder_hash": encoder_hash,
        "repository_hash": repository_hash,
        "head": learners.model_to_dict(decision.head),
    })


def load_decision(path, encoder: VectorClassifier, encoder_hash: str, repository_hash: str):
    body = read_artifact(path, "decision", encoder=encoder_hash, repository=repository_hash)
    with artifact_body(path):
        head = learners.model_from_dict(body.get("head"))
    if head.input_dim != encoder.hidden_dim:
        raise ConfigError("decision head does not fit the encoder's embedding width")
    return DecisionModel(backbone=encoder, head=head), body
