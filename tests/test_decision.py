import numpy as np
import pytest

from sceneselect import decision, learners, sampling
from sceneselect.decision import DecisionModel, decision_probs, rank_models, train_decision
from sceneselect.errors import ArtifactMismatchError, ConfigError
from sceneselect.learners import TrainConfig

from conftest import params_hash


def fake_state(rows, n):
    """SamplingState stub holding the given rows of (index, bits)."""
    bits = np.array([bits for _, bits in rows], dtype=bool).reshape(len(rows), n)
    return sampling.SamplingState(
        arms=[], rows=[idx for idx, _ in rows], bits=bits, theta=0.9, kappa=10, seed=0
    )


def allocation_labels(state):
    """(sample indices, 0/1 label matrix) as train-decision reads them from pools.json."""
    rows = sampling.pools_payload(state, "dhash", "rhash")["rows"]
    indices = np.array([r["sample_index"] for r in rows], dtype=int)
    labels = np.array([r["bits"] for r in rows], dtype=float)
    return indices, labels


def rank_one(model, x):
    """rank_models on a batch of one sample."""
    probs, ranking = rank_models(model, x[None])
    return probs[0], ranking[0]


def constant_prob_head(probs):
    """Decision model whose head emits fixed probabilities regardless of input."""
    backbone = learners.new_classifier(3, 4, 2, seed=0)
    head = learners.new_classifier(4, 2, len(probs), seed=1)
    head.W1[...] = 0.0
    head.b1[...] = 0.0
    head.W2[...] = 0.0
    logit = lambda p: float(np.log(p / (1.0 - p)))
    head.b2[:] = [logit(p) for p in probs]
    return DecisionModel(backbone=backbone, head=head)


class TestAllocationLabels:
    def test_membership_bits(self):
        state = fake_state([(5, [1, 0, 1])], n=3)
        idx, labels = allocation_labels(state)
        assert idx.tolist() == [5]
        assert labels.tolist() == [[1.0, 0.0, 1.0]]

    def test_all_zero_rows_kept(self):
        state = fake_state([(1, [0, 0]), (2, [1, 1])], n=2)
        idx, labels = allocation_labels(state)
        assert idx.tolist() == [1, 2]
        assert labels[0].tolist() == [0.0, 0.0]

    def test_row_count_matches_distinct_samples(self, bench42):
        idx, labels = allocation_labels(bench42.state)
        assert len(idx) == bench42.state.distinct_drawn
        assert labels.shape == (len(idx), len(bench42.repo.entries))


class TestTrainDecision:
    def test_backbone_frozen(self, small_ds):
        enc = learners.new_classifier(small_ds.schema.feature_dim, 6, 4, seed=3)
        before = params_hash(enc)
        labels = np.ones((20, 3))
        model = train_decision(enc, small_ds, np.arange(20), labels, 8, TrainConfig(0.2, 40, 16, seed=4))
        assert params_hash(model.backbone) == before

    def test_all_ones_labels_learned(self, small_ds):
        enc = learners.new_classifier(small_ds.schema.feature_dim, 6, 4, seed=3)
        labels = np.ones((30, 3))
        model = train_decision(enc, small_ds, np.arange(30), labels, 8, TrainConfig(0.2, 60, 16, seed=5))
        for i in range(30):
            probs = decision_probs(model, small_ds.features[i][None])[0]
            assert (probs > 0.5).all()

    def test_same_seed_identical_head(self, small_ds):
        enc = learners.new_classifier(small_ds.schema.feature_dim, 6, 4, seed=3)
        rng = np.random.default_rng(0)
        labels = (rng.random((25, 3)) < 0.5).astype(float)
        heads = []
        for _ in range(2):
            m = train_decision(enc, small_ds, np.arange(25), labels, 8, TrainConfig(0.2, 30, 8, seed=6))
            heads.append(params_hash(m.head))
        assert heads[0] == heads[1]

    def test_empty_rows_rejected(self, small_ds):
        enc = learners.new_classifier(small_ds.schema.feature_dim, 6, 4, seed=3)
        with pytest.raises(ConfigError):
            train_decision(enc, small_ds, np.array([], dtype=int), np.zeros((0, 3)), 8, TrainConfig(0.2, 5, 4))


class TestRanking:
    def test_ranking_with_tie_break(self):
        model = constant_prob_head([0.1, 0.9, 0.9])
        probs, ranking = rank_one(model, np.zeros(3))
        assert np.allclose(probs, [0.1, 0.9, 0.9])
        assert ranking.tolist() == [1, 2, 0]

    def test_single_model(self):
        model = constant_prob_head([0.42])
        _, ranking = rank_one(model, np.zeros(3))
        assert ranking.tolist() == [0]

    def test_invariant_under_monotone_logit_transform(self, bench42):
        model = bench42.decision
        x = bench42.trace.features[0]
        _, before = rank_one(model, x)
        scaled = DecisionModel(
            backbone=model.backbone,
            head=learners.VectorClassifier(
                model.head.input_dim,
                model.head.hidden_dim,
                model.head.output_dim,
                model.head.W1.copy(),
                model.head.b1.copy(),
                model.head.W2 * 2.0,
                model.head.b2 * 2.0,
            ),
        )
        _, after = rank_one(scaled, x)
        assert before.tolist() == after.tolist()

    def test_probabilities_strictly_inside_unit_interval(self, bench42):
        for frame in (0, 100, 499):
            probs = decision_probs(bench42.decision, bench42.trace.features[frame][None])[0]
            assert np.all(probs > 0.0) and np.all(probs < 1.0)


class TestDecisionIO:
    def test_round_trip_and_hash_checks(self, tmp_path, small_ds):
        enc = learners.new_classifier(small_ds.schema.feature_dim, 6, 4, seed=3)
        labels = np.ones((10, 3))
        model = train_decision(enc, small_ds, np.arange(10), labels, 8, TrainConfig(0.2, 10, 8, seed=7))
        path = tmp_path / "decision.json"
        decision.save_decision(path, model, "ehash", "rhash")
        again, _ = decision.load_decision(path, enc, "ehash", "rhash")
        assert params_hash(again.head) == params_hash(model.head)
        with pytest.raises(ArtifactMismatchError):
            decision.load_decision(path, enc, "WRONG", "rhash")
        with pytest.raises(ArtifactMismatchError):
            decision.load_decision(path, enc, "ehash", "WRONG")
