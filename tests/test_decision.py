import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneselect import decision, learners, sampling
from sceneselect.decision import DecisionModel, decision_probs, rank_models, train_decision
from sceneselect.errors import ArtifactMismatchError, ConfigError
from sceneselect.learners import TrainConfig

from conftest import params_hash


def fake_state(rows, n):
    """SamplingState stub holding the given rows of (index, bits)."""
    bits = np.array([bits for _, bits in rows], dtype=bool).reshape(len(rows), n)
    return sampling.SamplingState(arms=[], rows=[idx for idx, _ in rows], bits=bits)


def allocation_labels(state):
    """(sample indices, 0/1 label matrix) as train-decision reads them from pools.json."""
    return np.array(state.rows, dtype=int), state.bits.astype(float)


def rank_one(model, x):
    """rank_models on a batch of one sample."""
    confidence, ranking = rank_models(model, x[None])
    return confidence[0], ranking[0]


def constant_logit_head(logits):
    """Decision model whose head emits fixed logits regardless of input."""
    backbone = learners.new_classifier(3, 4, 2, seed=0)
    head = learners.new_classifier(4, 2, len(logits), seed=1)
    head.W1[...] = 0.0
    head.b1[...] = 0.0
    head.W2[...] = 0.0
    head.b2[:] = logits
    return DecisionModel(backbone=backbone, head=head)


def constant_prob_head(probs):
    """Decision model whose head emits fixed probabilities regardless of input."""
    return constant_logit_head([float(np.log(p / (1.0 - p))) for p in probs])


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
        confidence, ranking = rank_one(model, np.zeros(3))
        assert confidence == pytest.approx(0.9)
        assert ranking.tolist() == [1, 2, 0]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        models=st.integers(1, 8),
        hidden=st.integers(1, 6),
        rows=st.integers(1, 20),
        scale=st.sampled_from([0.0, 0.1, 1.0, 10.0, 100.0]),
        tie=st.booleans(),
    )
    def test_matches_the_probabilities(self, seed, models, hidden, rows, scale, tie):
        # confidence is the top probability; rankings are the probabilities'
        # stable argsort on every row where no two distinct logits share a
        # probability
        backbone = learners.new_classifier(3, 5, 2, seed=seed)
        head = learners.new_classifier(5, hidden, models, seed=seed + 1)
        rng = np.random.default_rng(seed)
        head.W2 *= scale
        head.b2[:] = scale * rng.normal(size=models)
        if tie:
            head.W2[-1], head.b2[-1] = head.W2[0], head.b2[0]
        model = DecisionModel(backbone=backbone, head=head)
        X = rng.normal(size=(rows, 3))
        confidence, rankings = rank_models(model, X)
        probs = decision_probs(model, X)
        assert confidence.tolist() == probs.max(axis=1).tolist()
        z = learners.logits(head, learners.embed(backbone, X))
        for zr, pr, ranking in zip(z, probs, rankings):
            clash = (pr[:, None] == pr[None, :]) & (zr[:, None] != zr[None, :])
            if not clash.any():
                assert ranking.tolist() == np.argsort(-pr, kind="stable").tolist()

    def test_saturated_probabilities_rank_by_logit(self):
        # the one exception to ranking as the probabilities do: logits 40 and
        # 41 both have probability 1.0, which ranks the lower index first
        model = constant_logit_head([40.0, 41.0, 0.0])
        probs = decision_probs(model, np.zeros((1, 3)))[0]
        assert probs.tolist() == [1.0, 1.0, 0.5]
        assert np.argsort(-probs, kind="stable").tolist() == [0, 1, 2]
        confidence, ranking = rank_one(model, np.zeros(3))
        assert ranking.tolist() == [1, 0, 2]
        assert confidence == 1.0

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
