import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from sceneselect import learners, sampling
from sceneselect.dataset import generate_dataset, part_indices
from sceneselect.errors import ConfigError
from sceneselect.profiling import build_repository, segment_semantic_scenes, train_scene_encoder
from sceneselect.sampling import (
    SamplingConfig,
    adaptive_sampling,
    probe_suitability,
    random_sampling,
    thompson_round,
    well_sampled_threshold,
)

from conftest import small_generator_config
from test_profiling import quick_profiling_cfg, quick_train_cfg


@pytest.fixture(scope="module")
def small_repo():
    ds = generate_dataset(small_generator_config(num_cells=4, clips_per_cell=2, frames_per_clip=60))
    scenes = segment_semantic_scenes(ds)
    enc = train_scene_encoder(ds, scenes, 8, quick_train_cfg())
    repo = build_repository(ds, scenes, enc, quick_profiling_cfg(n=4, delta=0.0))
    return ds, repo


class TestThreshold:
    def test_frozen_reference_values(self):
        # high-precision evaluation of the bound (50 decimal digits): 753.76803...
        assert well_sampled_threshold(100, 0.95) == pytest.approx(753.768033, abs=1e-5)
        assert well_sampled_threshold(50, 0.9) == pytest.approx(305.080089, abs=1e-5)

    def test_limit_theta_to_zero(self):
        assert well_sampled_threshold(5, 1e-280) < 1e-10

    def test_monotone_in_theta(self):
        values = [well_sampled_threshold(40, t) for t in (0.5, 0.9, 0.99)]
        assert values[0] < values[1] < values[2]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=10_000),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_positive_and_finite(self, g, theta):
        value = well_sampled_threshold(g, theta)
        assert math.isfinite(value) and value > 0

    def test_singleton_scene(self):
        assert well_sampled_threshold(1, 0.9) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            well_sampled_threshold(0, 0.9)
        with pytest.raises(ConfigError):
            well_sampled_threshold(10, 1.0)
        with pytest.raises(ConfigError):
            well_sampled_threshold(10, 0.0)


def two_arm_state(a0=(3.0, 2.0), a1=(1.0, 1.0), gammas=((0, 1, 2), (3, 4, 5))):
    # each arm freezes only when its scene is drained, as at theta = 0.9
    arms = [
        sampling.ArmState(0, a0[0], a0[1], 0, np.array(gammas[0]), len(gammas[0])),
        sampling.ArmState(1, a1[0], a1[1], 0, np.array(gammas[1]), len(gammas[1])),
    ]
    return sampling.SamplingState(arms=arms, rows=[], bits=np.zeros((0, 2), dtype=bool))


class TestThompsonRound:
    def test_update_rule_exact(self):
        # seed chosen so the (3,2) arm wins the draw
        state = two_arm_state()
        rng = np.random.default_rng(1)
        chosen = thompson_round(state, rng)
        if chosen == 0:
            assert (state.arms[0].alpha, state.arms[0].beta) == (4.0, 2.0)
            assert (state.arms[1].alpha, state.arms[1].beta) == (1.0, 2.0)
        else:
            assert (state.arms[1].alpha, state.arms[1].beta) == (2.0, 1.0)
            assert (state.arms[0].alpha, state.arms[0].beta) == (3.0, 3.0)

    def test_dominant_arm_wins_monte_carlo(self):
        rng = np.random.default_rng(7)
        wins = 0
        for _ in range(1000):
            state = two_arm_state(a0=(100.0, 1.0), a1=(1.0, 100.0))
            if thompson_round(state, rng) == 0:
                wins += 1
        assert wins > 990

    def test_all_frozen_returns_none(self):
        state = two_arm_state()
        for arm in state.arms:
            arm.drawn = len(arm.gamma)
        assert all(arm.drawn == len(arm.gamma) for arm in state.arms)
        before = [(a.alpha, a.beta) for a in state.arms]
        assert thompson_round(state, np.random.default_rng(0)) is None
        assert [(a.alpha, a.beta) for a in state.arms] == before

    def test_update_conservation(self):
        state = two_arm_state()
        rng = np.random.default_rng(3)
        for _ in range(25):
            active = [a for a in state.arms if a.active]
            total = sum(a.alpha + a.beta for a in active)
            if thompson_round(state, rng) is None:
                break
            still = [a for a in state.arms if a in active]
            assert sum(a.alpha + a.beta for a in still) == total + len(active)


class TestProbe:
    def test_constant_model(self, small_ds):
        m = learners.new_classifier(small_ds.schema.feature_dim, 4, small_ds.schema.num_classes, 0)
        for arr in (m.W1, m.W2):
            arr[...] = 0.0
        m.b2[:] = 0.0
        m.b2[0] = 10.0  # always predicts class 0
        bits = probe_suitability(m, small_ds.features, small_ds.labels)
        assert bits.dtype == bool
        assert np.array_equal(bits, small_ds.labels == 0)

    def test_probe_is_pure(self, small_ds):
        m = learners.new_classifier(small_ds.schema.feature_dim, 4, small_ds.schema.num_classes, 1)
        X, y = small_ds.features, small_ds.labels
        first = probe_suitability(m, X, y)
        for _ in range(3):
            assert np.array_equal(probe_suitability(m, X, y), first)

    def test_batch_equals_batches_of_one(self, small_ds):
        m = learners.new_classifier(small_ds.schema.feature_dim, 4, small_ds.schema.num_classes, 2)
        X, y = small_ds.features[:40], small_ds.labels[:40]
        one_by_one = [probe_suitability(m, X[i][None], y[i : i + 1])[0] for i in range(len(X))]
        assert probe_suitability(m, X, y).tolist() == one_by_one


class TestAdaptive:
    def test_zero_budget(self, small_repo):
        ds, repo = small_repo
        state = adaptive_sampling(ds, repo, SamplingConfig(0.9, 0, 1))
        assert state.rows == [] and state.bits.shape == (0, len(repo.entries))

    def test_budget_respected_and_pools_aligned(self, small_repo):
        ds, repo = small_repo
        state = adaptive_sampling(ds, repo, SamplingConfig(0.9, 37, 2))
        assert state.distinct_drawn <= 37
        assert len(state.rows) == state.distinct_drawn
        assert state.bits.shape == (state.distinct_drawn, len(repo.entries))

    def test_budget_fully_spent(self, small_repo):
        # at theta = 0.9 no arm freezes before its scene drains, so the
        # per-arm share cap must still let the whole budget be spent
        ds, repo = small_repo
        union = set()
        for entry in repo.entries:
            union.update(int(i) for i in entry.scene.train_indices)
        for kappa in (len(union) // 3, len(union) - 1, len(union), len(union) + 25):
            state = adaptive_sampling(ds, repo, SamplingConfig(0.9, kappa, 7))
            assert state.distinct_drawn == min(kappa, len(union))

    def test_single_tiny_arm_stops_at_exhaustion(self, small_repo):
        ds, repo = small_repo
        import dataclasses

        entry = repo.entries[0]
        tiny = dataclasses.replace(
            entry,
            scene=dataclasses.replace(entry.scene, train_indices=entry.scene.train_indices[:3]),
        )
        small = type(repo)(entries=[tiny])
        state = adaptive_sampling(ds, small, SamplingConfig(0.9, 10, 3))
        assert state.arms[0].drawn == 3
        assert state.arms[0].drawn == len(state.arms[0].gamma)
        assert state.distinct_drawn == 3

    def test_stopping_soundness_freeze_before_exhaustion(self, small_repo):
        # threshold(3, 0.1) ~ 1.54, so a 3-sample scene freezes as
        # well-sampled after two draws, one sample still undrawn
        ds, repo = small_repo
        import dataclasses

        entry = repo.entries[0]
        tiny = dataclasses.replace(
            entry,
            scene=dataclasses.replace(entry.scene, train_indices=entry.scene.train_indices[:3]),
        )
        state = adaptive_sampling(ds, type(repo)(entries=[tiny]), SamplingConfig(0.1, 10, 3))
        arm = state.arms[0]
        assert arm.drawn == 2
        assert arm.drawn > well_sampled_threshold(3, 0.1) and arm.drawn < len(arm.gamma)
        assert state.distinct_drawn == 2
        # a frozen arm receives no further draws or posterior updates
        before = (arm.alpha, arm.beta)
        assert thompson_round(state, np.random.default_rng(0)) is None
        assert (arm.alpha, arm.beta) == before

    def test_pool_consistency_reproducible_from_inputs(self, small_repo):
        ds, repo = small_repo
        state = adaptive_sampling(ds, repo, SamplingConfig(0.9, 50, 4))
        for idx, bits in zip(state.rows, state.bits):
            for j, bit in enumerate(bits):
                assert bit == probe_suitability(repo.entries[j].model, ds.features[idx][None], ds.labels[idx])[0]

    def test_sampled_sets_stay_inside_gamma(self, small_repo):
        # each arm draws without replacement from its own scene, so it draws
        # at most its scene's size, and every probed row lies in some scene
        ds, repo = small_repo
        state = adaptive_sampling(ds, repo, SamplingConfig(0.9, 60, 5))
        union = set()
        for arm, entry in zip(state.arms, repo.entries):
            assert 0 <= arm.drawn <= len(entry.scene.train_indices)
            union.update(int(i) for i in entry.scene.train_indices)
        assert set(state.rows) <= union
        assert sum(arm.drawn for arm in state.arms) >= state.distinct_drawn == 60

    def test_deterministic(self, small_repo):
        ds, repo = small_repo
        a = adaptive_sampling(ds, repo, SamplingConfig(0.9, 40, 6))
        b = adaptive_sampling(ds, repo, SamplingConfig(0.9, 40, 6))
        assert a.rows == b.rows and np.array_equal(a.bits, b.bits)
        assert [(x.alpha, x.beta) for x in a.arms] == [(x.alpha, x.beta) for x in b.arms]

    def test_empty_repository_rejected(self, small_repo):
        ds, repo = small_repo
        with pytest.raises(ConfigError):
            adaptive_sampling(ds, type(repo)(entries=[]), SamplingConfig(0.9, 5, 1))


@dataclass
class RefArm:
    alpha: float
    beta: float
    drawn: int
    gamma: np.ndarray
    threshold: float

    @property
    def active(self):
        return not self.drawn > self.threshold and not self.drawn == len(self.gamma)


def ref_adaptive_sampling(ds, repo, cfg):
    """`adaptive_sampling` as it was before its rounds ran on cached freeze
    points and a first-max loop: arm objects whose freeze is recomputed
    from the threshold and scene size, and the Beta draws of every round
    collected and picked with np.argmax. Returns (rows, bits, arms)."""
    arms = [RefArm(1.0, 1.0, 0, np.asarray(e.scene.train_indices, dtype=int),
                   well_sampled_threshold(len(e.scene.train_indices), cfg.theta)) for e in repo.entries]
    rng = np.random.default_rng(cfg.seed)
    union = np.unique(np.concatenate([arm.gamma for arm in arms]))
    cap = math.ceil(cfg.kappa / len(arms)) if cfg.kappa < len(union) else math.inf
    remaining = [arm.gamma.tolist() for arm in arms]
    rows, probed = [], set()
    while len(rows) < cfg.kappa:
        active = [j for j, arm in enumerate(arms) if arm.active and arm.drawn < cap]
        if not active:
            live = sum(1 for arm in arms if arm.active)
            if not live:
                break
            cap += math.ceil((cfg.kappa - len(rows)) / live)
            continue
        draws = [rng.beta(arms[j].alpha, arms[j].beta) for j in active]
        chosen = active[int(np.argmax(draws))]
        arms[chosen].alpha += 1.0
        for j in active:
            if j != chosen:
                arms[j].beta += 1.0
        rem = remaining[chosen]
        pos = int(rng.integers(len(rem)))
        pick = rem[pos]
        rem[pos] = rem[-1]
        rem.pop()
        arms[chosen].drawn += 1
        if pick not in probed:
            probed.add(pick)
            rows.append(pick)
    bits = np.array([[probe_suitability(m, ds.features[[r]], ds.labels[[r]])[0] for m in repo.models] for r in rows],
                    dtype=bool).reshape(len(rows), len(repo.models))
    return rows, bits, arms


def scenes_repo(models, gammas):
    """The parts of a repository `adaptive_sampling` reads: one arm per
    training scene ``gammas[j]``, probed through ``models[j]``."""
    entries = [SimpleNamespace(scene=SimpleNamespace(train_indices=np.array(g, dtype=int))) for g in gammas]
    return SimpleNamespace(entries=entries, models=list(models[: len(gammas)]))


# (gammas, theta, kappa): overlapping arms throughout. At theta = 0.1 a
# scene of 4 rows freezes as well-sampled after 2 draws; a kappa below the
# union's 15 rows binds the share cap, which the unequal scenes make rise.
SAMPLING_CASES = {
    "well-sampled freeze": ([[0, 1, 2, 3], [2, 3, 4, 5, 6, 7, 8], [8, 9, 10]], 0.1, 50),
    "share cap raised": ([[0, 1, 2], [2, 3, 4, 5, 6, 7, 8, 9, 10, 11], [11, 12, 13, 14]], 0.9, 12),
    "budget covers the union": ([[0, 1, 2, 3, 4, 5], [4, 5, 6, 7, 8, 9], [9, 10, 11, 12, 13, 14]], 0.9, 40),
}


class TestAdaptiveMatchesReference:
    @staticmethod
    def check(ds, models, gammas, theta, kappa, seed):
        repo = scenes_repo(models, gammas)
        cfg = SamplingConfig(theta, kappa, seed)
        state = adaptive_sampling(ds, repo, cfg)
        rows, bits, arms = ref_adaptive_sampling(ds, repo, cfg)
        assert state.rows == rows
        assert np.array_equal(state.bits, bits)
        assert [(a.alpha, a.beta, a.drawn) for a in state.arms] == [(a.alpha, a.beta, a.drawn) for a in arms]
        return state

    @pytest.mark.parametrize("case", SAMPLING_CASES)
    def test_named_cases(self, small_repo, case):
        ds, repo = small_repo
        gammas, theta, kappa = SAMPLING_CASES[case]
        union = len(set().union(*gammas))
        for seed in range(5):
            state = self.check(ds, repo.models, gammas, theta, kappa, seed)
            if case == "well-sampled freeze":
                assert any(well_sampled_threshold(len(a.gamma), theta) < a.drawn < len(a.gamma) for a in state.arms)
            elif case == "share cap raised":
                assert kappa < union and state.arm_cap > math.ceil(kappa / len(gammas))
                assert state.distinct_drawn == kappa
            else:
                assert kappa >= union and state.rows and sorted(state.rows) == sorted(set().union(*gammas))
                assert all(a.drawn == len(a.gamma) for a in state.arms)

    @settings(max_examples=60, deadline=None)
    @given(
        gammas=st.lists(st.sets(st.integers(0, 40), min_size=1, max_size=25).map(sorted), min_size=1, max_size=4),
        theta=st.sampled_from([0.05, 0.1, 0.3, 0.9]),
        kappa=st.integers(0, 60),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(gammas=SAMPLING_CASES["well-sampled freeze"][0], theta=0.1, kappa=50, seed=0)
    @example(gammas=SAMPLING_CASES["share cap raised"][0], theta=0.9, kappa=12, seed=0)
    def test_rows_bits_and_arms_equal_the_reference(self, small_repo, gammas, theta, kappa, seed):
        ds, repo = small_repo
        self.check(ds, repo.models, gammas, theta, kappa, seed)


class TestRandom:
    def test_full_budget_probes_every_training_sample_once(self, small_repo):
        ds, repo = small_repo
        train = part_indices(ds, "train")
        state = random_sampling(ds, repo, len(train) + 100, seed=1)
        drawn = state.rows
        assert sorted(drawn) == sorted(train.tolist())
        assert len(drawn) == len(set(drawn))

    def test_same_seed_identical(self, small_repo):
        ds, repo = small_repo
        a = random_sampling(ds, repo, 30, seed=9)
        b = random_sampling(ds, repo, 30, seed=9)
        assert a.rows == b.rows and np.array_equal(a.bits, b.bits)

    def test_draws_proportional_to_scene_sizes(self):
        # skewed benchmark: cell 0 is 10x larger; pooled draw counts over 20
        # seeds must fit the sizes by a chi-squared test at alpha = 0.01
        ds = generate_dataset(
            small_generator_config(
                num_cells=4, clips_per_cell=1, frames_per_clip=60, cell_weights=(10, 1, 1, 1)
            )
        )
        scenes = segment_semantic_scenes(ds)
        enc = train_scene_encoder(ds, scenes, 8, quick_train_cfg())
        repo = build_repository(ds, scenes, enc, quick_profiling_cfg(n=3, delta=0.0))
        lookup = {s.attrs: s.scene_id for s in scenes}
        sizes = np.array([len(s.sample_indices) for s in scenes], dtype=float)
        kappa = 150
        counts = np.zeros(len(scenes))
        for seed in range(20):
            state = random_sampling(ds, repo, kappa, seed=seed)
            for idx in state.rows:
                counts[lookup[tuple(ds.attrs[idx])]] += 1
        expected = sizes / sizes.sum() * counts.sum()
        _, pvalue = stats.chisquare(counts, expected)
        assert pvalue > 0.01


class TestBalance:
    def test_adaptive_beats_random_in_aggregate(self, skew_results):
        # pooled positive-label counts over the 10 skewed replicates: the
        # budget the bandit routes away from the oversized scene shows up as
        # a systematically lower coefficient of variation
        def cov(x):
            x = np.asarray(x, float)
            return x.std() / x.mean()

        total_ad = sum(r["adaptive_positives"] for r in skew_results)
        total_rn = sum(r["random_positives"] for r in skew_results)
        assert cov(total_ad) < cov(total_rn)


class TestPoolsIO:
    def test_payload_round_trip(self, tmp_path, small_repo):
        ds, repo = small_repo
        cfg = SamplingConfig(0.9, 25, 8)
        state = adaptive_sampling(ds, repo, cfg)
        path = tmp_path / "pools.json"
        sampling.save_pools(path, state, cfg, "dhash", "rhash")
        from sceneselect.artifacts import read_artifact

        body = read_artifact(path, "pools")
        assert body["kappa"] == 25 and body["theta"] == 0.9
        assert len(body["rows"]) == state.distinct_drawn
        assert len(body["arms"]) == len(repo.entries)
        for pos, row in enumerate(body["rows"]):
            assert row["sample_index"] == state.rows[pos]
            assert row["bits"] == [int(bit) for bit in state.bits[pos]]
