"""Adaptive collection of labeled suitability pools, one per repository model.

Which samples a compressed model actually handles well is implicit; the only
way to find out is to probe. Probing everything is wasteful and uniform
random probing mirrors the size bias of the dataset, so draws are steered by
a Thompson-sampled bandit over the models' training scenes: each round the
arm with the highest Beta-posterior draw supplies one fresh sample, the
sample is probed against every model, and arms whose training scene is
covered with high confidence, or fully drawn, are frozen out.

The update rewards the chosen arm unconditionally, so the first arm chosen
keeps winning until it leaves the active set. When the budget is smaller
than the union of training scenes, each arm is therefore held to its share:
an arm that has drawn ceil(kappa / n) samples sits out, and once every live
arm has reached that cap it is raised by the remaining budget spread over
the live arms, so the whole budget is still spent. Draws are made without
replacement, so the coupon-collector freeze (which assumes draws with
replacement) fires only where its bound falls below the scene size, i.e.
at small theta; at theta = 0.9 every arm runs until its scene is drained.
A budget at or above the union, as at the defaults, therefore probes the
whole union, and the bandit only chooses the order of the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import artifacts, learners
from .artifacts import artifact_body, is_int, write_artifact
from .dataset import Dataset
from .errors import ConfigError


def well_sampled_threshold(gamma_size: int, theta: float) -> float:
    """Coupon-collector draw count after which a set of ``gamma_size`` items
    is considered fully covered with confidence ``theta``:

        |S| > log(1 - theta**(1/g)) / log(1 - 1/g)

    A single-element set is covered by one draw, so the threshold is 0.
    """
    if not 0.0 < theta < 1.0:
        raise ConfigError("theta must lie strictly inside (0, 1)")
    if gamma_size < 1:
        raise ConfigError("gamma_size must be positive")
    if gamma_size == 1:
        return 0.0
    g = float(gamma_size)
    return math.log(1.0 - theta ** (1.0 / g)) / math.log(1.0 - 1.0 / g)


@dataclass
class ArmState:
    model_index: int
    alpha: float
    beta: float
    drawn: int  # draws from gamma; without replacement, so all distinct
    gamma: np.ndarray  # candidate sample indices (the model's training scene)
    stop: int  # the draw count at which the arm freezes

    @property
    def active(self) -> bool:
        return self.drawn < self.stop


@dataclass
class SamplingConfig:
    theta: float
    kappa: int
    seed: int

    def validate(self) -> None:
        if not 0.0 < self.theta < 1.0:
            raise ConfigError("theta must lie strictly inside (0, 1)")
        if self.kappa < 0:
            raise ConfigError("kappa must be non-negative")


@dataclass
class SamplingState:
    """Bandit arms plus the probed samples: ``rows`` holds the distinct sample
    indices in draw order, row r of ``bits`` their suitability for each model."""

    arms: list
    rows: list
    bits: np.ndarray  # (len(rows), n) bool
    arm_cap: float = math.inf  # draws after which an arm sits out a round

    @property
    def distinct_drawn(self) -> int:
        return len(self.rows)


def thompson_round(state: SamplingState, rng: np.random.Generator):
    """One bandit round: draw a Beta sample per active arm, pick the argmax.

    The chosen arm gains alpha+1 and every other active arm gains beta+1;
    frozen (well-sampled or exhausted) arms and arms at the state's
    ``arm_cap`` sit the round out: no Beta draw, no update. Returns the
    chosen model index, or None when no arm may draw.

    The draws are one scalar ``rng.beta`` call per active arm, in arm
    order, and the first maximum wins, as ``np.argmax`` picks it.
    """
    cap = state.arm_cap
    active = [arm for arm in state.arms if arm.active and arm.drawn < cap]
    if not active:
        return None
    beta = rng.beta
    best, chosen = -1.0, None
    for arm in active:
        draw = beta(arm.alpha, arm.beta)
        if draw > best:
            best, chosen = draw, arm
    for arm in active:
        if arm is not chosen:
            arm.beta += 1.0
    chosen.alpha += 1.0
    return chosen.model_index


def probe_suitability(model, X, y) -> np.ndarray:
    """A model suits a sample iff it predicts the sample's label exactly:
    one bool per row of the batch ``X`` with labels ``y``."""
    return learners.predict(model, X) == y


def _probe_rows(ds, models, candidates, rows) -> np.ndarray:
    """Suitability bits (len(rows), n) of ``rows``, all drawn from ``candidates``.

    The probes run as one batch over the sorted candidates; probe_suitability
    is pure, so batching it changes nothing but speed.
    """
    idx = np.unique(np.asarray(candidates, dtype=int))
    bits = np.stack([probe_suitability(m, ds.features[idx], ds.labels[idx]) for m in models], axis=1)
    return bits[np.searchsorted(idx, np.asarray(rows, dtype=int))]


def adaptive_sampling(ds: Dataset, repo, cfg: SamplingConfig) -> SamplingState:
    """Thompson-sampled pool collection under a budget of ``kappa`` distinct samples.

    On choosing arm i, one not-yet-sampled index is drawn uniformly from that
    model's training scene and probed against every repository model, so each
    probe adds one row of bits, one bit per model. An arm whose scene
    is fully drawn is exhausted; sampling stops when the budget is
    spent or no arm remains active. Already-probed indices drawn through an
    overlapping arm still count as that arm's draws but add no row.

    When ``kappa`` is smaller than the union of the training scenes, an arm
    that has drawn ceil(kappa / n) samples sits out; when every live arm has
    reached the cap, it is raised by ceil(remaining budget / live arms). The
    distinct draws then equal min(kappa, |union|) unless arms freeze as
    well-sampled first, which under draws without replacement happens only
    where the coupon-collector bound is below the scene size (small theta).
    With a budget that covers the union the cap never applies.

    When ``kappa`` >= |union| and no arm freezes as well-sampled, as at the
    defaults (kappa = 4000 against the 3,300 rows of the training split), the
    pool is the whole union, and the bandit only chooses the order of its
    rows. That order feeds the decision head's training, so skipping the
    rounds there would change the pools artifact and everything after it.

    Each round is one `thompson_round` call; a chosen arm's row is then one
    ``rng.integers`` draw, so the RNG stream is the Beta draws of each
    round's active arms, in arm order, followed by that draw.
    """
    cfg.validate()
    if len(repo.entries) == 0:
        raise ConfigError("repository is empty")
    arms = []
    for i, entry in enumerate(repo.entries):
        gamma = np.asarray(entry.scene.train_indices, dtype=int)
        size, threshold = len(gamma), well_sampled_threshold(len(gamma), cfg.theta)
        # drawn > threshold first holds at floor(threshold) + 1 draws,
        # unless the scene is drained before that
        stop = size if threshold >= size else math.floor(threshold) + 1
        arms.append(ArmState(model_index=i, alpha=1.0, beta=1.0, drawn=0, gamma=gamma, stop=stop))
    rows = []
    state = SamplingState(arms, rows, np.zeros((0, len(arms)), dtype=bool))
    rng = np.random.default_rng(cfg.seed)
    union = _training_union(repo)
    if cfg.kappa < len(union):
        state.arm_cap = math.ceil(cfg.kappa / len(arms))
    remaining = [arm.gamma.tolist() for arm in arms]
    probed = set()
    integers = rng.integers
    while len(rows) < cfg.kappa:
        chosen = thompson_round(state, rng)
        if chosen is None:
            live = sum(1 for arm in arms if arm.active)
            if not live:
                break
            state.arm_cap += math.ceil((cfg.kappa - len(rows)) / live)
            continue
        rem = remaining[chosen]
        pos = int(integers(len(rem)))
        pick = rem[pos]
        rem[pos] = rem[-1]
        rem.pop()
        arms[chosen].drawn += 1
        if pick not in probed:
            probed.add(pick)
            rows.append(pick)
    state.bits = _probe_rows(ds, repo.models, union, rows)
    return state


def _training_union(repo) -> np.ndarray:
    """∪Γ: the sorted distinct dataset rows of the repository's training
    scenes; none for a repository of no models."""
    gammas = [entry.scene.train_indices for entry in repo.entries]
    return np.unique(np.concatenate([np.zeros(0, dtype=int), *gammas]))


def positives_per_model(state: SamplingState) -> np.ndarray:
    """Count of suitable probes per model (the balance measure for pools)."""
    return state.bits.sum(axis=0)


def save_pools(path, state: SamplingState, cfg: SamplingConfig, dataset_hash: str, repository_hash: str) -> str:
    return write_artifact(path, {
        "kind": "pools",
        "dataset_hash": dataset_hash,
        "repository_hash": repository_hash,
        "theta": cfg.theta,
        "kappa": cfg.kappa,
        "seed": cfg.seed,
        "arms": [
            {"alpha": arm.alpha, "beta": arm.beta, "sampled": arm.drawn}
            for arm in state.arms
        ],
        "rows": [
            {"sample_index": idx, "bits": bits}
            for idx, bits in zip(state.rows, state.bits.astype(int).tolist())
        ],
    })


def load_pools(path, dataset_hash: str, repository_hash: str, repo):
    """(sample indices, suitability bits) of the pools file at ``path``: an
    (r,) int array of distinct rows of ``repo``'s training scenes (∪Γ), the
    only rows `adaptive_sampling` probes, and an (r, ``len(repo)``) bool
    array, row for row. A file that holds no rows is refused, as there is
    nothing to train on."""
    body = artifacts.read_artifact(path, "pools", dataset=dataset_hash, repository=repository_hash)
    rows = body.get("rows")
    num_models, union, first_row = len(repo), set(_training_union(repo).tolist()), {}
    with artifact_body(path):
        if not isinstance(rows, list):
            raise ConfigError("rows must be a list")
        for i, r in enumerate(rows):
            bits = r.get("bits") if isinstance(r, dict) else None
            if not (isinstance(bits, list) and len(bits) == num_models
                    and all(is_int(b) and b in (0, 1) for b in bits)):
                raise ConfigError(f"rows[{i}]: bits must be {num_models} values, each 0 or 1")
            index = r.get("sample_index")
            if not (is_int(index) and index in union):
                raise ConfigError(f"rows[{i}]: sample_index must be a row of the repository's training scenes")
            if first_row.setdefault(index, i) != i:
                raise ConfigError(f"rows[{i}]: sample_index {index} repeats rows[{first_row[index]}]")
    if not rows:
        raise ConfigError(f"{path}: the pools file holds no probed rows to train on")
    indices = np.array([r["sample_index"] for r in rows], dtype=int)
    return indices, np.array([r["bits"] for r in rows], dtype=bool)
