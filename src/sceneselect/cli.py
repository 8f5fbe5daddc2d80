"""Command-line pipeline: generate -> profile -> sample -> train-decision -> simulate -> report.

All knobs live in an INI config (see configs/default.ini); flags override
file values. Every stage stamps its outputs with content hashes and refuses
inputs whose hashes do not chain back to the same upstream artifacts.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import decision as decision_mod
from . import profiling, runtime, sampling
from .artifacts import artifact_body, is_int, not_utf8, read_artifact, require_match, sha256_file, write_artifact
from .dataset import (
    DatasetSchema,
    GeneratorConfig,
    generate_dataset,
    load_dataset,
    save_columns,
    save_dataset,
    synthesize_trace,
)
from .errors import ConfigError, Error
from .learners import TrainConfig

# Built-in run settings. Each default's type is the type its key parses as
# from an INI file (see _read_config); configs/default.ini repeats them.
DEFAULTS = {
    "dataset": {
        "feature_dim": 12,
        "num_classes": 4,
        "attr_cardinalities": (3, 2),
        "num_semantic_cells": 6,
        "clips_per_cell": 2,
        "frames_per_clip": 500,
        "cluster_spread": 0.2,
        "label_rule_noise": 0.02,
        "drift_strength": 0.15,
        "seed": 42,
    },
    "profiling": {
        "n": 8,
        "delta": 0.5,
        "k_start": 2,
        "k_max": 16,
        "encoder_hidden": 16,
        "compressed_hidden": 8,
        "encoder_lr": 0.2,
        "encoder_epochs": 30,
        "encoder_batch_size": 128,
        "encoder_l2": 0.0,
        "encoder_seed": 101,
        "model_lr": 0.2,
        "model_epochs": 140,
        "model_batch_size": 128,
        "model_l2": 0.0,
        "seed": 7,
    },
    "sampling": {
        "theta": 0.9,
        "kappa": 4000,
        "seed": 11,
    },
    "decision": {
        "head_hidden": 16,
        "lr": 0.3,
        "epochs": 150,
        "batch_size": 128,
        "l2": 0.0,
        "seed": 13,
        "low_confidence": 0.2,
    },
    "trace": {
        "num_source_clips": 5,
        "segment_len": 100,
        "num_segments": 5,
        "seed": 17,
    },
    "runtime": {
        "capacity": 5,
        "window": 10,
    },
    "baselines": {
        "deep_hidden": 96,
        "lr": 0.2,
        "epochs": 60,
        "batch_size": 128,
        "l2": 0.0,
        "sdm_seed": 19,
        "ssm_seed": 23,
        "cdg_seed": 29,
        "dmm_seed": 31,
    },
}

BASELINES = ("anole", "sdm", "ssm", "cdg", "dmm")


@dataclass
class TraceParams:
    num_source_clips: int
    segment_len: int
    num_segments: int
    seed: int


@dataclass
class RunConfig:
    generator: GeneratorConfig
    profiling: profiling.ProfilingConfig
    sampling: sampling.SamplingConfig
    head_hidden: int
    decision_train: TrainConfig
    low_confidence: float
    trace: TraceParams
    capacity: int
    window: int
    deep_hidden: int
    baseline_train: TrainConfig
    baseline_seeds: dict


def load_run_config(path=None) -> RunConfig:
    """The run settings: `DEFAULTS`, overlaid with the INI file at ``path``
    if given; a bad file raises one error naming it (see `_read_config`)."""
    c = _read_config(path)
    ds, pr, de, ba = c["dataset"], c["profiling"], c["decision"], c["baselines"]
    schema = DatasetSchema(**{k: ds.pop(k) for k in ("feature_dim", "num_classes", "attr_cardinalities")})
    prof = profiling.ProfilingConfig(
        **{k: pr[k] for k in ("n", "delta", "k_start", "k_max", "encoder_hidden", "compressed_hidden", "seed")},
        encoder_train=_train_config(pr, "encoder_"),
        model_train=_train_config(pr, "model_", seed=0),  # seeded per model when the repository is built
    )
    return RunConfig(
        generator=GeneratorConfig(schema=schema, **ds),
        profiling=prof,
        sampling=sampling.SamplingConfig(**c["sampling"]),
        head_hidden=de["head_hidden"],
        decision_train=_train_config(de),
        low_confidence=de["low_confidence"],
        trace=TraceParams(**c["trace"]),
        capacity=c["runtime"]["capacity"],
        window=c["runtime"]["window"],
        deep_hidden=ba["deep_hidden"],
        baseline_train=_train_config(ba, seed=0),  # seeded per baseline
        baseline_seeds={name: ba[f"{name}_seed"] for name in ("sdm", "ssm", "cdg", "dmm")},
    )


def _read_config(path=None) -> dict:
    """{section: {key: value}}: `DEFAULTS`, with each value the INI file at
    ``path`` sets parsed as its default's type (a tuple as comma-separated
    ints). An unknown section or key, a value that does not parse, a negative
    value of a key ending in ``seed``, and a file configparser cannot read
    each raise one-line `ConfigError`; a file that is not UTF-8 raises
    `ParseError`."""
    config = {name: dict(keys) for name, keys in DEFAULTS.items()}
    if path is None:
        return config
    # no "%" interpolation, and a default section no header can name, so [DEFAULT] is just unknown
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    except configparser.Error as exc:  # its text names the file, over several lines
        raise ConfigError(" ".join(str(exc).split())) from None
    for name in parser.sections():
        if name not in DEFAULTS:
            raise ConfigError(f"{path}: unknown section [{name}]")
        for key, text in parser[name].items():
            if key not in DEFAULTS[name]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{name}]")
            kind = type(DEFAULTS[name][key])
            try:
                value = tuple(int(v) for v in text.split(",")) if kind is tuple else kind(text)
            except ValueError:
                raise ConfigError(f"{path}: [{name}] {key} = {text!r} does not parse") from None
            config[name][key] = _check_seed(value, f"{path}: [{name}] {key}") if key.endswith("seed") else value
    return config


def _check_seed(seed: int, name: str) -> int:
    if seed < 0:
        raise ConfigError(f"{name} must be >= 0, got {seed}")
    return seed


def _train_config(section, prefix="", seed=None) -> TrainConfig:
    """TrainConfig from ``<prefix>`` + lr, epochs, batch_size, l2 and seed; ``seed`` overrides the last."""
    return TrainConfig(
        learning_rate=section[prefix + "lr"],
        epochs=section[prefix + "epochs"],
        batch_size=section[prefix + "batch_size"],
        l2=section[prefix + "l2"],
        seed=section[prefix + "seed"] if seed is None else seed,
    )


# ---------------------------------------------------------------------------
# Commands


def cmd_generate(args) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.generator.seed = _check_seed(args.seed, "--seed")
    ds = generate_dataset(cfg.generator)
    save_dataset(ds, args.out)
    save_columns(ds, args.out)
    print(
        f"wrote {args.out}: {len(ds)} samples, "
        f"{len(ds.split.seen_clips)} seen clips, {len(ds.split.unseen_clips)} unseen clips"
    )
    return 0


def cmd_profile(args) -> int:
    cfg = load_run_config(args.config)
    ds = load_dataset(args.dataset)
    dataset_hash = sha256_file(args.dataset)
    scenes = profiling.segment_semantic_scenes(ds)
    encoder = profiling.train_scene_encoder(ds, scenes, cfg.profiling.encoder_hidden, cfg.profiling.encoder_train)
    repo = profiling.build_repository(ds, scenes, encoder, cfg.profiling)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    profiling.save_encoder(out / "encoder.json", encoder, len(scenes), dataset_hash)
    # cross-references always carry file-byte hashes of the upstream artifact
    enc_hash = sha256_file(out / "encoder.json")
    profiling.save_repository(out / "repository.json", repo, cfg.profiling, dataset_hash, enc_hash)
    for e in repo.entries:
        print(f"k={e.source[0]} cluster={e.source[1]} validation_f1={e.validation_f1:.4f}")
    print(f"repository size {len(repo)} written to {out}")
    return 0


def cmd_sample(args) -> int:
    cfg = load_run_config(args.config)
    if args.theta is not None:
        cfg.sampling.theta = args.theta
    if args.kappa is not None:
        cfg.sampling.kappa = args.kappa
    if args.seed is not None:
        cfg.sampling.seed = _check_seed(args.seed, "--seed")
    ds = load_dataset(args.dataset)
    dataset_hash = sha256_file(args.dataset)
    repo, _ = profiling.load_repository(args.repository, ds, dataset_hash)
    repo_hash = sha256_file(args.repository)
    state = sampling.adaptive_sampling(ds, repo, cfg.sampling)
    sampling.save_pools(args.out, state, cfg.sampling, dataset_hash, repo_hash)
    print(
        f"wrote {args.out}: {state.distinct_drawn} distinct samples probed, "
        f"positives per model {sampling.positives_per_model(state).tolist()}"
    )
    return 0


def cmd_train_decision(args) -> int:
    cfg = load_run_config(args.config)
    ds = load_dataset(args.dataset)
    dataset_hash = sha256_file(args.dataset)
    repo, repo_hash, encoder, encoder_hash = _load_profile(args, ds, dataset_hash)
    indices, labels = sampling.load_pools(args.pools, dataset_hash, repo_hash, repo)
    model = decision_mod.train_decision(encoder, ds, indices, labels, cfg.head_hidden, cfg.decision_train)
    decision_mod.save_decision(args.out, model, encoder_hash, repo_hash)
    print(f"wrote {args.out}: decision head over {model.n} models")
    return 0


def _load_profile(args, ds, dataset_hash):
    """(repository, its hash, encoder, its hash) of ``--repository`` and
    ``--encoder``, each checked against the dataset and the repository
    against the encoder."""
    repo, repo_body = profiling.load_repository(args.repository, ds, dataset_hash)
    repo_hash = sha256_file(args.repository)
    encoder_hash = sha256_file(args.encoder)
    require_match("encoder", repo_body.get("encoder_hash"), encoder_hash, args.repository)
    encoder, _ = profiling.load_encoder(args.encoder, dataset_hash)
    return repo, repo_hash, encoder, encoder_hash


def _parse_sweep(text):
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise ConfigError(f"bad sweep {text!r}, expected lo..hi") from exc
    if lo < 1 or hi < lo:
        raise ConfigError(f"bad sweep bounds {text!r}")
    return list(range(lo, hi + 1))


def cmd_simulate(args) -> int:
    cfg = load_run_config(args.config)
    if args.trace_seed is not None:
        cfg.trace.seed = _check_seed(args.trace_seed, "--trace-seed")
    if args.baseline == "anole" and not (args.repository and args.encoder and args.decision):
        raise ConfigError("--baseline anole needs --repository, --encoder and --decision")
    if args.capacity_sweep is not None:
        capacities = _parse_sweep(args.capacity_sweep)
    else:
        capacities = [args.capacity if args.capacity is not None else cfg.capacity]
    if min(capacities) < 1:
        raise ConfigError(f"capacity must be >= 1, got {min(capacities)}")
    if cfg.window < 1:
        raise ConfigError(f"window must be >= 1, got {cfg.window}")
    if not 0.0 <= cfg.low_confidence <= 1.0:
        raise ConfigError(f"low_confidence must be in [0, 1], got {cfg.low_confidence}")

    ds = load_dataset(args.dataset)
    dataset_hash = sha256_file(args.dataset)
    trace = synthesize_trace(
        ds, cfg.trace.num_source_clips, cfg.trace.segment_len, cfg.trace.num_segments, cfg.trace.seed
    )
    if args.baseline == "anole":
        repo, repo_hash, encoder, encoder_hash = _load_profile(args, ds, dataset_hash)
        ranker, _ = decision_mod.load_decision(args.decision, encoder, encoder_hash, repo_hash)
        models = repo.models
    else:
        ranker, models = runtime.build_baseline(
            args.baseline, ds, cfg.profiling.compressed_hidden, cfg.deep_hidden,
            cfg.profiling.n, cfg.baseline_train, cfg.baseline_seeds[args.baseline],
        )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for cap in capacities:
        metrics = runtime.run_trace(trace, ranker, models, cap, cfg.window, cfg.low_confidence)
        summary = runtime.summarize(metrics)
        summary.update(
            {
                "kind": "summary",
                "method": args.baseline,
                "capacity": cap,
                "trace_seed": cfg.trace.seed,
                "dataset_hash": dataset_hash,
                "num_models": len(models),
            }
        )
        runtime.write_metrics_csv(metrics, out / f"frames_{args.baseline}_cap{cap}.csv")
        write_artifact(out / f"summary_{args.baseline}_cap{cap}.json", summary)
        print(
            f"{args.baseline} capacity={cap}: mean_window_f1={summary['mean_window_f1']:.4f} "
            f"miss_rate={summary['miss_rate']:.4f}"
        )
    return 0


def cmd_report(args) -> int:
    """Aggregate summaries of one dataset. A method's runs may differ in
    trace seed, but when they span several capacities (a sweep), no capacity
    may repeat: the miss rates of different traces would interleave."""
    rows = [read_artifact(path, "summary") for path in args.inputs]
    by_method = {}
    for path, row in zip(args.inputs, rows):
        with artifact_body(path):
            if not isinstance(row.get("method"), str):
                raise ConfigError("method must be a string")
            if not is_int(row.get("capacity")):
                raise ConfigError("capacity must be an integer")
            for key in ("mean_window_f1", "miss_rate"):
                if not isinstance(row.get(key), float):
                    raise ConfigError(f"{key} must be a number")
        if row.get("dataset_hash") != rows[0].get("dataset_hash"):
            raise ConfigError(f"summaries of different datasets: {args.inputs[0]} and {path}")
        by_method.setdefault(row["method"], []).append((path, row))
    report = {"kind": "report", "methods": {}, "sweeps": {}}
    for method in sorted(by_method):
        paths_at = {}
        for path, r in by_method[method]:
            paths_at.setdefault(r["capacity"], []).append(path)
        repeated = [paths for paths in paths_at.values() if len(paths) > 1]
        if len(paths_at) > 1 and repeated:
            raise ConfigError(f"{method}'s capacity sweep repeats a capacity: {' and '.join(repeated[0])}")
        f1s = np.array([r["mean_window_f1"] for _, r in by_method[method]])
        report["methods"][method] = {
            "runs": len(f1s),
            "mean_window_f1_mean": float(f1s.mean()),
            "mean_window_f1_std": float(f1s.std()),
        }
        print(
            f"{method}: mean_window_f1 = {f1s.mean():.4f} +/- {f1s.std():.4f} over {len(f1s)} run(s)"
        )
        if len(paths_at) > 1:
            ordered = sorted((r for _, r in by_method[method]), key=lambda r: r["capacity"])
            miss = [r["miss_rate"] for r in ordered]
            monotone = all(b <= a + 1e-12 for a, b in zip(miss, miss[1:]))
            report["sweeps"][method] = {
                "capacities": [r["capacity"] for r in ordered],
                "miss_rates": miss,
                "monotone_miss_rate": monotone,
            }
            print(f"{method}: sweep miss rates {['%.3f' % m for m in miss]} monotone={monotone}")
    if args.out:
        write_artifact(args.out, report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sceneselect",
        description="Scene-adaptive compressed-model selection pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("profile", help="train scene encoder and model repository")
    p.add_argument("--config")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("sample", help="collect suitability pools by adaptive sampling")
    p.add_argument("--config")
    p.add_argument("--dataset", required=True)
    p.add_argument("--repository", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--theta", type=float)
    p.add_argument("--kappa", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("train-decision", help="train the model-ranking head")
    p.add_argument("--config")
    p.add_argument("--dataset", required=True)
    p.add_argument("--repository", required=True)
    p.add_argument("--encoder", required=True)
    p.add_argument("--pools", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_decision)

    p = sub.add_parser("simulate", help="run a method over a synthesized trace")
    p.add_argument("--config")
    p.add_argument("--dataset", required=True)
    p.add_argument("--baseline", choices=BASELINES, default="anole")
    p.add_argument("--repository")
    p.add_argument("--encoder")
    p.add_argument("--decision")
    capacity = p.add_mutually_exclusive_group()
    capacity.add_argument("--capacity", type=int)
    capacity.add_argument("--capacity-sweep", dest="capacity_sweep")
    p.add_argument("--trace-seed", dest="trace_seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="aggregate simulation summaries")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (Error, OSError, MemoryError) as exc:  # MemoryError: a size numpy can address but not allocate
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
