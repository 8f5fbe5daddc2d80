"""One benchmark worker: a fresh process that sets up one workload and runs its ops.

Started by run.py with a JSON spec as its only argument. It writes
``ready`` to standard output once its inputs are loaded (run.py times set-up
up to that line) and, unless it was started only for that, one JSON result
line at the end. Everything the package prints goes to /dev/null.

Only the standard library is imported before the timed ``import
sceneselect.cli``, so the import time includes numpy.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

METHODS = ("sdm", "ssm", "cdg", "dmm")
TRACE_SEEDS = 16  # trace seeds base .. base+15; one serve pass is 16 x 8 run_trace calls
CAPACITIES = range(1, 9)
# synthesize_trace(ds, 11, 10, 50, seed): 500 frames, a scene change every 10 frames
TRACE_SHAPE = (11, 10, 50)
STAGES = ("generate", "profile", "sample", "train-decision")


def artifact_paths(out):
    out = Path(out)
    return {
        "dataset": out / "dataset.jsonl",
        "profile": out / "profile",
        "encoder": out / "profile" / "encoder.json",
        "repository": out / "profile" / "repository.json",
        "pools": out / "pools.json",
        "decision": out / "decision.json",
    }


def mean(values):
    """Mean, or 0.0 when every op failed before producing a value."""
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def normalized(obj):
    """The value as it reads back from JSON, so it compares with a stored reference."""
    return json.loads(json.dumps(obj))


class Workload:
    """One op kind: `run` is timed; `check` returns (label, error or None) per counted op."""

    def __init__(self, spec, cli):
        self.spec = spec
        self.cli = cli
        self.cfg = cli.load_run_config(spec["config"])
        refs = spec.get("references")
        self.refs = refs.get(spec["workload"]) if refs else None
        self.first = {}  # first output per schedule key, for within-run determinism
        self.summaries = {}  # reference key -> summarize() dict

    def trace_seeds(self):
        base = self.spec["seed"]
        return list(range(base, base + TRACE_SEEDS))

    def compare(self, key, value):
        """Error text if ``value`` differs from the first run of ``key`` or its reference."""
        if self.first.setdefault(key, value) != value:
            return "differs from an earlier op with the same inputs"
        if self.refs is not None and self.refs.get(key) != value:
            return "differs from the reference"
        return None


class Build(Workload):
    """generate -> profile -> sample -> train-decision through cli.main, into a fresh dir."""

    def setup(self):
        from sceneselect import artifacts

        self.artifacts = artifacts

    def schedule(self):
        return ["build"]

    def run(self, key, sample_seed=None, out=None):
        out = Path(out or tempfile.mkdtemp(dir=self.spec["work"]))
        p = artifact_paths(out)
        cfg = self.spec["config"]
        seed = self.spec["seed"] if sample_seed is None else sample_seed
        argvs = [
            ["generate", "--config", cfg, "--out", p["dataset"],
             "--seed", self.spec["dataset_seed"]],
            ["profile", "--config", cfg, "--dataset", p["dataset"], "--out", p["profile"]],
            ["sample", "--config", cfg, "--dataset", p["dataset"],
             "--repository", p["repository"], "--out", p["pools"], "--seed", seed],
            ["train-decision", "--config", cfg, "--dataset", p["dataset"],
             "--repository", p["repository"], "--encoder", p["encoder"],
             "--pools", p["pools"], "--out", p["decision"]],
        ]
        codes = []
        for argv in argvs:
            try:
                codes.append(self.cli.main([str(a) for a in argv]))
            except Exception:
                traceback.print_exc()
                codes.append("exception")
            if codes[-1] != 0:
                break
        return out, codes

    def outputs(self, out):
        """Dataset file hash and each artifact's content_hash, plus the bodies read."""
        a = self.artifacts
        p = artifact_paths(out)
        bodies = {
            "encoder": a.read_artifact(p["encoder"], "encoder"),
            "repository": a.read_artifact(p["repository"], "repository"),
            "pools": a.read_artifact(p["pools"], "pools"),
            "decision": a.read_artifact(p["decision"], "decision"),
        }
        files = {name: a.sha256_file(p[name]) for name in ("dataset", "encoder", "repository")}
        # the hash chain: every cross-reference names its upstream file's bytes
        a.require_match("dataset", bodies["encoder"]["dataset_hash"], files["dataset"])
        a.require_match("dataset", bodies["repository"]["dataset_hash"], files["dataset"])
        a.require_match("encoder", bodies["repository"]["encoder_hash"], files["encoder"])
        a.require_match("dataset", bodies["pools"]["dataset_hash"], files["dataset"])
        a.require_match("repository", bodies["pools"]["repository_hash"], files["repository"])
        a.require_match("encoder", bodies["decision"]["encoder_hash"], files["encoder"])
        a.require_match("repository", bodies["decision"]["repository_hash"], files["repository"])
        hashes = {"dataset_sha256": files["dataset"]}
        hashes.update({name: body["content_hash"] for name, body in bodies.items()})
        return hashes, bodies

    def check(self, key, result):
        out, codes = result
        labels = [f"build:{stage}" for stage in STAGES]
        try:
            if codes != [0] * len(STAGES):
                codes = codes + ["not run"] * (len(STAGES) - len(codes))
                return [(label, None if code == 0 else f"stage ended with {code}")
                        for label, code in zip(labels, codes)]
            try:
                hashes, bodies = self.outputs(out)
            except Exception as exc:
                return [(label, f"artifact chain: {exc}") for label in labels]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        models = bodies["repository"]["models"]
        prof = self.cfg.profiling
        self.f1 = statistics.fmean(m["validation_f1"] for m in models)
        self.hashes = hashes
        if len(models) != prof.n or not all(m["validation_f1"] > prof.delta for m in models):
            return [(label, "repository violates n / delta") for label in labels]
        per_stage = {
            "build:generate": ["dataset_sha256"],
            "build:profile": ["encoder", "repository"],
            "build:sample": ["pools"],
            "build:train-decision": ["decision"],
        }
        results = []
        for label in labels:
            errors = [self.compare(name, hashes[name]) for name in per_stage[label]]
            results.append((label, next((e for e in errors if e), None)))
        return results

    def quality(self):
        return {"repository_f1": getattr(self, "f1", 0.0)}

    def reference(self):
        return self.hashes


class Serve(Workload):
    """Anole replay: run_trace over trace seeds x capacities 1..8 with built artifacts."""

    def setup(self):
        from sceneselect import artifacts, dataset, decision, profiling

        p = artifact_paths(self.spec["prep"])
        ds = dataset.load_dataset(p["dataset"])
        dataset_hash = artifacts.sha256_file(p["dataset"])
        repo, repo_body = profiling.load_repository(p["repository"], ds, dataset_hash)
        repo_hash = artifacts.sha256_file(p["repository"])
        encoder_hash = artifacts.sha256_file(p["encoder"])
        artifacts.require_match("encoder", repo_body["encoder_hash"], encoder_hash)
        encoder, _ = profiling.load_encoder(p["encoder"], dataset_hash)
        self.decision, _ = decision.load_decision(p["decision"], encoder, encoder_hash, repo_hash)
        self.models = repo.models
        self.traces = {s: dataset.synthesize_trace(ds, *TRACE_SHAPE, s) for s in self.trace_seeds()}

    def schedule(self):
        return [(s, cap) for s in self.trace_seeds() for cap in CAPACITIES]

    def run(self, key):
        from sceneselect import runtime

        seed, cap = key
        return runtime.run_trace(
            self.traces[seed], self.decision, self.models, cap, self.cfg.window,
            self.cfg.low_confidence,
        )

    def check(self, key, metrics):
        from sceneselect import runtime

        ref_key = f"{key[0]}/{key[1]}"
        summary = normalized(runtime.summarize(metrics))
        self.summaries[ref_key] = summary
        error = (trace_invariants(metrics, summary, len(self.traces[key[0]]))
                 or self.compare(ref_key, summary))
        return [(f"run_trace:{ref_key}", error)]

    def quality(self):
        s = self.summaries.values()
        return {
            "anole_f1": mean(x["mean_window_f1"] for x in s),
            "miss_rate": mean(x["miss_rate"] for x in s),
        }

    def reference(self):
        return self.summaries


class Baselines(Workload):
    """run_baselines for sdm, ssm, cdg and dmm over one trace per op."""

    def setup(self):
        from sceneselect import dataset

        self.ds = dataset.load_dataset(artifact_paths(self.spec["prep"])["dataset"])
        self.traces = {s: dataset.synthesize_trace(self.ds, *TRACE_SHAPE, s) for s in self.trace_seeds()}

    def schedule(self):
        return self.trace_seeds()

    def run(self, seed):
        from sceneselect import runtime

        cfg = self.cfg
        return runtime.run_baselines(
            self.traces[seed], self.ds, METHODS, cfg.profiling.compressed_hidden,
            cfg.deep_hidden, cfg.profiling.n, cfg.baseline_train, cfg.baseline_seeds,
            cfg.capacity, cfg.window,
        )

    def check(self, seed, by_method):
        from sceneselect import runtime

        results = []
        for method in METHODS:
            metrics = by_method[method]
            ref_key = f"{seed}/{method}"
            summary = normalized(runtime.summarize(metrics))
            self.summaries[ref_key] = summary
            error = (trace_invariants(metrics, summary, len(self.traces[seed]))
                     or self.compare(ref_key, summary))
            results.append((f"{method}:{seed}", error))
        return results

    def quality(self):
        f1 = {m: mean(s["mean_window_f1"] for k, s in self.summaries.items()
                      if k.endswith("/" + m)) for m in METHODS}
        return {"baseline_f1": mean(f1.values()),
                **{f"{m}_f1": v for m, v in f1.items()}}

    def reference(self):
        return self.summaries


def trace_invariants(metrics, summary, frames):
    if summary["frames"] != frames:
        return f"{summary['frames']} frames, trace has {frames}"
    if not 0.0 <= summary["mean_window_f1"] <= 1.0:
        return f"mean_window_f1 {summary['mean_window_f1']} outside [0, 1]"
    if not 0 <= metrics.cache_misses <= metrics.cache_accesses == frames:
        return f"{metrics.cache_misses} misses over {metrics.cache_accesses} accesses"
    return None


WORKLOADS = {"build": Build, "serve": Serve, "baselines": Baselines}


def machine_facts():
    import platform

    import numpy as np

    from importlib.metadata import PackageNotFoundError, version

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Reference:
    """A fixed loop of the package's kinds of work, timed next to the ops.

    Per-frame matrix-vector products, argsorts and dict updates, then
    mini-batch gradient steps, on fixed inputs. Its code never changes with
    the package, so its time measures how fast the machine runs at that
    moment. On a shared host that speed changes by half or more over seconds
    to minutes.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.frames = rng.normal(size=(100, 12))
        self.enc = rng.normal(size=(16, 12))
        self.head = rng.normal(size=(8, 16))
        self.batch = rng.normal(size=(128, 12))
        self.W1 = rng.normal(size=(8, 12))
        self.W2 = rng.normal(size=(4, 8))

    def run_once(self):
        np = self.np
        t0 = perf_counter()
        counts = {}
        for x in self.frames:
            ranking = np.argsort(-(self.head @ np.maximum(self.enc @ x, 0.0)), kind="stable")
            top = int(ranking[0])
            counts[top] = counts.get(top, 0) + 1
            min(counts, key=counts.__getitem__)
        X, W1, W2 = self.batch, self.W1, self.W2
        rows = np.arange(len(X))
        for _ in range(30):
            Z = X @ W1.T
            H = np.maximum(Z, 0.0)
            L = H @ W2.T
            P = np.exp(L - L.max(axis=1, keepdims=True))
            P /= P.sum(axis=1, keepdims=True)
            P[rows, 0] -= 1.0
            P.T @ H
            (P @ W2 * (Z > 0.0)).T @ X
        return perf_counter() - t0

    def sample(self, seconds):
        """Run the loop at least once and for at least ``seconds``; returns each run's time."""
        times = [self.run_once()]
        while sum(times) < seconds:
            times.append(self.run_once())
        return times


REFERENCE_SHARE = 0.05  # reference time after each op, as a share of the op's time


def measure(workload, spec, tracer):
    """Warm-up op, then ops until the time is up (and, if asked, one full pass is done).

    Without a tracer, each op is followed by the reference loop for a twentieth
    of its time. With a tracer, ops come in pairs on the same input, one traced
    and one not, alternating which goes first, so both sides see the same
    machine. Returns (untraced durations, traced durations, reference
    durations, attempted, failures).
    """
    schedule = workload.schedule()
    reference = Reference()
    attempted, failures, plain, traced, ref_times = 0, [], [], [], []

    def one(key, traced_op_id=None):
        nonlocal attempted
        if traced_op_id is not None:
            tracer.op_id = traced_op_id
            tracer.install()
        t0 = perf_counter()
        try:
            result = workload.run(key)
        except Exception as exc:
            traceback.print_exc()
            result = exc
        elapsed = perf_counter() - t0
        if traced_op_id is not None:
            tracer.restore()
        if isinstance(result, Exception):
            # counted as every op this call would have made
            checks = [(str(key), f"{type(result).__name__}: {result}")] * ops_per_call(spec)
        else:
            checks = workload.check(key, result)
        attempted += len(checks)
        failures.extend(f"{label}: {err}" for label, err in checks if err)
        return elapsed

    one(schedule[0])  # warm-up, checked but not timed
    start = perf_counter()
    while True:
        i = len(plain)
        key = schedule[i % len(schedule)]
        if tracer is None:
            plain.append(one(key))
            ref_times += reference.sample(REFERENCE_SHARE * plain[-1])
        elif i % 2:
            traced.append(one(key, i + 1))
            plain.append(one(key))
        else:
            plain.append(one(key))
            traced.append(one(key, i + 1))
        if perf_counter() - start >= spec["seconds"] and (
            not spec["full_pass"] or len(plain) >= len(schedule)
        ):
            break
    return plain, traced, ref_times, attempted, failures


def ops_per_call(spec):
    return {"build": len(STAGES), "serve": 1, "baselines": len(METHODS)}[spec["workload"]]


def main():
    spec = json.loads(sys.argv[1])
    proto = sys.stdout
    sys.stdout = open(os.devnull, "w")

    t0 = perf_counter()
    import sceneselect.cli as cli

    import_s = perf_counter() - t0
    src = Path(spec["root"]) / "src"
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"sceneselect imported from {cli.__file__}, expected under {src}")

    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()  # set-up is traced as op 0; ops switch it on and off

    if spec["mode"] == "prep":
        Path(spec["prep"]).mkdir()
        if spec["workload"] == "serve":
            build = Build(spec, cli)
            _, codes = build.run(None, sample_seed=cli.load_run_config(spec["config"]).sampling.seed,
                                 out=spec["prep"])
        else:
            p = artifact_paths(spec["prep"])
            codes = [cli.main(["generate", "--config", spec["config"], "--out", str(p["dataset"]),
                               "--seed", str(spec["dataset_seed"])])]
        if any(c != 0 for c in codes):
            raise SystemExit(f"preparation failed: exit codes {codes}")
        return

    workload = WORKLOADS[spec["workload"]](spec, cli)
    workload.setup()
    if tracer:
        tracer.restore()
    proto.write("ready\n")
    proto.flush()
    if spec["mode"] == "setup":
        proto.write(json.dumps({"ref_s": statistics.fmean(Reference().sample(0.05))}) + "\n")
        return

    if spec["mode"] == "record":
        for key in workload.schedule():
            errors = [e for _, e in workload.check(key, workload.run(key)) if e]
            if errors:
                raise SystemExit(f"cannot record references: {errors}")
        proto.write(json.dumps({"reference": workload.reference()}) + "\n")
        return

    durations, traced, ref_times, attempted, failures = measure(workload, spec, tracer)
    import resource

    result = {
        "import_s": import_s,
        "durations": durations,
        "traced_durations": traced,
        "ref_s": mean(ref_times),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_facts(),
    }
    if spec["full_pass"]:
        result["quality"] = workload.quality()
    if tracer:
        from tracing import layer_metrics

        result["layers"] = layer_metrics(tracer, len(traced))
        result["layers"]["cli.import_s"] = (import_s, "s")
        tracer.dump(spec["spans"])
    proto.write(json.dumps(result) + "\n")
    proto.flush()


if __name__ == "__main__":
    main()
