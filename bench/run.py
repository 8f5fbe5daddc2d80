"""sceneselect benchmark: one workload, one fresh worker process at a time.

    python3 bench/run.py --workload {build,serve,baselines} --seed N --seconds S --trace {0,1}

Run from the repository root. The package is imported from ``src/`` of this
checkout. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it print the same run under the workload's own metric names.
See bench/README.md for the workloads, the metrics and how to read a trace.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DEFAULT_CONFIG = "configs/default.ini"
REFERENCES = BENCH / "references.json"
# The seed pair the references were recorded for (README names a held-out pair).
DEFAULT_SEEDS = {"dataset_seed": 42, "seed": 17}
SETUP_RUNS = 7  # cold starts per run, odd; setup_s is their median
# Declared times are scaled to a machine on which worker.Reference's loop
# takes this long: measured time x REF_S / the loop's time in the same worker.
REF_S = 0.0025
RUN_DEADLINE = 170.0  # seconds from start to the last worker's exit
STARTED = perf_counter()
FRAMES_PER_TRACE = 500

# op = one whole build / one run_trace call / one run_baselines call
OP_NAMES = {"build": "build_s", "baselines": "baselines_s"}
QUALITY = {"build": "repository_f1", "serve": "anole_f1", "baselines": "baseline_f1"}


class WorkerError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def run_worker(spec):
    """Start one worker and wait for it; returns (set-up seconds, last line)."""
    t0 = perf_counter()
    deadline = RUN_DEADLINE - (t0 - STARTED)
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True,
    )
    setup_s, lines = None, []
    try:
        while True:
            left = deadline - (perf_counter() - t0)
            if left <= 0:
                raise WorkerError(f"{spec['mode']} worker still running {RUN_DEADLINE:.0f} s into the run")
            ready, _, _ = select.select([proc.stdout], [], [], left)
            if not ready:
                continue
            line = proc.stdout.readline()
            if not line:
                break
            if line == "ready\n" and setup_s is None:
                setup_s = perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait(timeout=max(deadline - (perf_counter() - t0), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise WorkerError(f"{spec['mode']} worker exited with {code}")
    return setup_s, (lines[-1] if lines else None)


def percentile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def scaled(seconds, ref_s):
    return seconds * REF_S / ref_s


def end_to_end(workload, setups, result):
    d = result["durations"]
    return {
        "setup_s": (statistics.median(scaled(s, r) for s, r in setups), "s"),
        "op_ms": (scaled(statistics.fmean(d), result["ref_s"]) * 1e3, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "quality_f1": (result["quality"][QUALITY[workload]], "ratio"),
    }


def named(workload, setups, result):
    """The run under the workload's own metric names, in wall-clock time."""
    d = result["durations"]
    rows = {"setup_s": (statistics.median(s for s, _ in setups), "s")}
    if workload == "serve":
        rows["serve_frames_per_s"] = (FRAMES_PER_TRACE * len(d) / sum(d), "frames/s")
        rows["serve_trace_ms_p50"] = (statistics.median(d) * 1e3, "ms")
        rows["serve_trace_ms_p90"] = (percentile(d, 0.9) * 1e3, "ms")
    else:
        rows[OP_NAMES[workload]] = (statistics.median(d), "s")
    rows["ops_per_s"] = (len(d) / sum(d), "1/s")
    rows.update({k: (v, "ratio") for k, v in result["quality"].items()})
    rows["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
    rows["error_rate"] = (result["failed"] / result["attempted"], "failed/attempted")
    rows["reference_ms"] = (result["ref_s"] * 1e3, "ms")
    return rows


def spec_for(args, mode, work, **extra):
    spec = {
        "mode": mode,
        "workload": args.workload,
        "seed": args.seed,
        "dataset_seed": args.dataset_seed,
        "config": args.config,
        "root": str(ROOT),
        "work": str(work),
        "prep": str(work / f"prep-{args.workload}"),
        "seconds": args.seconds,
        "full_pass": True,
        "trace": False,
    }
    spec.update(extra)
    return spec


def load_references(args):
    if not args.references.is_file():
        return None
    refs = json.loads(args.references.read_text())
    recorded = {k: refs.get(k) for k in ("dataset_seed", "seed", "config")}
    wanted = {"dataset_seed": args.dataset_seed, "seed": args.seed, "config": args.config}
    return refs if recorded == wanted else None


def record(args, work):
    refs = {"dataset_seed": args.dataset_seed, "seed": args.seed, "config": args.config}
    for workload in ("build", "serve", "baselines"):
        args.workload = workload
        if workload != "build":
            run_worker(spec_for(args, "prep", work))
        _, line = run_worker(spec_for(args, "record", work))
        refs[workload] = json.loads(line)["reference"]
    args.references.write_text(dump_references(refs))
    print(f"wrote {args.references}")


def dump_references(refs):
    """JSON with one recorded output per line, so a re-record diffs line by line."""
    lines = []
    for key, value in sorted(refs.items()):
        if isinstance(value, dict):
            inner = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                               for k, v in sorted(value.items()))
            lines.append(f" {json.dumps(key)}: {{\n{inner}\n }}")
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def cold_start(args, work):
    """(seconds to ready, reference loop time) of one set-up-only worker."""
    setup_s, line = run_worker(spec_for(args, "setup", work))
    return setup_s, json.loads(line)["ref_s"]


def show(title, rows):
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("build", "serve", "baselines"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEEDS["seed"],
                        help="trace-seed base (serve, baselines); bandit seed of `sample` (build)")
    parser.add_argument("--dataset-seed", type=int, default=DEFAULT_SEEDS["dataset_seed"])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--config", default=DEFAULT_CONFIG,
                        help="INI config, relative to the repository root")
    parser.add_argument("--references", type=Path, default=REFERENCES)
    parser.add_argument("--record-references", action="store_true",
                        help="record reference outputs for the given seeds and config")
    args = parser.parse_args(argv)
    if not args.record_references and args.workload is None:
        parser.error("--workload is required")
    if min(args.seed, args.dataset_seed) < 0 or args.seconds <= 0:
        parser.error("seeds must be >= 0 and --seconds > 0")

    missing = [p for p in ("src/sceneselect/cli.py", args.config) if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2

    load_at_start = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT, prefix="work-"))
    try:
        if args.record_references:
            record(args, work)
            return 0
        return measure(args, work, load_at_start)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work, load_at_start):
    refs = load_references(args)
    if args.workload != "build":
        run_worker(spec_for(args, "prep", work))
    checked = "references" if refs else "invariants"
    print(f"workload {args.workload}  seed {args.seed}  dataset_seed {args.dataset_seed}  "
          f"checked against {checked}")

    if args.trace:
        spans = OUT / f"spans-{args.workload}.npz"
        _, line = run_worker(spec_for(args, "measure", work, references=refs, trace=True,
                                      spans=str(spans), full_pass=False))
        result = json.loads(line)
        # each traced op is paired with an untraced op on the same input
        overhead = statistics.median(
            t - u for t, u in zip(result["traced_durations"], result["durations"]))
        metrics = {k: tuple(v) for k, v in result["layers"].items()}
        metrics["trace.overhead_ms"] = (overhead * 1e3, "ms")
        metrics["trace.overhead_share"] = (overhead / statistics.median(result["durations"]), "ratio")
        runs = [result]
        show(f"per-layer: set-up plus the mean over {len(result['traced_durations'])} traced ops, "
             f"each paired with an untraced one (spans in {spans.relative_to(ROOT)})", metrics)
    else:
        # cold starts before and after the measuring worker, to sample more of the machine's phases
        setups = [cold_start(args, work) for _ in range(SETUP_RUNS // 2)]
        setup_s, line = run_worker(spec_for(args, "measure", work, references=refs))
        result = json.loads(line)
        setups.append((setup_s, result["ref_s"]))
        setups += [cold_start(args, work) for _ in range(SETUP_RUNS // 2)]
        runs = [result]
        show(f"{args.workload}: {len(result['durations'])} timed ops after 1 warm-up, "
             f"{len(setups)} cold starts", named(args.workload, setups, result))
        metrics = end_to_end(args.workload, setups, result)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for failure in r["failures"]:
            print(f"  FAILED {failure}")
    machine = dict(runs[-1]["machine"], loadavg_at_start=load_at_start)
    print("machine " + json.dumps(machine, sort_keys=True))
    record_run = {
        "workload": args.workload, "seed": args.seed, "dataset_seed": args.dataset_seed,
        "trace": args.trace, "machine": machine, "checked_against": checked,
        "durations": [r["durations"] for r in runs],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record_run, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record_run["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
