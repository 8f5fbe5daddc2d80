"""Self-test of the benchmark harness on a tiny configuration.

    python3 bench/selftest.py

Runs every workload through run.py on bench/tiny.ini, with references
recorded for that config into a scratch file, and asserts that:

- every end-to-end and per-layer metric named in BENCHMARK.json is emitted,
  with its unit, and every workload prints its own metric names;
- the untouched references pass, and a corrupted reference value is
  reported as a failed op (so the correctness gate is itself tested);
- in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.

Takes about a minute. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = "bench/tiny.ini"
NAMED = {
    "build": ["setup_s", "build_s", "repository_f1", "peak_rss_mb", "error_rate"],
    "serve": ["setup_s", "serve_frames_per_s", "serve_trace_ms_p50", "serve_trace_ms_p90",
              "anole_f1", "miss_rate", "peak_rss_mb", "error_rate"],
    "baselines": ["setup_s", "baselines_s", "baseline_f1", "peak_rss_mb", "error_rate"],
}


def run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )
    return proc


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect_metrics(result, declared, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"{what}: emitted {got}, BENCHMARK.json declares {want}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{what}: {name} is not a number"


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = Path(tempfile.mkdtemp(dir=BENCH / "out", prefix="selftest-"))
    try:
        refs = scratch / "references.json"
        proc = run(["--record-references", "--config", CONFIG, "--references", str(refs)])
        assert proc.returncode == 0, proc.stderr[-3000:]
        common = ["--seed", "17", "--seconds", "1", "--config", CONFIG]

        for workload in ("build", "serve", "baselines"):
            proc = run(["--workload", workload, "--trace", "0", "--references", str(refs), *common])
            result = result_of(proc)
            assert "checked against references" in proc.stdout, proc.stdout
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            expect_metrics(result, bench["end_to_end"], f"{workload} --trace 0")
            for name in NAMED[workload]:
                assert f"  {name} " in proc.stdout, f"{workload}: {name} not printed"

            result = result_of(run(["--workload", workload, "--trace", "1",
                                    "--references", str(refs), *common]))
            assert result["correct"], result
            expect_metrics(result, bench["per_layer"], f"{workload} --trace 1")
            print(f"ok   {workload}: metrics emitted, references pass")

        corrupt = json.loads(refs.read_text())
        corrupt["build"]["pools"] = "0" * 64
        first = sorted(corrupt["serve"])[0]
        corrupt["serve"][first]["miss_rate"] += 0.5
        first = sorted(corrupt["baselines"])[0]
        corrupt["baselines"][first]["mean_window_f1"] -= 1e-9
        bad = scratch / "corrupt.json"
        bad.write_text(json.dumps(corrupt))
        for workload in ("build", "serve", "baselines"):
            result = result_of(run(["--workload", workload, "--trace", "0",
                                    "--references", str(bad), *common]))
            assert not result["correct"] and result["failed"] >= 1, result
            print(f"ok   {workload}: a corrupted reference is a failed op "
                  f"({result['failed']}/{result['attempted']})")

        bare = scratch / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(["--workload", "serve", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, "ran without the package"
        assert '"correct"' not in proc.stdout, proc.stdout
        print("ok   without src/ the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
