"""gensim benchmark: one run of one workload, printed as one JSON line.

Usage, from the root of a gensim checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(``wall_s``, ``setup_s``, ``peak_rss_mb``, ``cli_p50_ms``, ``cli_p90_ms``),
times scaled to the reference host speed (``hostspeed.py``); with
``--trace 1`` it carries the per-layer metrics of a traced run.  Each
run appends a record (revision, Python, CPUs, load, seed, exit codes, gate
problems) to ``.bench_work/runs.jsonl``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import hostspeed
from workloads import WORKLOADS, variant

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORK = ".bench_work"
# Set-up is sampled this many times per run and reported as the median.
SETUP_SAMPLES = 7
# The whole run, set-up samples included, ends inside this many seconds.
RUN_LIMIT_S = 170.0


def spawn_worker(args: list[str], timeout: float) -> dict:
    """Run worker.py; its last stdout line is JSON.  Adds ``setup_s``."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_done"] - start
    return result


def source_digest(root: str) -> str:
    """Hash of the gensim sources and fixtures the run measured."""
    h = hashlib.sha256()
    package = os.path.join(root, "src", "gensim")
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()[:16]


def git_revision(root: str) -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gensim benchmark run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gensim", "cli.py")):
        print("error: run from the root of a gensim checkout "
              "(src/gensim/cli.py not found)", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    started = time.monotonic()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    yardstick = hostspeed.Yardstick(every_s=0)
    raw_setups = []
    try:
        for _ in range(SETUP_SAMPLES):
            raw_setups.append(spawn_worker([*common, "--setup-only"], remaining())["setup_s"])
            yardstick.add(raw_setups[-1])
        mode = ["--trace"] if args.trace else []
        result = spawn_worker(
            [*common, "--seconds", str(args.seconds),
             "--deadline", str(remaining() - 15), *mode],
            remaining(),
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics = {
            "wall_s": metrics["wall_s"],
            "setup_s": {"value": statistics.median(yardstick.scaled), "unit": "s"},
            **{k: metrics[k] for k in ("peak_rss_mb", "cli_p50_ms", "cli_p90_ms")},
        }
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant(args.seed),
        "trace": args.trace,
        "seconds": args.seconds,
        "git_revision": git_revision(root),
        "source_digest": source_digest(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "setup_samples": raw_setups,
        "setup_speed_samples": yardstick.samples,
        "run_s": time.monotonic() - started,
        **{k: v for k, v in result.items()
           if k not in ("setup_done", "setup_s")},
        "metrics": metrics,
    }
    with open(os.path.join(WORK, "runs.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    for problem in result["problems"]:
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
