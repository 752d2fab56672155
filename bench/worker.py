"""Job process of the benchmark: set up one workload, run it, check it.

Started by ``run.py`` in a fresh interpreter from the root of a checkout;
prints one JSON object as its last stdout line.  Modes:

* ``--setup-only``: import gensim and write the inputs, then stop (the
  parent times this as set-up);
* default: run the job list in passes for ``--seconds`` seconds, untraced;
* ``--trace``: one untraced and one traced pass over the traced jobs, plus
  interpreter start and import probes, giving the per-layer metrics;
* ``--reference``: one untraced pass, printing the output digests that
  ``make_references.py`` stores.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import gate
import hostspeed
import stats
import tracing
from workloads import WORKLOADS, build_jobs, variant

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = ".bench_work"
# What the installed ``gensim`` console script runs.
GENSIM_ENTRY = "import sys; from gensim.cli import main; sys.exit(main())"
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import gensim.cli; "
    "print(time.perf_counter() - t)"
)
# No pass starts after this many seconds, so a run ends inside three minutes
# even on a commit many times slower.
MEASURE_CAP_S = 100.0
# Fresh interpreters timed for cli.spawn_ms and cli.import_ms.
START_SAMPLES = 7
# Seconds of jobs between two host speed probes.
SPEED_PROBE_EVERY_S = 1.0


class JobTimeout(Exception):
    pass


@dataclass
class JobResult:
    argv: tuple[str, ...]
    code: int | None
    stdout: str
    seconds: float
    status: str  # ok | timeout | exception
    problems: list[str] = field(default_factory=list)
    scaled: float = 0.0  # seconds at the reference host speed


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=SRC)


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_in_process(main, argv, budget: float) -> JobResult:
    """One ``gensim.cli.main(argv)`` call with captured output and a budget."""
    out, err = io.StringIO(), io.StringIO()
    code, status = None, "ok"
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except JobTimeout:
        status = "timeout"
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        status = "exception"
        err.write(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    result = JobResult(tuple(argv), code, out.getvalue(), seconds, status)
    if status == "exception":
        result.problems.append(err.getvalue().strip().splitlines()[-1])
    return result


def run_subprocess(cmd, argv, budget: float) -> JobResult:
    """One ``gensim`` subprocess; killed and reaped when over budget."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, timeout=budget, env=_child_env(), cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        return JobResult(tuple(argv), None, "", time.perf_counter() - start, "timeout")
    seconds = time.perf_counter() - start
    stderr = proc.stderr.decode("utf-8", "replace")
    status = "exception" if "Traceback (most recent call last)" in stderr else "ok"
    result = JobResult(
        tuple(argv), proc.returncode, proc.stdout.decode("utf-8", "replace"), seconds, status
    )
    if status == "exception":
        result.problems.append(stderr.strip().splitlines()[-1])
    return result


class Runner:
    """Runs jobs of one workload, in process or as subprocesses."""

    def __init__(self, workload, cli_main, yardstick: hostspeed.Yardstick | None = None):
        self.workload = workload
        self.cli_main = cli_main
        self.yardstick = yardstick

    def run(self, argv, deadline: float, tracer=None, job_id=0) -> JobResult:
        result = self._run(argv, deadline, tracer, job_id)
        if self.yardstick is not None:
            self.yardstick.add(result.seconds)
        return result

    def _run(self, argv, deadline: float, tracer, job_id) -> JobResult:
        budget = min(self.workload.budget_s, deadline - time.monotonic())
        if budget <= 0:
            return JobResult(tuple(argv), None, "", 0.0, "timeout")
        if self.workload.in_process:
            main = self.cli_main
            if tracer is not None:
                tracer.job_id = job_id
                main = tracer.span(tracing.JOB_SPAN, main)
            return run_in_process(main, argv, budget)
        if tracer is None:
            return run_subprocess([sys.executable, "-c", GENSIM_ENTRY, *argv], argv, budget)
        dump = os.path.join(WORK, "traced-job.json")
        cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), dump, str(job_id), *argv]
        result = run_subprocess(cmd, argv, budget)
        if os.path.exists(dump + ".spans"):
            tracer.merge(tracing.Tracer.load(dump), job_id)
            os.remove(dump)
            os.remove(dump + ".spans")
        return result


def run_pass(runner: Runner, jobs, deadline: float, tracer=None) -> list[JobResult]:
    """Run the job list once.  A pass's time is the sum of its job latencies."""
    return [runner.run(argv, deadline, tracer, i) for i, argv in enumerate(jobs)]


def pass_count(workload, jobs: int, seconds: float, reference: bool) -> int:
    """Passes a run makes; subprocess workloads also get enough invocations
    for a p90 with at least ``stats.TAIL`` samples beyond it."""
    if reference:
        return 1
    passes = max(1, round(seconds / workload.nominal_pass_s))
    if not workload.in_process:
        passes = max(passes, -(-stats.min_samples(90) // jobs))
    return passes


def check_results(passes, references, checker) -> None:
    """Attach gate problems to each result; certificates only on pass one.

    ``references`` is None only while references are being made.
    """
    for number, results in enumerate(passes):
        for i, r in enumerate(results):
            if r.status != "ok":
                r.problems.append(r.status)
                continue
            if r.code == 2:
                r.problems.append("exit 2")
            if references is not None:
                if i >= len(references):
                    r.problems.append("no reference digest")
                elif gate.digest(r.argv, r.code, r.stdout) != references[i]:
                    r.problems.append("output digest differs from the reference")
            if number == 0 and r.code in (0, 1):
                try:
                    r.problems.extend(gate.certificate_problems(checker, r.argv, r.stdout))
                except (ValueError, KeyError, TypeError) as exc:
                    r.problems.append(f"unreadable output: {exc!r}")


def summarize(passes) -> tuple[int, int, list[str]]:
    """Attempted job runs, failed ones, and the first few problems."""
    results = [r for p in passes for r in p]
    failed = [r for r in results if r.problems]
    problems = [f"{' '.join(r.argv)}: {'; '.join(r.problems)}" for r in failed]
    return len(results), len(failed), problems[:20]


def _start(code: str) -> list[tuple[float, str]]:
    """Run ``python -c code`` START_SAMPLES times: (wall seconds, stdout) each."""
    runs = []
    for _ in range(START_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_child_env(), cwd=ROOT, timeout=60, check=True)
        runs.append((time.perf_counter() - start, proc.stdout))
    return runs


def spawn_ms() -> float:
    """Bare interpreter start, median wall time in milliseconds."""
    return statistics.median(seconds for seconds, _ in _start("pass")) * 1000


def import_ms() -> float:
    """``import gensim.cli`` in a fresh interpreter, median milliseconds."""
    return statistics.median(float(out) for _, out in _start(IMPORT_CODE)) * 1000


def layer_metrics(agg, counts, overhead: float, spawn: float, imported: float) -> dict:
    def self_s(name):
        return agg.get(name, {}).get("self_ns", 0) / 1e9

    def inclusive_s(name):
        return agg.get(name, {}).get("inclusive_ns", 0) / 1e9

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "similarity.decide_s": (self_s("similarity.decide"), "s"),
        "similarity.decide_calls": (calls("similarity.decide"), "count"),
        "similarity.subset_s": (self_s("similarity.subset"), "s"),
        "similarity.subset_calls": (calls("similarity.subset"), "count"),
        "similarity.subset_per_verdict": (
            ratio(calls("similarity.subset"), calls("similarity.decide")), "ratio"),
        "automata.gen_language_s": (self_s("automata.gen_language"), "s"),
        "automata.gen_language_calls": (calls("automata.gen_language"), "count"),
        "automata.intersect_s": (self_s("automata.intersect"), "s"),
        "automata.intersect_calls": (calls("automata.intersect"), "count"),
        "automata.subset_s": (self_s("automata.subset"), "s"),
        "automata.subset_calls": (calls("automata.subset"), "count"),
    }
    for layer in ("linear", "monolinear", "general"):
        profiles, candidates = counts.get(f"{layer}.profiles", 0), counts.get(f"{layer}.candidates", 0)
        m[f"{layer}.closure_s"] = (self_s(f"{layer}.closure"), "s")
        m[f"{layer}.profiles"] = (profiles, "count")
        m[f"{layer}.candidates"] = (candidates, "count")
        m[f"{layer}.accept_ratio"] = (ratio(profiles, candidates), "ratio")
    m.update({
        "similarity.build_engine_s": (self_s("similarity.build_engine"), "s"),
        "similarity.build_engine_calls": (calls("similarity.build_engine"), "count"),
        "similarity.charset_s": (self_s("similarity.charset"), "s"),
        "algebra.parse_s": (self_s("algebra.parse"), "s"),
        "algebra.parse_calls": (calls("algebra.parse"), "count"),
        "cli.import_ms": (imported, "ms"),
        "cli.spawn_ms": (spawn, "ms"),
        "cli.render_s": (self_s("cli.render"), "s"),
        # Whole example checks and morphism verifications, callees included.
        "corpus.examples_s": (inclusive_s("corpus.examples"), "s"),
        "morphism.verify_s": (inclusive_s("morphism.verify"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


DECISION_LAYERS = ("similarity.decide", "similarity.subset", "automata.subset", "automata.intersect")
CLOSURE_LAYERS = ("linear.closure", "monolinear.closure", "general.closure", "similarity.build_engine")


def self_time_shares(agg) -> dict:
    """Each layer's share of all traced self time, plus the two groups."""
    total = sum(entry["self_ns"] for entry in agg.values()) or 1
    shares = {name: entry["self_ns"] / total for name, entry in sorted(agg.items())}
    shares["decision"] = sum(shares.get(n, 0.0) for n in DECISION_LAYERS)
    shares["closure"] = sum(shares.get(n, 0.0) for n in CLOSURE_LAYERS)
    return shares


def traced_run(workload, jobs, cli_main, deadline: float) -> tuple[list, dict]:
    """One untraced and one traced pass over the workload's traced jobs."""
    yardstick = hostspeed.Yardstick(SPEED_PROBE_EVERY_S)
    runner = Runner(workload, cli_main, yardstick)
    traced_jobs = jobs[: workload.trace_jobs or len(jobs)]
    untraced = run_pass(runner, traced_jobs, deadline)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, tracing.gensim_modules()) if workload.in_process else None
    try:
        traced = run_pass(runner, traced_jobs, deadline, tracer)
    finally:
        if uninstall is not None:
            uninstall()
    yardstick.close()
    # Host-scaled, so that a fast or slow spell during one pass does not
    # pass for tracing cost.
    untraced_s = sum(yardstick.scaled[: len(untraced)])
    traced_s = sum(yardstick.scaled[len(untraced):])
    agg = tracer.aggregate()
    trace_path = os.path.join(WORK, f"trace-{workload.name}.json")
    tracer.dump(trace_path)
    return [untraced, traced], {
        "metrics": layer_metrics(agg, tracer.counts, traced_s / untraced_s if untraced_s else 0.0,
                                 spawn_ms(), import_ms()),
        "tracing": {"file": trace_path, "spans": len(tracer), "layers": agg,
                  "shares": self_time_shares(agg), "untraced_s": untraced_s, "traced_s": traced_s,
                  "speed_samples": yardstick.samples},
    }


def timed_run(workload, jobs, cli_main, deadline: float, passes_wanted: int) -> tuple[list, dict]:
    """Untraced passes with host speed probes between the jobs."""
    start = time.monotonic()
    yardstick = hostspeed.Yardstick(SPEED_PROBE_EVERY_S)
    runner = Runner(workload, cli_main, yardstick)
    passes = []
    for _ in range(passes_wanted):
        passes.append(run_pass(runner, jobs, deadline))
        if time.monotonic() - start > MEASURE_CAP_S:
            break
    yardstick.close()
    results = [r for p in passes for r in p]
    for r, scaled in zip(results, yardstick.scaled):
        r.scaled = scaled
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss = {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MB"}

    def metrics(seconds_of):
        latencies = [seconds_of(r) for r in results]
        return {
            "wall_s": {"value": statistics.median(sum(seconds_of(r) for r in p) for p in passes),
                       "unit": "s"},
            "peak_rss_mb": peak_rss,
            "cli_p50_ms": {"value": stats.percentile(latencies, 50) * 1000, "unit": "ms"},
            "cli_p90_ms": {"value": stats.percentile(latencies, 90) * 1000, "unit": "ms"},
        }

    return passes, {
        "metrics": metrics(lambda r: r.scaled),
        "raw_metrics": metrics(lambda r: r.seconds),
        "speed_samples": yardstick.samples,
        "job_seconds": [[r.seconds for r in p] for p in passes],
        "p90_samples_beyond": stats.beyond(len(results), 90),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--deadline", type=float, default=150.0,
                        help="seconds after which no job may still run")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.deadline

    sys.path.insert(0, SRC)
    import gensim.cli

    if not os.path.abspath(gensim.cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported gensim from {gensim.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    jobs = build_jobs(workload.name, args.seed, os.path.join(WORK, "inputs", workload.name))
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    if args.trace:
        passes, out = traced_run(workload, jobs, gensim.cli.main, deadline)
    else:
        passes_wanted = pass_count(workload, len(jobs), args.seconds, args.reference)
        passes, out = timed_run(workload, jobs, gensim.cli.main, deadline, passes_wanted)
    references = None
    if not args.reference:
        references = gate.load_references(workload.name, variant(args.seed)) or []
    check_results(passes, references, gate.CertificateChecker())
    if args.reference:
        out["digests"] = [gate.digest(r.argv, r.code, r.stdout) for r in passes[0]]
    out["attempted"], out["failed"], out["problems"] = summarize(passes)
    out["exit_codes"] = [[r.code for r in p] for p in passes]
    out["setup_done"] = setup_done
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
