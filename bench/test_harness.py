"""Tests of the benchmark harness's own code.

Run from the root of the checkout:  python3 -m pytest bench/test_harness.py
"""

from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, build_jobs  # noqa: E402

FIXTURES = os.path.join(ROOT, "src", "gensim", "fixtures")


def test_self_time_subtracts_direct_children_only():
    t = tracing.Tracer()
    root = t.record("a", 0, 100)
    child = t.record("b", 10, 40, parent=root)
    t.record("c", 20, 30, parent=child)
    t.record("b", 50, 70, parent=root)
    agg = t.aggregate()
    assert agg["a"] == {"calls": 1, "inclusive_ns": 100, "self_ns": 50}
    assert agg["b"] == {"calls": 2, "inclusive_ns": 50, "self_ns": 40}
    assert agg["c"] == {"calls": 1, "inclusive_ns": 10, "self_ns": 10}
    assert sum(e["self_ns"] for e in agg.values()) == 100


def test_recursive_span_counts_inclusive_time_once():
    t = tracing.Tracer()
    outer = t.record("a", 0, 100)
    t.record("a", 10, 60, parent=outer)
    agg = t.aggregate()
    assert agg["a"]["inclusive_ns"] == 100
    assert agg["a"]["self_ns"] == 100


def test_wrapped_calls_nest_and_count():
    t = tracing.Tracer()
    inner = t.span("inner", lambda x: [x] * x, result_count="items")
    outer = t.span("outer", lambda: inner(2) + inner(3))
    assert outer() == [2, 2, 3, 3, 3]
    assert list(t.parent) == [-1, 0, 0]
    assert t.counts["items"] == 5
    agg = t.aggregate()
    total = agg["outer"]["inclusive_ns"]
    assert agg["outer"]["self_ns"] + agg["inner"]["self_ns"] == total


def test_dump_and_merge_keep_parents(tmp_path):
    child = tracing.Tracer()
    r = child.record("x", 5, 9)
    child.record("y", 6, 7, parent=r)
    child.counts["n"] = 3
    path = str(tmp_path / "spans.json")
    child.dump(path)
    t = tracing.Tracer()
    t.record("z", 0, 1)
    t.merge(tracing.Tracer.load(path), job_id=4)
    assert list(t.parent) == [-1, -1, 1]
    assert list(t.job)[1:] == [4, 4]
    assert t.counts["n"] == 3
    assert t.aggregate()["x"]["self_ns"] == 3


def test_percentile_needs_ten_samples_beyond():
    assert stats.min_samples(90) == 100
    assert stats.min_samples(50) == 20
    assert stats.beyond(100, 90) == 10
    assert stats.beyond(99, 90) == 9
    samples = list(range(1, 101))
    p90 = stats.percentile(samples, 90)
    assert p90 == 90
    assert sum(1 for s in samples if s > p90) == 10


def test_subprocess_runs_get_enough_invocations_for_p90(tmp_path):
    for name, workload in WORKLOADS.items():
        jobs = len(build_jobs(name, 0, str(tmp_path / name)))
        for seconds in (1, 10, 20, 60):
            n = worker.pass_count(workload, jobs, seconds, reference=False) * jobs
            if not workload.in_process:
                assert stats.beyond(n, 90) >= stats.TAIL
    assert worker.pass_count(WORKLOADS["queries-closure"], 7, 20, reference=True) == 1


def _run(argv):
    import gensim.cli

    return worker.run_in_process(gensim.cli.main, argv, budget=30)


def _chain_check():
    return (
        "check", "--left", os.path.join(FIXTURES, "chain4_a.alg"),
        "--right", os.path.join(FIXTURES, "chain4_b.alg"),
        "--a", "1", "--b", "1", "--format", "json",
    )


def _matrix():
    return ("matrix", "--left", os.path.join(FIXTURES, "nat_sink7.alg"), "--format", "json")


def _gate(results, references):
    worker.check_results([results], references, gate.CertificateChecker())
    return worker.summarize([results])


def test_gate_passes_untampered_outputs():
    results = [_run(_chain_check()), _run(_matrix())]
    references = [gate.digest(r.argv, r.code, r.stdout) for r in results]
    assert _gate(results, references)[:2] == (2, 0)


def test_tampered_digest_counts_as_failed():
    results = [_run(_chain_check()), _run(_matrix())]
    references = [gate.digest(r.argv, r.code, r.stdout) for r in results]
    references[1] = "0" * 32
    attempted, failed, problems = _gate(results, references)
    assert (attempted, failed) == (2, 1)
    assert "digest" in problems[0]


@pytest.mark.parametrize("make_job", [_chain_check, _matrix])
def test_forged_certificate_counts_as_failed(make_job):
    result = _run(make_job())
    payload = json.loads(result.stdout)
    verdict = payload if "certificate" in payload else next(
        c["leq"] for c in payload["cells"] if not c["leq"]["holds"]
    )
    assert verdict["certificate"]["term"] != "z1"
    verdict["certificate"]["term"] = "z1"  # generalizes everything: no separation
    result.stdout = json.dumps(payload, indent=2) + "\n"
    # The reference matches the forged output, so only the recheck can see it.
    references = [gate.digest(result.argv, result.code, result.stdout)]
    attempted, failed, problems = _gate([result], references)
    assert (attempted, failed) == (1, 1)
    assert "certificate recheck failed" in problems[0]


def test_text_certificates_are_rechecked():
    argv = _chain_check()[:-2]
    result = _run(argv)
    assert "term=f(z1)" in result.stdout
    assert _gate([result], [gate.digest(argv, result.code, result.stdout)])[1] == 0
    result.stdout = result.stdout.replace("term=f(z1)", "term=f(f(f(z1)))")
    assert _gate([result], [gate.digest(argv, result.code, result.stdout)])[1] == 1


def test_timeout_is_recorded_and_counted():
    def slow_main(argv):
        while True:
            pass

    result = worker.run_in_process(slow_main, ("matrix",), budget=0.2)
    assert result.status == "timeout"
    assert _gate([result], None)[1] == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_deterministic_in_the_seed(name, tmp_path):
    def generate(seed, sub):
        workdir = str(tmp_path / sub)
        jobs = build_jobs(name, seed, workdir)
        files = {}
        for filename in sorted(os.listdir(workdir)):
            with open(os.path.join(workdir, filename), encoding="utf-8") as handle:
                files[filename] = handle.read()
        return [tuple(a.replace(workdir, "<w>") for a in job) for job in jobs], files

    first, again, other = generate(7, "a"), generate(7, "b"), generate(8, "c")
    assert first == again
    assert first != other


def test_tracing_is_transparent_and_undone():
    modules = tracing.gensim_modules()
    before = {k: dict(vars(m)) for k, m in modules.items()}
    subset = modules["similarity"].UnaryEngine.subset
    to_dict = modules["verdict"].Verdict.to_dict
    plain = _run(_matrix())
    t = tracing.Tracer()
    uninstall = tracing.install(t, modules)
    try:
        traced = _run(_matrix())
    finally:
        uninstall()
    assert traced.stdout == plain.stdout
    assert t.aggregate()["similarity.decide"]["calls"] == 2 * 7 * 7
    assert {k: dict(vars(m)) for k, m in modules.items()} == before
    assert modules["similarity"].UnaryEngine.subset is subset
    assert modules["verdict"].Verdict.to_dict is to_dict
