"""Seeded job lists for the benchmark's workloads.

Every job is one ``gensim`` command line.  Inputs come only from gensim's
public generators and the bundled fixtures; the seed decides which
algebras are generated and which elements are queried, nothing else.
Seeds are folded onto ``VARIANTS`` input variants, because the correctness
gate compares outputs with reference digests stored per variant.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

VARIANTS = 32
FIXTURES = os.path.join("src", "gensim", "fixtures")

# matrix-unary: one-op random monounary algebras of this size, this many
# per pass.  Several algebras per pass average out how much a single random
# algebra's matrix costs.
MATRIX_SIZE = 40
MATRIX_ALGEBRAS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    in_process: bool  # run jobs through gensim.cli.main in the job process
    budget_s: float  # a job running longer is stopped and counted as a timeout
    trace_jobs: int  # the traced pass runs this many jobs from the list head
    # Seconds one pass over the job list took on the reference host.  A run
    # makes round(--seconds / nominal_pass_s) passes, a count that does not
    # depend on how fast this commit is, so percentiles keep their meaning.
    nominal_pass_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("matrix-unary", True, 30.0, 3, 9.5),
        Workload("queries-closure", True, 40.0, 7, 5.3),
        Workload("cli-fixtures", False, 15.0, 0, 3.6),
    )
}


def variant(seed: int) -> int:
    return seed % VARIANTS


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _matrix_unary(v: int, workdir: str) -> list[tuple[str, ...]]:
    from gensim.algebra import render_algebra
    from gensim.morphism import random_monounary_algebra

    jobs = []
    for i in range(MATRIX_ALGEBRAS):
        rng = random.Random(f"matrix-unary:{v}:{i}")
        algebra = random_monounary_algebra(rng, MATRIX_SIZE, 1, name=f"U{i}")
        path = _write(os.path.join(workdir, f"U{i}.alg"), render_algebra(algebra))
        jobs.append(("matrix", "--left", path, "--format", "json"))
    return jobs


def meet_algebra(universe: tuple[str, ...]):
    """The powerset carrier of ``universe`` under intersection.

    Element names and constants match ``powerset_algebra(universe)``, so
    the two form a valid pair; single-character universe names only.
    """
    from gensim.algebra import make_algebra
    from gensim.corpus import powerset_algebra

    carrier = powerset_algebra(universe).carrier
    members = {name: frozenset(name) - {"0"} for name in carrier}
    by_members = {m: name for name, m in members.items()}
    table = {(x, y): by_members[members[x] & members[y]] for x in carrier for y in carrier}
    return make_algebra(f"Meet{len(universe)}", carrier, {"u": table}, constants="all")


def _queries_closure(v: int, workdir: str) -> list[tuple[str, ...]]:
    from gensim.algebra import render_algebra
    from gensim.corpus import powerset_algebra, truncated_multiplication_algebra

    algebras = {
        "P3": powerset_algebra(tuple("123")),
        "M3": meet_algebra(tuple("123")),
        "P4": powerset_algebra(tuple("1234")),
        "M4": meet_algebra(tuple("1234")),
        "P5": powerset_algebra(tuple("12345")),
        "T5": truncated_multiplication_algebra(5),
    }
    paths = {
        key: _write(os.path.join(workdir, f"{key}.alg"), render_algebra(alg))
        for key, alg in algebras.items()
    }
    rng = random.Random(f"queries-closure:{v}")

    def query(command, left, right, *options, reflexive=False):
        a = rng.choice(algebras[left].carrier)
        b = a if reflexive else rng.choice(algebras[right or left].carrier)
        argv = [command, "--left", paths[left]]
        if right:
            argv += ["--right", paths[right]]
        return tuple(argv + ["--a", a, "--b", b, *options])

    # ``~~`` skips the reverse engine when the forward direction fails, so
    # with a random b the job would build one or two engines depending on
    # the seed.  Every Powerset element is similar to itself under these
    # fragments, so ``a ~~ a`` always builds both.
    return [
        query("check", "P3", None, "--relation", "approx", "--fragment", "general",
              "--max-vars", "2", reflexive=True),
        query("check", "P3", "M3", "--fragment", "general", "--max-vars", "2"),
        query("check", "P4", "M4", "--fragment", "linear"),
        query("check", "P5", None, "--relation", "approx", "--fragment", "monolinear",
              reflexive=True),
        query("charset", "P5", None, "--fragment", "monolinear"),
        query("check", "T5", None, "--relation", "approx", "--fragment", "linear"),
        query("charset", "T5", None, "--fragment", "linear"),
    ]


def _cli_fixtures(v: int, workdir: str) -> list[tuple[str, ...]]:
    from gensim.corpus import load_fixture

    rng = random.Random(f"cli-fixtures:{v}")
    fx = {name: os.path.join(FIXTURES, name) for name in os.listdir(FIXTURES)}
    carriers = {name: load_fixture(name).carrier for name in fx if name.endswith(".alg")}

    def pick(name):
        return rng.choice(carriers[name])

    def fmt(*formats):
        return ("--format", rng.choice(formats or ("text", "json")))

    unary = ("chain5.alg", "nat_sink7.alg", "unary_fg.alg")

    def genlang(*formats):
        alg = rng.choice(unary)
        return ("genlang", "--algebra", fx[alg], "--element", pick(alg), *fmt(*formats))

    templates = [
        lambda: ("check", "--left", fx["chain4_a.alg"], "--right", fx["chain4_b.alg"],
                 "--a", pick("chain4_a.alg"), "--b", pick("chain4_b.alg"), *fmt()),
        lambda: ("check", "--left", fx["chain5.alg"], "--a", pick("chain5.alg"),
                 "--b", pick("chain5.alg"), "--relation", "approx", *fmt()),
        lambda: ("check", "--left", fx["triple_a.alg"], "--right", fx["triple_c.alg"],
                 "--a", pick("triple_a.alg"), "--b", pick("triple_c.alg"), *fmt()),
        lambda: ("matrix", "--left", fx["chain5.alg"], *fmt()),
        lambda: ("matrix", "--left", fx["nat_sink7.alg"], "--format", "json"),
        lambda: ("matrix", "--left", fx["triple_d.alg"], *fmt()),
        lambda: genlang("text", "json", "dot"),
        lambda: genlang(),
        lambda: ("charset", "--left", fx["triple_b.alg"], "--right", fx["triple_c.alg"],
                 "--a", pick("triple_b.alg"), "--b", pick("triple_c.alg"), *fmt()),
        lambda: ("reflexivity", "--left", fx["chain4_a.alg"], "--right", fx["chain4_b.alg"],
                 "--format", "json"),
        lambda: ("reflexivity", "--left", fx[rng.choice(unary)], *fmt()),
        lambda: ("transitivity", "--left", fx["triple_d.alg"],
                 "--relation", rng.choice(("leq", "approx")), *fmt()),
        lambda: ("transitivity", "--left", fx["triple_a.alg"], "--mid", fx["triple_b.alg"],
                 "--right", fx["triple_c.alg"], "--relation", "leq", *fmt()),
        lambda: ("morphism", "--map", fx["merge.map"], "--algebras", fx["merge_src.alg"],
                 fx["merge_tgt.alg"], "--verify", "g-functor", *fmt()),
        lambda: ("morphism", "--map", fx["merge.map"], "--algebras", fx["merge_src.alg"],
                 fx["merge_tgt.alg"], "--verify", "hom", *fmt()),
        lambda: ("examples", *fmt()),
        lambda: ("examples", *fmt()),
        lambda: ("examples", *fmt()),
    ]
    jobs = [template() for template in templates]
    rng.shuffle(jobs)
    return jobs


_GENERATORS = {
    "matrix-unary": _matrix_unary,
    "queries-closure": _queries_closure,
    "cli-fixtures": _cli_fixtures,
}


def build_jobs(name: str, seed: int, workdir: str) -> list[tuple[str, ...]]:
    """Write the inputs of workload ``name`` under ``workdir``; return argvs."""
    os.makedirs(workdir, exist_ok=True)
    return _GENERATORS[name](variant(seed), workdir)
