"""Bundled example algebras: file fixtures and generated families.

The fixtures are small hand-written algebras whose similarity behavior is
fully known; ``example_checks`` packages those expectations as runnable
assertions for the CLI and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from itertools import combinations, product
from typing import Callable

from . import automata
from .algebra import Algebra, AlgebraPair, make_algebra, parse_algebra, validate_pair
# Unused here; bench/tracing.py patches corpus.paired_clone (ROADMAP item 1).
from .monolinear import paired_clone  # noqa: F401
from .morphism import check_g_functor, is_homomorphism, parse_map
from .similarity import (
    MonolinearEngine,
    check_reflexive,
    check_transitive,
    decide_leq,
    find_characteristic_set,
    similarity_matrix,
)
from .terms import App, Const, Var, range_of_term, render_term


FIXTURE_NAMES = (
    "chain5.alg",
    "chain4_a.alg",
    "chain4_b.alg",
    "nat_sink7.alg",
    "triple_a.alg",
    "triple_b.alg",
    "triple_c.alg",
    "triple_d.alg",
    "merge_src.alg",
    "merge_tgt.alg",
    "unary_fg.alg",
)


def fixture_text(filename: str) -> str:
    return (resources.files("gensim") / "fixtures" / filename).read_text()


def load_fixture(filename: str) -> Algebra:
    return parse_algebra(fixture_text(filename))


def load_all_fixtures() -> dict[str, Algebra]:
    """All bundled algebras, keyed by their declared names."""
    out: dict[str, Algebra] = {}
    for filename in FIXTURE_NAMES:
        algebra = load_fixture(filename)
        out[algebra.name] = algebra
    return out


def load_merge_map():
    algebras = {
        "MergeSrc": load_fixture("merge_src.alg"),
        "MergeTgt": load_fixture("merge_tgt.alg"),
    }
    return parse_map(fixture_text("merge.map"), algebras)


def powerset_algebra(universe: tuple[str, ...]) -> Algebra:
    """Subsets of the universe under union, every subset a constant.

    A subset is named by concatenating its members in universe order; the
    empty set is named ``0``.
    """
    subsets = []
    for size in range(len(universe) + 1):
        subsets.extend(combinations(universe, size))
    names = {s: "".join(s) or "0" for s in subsets}
    union = {}
    for s, t in product(subsets, repeat=2):
        merged = tuple(x for x in universe if x in s or x in t)
        union[(names[s], names[t])] = names[merged]
    return make_algebra(
        f"Powerset{len(universe)}",
        [names[s] for s in subsets],
        {"u": union},
        constants="all",
    )


def truncated_multiplication_algebra(limit: int = 12) -> Algebra:
    """Multiplication on 1..limit^2 with an absorbing overflow element.

    Constants are 1..limit, so ground terms denote the products reachable
    from small factors; overflow products collapse to ``X``.
    """
    top = limit * limit
    carrier = [str(i) for i in range(1, top + 1)] + ["X"]
    table = {}
    for x in carrier:
        for y in carrier:
            if x == "X" or y == "X":
                table[(x, y)] = "X"
            else:
                prod_val = int(x) * int(y)
                table[(x, y)] = str(prod_val) if prod_val <= top else "X"
    return make_algebra(
        "TruncMul",
        carrier,
        {"m": table},
        constants=[str(i) for i in range(1, limit + 1)],
    )


@dataclass(frozen=True)
class ExampleCheck:
    name: str
    description: str
    run: Callable[[], bool]


def _chain5_order() -> bool:
    algebra = load_fixture("chain5.alg")
    matrix = similarity_matrix(AlgebraPair(algebra, algebra))
    rank = {"a": 0, "b": 1, "c": 2, "d": 2, "e": 2}
    return all(
        matrix.leq[(x, y)].holds == (rank[x] <= rank[y])
        for x in algebra.carrier
        for y in algebra.carrier
    )


def _chain5_languages() -> bool:
    algebra = load_fixture("chain5.alg")
    expected_words = {
        "a": lambda w: len(w) == 0,
        "b": lambda w: len(w) <= 1,
        "c": lambda w: True,
        "d": lambda w: True,
        "e": lambda w: True,
    }
    for element, predicate in expected_words.items():
        dfa = automata.gen_language(algebra, element)
        for n in range(6):
            if dfa.accepts(["f"] * n) != predicate(["f"] * n):
                return False
    return True


def _nat_sink_order() -> bool:
    algebra = load_fixture("nat_sink7.alg")
    matrix = similarity_matrix(AlgebraPair(algebra, algebra))
    interior = [str(i) for i in range(5)]
    return all(
        matrix.leq[(x, y)].holds == (int(x) <= int(y))
        and matrix.approx[(x, y)].holds == (x == y)
        for x in interior
        for y in interior
    )


def _chain4_reflexivity_failure() -> bool:
    pair = validate_pair(load_fixture("chain4_a.alg"), load_fixture("chain4_b.alg"))
    verdict = decide_leq(pair, "1", "1")
    report = check_reflexive(pair)
    return (
        not verdict.holds
        and verdict.certificate.element == "0"
        and render_term(verdict.certificate.term) == "f(z1)"
        and not report.reflexive
    )


def _triple_transitivity_failure() -> bool:
    a = load_fixture("triple_a.alg")
    b = load_fixture("triple_b.alg")
    c = load_fixture("triple_c.alg")
    d = load_fixture("triple_d.alg")
    leq_ab = decide_leq(validate_pair(a, b), "a", "b").holds
    leq_bc = decide_leq(validate_pair(b, c), "b", "c").holds
    leq_ac = decide_leq(validate_pair(a, c), "a", "c").holds
    combined = check_transitive(d, relation="approx")
    return (
        leq_ab
        and leq_bc
        and not leq_ac
        and ("a", "b", "c") in combined.violations
    )


def _merge_not_g_functor() -> bool:
    emap = load_merge_map()
    reverse = validate_pair(emap.target, emap.source)
    back = decide_leq(reverse, "c", "a")
    return (
        is_homomorphism(emap)
        and not check_g_functor(emap).holds
        and not back.holds
        and back.certificate.element == "b"
    )


def _powerset_law() -> bool:
    algebra = powerset_algebra(("1", "2", "3"))
    pair = AlgebraPair(algebra, algebra)
    engine = MonolinearEngine(pair)
    full = "123"
    subsets = {e: set(e.replace("0", "")) for e in algebra.carrier}
    for x in algebra.carrier:
        for y in algebra.carrier:
            verdict = decide_leq(pair, x, y, engine=engine)
            if x != full:
                if verdict.holds != (subsets[x] <= subsets[y]):
                    return False
            elif len(subsets[y]) == 2 and not verdict.holds:
                return False
    return True


def _divisibility_spot_check() -> bool:
    algebra = truncated_multiplication_algebra(12)
    for k in range(1, 13):
        scaled = App("m", (Const(str(k)), Var(1)))
        rng = range_of_term(scaled, algebra)
        for a in range(1, 13):
            if ((str(a) in rng)) != (a % k == 0):
                return False
    return True


def _characteristic_singleton() -> bool:
    pair = validate_pair(load_fixture("triple_b.alg"), load_fixture("triple_c.alg"))
    charset = find_characteristic_set(pair, "b", "c")
    return charset is not None and [render_term(t) for t in charset] == ["g(z1)"]


def example_checks() -> list[ExampleCheck]:
    """The fixture expectations, in presentation order."""
    return [
        ExampleCheck(
            "chain5-order",
            "chain fixture orders as a < b < c ~ d ~ e",
            _chain5_order,
        ),
        ExampleCheck(
            "chain5-languages",
            "generalization languages of the chain fixture",
            _chain5_languages,
        ),
        ExampleCheck(
            "nat-sink-order",
            "truncated successor orders interior elements by magnitude",
            _nat_sink_order,
        ),
        ExampleCheck(
            "chain4-reflexivity-failure",
            "cross-algebra reflexivity fails at element 1 with evidence f(z1)",
            _chain4_reflexivity_failure,
        ),
        ExampleCheck(
            "triple-transitivity-failure",
            "a <~ b and b <~ c but not a <~ c, also inside the union algebra",
            _triple_transitivity_failure,
        ),
        ExampleCheck(
            "merge-not-g-functor",
            "the merge homomorphism is not a g-functor",
            _merge_not_g_functor,
        ),
        ExampleCheck(
            "powerset-union-law",
            "monolinear similarity on the powerset algebra is inclusion",
            _powerset_law,
        ),
        ExampleCheck(
            "divisibility-spot-check",
            "k*z generalizes a in truncated multiplication iff k divides a",
            _divisibility_spot_check,
        ),
        ExampleCheck(
            "characteristic-singleton",
            "one shared generalization pins c down in the mirror pair",
            _characteristic_singleton,
        ),
    ]
