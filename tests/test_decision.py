"""Differential check of the memoized dominator scan behind ``decide_leq``.

The reference is the per-competitor loop ``decide_leq`` ran before the
engines kept a bitmask index: for each admissible b' in right-carrier order,
ask ``subset`` forward and backward, and stop at the first b' whose shared
set strictly contains Gen(a,b).
"""

import random

import pytest

from gensim.algebra import make_algebra, self_pair, validate_pair
from gensim.corpus import load_fixture, powerset_algebra, truncated_multiplication_algebra
from gensim.morphism import random_monounary_algebra
from gensim.similarity import MonolinearEngine, QueryConfig, build_engine, decide_leq

UNARY_FIXTURES = [
    "chain5.alg", "chain4_a.alg", "chain4_b.alg", "nat_sink7.alg",
    "triple_a.alg", "triple_b.alg", "triple_c.alg", "triple_d.alg",
    "merge_src.alg", "merge_tgt.alg", "unary_fg.alg",
]


def scan_decide_leq(engine, a, b):
    """(holds, element, term) by the per-competitor subset loop."""
    pair = engine.pair
    a_in_right = a in pair.right.carrier
    for b_prime in pair.right.carrier:
        if b_prime == b or (a_in_right and b_prime == a):
            continue
        forward, _ = engine.subset(a, b, b_prime)
        if not forward:
            continue
        backward, evidence = engine.subset(a, b_prime, b)
        if not backward:
            return False, b_prime, evidence
    return True, None, None


def outcome(verdict):
    cert = verdict.certificate
    return (verdict.holds, cert and cert.element, cert and cert.term)


def assert_same_as_scan(pair, config):
    engine = build_engine(pair, config)
    for a in pair.left.carrier:
        for b in pair.right.carrier:
            expected = scan_decide_leq(engine, a, b)
            assert outcome(decide_leq(pair, a, b, engine=engine)) == expected, (a, b)


def fixture_pairs():
    algebras = [load_fixture(name) for name in UNARY_FIXTURES]
    pairs = [self_pair(algebra) for algebra in algebras]
    for i, left in enumerate(algebras):
        for right in algebras[i + 1:]:
            if left.signature == right.signature:
                pairs.append(validate_pair(left, right))
    return pairs


def meet3():
    """Subsets of {1,2,3} under intersection, named like ``powerset_algebra``."""
    carrier = powerset_algebra(("1", "2", "3")).carrier
    members = {name: frozenset(name) - {"0"} for name in carrier}
    names = {m: name for name, m in members.items()}
    table = {(x, y): names[members[x] & members[y]] for x in carrier for y in carrier}
    return make_algebra("Meet3", carrier, {"u": table}, constants="all")


def random_pair(n_ops, size, seed, cross):
    left = random_monounary_algebra(random.Random(seed), size, n_ops)
    if not cross:
        return self_pair(left)
    return validate_pair(left, random_monounary_algebra(random.Random(seed + 100), size, n_ops))


@pytest.mark.parametrize("fragment", ["unary", "linear", "monolinear", "general"])
def test_fixtures_match_scan(fragment):
    for pair in fixture_pairs():
        assert_same_as_scan(pair, QueryConfig(fragment=fragment, max_vars=1))


@pytest.mark.parametrize("fragment", ["linear", "monolinear", "general"])
def test_non_unary_match_scan(fragment):
    p3 = powerset_algebra(("1", "2", "3"))
    config = QueryConfig(fragment=fragment, max_vars=2)
    for pair in (self_pair(p3), validate_pair(p3, meet3())):
        assert_same_as_scan(pair, config)
    k = 1 if fragment == "general" else 2
    assert_same_as_scan(
        self_pair(truncated_multiplication_algebra(5)), QueryConfig(fragment=fragment, max_vars=k)
    )


@pytest.mark.parametrize("fragment", ["unary", "linear", "monolinear", "general"])
@pytest.mark.parametrize("cross", [False, True])
def test_random_unary_match_scan(fragment, cross):
    config = QueryConfig(fragment=fragment, max_vars=1)
    for seed in range(2):
        assert_same_as_scan(random_pair(1, 40, seed, cross), config)
    # The general family of a random 2-op algebra is a transformation
    # semigroup: tens of thousands of functions for some seeds, so that
    # fragment takes the small ones.
    if fragment == "general":
        seeds = range(1, 5) if cross else range(5)
    else:
        seeds = range(10)
    for seed in seeds:
        assert_same_as_scan(random_pair(2, 8, seed, cross), config)


def sink_algebra():
    """f sends x, y and z to x: Gen(x,y) = Gen(x,z) = {z1}, while
    Gen(x,x) also holds f(z1)."""
    return make_algebra("Sink", ["x", "y", "z"], {"f": {"x": "x", "y": "x", "z": "x"}})


@pytest.mark.parametrize("fragment", ["unary", "linear", "monolinear", "general"])
def test_shared_mask_and_exclusion(fragment):
    pair = self_pair(sink_algebra())
    config = QueryConfig(fragment=fragment, max_vars=1)
    engine = build_engine(pair, config)
    # y and z share one mask, so the second query is answered from the memo
    assert engine.subset("x", "y", "z")[0] and engine.subset("x", "z", "y")[0]
    # Gen(x,x) strictly contains Gen(x,y) and Gen(x,z): only the exclusion
    # of b' = a = x lets both verdicts hold
    assert engine.subset("x", "y", "x")[0] and not engine.subset("x", "x", "y")[0]
    for b in ("y", "z"):
        assert outcome(decide_leq(pair, "x", b, engine=engine)) == (True, None, None)
        assert scan_decide_leq(engine, "x", b) == (True, None, None)
    # with x on the left only, x is an admissible competitor and dominates
    other = make_algebra("Other", ["w", "y", "z"], {"f": {"w": "w", "y": "w", "z": "w"}})
    cross = validate_pair(other, sink_algebra())
    engine = build_engine(cross, config)
    verdict = decide_leq(cross, "w", "y", engine=engine)
    assert outcome(verdict) == scan_decide_leq(engine, "w", "y")
    assert not verdict.holds and verdict.certificate.element == "x"


def test_m_decide_leq_matches_scan():
    # The monolinear decision goes through decide_leq like every engine.
    p3 = powerset_algebra(("1", "2", "3"))
    for pair in (self_pair(p3), validate_pair(p3, meet3())):
        engine = MonolinearEngine(pair)
        for a in pair.left.carrier:
            for b in pair.right.carrier:
                verdict = decide_leq(pair, a, b, engine=engine)
                assert outcome(verdict) == scan_decide_leq(engine, a, b), (a, b)
