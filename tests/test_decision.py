"""Differential check of the row sweep behind ``decide_leq``.

The reference is the per-competitor loop ``decide_leq`` ran before the
engines kept a bitmask index: for each admissible b' in right-carrier order,
ask ``subset`` forward and backward, and stop at the first b' whose shared
set strictly contains Gen(a,b).
"""

import random

import pytest

from gensim.algebra import AlgebraError, make_algebra, self_pair, validate_pair
from gensim.corpus import load_fixture, powerset_algebra, truncated_multiplication_algebra
from gensim.morphism import random_monounary_algebra
from gensim.similarity import (
    MonolinearEngine,
    QueryConfig,
    build_engine,
    build_engines,
    decide_leq,
    similarity_matrix,
)

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


def chain_algebra(n, names=None, carrier=None, name="Chain"):
    """The chain f(x_i) = x_(i+1) over ``names`` (e0, e1, ... by default),
    its last element a sink, declared in ``carrier`` order (default
    ``names``)."""
    names = names or [f"e{i}" for i in range(n)]
    table = {(x,): names[min(i + 1, n - 1)] for i, x in enumerate(names)}
    return make_algebra(name, carrier or names, {"f": table})


def shared_name_copy(n, seed=0):
    """The n-chain relabelled at random: every other name is one of
    ``chain_algebra(n)``'s, at another place, and the carrier is declared
    in name order."""
    names = [f"e{i}" if i % 2 else f"r{i}" for i in range(n)]
    random.Random(seed).shuffle(names)
    return chain_algebra(n, names, sorted(names), name="Copy")


def chain_pairs(n):
    chain, copy = chain_algebra(n), shared_name_copy(n, n)
    return [self_pair(chain), validate_pair(chain, copy), validate_pair(copy, chain)]


def excluded_dominators(engine):
    """The cells (a, b) whose scan would stop at b' = a if a were not
    excluded: a names a right element, before any dominator the scan
    finds, whose shared set with a strictly contains Gen(a,b)."""
    pair = engine.pair
    order = {e: i for i, e in enumerate(pair.right.carrier)}
    cells = []
    for a in [a for a in pair.left.carrier if a in order]:
        for b in pair.right.carrier:
            if b == a:
                continue
            holds, element, _ = scan_decide_leq(engine, a, b)
            if holds or order[a] < order[element]:
                if engine.subset(a, b, a)[0] and not engine.subset(a, a, b)[0]:
                    cells.append((a, b))
    return cells


@pytest.mark.parametrize("n", [50, 120])
def test_chains_match_scan(n):
    """Every first dominator on a chain sits further in for each b, and on
    the relabelled pairs some cells are decided by the exclusion of a."""
    for pair in chain_pairs(n):
        assert_same_as_scan(pair, QueryConfig())
        if pair.left is not pair.right:
            assert excluded_dominators(build_engine(pair)), pair.right.name


@pytest.mark.parametrize("fragment", ["unary", "linear", "monolinear", "general"])
def test_row_of_ties(fragment):
    """Row y of the sink algebra: Gen(y,b) is {z1} for every b, so every
    competitor ties and every verdict of the row holds."""
    pair = self_pair(sink_algebra())
    engine = build_engine(pair, QueryConfig(fragment=fragment, max_vars=1))
    carrier = pair.right.carrier
    assert all(engine.subset("y", b, c)[0] for b in carrier for c in carrier)
    for b in carrier:
        verdict = decide_leq(pair, "y", b, engine=engine)
        assert outcome(verdict) == scan_decide_leq(engine, "y", b) == (True, None, None)


def test_one_shot_chains_match_scan():
    """``decide_leq`` without an engine, on a sample of the n = 50 chain
    cells: whole rows at both ends and in the middle, and random cells."""
    rng = random.Random(50)
    for pair in chain_pairs(50):
        engine = build_engine(pair)
        rows, cols = pair.left.carrier, pair.right.carrier
        cells = [(a, b) for a in (rows[0], rows[25], rows[-1]) for b in cols]
        cells += [(rng.choice(rows), rng.choice(cols)) for _ in range(40)]
        for a, b in cells:
            assert outcome(decide_leq(pair, a, b)) == scan_decide_leq(engine, a, b), (a, b)


def assert_matrix_matches_scan(pair, config=None):
    """Every cell of ``similarity_matrix`` against the scan: ``<~`` on the
    pair's engine, ``>~`` on the swapped pair's, and ``~~`` as the first of
    the two that fails, its certificate naming that direction.  Rows that
    share an engine row object, and only they, share one ``~~`` row list,
    and must hold the very same ``>~`` verdicts, as the matrix derives
    that list once."""
    matrix = similarity_matrix(pair, config)
    engine, reverse = build_engines(pair, config)
    names = (pair.left.name, pair.right.name)
    for (a, b), x in matrix.leq.items():
        forward, backward = scan_decide_leq(engine, a, b), scan_decide_leq(reverse, b, a)
        assert outcome(x) == forward, (a, b)
        assert outcome(matrix.geq[a, b]) == backward, (a, b)
        z = matrix.approx[a, b]
        if not forward[0]:
            expected = (*forward, names)
        elif not backward[0]:
            expected = (*backward, names[::-1])
        else:
            expected = (True, None, None, None)
        assert (*outcome(z), z.certificate and z.certificate.direction) == expected, (a, b)
    for a in pair.left.carrier:
        engine.verdict(a, pair.right.carrier[0])
    first, sharing = {}, {}
    for a, row in zip(matrix.rows, matrix.approx._rows):
        other = first.setdefault(id(row), a)
        assert sharing.setdefault(id(engine._verdicts[a]), other) == other, a
        assert all(matrix.geq[a, b] is matrix.geq[other, b] for b in matrix.cols), (a, other)
    assert len(first) == len(sharing)
    return matrix


def matrix_unary_algebras(seed):
    """The eight algebras of one ``matrix-unary`` benchmark pass."""
    return [
        random_monounary_algebra(random.Random(f"matrix-unary:{seed}:{i}"), 40, 1, name=f"U{i}")
        for i in range(8)
    ]


@pytest.mark.parametrize("seed", [0, 3])
def test_matrix_unary_matrices_match_scan(seed):
    """Self pairs, whose rows share sweeps, and cross pairs of one pass's
    algebras: their elements share names, so the exclusion of b' = a
    bites on both sides."""
    algebras = matrix_unary_algebras(seed)
    shared = 0
    for left, right in zip(algebras, algebras[1:] + algebras[:1]):
        for pair in (self_pair(left), validate_pair(left, right)):
            matrix = assert_matrix_matches_scan(pair)
            shared += len(matrix.rows) - len({id(row) for row in matrix.approx._rows})
    assert shared


def test_two_op_cross_pair_matrix_matches_scan():
    assert_matrix_matches_scan(random_pair(2, 12, 0, True))


def loop_algebra():
    """f(y) = x1, and f swaps x1 and x2: x1 and x2 lie in the same term
    classes, z1 and f(z1), while y lies in z1 only."""
    return make_algebra("Loop", ["x1", "x2", "y"], {"f": {"y": "x1", "x1": "x2", "x2": "x1"}})


def test_first_member_of_a_shared_mask_dominates():
    """In row x1, Gen(x1,y) = {z1} is strictly contained in the sets that
    x1 and x2 share with x1.  The shared sweep, which excludes no b',
    stops at x1, so row x1 is swept again without x1 and finds x2, whose
    set equals x1's; row x2 takes the shared row, which names x1."""
    pair = self_pair(loop_algebra())
    engine = build_engine(pair)
    assert engine._left[0] == engine._left[1] != engine._left[2]  # x1, x2, y
    assert outcome(decide_leq(pair, "x1", "y", engine=engine))[:2] == (False, "x2")
    assert outcome(decide_leq(pair, "x2", "y", engine=engine))[:2] == (False, "x1")
    assert_matrix_matches_scan(pair)


def every_member_dominates():
    """A cross pair whose left elements x1 and x2 lie in every term class
    (f and g fix them), while on the right Gen(x1,u) = {z1} is first
    dominated by x1 and Gen(x1,w) = {z1, g(z1)} by x2 (g(g(z1)) ranges
    over x2 alone)."""
    left = make_algebra("Fix", ["x1", "x2"], {"f": {"x1": "x1", "x2": "x2"}, "g": {"x1": "x1", "x2": "x2"}})
    right = make_algebra("Split", ["x1", "x2", "u", "w"], {
        "f": dict.fromkeys(["x1", "x2", "u", "w"], "x1"),
        "g": {"x1": "x2", "x2": "x2", "u": "w", "w": "x2"},
    })
    return validate_pair(left, right)


def test_a_shared_row_is_built_only_for_a_member_that_takes_it():
    """When every element of a left mask is the first dominator of some
    mask of the shared sweep, each is swept again on its own, and the
    shared row is never built.  Otherwise the members that dominate
    nothing take the one shared row."""
    pair = every_member_dominates()
    engine = build_engine(pair)
    for a in pair.left.carrier:
        for b in pair.right.carrier:
            decide_leq(pair, a, b, engine=engine)
    assert engine._verdicts["x1"] is not engine._verdicts["x2"]
    assert outcome(engine.verdict("x1", "u"))[:2] == (False, "x2")
    assert outcome(engine.verdict("x2", "u"))[:2] == (False, "x1")
    assert outcome(engine.verdict("x2", "w")) == (True, None, None)
    assert [cols for *_, cols in engine._shared.values()] == [None]
    assert_matrix_matches_scan(pair)
    pair = self_pair(loop_algebra())
    engine = build_engine(pair)
    for a in pair.left.carrier:
        engine.verdict(a, "y")
    [(*_, cols)] = engine._shared.values()
    assert cols is engine._verdicts["x2"] is not engine._verdicts["x1"]


@pytest.mark.parametrize("pair", [
    self_pair(loop_algebra()),
    validate_pair(chain_algebra(6), shared_name_copy(6)),
], ids=["self", "cross"])
def test_unknown_names_raise_once_a_row_is_decided(pair):
    engine = build_engine(pair)
    for a in pair.left.carrier:
        decide_leq(pair, a, pair.right.carrier[0], engine=engine)
        unknown = [b for b in ("nosuch", *pair.left.carrier) if b not in pair.right.carrier]
        for b in unknown:
            with pytest.raises(AlgebraError):
                engine.verdict(a, b)
    for a in ("nosuch", *pair.right.carrier):
        if a not in pair.left.carrier:
            with pytest.raises(AlgebraError):
                engine.verdict(a, pair.right.carrier[0])
