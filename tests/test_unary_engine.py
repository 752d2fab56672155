"""The unary fragment against two independent oracles.

On unary signatures every term is linear, so the unary fragment builds the
linear engine, and that engine is exact there.  Its answers are checked
against:

* on constant-free pairs, the automaton scan: Gen(a,b) subset-of Gen(a,b')
  by DFA inclusion of the product languages (``gen_language``,
  ``dfa_intersect``, ``dfa_subset``), and ``a <~ b`` by the per-competitor
  loop over it;
* on pairs with constants, an explicit profile closure: the pairs
  ``(image_A(w), image_B(w))`` of all words ``w`` and the ground pairs
  ``(w^A(c), w^B(c))`` of each constant ``c``.  The DFAs see the bare
  constants only, so they cannot decide these pairs.

Every subset answer, verdict and dominating element must agree with the
oracle.  Every evidence term is checked with ``range_of_term``; the DFA
search orders words differently from ``witness_key``, so on multi-operation
algebras a term may differ from the DFA's shortest word.  On the fixtures
(one operation, or the DFA's order) the terms are pinned to the DFA's too.
"""

import random
from itertools import combinations

import pytest

from gensim import automata
from gensim.algebra import Algebra, Signature, self_pair, validate_pair
from gensim.corpus import load_fixture
from gensim.morphism import random_monounary_algebra
from gensim.similarity import LinearEngine, QueryConfig, build_engine, decide_leq
from gensim.terms import range_of_term

UNARY_FIXTURES = [
    "chain5.alg", "chain4_a.alg", "chain4_b.alg", "nat_sink7.alg",
    "triple_a.alg", "triple_b.alg", "triple_c.alg", "triple_d.alg",
    "merge_src.alg", "merge_tgt.alg", "unary_fg.alg",
]


class Oracle:
    """Decides ``a <~ b`` with the per-competitor loop over ``subset``."""

    def decide_leq(self, a, b):
        a_in_right = a in self.pair.right.carrier
        for b_prime in self.pair.right.carrier:
            if b_prime == b or (a_in_right and b_prime == a):
                continue
            if self.subset(a, b, b_prime)[0]:
                holds, evidence = self.subset(a, b_prime, b)
                if not holds:
                    return False, b_prime, evidence
        return True, None, None


class DfaOracle(Oracle):
    def __init__(self, pair):
        self.pair = pair
        left = {e: automata.gen_language(pair.left, e) for e in pair.left.carrier}
        right = {e: automata.gen_language(pair.right, e) for e in pair.right.carrier}
        self.shared = {
            (a, b): automata.dfa_intersect(left[a], right[b])
            for a in pair.left.carrier
            for b in pair.right.carrier
        }

    def subset(self, a, b, b_prime):
        return automata.dfa_subset(self.shared[(a, b)], self.shared[(a, b_prime)])


class ProfileOracle(Oracle):
    """Gen(a,b) as the set of (left range, right range) pairs of the terms
    in it, from a plain closure of (A, B) and each (c, c) under the image
    pairs of the operations.  It gives no evidence terms."""

    def __init__(self, pair):
        self.pair = pair
        seeds = {(frozenset(pair.left.carrier), frozenset(pair.right.carrier))}
        seeds |= {(frozenset({c}), frozenset({c})) for c in pair.left.signature.constant_symbols}
        profiles = set(seeds)
        frontier = list(seeds)
        while frontier:
            left, right = frontier.pop()
            for sym in pair.left.signature.op_symbols:
                image = (
                    frozenset(pair.left.apply(sym, (x,)) for x in left),
                    frozenset(pair.right.apply(sym, (y,)) for y in right),
                )
                if image not in profiles:
                    profiles.add(image)
                    frontier.append(image)
        self.gen = {
            (a, b): {p for p in profiles if a in p[0] and b in p[1]}
            for a in pair.left.carrier
            for b in pair.right.carrier
        }

    def subset(self, a, b, b_prime):
        return self.gen[(a, b)] <= self.gen[(a, b_prime)], None


def with_constants(algebra, constants):
    signature = Signature(algebra.signature.operations, tuple(constants))
    return Algebra(algebra.name, algebra.carrier, signature, algebra.tables)


def assert_separates(pair, term, a, inside, outside):
    """``term`` generalizes ``a`` on the left and ``inside`` but not
    ``outside`` on the right."""
    assert a in range_of_term(term, pair.left)
    right = range_of_term(term, pair.right)
    assert inside in right and outside not in right


UNARY = QueryConfig(fragment="unary")


def assert_matches(pair, oracle, pin_terms=False):
    engine = build_engine(pair, UNARY)
    assert type(engine) is LinearEngine
    carrier = pair.right.carrier
    for a in pair.left.carrier:
        for b in carrier:
            for b_prime in carrier:
                got = engine.subset(a, b, b_prime)
                want = oracle.subset(a, b, b_prime)
                assert got[0] == want[0], (a, b, b_prime)
                if not got[0]:
                    assert_separates(pair, got[1], a, b, b_prime)
                if pin_terms:
                    assert got == want, (a, b, b_prime)
            verdict = decide_leq(pair, a, b, engine=engine)
            cert = verdict.certificate
            got = (verdict.holds, cert and cert.element, cert and cert.term)
            want = oracle.decide_leq(a, b)
            assert got[:2] == want[:2], (a, b)
            if cert:
                assert_separates(pair, cert.term, a, cert.element, b)
            if pin_terms:
                assert got == want, (a, b)


def test_fixtures_match_dfa():
    algebras = [load_fixture(name) for name in UNARY_FIXTURES]
    for algebra in algebras:
        pair = self_pair(algebra)
        assert_matches(pair, DfaOracle(pair), pin_terms=True)
    for left, right in combinations(algebras, 2):
        if left.signature == right.signature:
            pair = validate_pair(left, right)
            assert_matches(pair, DfaOracle(pair), pin_terms=True)


@pytest.mark.parametrize("n_ops, size, cross", [(2, 8, False), (3, 6, False), (2, 8, True)])
def test_random_match_dfa(n_ops, size, cross):
    for seed in range(30):
        left = random_monounary_algebra(random.Random(seed), size, n_ops)
        if cross:
            right = random_monounary_algebra(random.Random(seed + 100), size, n_ops)
            pair = validate_pair(left, right)
        else:
            pair = self_pair(left)
        assert_matches(pair, DfaOracle(pair))


def test_random_with_constants_match_profile_oracle():
    # ground terms such as f(e3) count: the explicit closure includes them
    for seed in range(10):
        left = with_constants(random_monounary_algebra(random.Random(seed), 8, 2), ("e3", "e0"))
        right = with_constants(random_monounary_algebra(random.Random(seed + 100), 8, 2), ("e3", "e0"))
        for pair in (self_pair(left), validate_pair(left, right)):
            assert_matches(pair, ProfileOracle(pair))


def test_deep_chain_builds():
    # successor chain e0 -> e1 -> ... -> e1499, last element fixed: the
    # witnesses are up to 1,499 applications deep
    n = 1500
    carrier = tuple(f"e{i}" for i in range(n))
    table = {(f"e{i}",): f"e{min(i + 1, n - 1)}" for i in range(n)}
    chain = Algebra("Chain", carrier, Signature((("f", 1),)), {"f": table})
    pair = self_pair(chain)
    engine = build_engine(pair, UNARY)
    assert len(engine.classes()) == n
    found = engine.verdict("e1400", "e1300").certificate
    assert found is not None and found.element == "e1301"
