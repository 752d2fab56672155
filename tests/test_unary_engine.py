"""The word-profile ``UnaryEngine`` against the automaton scan as oracle.

The oracle decides Gen(a,b) subset-of Gen(a,b') by DFA inclusion of the
product languages (``gen_language``, ``dfa_intersect``, ``dfa_subset``), as
the unary engine did before it kept word profiles, and decides ``a <~ b``
with the per-competitor loop over it.  Answers, dominating elements and
evidence terms must all agree.
"""

import random
from itertools import combinations

import pytest

from gensim import automata
from gensim.algebra import Algebra, Signature, self_pair, validate_pair
from gensim.corpus import load_fixture
from gensim.morphism import random_monounary_algebra
from gensim.similarity import UnaryEngine, decide_leq

UNARY_FIXTURES = [
    "chain5.alg", "chain4_a.alg", "chain4_b.alg", "nat_sink7.alg",
    "triple_a.alg", "triple_b.alg", "triple_c.alg", "triple_d.alg",
    "merge_src.alg", "merge_tgt.alg", "unary_fg.alg",
]


class DfaOracle:
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


def with_constants(algebra, constants):
    signature = Signature(algebra.signature.operations, tuple(constants))
    return Algebra(algebra.name, algebra.carrier, signature, algebra.tables, frozenset(constants))


def assert_matches_dfa(pair):
    engine = UnaryEngine(pair)
    oracle = DfaOracle(pair)
    carrier = pair.right.carrier
    for a in pair.left.carrier:
        for b in carrier:
            for b_prime in carrier:
                assert engine.subset(a, b, b_prime) == oracle.subset(a, b, b_prime), (a, b, b_prime)
            verdict = decide_leq(pair, a, b, engine=engine)
            cert = verdict.certificate
            got = (verdict.holds, cert and cert.element, cert and cert.term)
            assert got == oracle.decide_leq(a, b), (a, b)


def test_fixtures_match_dfa():
    algebras = [load_fixture(name) for name in UNARY_FIXTURES]
    for algebra in algebras:
        assert_matches_dfa(self_pair(algebra))
    for left, right in combinations(algebras, 2):
        if left.signature == right.signature:
            assert_matches_dfa(validate_pair(left, right))


@pytest.mark.parametrize("n_ops, size, cross", [(2, 8, False), (3, 6, False), (2, 8, True)])
def test_random_match_dfa(n_ops, size, cross):
    for seed in range(30):
        left = random_monounary_algebra(random.Random(seed), size, n_ops)
        if cross:
            right = random_monounary_algebra(random.Random(seed + 100), size, n_ops)
            assert_matches_dfa(validate_pair(left, right))
        else:
            assert_matches_dfa(self_pair(left))


def test_random_with_constants_match_dfa():
    # ground terms are not words: the oracle sees the bare constants only
    for seed in range(10):
        left = with_constants(random_monounary_algebra(random.Random(seed), 8, 2), ("e3", "e0"))
        right = with_constants(random_monounary_algebra(random.Random(seed + 100), 8, 2), ("e3", "e0"))
        assert_matches_dfa(self_pair(left))
        assert_matches_dfa(validate_pair(left, right))
