import random

import pytest

from gensim.algebra import make_algebra, self_pair, validate_pair
from gensim.closure import SaturationCapError
from gensim.monolinear import (
    dump_clone,
    ground_value_terms,
    paired_clone,
    paired_ground_values,
    polynomial_clone,
)
from gensim.morphism import random_monounary_algebra
from gensim.similarity import MonolinearEngine, QueryConfig, build_engine, decide_leq
from gensim.terms import parse_term, range_of_term, render_term


def bool_or():
    return make_algebra(
        "BoolOr",
        ["0", "1"],
        {"u": {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "1"}},
        constants="all",
    )


def test_ground_values_closure():
    algebra = bool_or()
    values = dict((v, render_term(t)) for v, t in ground_value_terms(algebra))
    assert values == {"0": "0", "1": "1"}


def test_ground_values_reach_nested_products():
    mul3 = make_algebra(
        "M3",
        ["1", "2", "4", "X"],
        {
            "m": {
                ("1", "1"): "1", ("1", "2"): "2", ("1", "4"): "4", ("1", "X"): "X",
                ("2", "1"): "2", ("2", "2"): "4", ("2", "4"): "X", ("2", "X"): "X",
                ("4", "1"): "4", ("4", "2"): "X", ("4", "4"): "X", ("4", "X"): "X",
                ("X", "1"): "X", ("X", "2"): "X", ("X", "4"): "X", ("X", "X"): "X",
            }
        },
        constants=["1", "2"],
    )
    values = dict((v, render_term(t)) for v, t in ground_value_terms(mul3))
    # 4 is not a constant; it is only denotable as the nested product 2*2
    assert values["4"] == "m(2, 2)"
    assert "X" in values


def test_clone_of_powerset_is_unions(powerset3):
    clone = polynomial_clone(powerset3)
    # exactly one polynomial per constant C: the map X -> X u C
    assert len(clone) == len(powerset3.carrier)
    union = powerset3.tables["u"]
    tables = {p.table for p in clone}
    for c in powerset3.carrier:
        expected = tuple(union[(x, c)] for x in powerset3.carrier)
        assert expected in tables


def test_clone_without_constants_is_word_functions(chain5):
    clone = polynomial_clone(chain5)
    # identity, f, f^2, ... until the table repeats (period 3 on the cycle)
    tables = [p.table for p in clone]
    assert tables[0] == chain5.carrier
    seen = set(tables)
    assert len(seen) == len(tables)
    for p in clone:
        assert range_of_term(p.witness, chain5) == frozenset(p.table)


def m_gen_signature(algebra, a, clone):
    """The polynomials whose range contains ``a``: the semantic quotient of
    the monolinear generalizations of ``a``."""
    algebra.require_element(a)
    return [p for p in clone if a in p.table]


def test_m_gen_signature(powerset3):
    clone = polynomial_clone(powerset3)
    sig_13 = m_gen_signature(powerset3, "13", clone)
    # X u C hits 13 iff C is a subset of 13
    hitting = {render_term(p.witness) for p in sig_13}
    assert hitting == {"z1", "u(1, z1)", "u(3, z1)", "u(13, z1)"}


def test_paired_clone_matches_componentwise_on_self_pair(powerset3):
    # the range pairs of a self pair are the ranges of the clone's tables
    pair = self_pair(powerset3)
    paired = paired_clone(pair)
    ranges = {frozenset(p.table) for p in polynomial_clone(powerset3)}
    assert {p.left for p in paired} == ranges
    assert all(p.left == p.right for p in paired)


def test_m_subset_and_decide(powerset3):
    pair = self_pair(powerset3)
    engine = MonolinearEngine(pair)
    # the constraint from a = 1 dominates: both shared sets are {X u C : C <= 1}
    holds, _ = engine.subset("1", "1", "12")
    assert holds
    holds, _ = engine.subset("1", "12", "1")
    assert holds
    # from a = 12 the sets differ: u(2, z1) reaches 12 but never 1
    holds, witness = engine.subset("12", "12", "1")
    assert not holds
    assert render_term(witness) == "u(2, z1)"
    verdict = decide_leq(pair, "1", "12", engine=engine)
    assert verdict.holds
    verdict = decide_leq(pair, "12", "1", engine=engine)
    assert not verdict.holds
    assert verdict.fragment_label == "monolinear-fragment"
    assert verdict.certificate.kind == "dominating-element"


def test_m_decide_competitor_exclusion():
    # a = b' exclusion: on a single algebra, a <= a never loses to itself
    algebra = bool_or()
    pair = self_pair(algebra)
    config = QueryConfig(fragment="monolinear")
    assert decide_leq(pair, "0", "0", config).holds
    assert decide_leq(pair, "1", "1", config).holds


def test_dump_clone_format(chain5):
    text = dump_clone(polynomial_clone(chain5), chain5)
    first = text.splitlines()[0]
    assert first == "[a->a, b->b, c->c, d->d, e->e]  witness: z1"


def test_paired_ground_values_track_both_sides(triple_b, triple_c):
    # no constants: no ground values at all
    pair = validate_pair(triple_b, triple_c)
    assert paired_ground_values(pair) == []


def test_paired_clone_respects_cap():
    # this cross pair has 232 range pairs (and 19,143 table pairs)
    pair = validate_pair(
        random_monounary_algebra(random.Random(2), 6, 2),
        random_monounary_algebra(random.Random(102), 6, 2),
    )
    with pytest.raises(SaturationCapError):
        paired_clone(pair, cap=100)
    with pytest.raises(SaturationCapError):
        build_engine(pair, QueryConfig(fragment="monolinear", cap=100))
