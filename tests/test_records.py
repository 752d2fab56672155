"""The slotted record classes keep the semantics of the dataclasses they
replaced: field equality within one class, hashing of immutable records
only, ``Name(field=value, ...)`` reprs, frozen fields, working copies and
unchanged validation errors."""

import copy

import pytest

from gensim import automata
from gensim.algebra import Algebra, AlgebraError, Signature, make_algebra, self_pair
from gensim.monolinear import UnaryPolynomial
from gensim.morphism import ElementMap, check_second_isomorphism, verify_isomorphism_lemma
from gensim.similarity import QueryConfig, check_reflexive, check_transitive, similarity_matrix
from gensim.terms import App, Const, Var
from gensim.verdict import Certificate, Verdict


def two(name="A"):
    return make_algebra(name, ["x", "y"], {"f": {"x": "y", "y": "y"}})


def identity(name="F"):
    return ElementMap(name, two(), two(), {"x": "x", "y": "y"})


def certificate():
    return Certificate("dominating-element", App("f", (Var(1),)), "0")


# name -> builder of a fresh record; two calls give equal records.
FROZEN = {
    "Signature": lambda: Signature((("f", 1),), ("c",)),
    "Var": lambda: Var(1),
    "Const": lambda: Const("c"),
    "App": lambda: App("f", (Var(1),)),
    "Certificate": certificate,
    "Verdict": lambda: Verdict(False, certificate(), "exact"),
    "QueryConfig": lambda: QueryConfig("linear", 3, 10),
    "GenDfa": lambda: automata.gen_language(two(), "y"),
    "UnaryPolynomial": lambda: UnaryPolynomial(("y", "y"), App("f", (Var(1),))),
}
# Frozen, but a field holds a dict, so hashing raises TypeError.
FROZEN_UNHASHABLE = {
    "Algebra": two,
    "AlgebraPair": lambda: self_pair(two()),
    "ElementMap": identity,
}
MUTABLE = {
    "SimilarityMatrix": lambda: similarity_matrix(self_pair(two())),
    "LemmaReport": lambda: verify_isomorphism_lemma(identity()),
    "SecondIsomorphismReport": lambda: check_second_isomorphism(identity(), identity("G")),
    "ReflexivityReport": lambda: check_reflexive(self_pair(two())),
    "TransitivityReport": lambda: check_transitive(two()),
}
ALL = {**FROZEN, **FROZEN_UNHASHABLE, **MUTABLE}


@pytest.mark.parametrize("name", sorted(ALL))
def test_equal_fields_give_equal_records_of_one_class_only(name):
    first, second = ALL[name](), ALL[name]()
    assert type(first).__name__ == name
    assert first is not second and first == second and not first != second
    values = tuple(getattr(first, f) for f in type(first)._fields)
    assert first != values
    assert first.__eq__(Const("c") if name != "Const" else Var(1)) is NotImplemented


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_hash_on_their_fields(name):
    first, second = FROZEN[name](), FROZEN[name]()
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


@pytest.mark.parametrize("name", sorted(FROZEN_UNHASHABLE) + sorted(MUTABLE))
def test_records_holding_dicts_or_mutable_are_unhashable(name):
    with pytest.raises(TypeError):
        hash(ALL[name]())


@pytest.mark.parametrize("name", sorted({**FROZEN, **FROZEN_UNHASHABLE}))
def test_assigning_a_frozen_field_raises(name):
    record = ALL[name]()
    field = type(record)._fields[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_mutable_reports_accept_assignment(name):
    record = MUTABLE[name]()
    field = type(record)._fields[-1]
    setattr(record, field, None)
    assert getattr(record, field) is None


@pytest.mark.parametrize("name", sorted(ALL))
def test_copy_and_deepcopy_give_equal_records(name):
    record = ALL[name]()
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record


def test_reprs_keep_the_dataclass_format():
    cert = (
        "Certificate(kind='dominating-element', term=App(op='f', args=(Var(index=1),)), "
        "element='0', direction=None)"
    )
    signature = "Signature(operations=(('f', 1),), constant_symbols=())"
    algebra = (
        f"Algebra(name='A', carrier=('x', 'y'), signature={signature}, "
        "tables={'f': {('x',): 'y', ('y',): 'y'}})"
    )
    assert repr(Var(1)) == "Var(index=1)"
    assert repr(Const("c")) == "Const(name='c')"
    assert repr(certificate()) == cert
    assert repr(Verdict(False, certificate(), "exact")) == (
        f"Verdict(holds=False, certificate={cert}, fragment_label='exact')"
    )
    assert repr(QueryConfig()) == "QueryConfig(fragment='auto', max_vars=2, cap=200000)"
    assert repr(two()) == algebra
    assert repr(self_pair(two())) == f"AlgebraPair(left={algebra}, right={algebra})"
    assert repr(FROZEN["GenDfa"]()) == (
        "GenDfa(alphabet=('f',), n_states=1, start=0, finals=frozenset({0}), delta=((0,),))"
    )
    assert repr(FROZEN["UnaryPolynomial"]()) == (
        "UnaryPolynomial(table=('y', 'y'), witness=App(op='f', args=(Var(index=1),)))"
    )
    assert repr(check_transitive(two())) == (
        "TransitivityReport(relation='approx', triples_checked=8, violations=[], "
        "details={'algebra': 'A'})"
    )


def test_keyword_construction_and_defaults():
    assert QueryConfig(fragment="linear", cap=5) == QueryConfig("linear", 2, 5)
    assert Certificate("failing-element", element="a") == Certificate(
        "failing-element", None, "a", None
    )
    assert Signature((("f", 1),)).constant_symbols == ()
    assert App(args=(Var(1),), op="f") == App("f", (Var(index=1),))
    for build in (Var, lambda: Var(1, 2), lambda: Var(1, index=2), lambda: Var(idx=1)):
        with pytest.raises(TypeError, match="Var takes the fields index"):
            build()


@pytest.mark.parametrize("build, message", [
    (lambda: automata.GenDfa(("f",), 1, 0, frozenset({1}), ((0,),)),
     "final states outside the state set"),
    (lambda: automata.GenDfa(("f",), 2, 0, frozenset(), ((0,),)),
     "transition table is not total"),
    (lambda: automata.GenDfa(("f",), 1, 0, frozenset(), ((0, 0),)),
     "transition table is not total"),
    (lambda: Signature((("f", 0),)), "operation 'f' has arity 0; must be >= 1"),
    (lambda: Signature((("f", 1), ("f", 2))), "duplicate operation symbol 'f'"),
    (lambda: Signature((("z1", 1),)), "operation symbol 'z1' clashes with variable names"),
    (lambda: Signature((("f", 1),), ("f",)),
     "constant symbol 'f' clashes with an operation symbol"),
    (lambda: Signature((), ("z3",)), "constant symbol 'z3' clashes with variable names"),
    (lambda: Algebra("A", (), Signature(()), {}), "algebra 'A' has an empty carrier"),
    (lambda: Algebra("A", ("x", "x"), Signature(()), {}), "algebra 'A' has duplicate elements"),
    (lambda: Algebra("A", ("x", "all"), Signature(()), {}),
     "algebra 'A': element name 'all' is reserved (a 'constants' keyword)"),
    (lambda: Algebra("A", ("x",), Signature((("f", 1),)), {}),
     "algebra 'A': missing table for 'f'"),
    (lambda: Algebra("A", ("x",), Signature((), ("c",)), {}),
     "algebra 'A': constant 'c' not in carrier"),
    (lambda: QueryConfig("nope"), "unknown fragment 'nope'"),
    (lambda: QueryConfig(max_vars=0), "bounds must be positive"),
])
def test_validation_errors_are_unchanged(build, message):
    with pytest.raises(AlgebraError) as info:
        build()
    assert str(info.value) == message
