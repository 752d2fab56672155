import copy
import operator
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gensim.algebra import Signature, make_algebra
from gensim.terms import (
    App,
    Const,
    TermError,
    Var,
    app_key,
    parse_term,
    range_of_term,
    render_g_formula,
    render_term,
    shift_variables,
    term_size,
    term_variables,
    witness_key,
)
from oracles import (
    EnumerationCapError,
    canonicalize,
    classify_fragment,
    enumerate_terms,
    enumeration_key,
    eval_term,
    fragment_admits,
    is_generalization,
    term_depth,
    variable_occurrences,
)


SIG_FG = Signature((("f", 1), ("g", 1)))
SIG_M = Signature((("m", 2),), ("one",))


def chain():
    return make_algebra(
        "C", ["a", "b", "c"], {"f": {"a": "b", "b": "c", "c": "c"}}
    )


def test_render_parse_round_trip():
    for text in ("z1", "f(z1)", "m(z1, one)", "m(m(z1, z2), z1)"):
        assert render_term(parse_term(text)) == text


def test_parse_checks_arity():
    with pytest.raises(TermError, match="arity"):
        parse_term("m(z1)", SIG_M)
    with pytest.raises(TermError, match="unknown constant"):
        parse_term("two", SIG_M)
    with pytest.raises(TermError, match="without arguments"):
        parse_term("m", SIG_M)


def test_parse_rejects_trailing_input():
    with pytest.raises(TermError, match="trailing"):
        parse_term("z1 z2")


@pytest.mark.parametrize("text, message", [
    ("f(", "unexpected end of term in 'f('"),
    ("", "unexpected end of term in ''"),
    (")", "unexpected ')' in ')'"),
    ("f(,z1)", "unexpected ',' in 'f(,z1)'"),
    ("f(z1 z2)", "expected ')' in 'f(z1 z2)'"),
])
def test_parse_rejects_malformed_terms(text, message):
    with pytest.raises(TermError) as exc:
        parse_term(text)
    assert (exc.type, str(exc.value)) == (TermError, message)


def test_measures():
    term = parse_term("m(m(z1, z2), z1)")
    assert term_depth(term) == 2
    assert term_size(term) == 5
    assert term_variables(term) == [1, 2]
    assert variable_occurrences(term) == 3


def test_canonicalize_first_occurrence():
    term = App("m", (Var(7), App("m", (Var(3), Var(7)))))
    assert render_term(canonicalize(term)) == "m(z1, m(z2, z1))"


def test_classify_fragment():
    assert classify_fragment(Const("one")) == "ground"
    assert classify_fragment(Var(1)) == "monolinear"
    assert classify_fragment(parse_term("m(z1, one)")) == "monolinear"
    assert classify_fragment(parse_term("m(z1, z2)")) == "linear"
    assert classify_fragment(parse_term("m(z1, z1)")) == "general"


def test_fragment_admits_is_inclusive():
    ground = Const("one")
    assert fragment_admits("monolinear", ground)
    assert fragment_admits("linear", parse_term("m(z1, one)"))
    assert fragment_admits("general", parse_term("m(z1, z2)"))
    assert not fragment_admits("linear", parse_term("m(z1, z1)"))


def test_eval_term_and_unbound():
    algebra = chain()
    assert eval_term(parse_term("f(f(z1))"), algebra, {1: "a"}) == "c"
    with pytest.raises(TermError, match="unbound"):
        eval_term(Var(2), algebra, {1: "a"})


def test_range_of_term_chain():
    algebra = chain()
    assert range_of_term(Var(1), algebra) == {"a", "b", "c"}
    assert range_of_term(parse_term("f(z1)"), algebra) == {"b", "c"}
    assert range_of_term(parse_term("f(f(z1))"), algebra) == {"c"}


def test_range_of_ground_term_is_singleton():
    algebra = make_algebra(
        "B", ["0", "1"],
        {"m": {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "1"}},
        constants="all",
    )
    assert range_of_term(parse_term("m(0, 1)"), algebra) == {"1"}


def test_range_of_nonlinear_term_differs_from_lifted():
    # x or x is the identity on {0,1}, but the set-lifted image is all of it
    algebra = make_algebra(
        "B", ["0", "1"],
        {"m": {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "1"}},
    )
    nonlinear = parse_term("m(z1, z1)")
    assert range_of_term(nonlinear, algebra) == {"0", "1"}
    xor_like = parse_term("m(z1, z2)")
    assert range_of_term(xor_like, algebra) == {"0", "1"}


def per_assignment_range(term, algebra):
    variables = term_variables(term)
    return {
        eval_term(term, algebra, dict(zip(variables, combo)))
        for combo in product(algebra.carrier, repeat=len(variables))
    }


RANGE_ALGEBRAS = [
    make_algebra(
        "F", ["a", "b", "c"],
        {"f": {"a": "b", "b": "c", "c": "c"}, "g": {"a": "a", "b": "a", "c": "b"}},
        constants=["c"],
    ),
    make_algebra(
        "M", ["0", "1", "2"],
        {"m": {(x, y): str((int(x) * 2 + int(y)) % 3) for x in "012" for y in "012"}},
        constants=["1"],
    ),
    make_algebra(
        "P", ["0", "1", "2"], {"p": {(x, y): x for x in "012" for y in "012"}}, constants=["1"]
    ),
]
# The left projection over 3^7 assignments, more than one block of the
# column-wise fold, reaches its last value only after 1,458 of them.
WIDE_TERM = parse_term("p(z1, p(z2, p(z3, p(z4, p(z5, p(z6, z7))))))")


@pytest.mark.parametrize("algebra", RANGE_ALGEBRAS, ids=lambda a: a.name)
def test_range_of_term_matches_per_assignment_evaluation(algebra):
    terms = enumerate_terms(algebra.signature, 3, 3, cap=20_000, max_size=7)
    if "p" in algebra.tables:
        terms.append(WIDE_TERM)
    for term in terms:
        assert range_of_term(term, algebra) == per_assignment_range(term, algebra), term
    op, arity = algebra.signature.operations[0]
    for term in (Const("nope"), App(op, (Var(1),) * (arity - 1) + (Const("nope"),))):
        with pytest.raises(TermError, match="unknown constant 'nope'"):
            range_of_term(term, algebra)


def range_of_set(terms, algebra):
    """Intersection of per-term ranges; empty families are rejected."""
    terms = list(terms)
    if not terms:
        raise TermError("range of an empty term set is undefined")
    result = range_of_term(terms[0], algebra)
    for t in terms[1:]:
        result &= range_of_term(t, algebra)
    return result


def test_range_of_set_intersects():
    algebra = chain()
    terms = [parse_term("f(z1)"), parse_term("f(f(z1))")]
    assert range_of_set(terms, algebra) == {"c"}
    with pytest.raises(TermError, match="empty"):
        range_of_set([], algebra)


def test_is_generalization():
    algebra = chain()
    assert is_generalization(parse_term("f(z1)"), algebra, "b")
    assert not is_generalization(parse_term("f(z1)"), algebra, "a")


def test_render_g_formula():
    assert render_g_formula(parse_term("m(z1, z2)")) == "exists z1 z2 . y = m(z1, z2)"
    assert render_g_formula(Const("one")) == "y = one"


def test_enumeration_unary_counts():
    # unary signature with 2 ops: depth d has 2^d shapes, one labeling each
    terms = enumerate_terms(SIG_FG, 3, 1)
    assert len(terms) == 1 + 2 + 4 + 8
    assert render_term(terms[0]) == "z1"
    assert all(len(term_variables(t)) == 1 for t in terms)


def test_enumeration_is_sorted_and_canonical():
    terms = enumerate_terms(SIG_M, 2, 2)
    keys = [enumeration_key(t, SIG_M) for t in terms]
    assert keys == sorted(keys)
    assert all(t == canonicalize(t) for t in terms)
    assert len(set(terms)) == len(terms)


def test_enumeration_fragment_filters_nest():
    mono = set(enumerate_terms(SIG_M, 2, 2, "monolinear"))
    lin = set(enumerate_terms(SIG_M, 2, 2, "linear"))
    gen = set(enumerate_terms(SIG_M, 2, 2, "general"))
    assert mono < lin < gen


def test_enumeration_general_reuses_variables():
    gen = enumerate_terms(SIG_M, 1, 2, "general")
    assert parse_term("m(z1, z1)") in gen
    assert parse_term("m(z1, z2)") in gen
    # restricted growth: z2 never appears before z1
    assert parse_term("m(z2, z1)") not in gen


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_terms(SIG_M, 3, 3, cap=50)


def test_enumeration_max_size():
    capped = enumerate_terms(SIG_M, 3, 2, "linear", max_size=5)
    assert all(term_size(t) <= 5 for t in capped)
    # the smallest depth-3 term over a binary op has 7 nodes
    assert max(term_depth(t) for t in capped) == 2
    wider = enumerate_terms(SIG_M, 3, 3, "linear", max_size=7)
    assert max(term_depth(t) for t in wider) == 3


def test_key_orders_disagree_on_variable_placement():
    # enumeration lists variables first; witness order prefers deeper ops
    var_first = enumeration_key(Var(1), SIG_M) < enumeration_key(Const("one"), SIG_M)
    witness_pref = witness_key(Const("one"), SIG_M) < witness_key(Var(1), SIG_M)
    assert var_first and witness_pref


def recursive_witness_key(term, signature):
    """The recursive definition: depth, size, then the preorder spelling
    with operations first, constants next and variables last."""
    op_rank = {sym: i for i, (sym, _) in enumerate(signature.operations)}
    const_rank = {c: i for i, c in enumerate(signature.constant_symbols)}
    spelling = []

    def walk(t):
        if isinstance(t, Var):
            spelling.append((2, t.index))
        elif isinstance(t, Const):
            spelling.append((1, const_rank.get(t.name, len(const_rank))))
        else:
            spelling.append((0, op_rank.get(t.op, len(op_rank))))
            for a in t.args:
                walk(a)

    walk(term)
    return (term_depth(term), term_size(term), tuple(spelling))


def recursive_enumeration_key(term, signature):
    """The recursive definition: depth, size, then the preorder spelling
    with variables first, operations next and constants last."""
    op_rank = {sym: i for i, (sym, _) in enumerate(signature.operations)}
    const_rank = {c: i for i, c in enumerate(signature.constant_symbols)}
    spelling = []

    def walk(t):
        if isinstance(t, Var):
            spelling.append((0, t.index))
        elif isinstance(t, Const):
            spelling.append((2, const_rank.get(t.name, len(const_rank))))
        else:
            spelling.append((1, op_rank.get(t.op, len(op_rank))))
            for a in t.args:
                walk(a)

    walk(term)
    return (term_depth(term), term_size(term), tuple(spelling))


def recursive_render(term):
    if isinstance(term, Var):
        return f"z{term.index}"
    if isinstance(term, Const):
        return term.name
    return f"{term.op}({', '.join(recursive_render(a) for a in term.args)})"


def test_witness_key_and_render_match_recursive_definitions():
    signature = Signature((("f", 1), ("g", 2), ("h", 3)), ("a", "b"))
    terms = enumerate_terms(signature, 3, 3, "general", max_size=7)
    assert len(terms) == 9924
    for term in terms:
        assert witness_key(term, signature) == recursive_witness_key(term, signature)
        assert render_term(term) == recursive_render(term)


def test_enumeration_key_matches_recursive_definition():
    signature = Signature((("f", 1), ("g", 2), ("h", 3)), ("a", "b"))
    for term in enumerate_terms(signature, 3, 3, "general", max_size=6):
        assert enumeration_key(term, signature) == recursive_enumeration_key(term, signature)


SIG_RULES = Signature((("f", 1), ("g", 2), ("h", 3)), ("a", "b"))
# Canonical linear terms holding 0, 1, 2 and 3 variables.
LINEAR_ARGS = [
    Const("a"),
    App("f", (Const("b"),)),
    Var(1),
    App("g", (Var(1), Const("a"))),
    App("g", (Var(1), Var(2))),
    App("h", (Var(1), App("f", (Var(2),)), Var(3))),
]
PLAIN_ARGS = [Var(1), Const("b"), App("g", (Var(1), Var(1))), App("f", (Var(2),))]
GROUND_FILLERS = [Const("a"), App("g", (Const("b"), App("f", (Const("a"),))))]


def rule_cases():
    """(kind, argument position, rule, argument tuples) for plain, linear
    and filler rules."""
    for sym, arity in SIG_RULES.operations:
        yield "plain", 0, app_key(sym, SIG_RULES), list(product(PLAIN_ARGS, repeat=arity))
    for sym, arity in (("g", 2), ("h", 3)):
        yield "linear", 0, app_key(sym, SIG_RULES, linear=True), list(product(LINEAR_ARGS, repeat=arity))
    fillers = [(t, witness_key(t, SIG_RULES)) for t in GROUND_FILLERS]
    for sym, arity in (("g", 2), ("h", 3)):
        for filled in product(fillers, repeat=arity - 1):
            for pos in range(arity):
                rule = app_key(sym, SIG_RULES, filled[:pos], filled[pos:])
                yield "filler", pos, rule, [(t,) for t in PLAIN_ARGS + LINEAR_ARGS]


def test_rule_terms_and_keys_come_from_one_description():
    cases = [(kind, pos, rule, args) for kind, pos, rule, arg_tuples in rule_cases() for args in arg_tuples]
    # A closure bounds compose by whole pending keys: the witness keys of
    # every term the rules build, many of which share a composed key's
    # depth and size with a smaller or a larger spelling.
    bounds = [(depth, size, ()) for depth in range(1, 6) for size in (2, 4, 7, 12, 30)]
    bounds += sorted({witness_key(build(args), SIG_RULES) for _, _, (build, _), args in cases})
    tied = 0
    for kind, pos, (build, compose), args in cases:
        keys = [witness_key(w, SIG_RULES) for w in args]
        term, key = build(args), compose(keys)
        assert key == witness_key(term, SIG_RULES), (kind, args)
        for bound in bounds:
            assert compose(keys, bound) == (None if key[:2] > bound[:2] else key)
        tied += {bound < key for bound in bounds if bound[:2] == key[:2] and bound != key} == {True, False}
        if kind == "linear":
            assert term == canonicalize(term) and classify_fragment(term) != "general"
        else:
            # The term holds its arguments' witnesses, not copies.
            assert all(map(operator.is_, term.args[pos:pos + len(args)], args))
    # Most composed keys meet bounds of their depth and size on both sides.
    assert tied > len(cases) // 2


def test_deep_terms_render_and_key():
    term = Var(1)
    for _ in range(3000):
        term = App("f", (term,))
    signature = Signature((("f", 1),))
    assert render_term(term) == "f(" * 3000 + "z1" + ")" * 3000
    depth, size, spelling = witness_key(term, signature)
    assert (depth, size, len(spelling)) == (3000, 3001, 3001)


def test_deep_terms_compare_and_hash():
    def chain(ops):
        term = Var(1)
        for op in ops:
            term = App(op, (term,))
        return term

    deep = chain(["f"] * 10_000)
    again = chain(["f"] * 10_000)
    inner = chain(["g"] + ["f"] * 9_999)  # differs at the innermost application
    assert deep is not again and deep == again and hash(deep) == hash(again)
    assert deep != inner and len({deep, again, inner}) == 2
    pair = App("m", (deep, Const("c")))
    assert pair == App("m", (again, Const("c")))
    assert pair != App("m", (again, Const("d"))) and pair != App("m", (again,))
    assert pair != deep and deep != Var(1) and Var(1) != deep


def test_repr_of_shallow_terms_is_the_dataclass_repr():
    assert repr(App("g", (App("f", (Var(1),)),))) == (
        "App(op='g', args=(App(op='f', args=(Var(index=1),)),))"
    )
    assert repr(App("m", (Var(1), Const("c"), App("f", (Var(2),))))) == (
        "App(op='m', args=(Var(index=1), Const(name='c'), App(op='f', args=(Var(index=2),))))"
    )


def test_deep_terms_print_and_copy():
    term = Var(1)
    for _ in range(10_000):
        term = App("f", (term,))

    # A RecursionError is turned into a plain failure here: pytest's report
    # of one would compare the deep terms held by a thousand frames.
    def without_recursion(f, *args):
        try:
            return f(*args)
        except RecursionError:
            return RecursionError

    text = without_recursion(repr, term)
    same = text == "App(op='f', args=(" * 10_000 + "Var(index=1)" + ",))" * 10_000
    assert same
    assert copy.copy(term) is term and without_recursion(copy.deepcopy, term) is term
    held = [term, App("m", (term, Const("c")))]
    copied = without_recursion(copy.deepcopy, held)
    assert copied is not held and copied[0] is term and copied == held


def test_deep_binary_linear_terms_shift_measure_and_classify():
    # z1 on the spine, a fresh variable beside it at every level: linear,
    # 5,000 applications deep, 5,001 variables.
    term = Var(1)
    for i in range(2, 5002):
        term = App("m", (term, Var(i)))
    shifted = shift_variables(term, 3)
    assert term_variables(shifted) == list(range(4, 5005))
    assert render_term(shifted).endswith("z4, z5), z6)" + "".join(f", z{i})" for i in range(7, 5005)))
    assert term_depth(shifted) == 5000
    assert variable_occurrences(shifted) == 5001
    assert classify_fragment(shifted) == "linear"
    assert render_term(canonicalize(shifted)) == render_term(term)


@st.composite
def unary_terms(draw):
    depth = draw(st.integers(min_value=0, max_value=5))
    term = Var(draw(st.integers(min_value=1, max_value=3)))
    for _ in range(depth):
        term = App(draw(st.sampled_from(["f", "g"])), (term,))
    return term


@given(unary_terms())
def test_canonicalize_idempotent(term):
    once = canonicalize(term)
    assert canonicalize(once) == once
    assert term_variables(once) == [1]


@given(unary_terms())
def test_depth_size_agree_on_unary(term):
    assert term_size(term) == term_depth(term) + 1


@given(unary_terms(), unary_terms())
def test_equality_and_hash_follow_structure(t, u):
    assert (t == u) == (render_term(t) == render_term(u))
    if t == u:
        assert hash(t) == hash(u)


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=3))
def test_enumeration_deterministic(depth, max_vars):
    first = enumerate_terms(SIG_M, depth, max_vars, "linear")
    second = enumerate_terms(SIG_M, depth, max_vars, "linear")
    assert first == second
