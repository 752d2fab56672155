import re

import pytest
from hypothesis import given, settings, strategies as st

from gensim import automata
from gensim.algebra import make_algebra, parse_algebra
from gensim.terms import parse_term, range_of_term, render_term
from oracles import term_to_word


def words_up_to(alphabet, n):
    out = [()]
    frontier = [()]
    for _ in range(n):
        frontier = [w + (s,) for w in frontier for s in alphabet]
        out.extend(frontier)
    return out


def build_path_automaton(algebra, from_elem, to_elem):
    """The algebra's transition graph with the given start and final element;
    state ``i`` is the carrier's ``i``-th element."""
    alphabet = algebra.signature.op_symbols
    index = {e: i for i, e in enumerate(algebra.carrier)}
    delta = tuple(
        tuple(index[algebra.apply(sym, (e,))] for sym in alphabet)
        for e in algebra.carrier
    )
    return automata.GenDfa(
        alphabet=alphabet,
        n_states=len(algebra.carrier),
        start=index[from_elem],
        finals=frozenset({index[to_elem]}),
        delta=delta,
    )


def language_by_oracle(algebra, element, max_len=6):
    """Reference semantics: a word is accepted iff its image contains element."""
    accepted = set()
    for word in words_up_to(algebra.signature.op_symbols, max_len):
        image = set(algebra.carrier)
        for sym in word:
            image = {algebra.apply(sym, (e,)) for e in image}
        if element in image:
            accepted.add(word)
    return accepted


def test_word_term_round_trip():
    word = ["f", "g", "f"]
    term = automata.word_to_term(word)
    assert render_term(term) == "f(g(f(z1)))"
    assert term_to_word(term) == word


def test_term_to_word_rejects_nonunary():
    with pytest.raises(automata.NonUnaryError):
        term_to_word(parse_term("m(z1, z2)"))


def test_gen_language_chain5(chain5):
    expected_states = {"a": 2, "b": 3, "c": 1, "d": 1, "e": 1}
    for element, n in expected_states.items():
        dfa = automata.gen_language(chain5, element)
        assert dfa.n_states == n
        oracle = language_by_oracle(chain5, element)
        for word in words_up_to(("f",), 6):
            assert dfa.accepts(word) == (word in oracle)


def test_gen_language_two_ops(unary_fg):
    for element in unary_fg.carrier:
        dfa = automata.gen_language(unary_fg, element)
        oracle = language_by_oracle(unary_fg, element, max_len=5)
        for word in words_up_to(("f", "g"), 5):
            assert dfa.accepts(word) == (word in oracle)


def test_gen_language_rejects_binary(powerset3):
    with pytest.raises(automata.NonUnaryError):
        automata.gen_language(powerset3, "0")


def test_intersect(chain5):
    lang_b = automata.gen_language(chain5, "b")   # {eps, f}
    lang_c = automata.gen_language(chain5, "c")   # f*
    both = automata.dfa_intersect(lang_b, lang_c)
    assert both.accepts([]) and both.accepts(["f"])
    assert not both.accepts(["f", "f"])


def test_subset_returns_shortest_witness(chain5):
    lang_a = automata.gen_language(chain5, "a")   # {eps}
    lang_b = automata.gen_language(chain5, "b")   # {eps, f}
    holds, witness = automata.dfa_subset(lang_a, lang_b)
    assert holds and witness is None
    holds, witness = automata.dfa_subset(lang_b, lang_a)
    assert not holds
    assert render_term(witness) == "f(z1)"


def test_equivalent(chain5):
    lang = {e: automata.gen_language(chain5, e) for e in "abcd"}
    assert automata.dfa_subset(lang["c"], lang["d"])[0]
    assert automata.dfa_subset(lang["d"], lang["c"])[0]
    assert automata.dfa_subset(lang["a"], lang["b"])[0]
    assert not automata.dfa_subset(lang["b"], lang["a"])[0]


def test_alphabet_mismatch(chain5, unary_fg):
    with pytest.raises(automata.AlphabetMismatchError):
        automata.dfa_subset(
            automata.gen_language(chain5, "a"),
            automata.gen_language(unary_fg, "p"),
        )


def test_export_dot(chain5):
    dfa = build_path_automaton(chain5, "a", "c")
    dot = automata.export_dot(dfa)
    assert dot.startswith("digraph")
    assert "__start -> q0;" in dot
    assert "q0 [shape=circle];" in dot and "q2 [shape=doublecircle];" in dot
    assert 'q0 -> q1 [label="f"];' in dot and 'q4 -> q2 [label="f"];' in dot


def test_export_dot_escapes_quotes_and_backslashes():
    # .alg operation symbols may hold '"' and '\\'; each label must stay one
    # DOT string that reads back as its symbol.
    algebra = parse_algebra(
        'algebra Q\nelements a b\nconstants none\n'
        'op f"x/1\n  a -> b\n  b -> b\nend\n'
        'op g\\y"/1\n  a -> a\n  b -> a\nend\n'
    )
    dot = automata.export_dot(automata.gen_language(algebra, "b"))
    assert 'q0 -> q0 [label="f\\"x"];' in dot
    assert 'q0 -> q1 [label="g\\\\y\\""];' in dot
    labels = re.findall(r'\[label="((?:[^"\\]|\\.)*)"\];\n', dot)
    assert len(labels) == 4 == dot.count("[label=")
    assert {re.sub(r"\\(.)", r"\1", label) for label in labels} == {'f"x', 'g\\y"'}


def test_regex_display(chain5):
    assert automata.dfa_to_regex(automata.gen_language(chain5, "a")) == "ε"
    assert automata.dfa_to_regex(automata.gen_language(chain5, "c")) == "f*"
    regex_b = automata.dfa_to_regex(automata.gen_language(chain5, "b"))
    assert set(regex_b) <= set("(|)fε*")


@st.composite
def random_unary(draw, max_size=4):
    size = draw(st.integers(min_value=1, max_value=max_size))
    carrier = [f"e{i}" for i in range(size)]
    n_ops = draw(st.integers(min_value=1, max_value=2))
    tables = {
        f"f{j}": {e: draw(st.sampled_from(carrier)) for e in carrier}
        for j in range(n_ops)
    }
    return make_algebra("R", carrier, tables)


@settings(max_examples=30, deadline=None)
@given(random_unary(), st.data())
def test_gen_language_matches_oracle(algebra, data):
    element = data.draw(st.sampled_from(algebra.carrier))
    dfa = automata.gen_language(algebra, element)
    oracle = language_by_oracle(algebra, element, max_len=4)
    for word in words_up_to(algebra.signature.op_symbols, 4):
        assert dfa.accepts(word) == (word in oracle)


def assert_minimal(dfa):
    """Canonical numbering and pairwise distinguishable states, by brute
    force: breadth-first search from state 0 in alphabet order meets the
    states as 0..n-1, and the words shorter than n tell every two states
    apart."""
    assert dfa.start == 0
    order = [0]
    for state in order:
        for target in dfa.delta[state]:
            if target not in order:
                order.append(target)
    assert order == list(range(dfa.n_states))
    for length in range(dfa.n_states):
        words = words_up_to(dfa.alphabet, length)
        behaviours = {
            tuple(
                automata.GenDfa(dfa.alphabet, dfa.n_states, s, dfa.finals, dfa.delta).accepts(w)
                for w in words
            )
            for s in range(dfa.n_states)
        }
        if len(behaviours) == dfa.n_states:
            return
    pytest.fail(f"two of the {dfa.n_states} states accept the same words")


@settings(max_examples=30, deadline=None)
@given(random_unary(max_size=5), st.data())
def test_gen_language_is_minimal(algebra, data):
    element = data.draw(st.sampled_from(algebra.carrier))
    dfa = automata.gen_language(algebra, element)
    assert_minimal(dfa)
    oracle = language_by_oracle(algebra, element, max_len=4)
    for word in words_up_to(algebra.signature.op_symbols, 4):
        assert dfa.accepts(word) == (word in oracle)


def test_gen_language_cerny6():
    # f is a cyclic shift and g merges e0 into e1: every nonempty image set
    # is reachable and no two are equivalent, so 2^6 - 1 states.
    carrier = [f"e{i}" for i in range(6)]
    shift = {e: carrier[(i + 1) % 6] for i, e in enumerate(carrier)}
    merge = {e: e for e in carrier} | {"e0": "e1"}
    cerny = make_algebra("Cerny6", carrier, {"f": shift, "g": merge})
    dfa = automata.gen_language(cerny, "e0")
    assert dfa.n_states == 63
    assert_minimal(dfa)
    oracle = language_by_oracle(cerny, "e0")
    for word in words_up_to(("f", "g"), 6):
        assert dfa.accepts(word) == (word in oracle)


@settings(max_examples=30, deadline=None)
@given(random_unary(), st.data())
def test_subset_witness_is_sound(algebra, data):
    a = data.draw(st.sampled_from(algebra.carrier))
    b = data.draw(st.sampled_from(algebra.carrier))
    x = automata.gen_language(algebra, a)
    y = automata.gen_language(algebra, b)
    holds, witness = automata.dfa_subset(x, y)
    if not holds:
        rng = range_of_term(witness, algebra)
        assert a in rng and b not in rng
