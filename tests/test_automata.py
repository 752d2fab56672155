import pytest
from hypothesis import given, settings, strategies as st

from gensim import automata
from gensim.algebra import make_algebra
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
    """The algebra's transition graph with the given start and final element."""
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
        names=algebra.carrier,
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


def test_minimize_preserves_language(chain5):
    dfa = build_path_automaton(chain5, "a", "c")
    minimal = automata.dfa_minimize(dfa)
    assert minimal.n_states <= dfa.n_states
    for word in words_up_to(("f",), 8):
        assert dfa.accepts(word) == minimal.accepts(word)


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
    assert "__start -> a;" in dot
    assert "c [shape=doublecircle];" in dot
    assert 'a -> b [label="f"];' in dot


def test_regex_display(chain5):
    assert automata.dfa_to_regex(automata.gen_language(chain5, "a")) == "ε"
    assert automata.dfa_to_regex(automata.gen_language(chain5, "c")) == "f*"
    regex_b = automata.dfa_to_regex(automata.gen_language(chain5, "b"))
    assert set(regex_b) <= set("(|)fε*")


@st.composite
def random_unary(draw):
    size = draw(st.integers(min_value=1, max_value=4))
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


@settings(max_examples=30, deadline=None)
@given(random_unary(), st.data())
def test_minimize_is_idempotent(algebra, data):
    element = data.draw(st.sampled_from(algebra.carrier))
    dfa = automata.gen_language(algebra, element)
    again = automata.dfa_minimize(dfa)
    assert again.n_states == dfa.n_states
    assert again.delta == dfa.delta and again.finals == dfa.finals


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
