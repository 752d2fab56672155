from hypothesis import given, settings, strategies as st

from gensim.algebra import Signature, make_algebra, self_pair, validate_pair
from gensim.linear import reachable_profiles
from gensim.similarity import LinearEngine
from gensim.terms import parse_term, range_of_term, render_term
from oracles import enumerate_terms, lifted_range


def linear_gen_member(pair, family, a, b):
    """True iff some linear term generalizes a on the left and b on the right."""
    pair.left.require_element(a)
    pair.right.require_element(b)
    return any(a in p.left and b in p.right for p in family)


def dump_profiles(pair, family):
    """Debug dump, one line per profile in witness order."""
    left_order = {e: i for i, e in enumerate(pair.left.carrier)}
    right_order = {e: i for i, e in enumerate(pair.right.carrier)}
    lines = []
    for p in family:
        ls = ",".join(sorted(p.left, key=left_order.get))
        rs = ",".join(sorted(p.right, key=right_order.get))
        lines.append(f"{{{ls}}} | {{{rs}}} | witness: {render_term(p.witness)}")
    return "\n".join(lines) + "\n"


def test_chain5_profiles(chain5):
    family = reachable_profiles(self_pair(chain5))
    ranges = [(set(p.left), render_term(p.witness)) for p in family]
    assert ranges == [
        ({"a", "b", "c", "d", "e"}, "z1"),
        ({"b", "c", "d", "e"}, "f(z1)"),
        ({"c", "d", "e"}, "f(f(z1))"),
    ]


def test_chain4_pair_profiles(chain4_pair):
    family = reachable_profiles(chain4_pair)
    triples = [
        (set(p.left), set(p.right), render_term(p.witness)) for p in family
    ]
    assert triples == [
        ({"0", "1", "2", "3"}, {"0", "1", "2", "3"}, "z1"),
        ({"1", "2", "3"}, {"0", "2", "3"}, "f(z1)"),
        ({"2", "3"}, {"2", "3"}, "f(f(z1))"),
        ({"3"}, {"3"}, "f(f(f(z1)))"),
    ]


def test_lifted_range_matches_oracle_on_linear_terms(unary_fg, powerset3):
    for algebra in (unary_fg, powerset3):
        terms = enumerate_terms(algebra.signature, 2, 3, "linear", max_size=7)
        for term in terms:
            assert lifted_range(term, algebra) == range_of_term(term, algebra)


def test_lifted_range_overapproximates_nonlinear():
    algebra = make_algebra(
        "B", ["0", "1"],
        {"x": {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"}},
    )
    term = parse_term("x(z1, z1)")
    assert range_of_term(term, algebra) == {"0"}
    assert lifted_range(term, algebra) == {"0", "1"}


def test_gen_member_and_subset(chain4_pair):
    family = reachable_profiles(chain4_pair)
    assert linear_gen_member(chain4_pair, family, "1", "0")
    engine = LinearEngine(chain4_pair)
    holds, witness = engine.subset("1", "1", "0")
    assert holds and witness is None
    holds, witness = engine.subset("1", "0", "1")
    assert not holds
    assert render_term(witness) == "f(z1)"


def test_witnesses_are_minimal(chain5):
    family = reachable_profiles(self_pair(chain5))
    for profile in family:
        # every witness reproduces its own profile through the oracle
        assert range_of_term(profile.witness, chain5) == profile.left


def test_constants_seed_profiles():
    algebra = make_algebra(
        "K", ["x", "y"], {"f": {"x": "y", "y": "y"}}, constants=["y"]
    )
    family = reachable_profiles(self_pair(algebra))
    assert (frozenset({"y"}), frozenset({"y"})) in {
        (p.left, p.right) for p in family
    }
    # the singleton {y} is witnessed by the constant, not by f(f(z1))
    by_key = {(p.left, p.right): p for p in family}
    assert render_term(by_key[(frozenset({"y"}), frozenset({"y"}))].witness) == "y"


def test_binary_profiles_match_enumeration(powerset3):
    # reachable profiles must cover every enumerated linear-term range pair
    pair = self_pair(powerset3)
    family = reachable_profiles(pair)
    keys = {(p.left, p.right) for p in family}
    for term in enumerate_terms(powerset3.signature, 2, 2, "linear", max_size=5):
        rng = range_of_term(term, powerset3)
        assert (rng, rng) in keys


def test_dump_profiles_format(chain5):
    pair = self_pair(chain5)
    text = dump_profiles(pair, reachable_profiles(pair))
    lines = text.strip().splitlines()
    assert lines[0] == "{a,b,c,d,e} | {a,b,c,d,e} | witness: z1"
    assert len(lines) == 3


@st.composite
def random_unary_algebra(draw):
    size = draw(st.integers(min_value=1, max_value=4))
    carrier = [f"e{i}" for i in range(size)]
    n_ops = draw(st.integers(min_value=1, max_value=2))
    tables = {
        f"f{j}": {e: draw(st.sampled_from(carrier)) for e in carrier}
        for j in range(n_ops)
    }
    return make_algebra("R", carrier, tables)


@settings(max_examples=40, deadline=None)
@given(random_unary_algebra())
def test_family_symmetric_under_swap(algebra):
    pair = self_pair(algebra)
    family = reachable_profiles(pair)
    swapped = reachable_profiles(pair.swapped())
    assert {(p.left, p.right) for p in family} == {
        (p.right, p.left) for p in swapped
    }


@settings(max_examples=40, deadline=None)
@given(random_unary_algebra())
def test_profiles_are_exactly_word_images(algebra):
    # on unary signatures, reachable left-ranges = images of all words
    family = reachable_profiles(self_pair(algebra))
    images = {frozenset(algebra.carrier)}
    frontier = [frozenset(algebra.carrier)]
    while frontier:
        current = frontier.pop()
        for sym in algebra.signature.op_symbols:
            nxt = frozenset(algebra.apply(sym, (e,)) for e in current)
            if nxt not in images:
                images.add(nxt)
                frontier.append(nxt)
    assert {p.left for p in family} == images
