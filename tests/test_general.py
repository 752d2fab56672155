import random
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gensim.algebra import AlgebraError, make_algebra, self_pair
from gensim.general import DEFAULT_CAP, SaturationCapError, _function_lift, exactness_label, saturate_profiles
from gensim.similarity import GeneralEngine
from gensim.terms import parse_term, range_of_term, render_term, term_variables
from oracles import brute_force_gen, brute_force_subset, reference_function_lift


def two_elem(table, name="T"):
    rows = {
        ("0", "0"): table[0],
        ("0", "1"): table[1],
        ("1", "0"): table[2],
        ("1", "1"): table[3],
    }
    return make_algebra(name, ["0", "1"], {"m": rows})


def test_saturation_needs_a_variable():
    with pytest.raises(AlgebraError) as exc:
        saturate_profiles(self_pair(two_elem("0111")), 0)
    assert (exc.type, str(exc.value)) == (AlgebraError, "K must be >= 1")


def test_exactness_label():
    pair = self_pair(two_elem("0111"))
    assert exactness_label(pair, 4) == "exact"
    assert exactness_label(pair, 2) == "exact-for-2-vars"


def test_profiles_cover_projections_and_reuse():
    algebra = two_elem("0110", name="Xor")  # addition mod 2
    pair = self_pair(algebra)
    profiles = saturate_profiles(pair, 2)
    witnesses = {render_term(p.witness) for p in profiles}
    assert "z1" in witnesses and "z2" in witnesses
    # m(z1, z1) is constantly 0: reachable only through variable reuse
    const_zero = [
        p for p in profiles if set(p.left) == {0} and len(set(p.left)) == 1
    ]
    assert const_zero
    assert term_variables(const_zero[0].witness) in ([1], [2])


def test_profile_tables_match_oracle():
    algebra = two_elem("0111")
    pair = self_pair(algebra)
    for profile in saturate_profiles(pair, 2):
        rng = frozenset(algebra.carrier[i] for i in set(profile.left))
        assert range_of_term(profile.witness, algebra) == rng


def test_general_subset_vs_brute_force():
    algebra = two_elem("0111")  # boolean or
    pair = self_pair(algebra)
    general = GeneralEngine(pair, 4, 200_000)
    for a in algebra.carrier:
        for b in algebra.carrier:
            for b_prime in algebra.carrier:
                if b_prime == b:
                    continue
                engine, witness = general.subset(a, b, b_prime)
                oracle, _ = brute_force_subset(
                    pair, a, b, b_prime, max_depth=3, max_vars=4, max_size=9
                )
                assert engine == oracle
                if not engine:
                    rng = range_of_term(witness, algebra)
                    assert a in rng and b in rng and b_prime not in rng


def test_saturation_cap():
    algebra = two_elem("0110")
    with pytest.raises(SaturationCapError):
        saturate_profiles(self_pair(algebra), 2, cap=2)


def test_cap_bounds_assignments_and_profiles():
    # nor is complete: all 16 binary functions, over only 2^2 assignments
    pair = self_pair(two_elem("1000"))
    with pytest.raises(SaturationCapError, match="cap of 4 profiles"):
        saturate_profiles(pair, 2, cap=4)
    with pytest.raises(SaturationCapError, match="K = 3 needs 2\\^3 assignments"):
        saturate_profiles(pair, 3, cap=7)
    assert len(saturate_profiles(pair, 2, cap=16)) == 16
    # The power is not built: 2^(10^9) is refused as 2^4 > 8 is.
    with pytest.raises(SaturationCapError, match="^K = 1000000000 needs 2\\^1000000000 assignments"):
        saturate_profiles(pair, 10**9, cap=8)


def test_cap_bounds_k_itself():
    # One element on each side: one assignment, yet K projection seeds.
    pair = self_pair(make_algebra("One", ["x"], {"f": {"x": "x"}}))
    with pytest.raises(SaturationCapError) as caught:
        saturate_profiles(pair, 11, cap=10)
    assert str(caught.value) == (
        "K = 11 lists 11 projections, more than the cap of 10; lower K (--max-vars) or raise --cap"
    )
    assert len(saturate_profiles(pair, 10, cap=10)) == 1


def test_no_cap_is_no_bound(powerset3):
    # As in every other closure entry point, cap=None bounds nothing.
    pair = self_pair(powerset3)
    assert saturate_profiles(pair, 2, None) == saturate_profiles(pair, 2, DEFAULT_CAP)
    assert GeneralEngine(pair, 2, None).classes() == GeneralEngine(pair, 2, DEFAULT_CAP).classes()


def test_brute_force_gen_chain(chain5):
    gens = brute_force_gen(chain5, "b", max_depth=3, max_vars=1)
    assert [render_term(t) for t in gens] == ["z1", "f(z1)"]
    gens_c = brute_force_gen(chain5, "c", max_depth=3, max_vars=1)
    assert [render_term(t) for t in gens_c] == [
        "z1", "f(z1)", "f(f(z1))", "f(f(f(z1)))"
    ]


def test_unary_signature_reduces_to_linear(unary_fg):
    # on unary signatures K = 1 profiles coincide with word ranges
    pair = self_pair(unary_fg)
    profiles = saturate_profiles(pair, 1)
    from gensim.linear import reachable_profiles

    linear = reachable_profiles(pair)
    assert {frozenset(p.left) for p in profiles} == {p.left for p in linear}


@lru_cache(maxsize=None)
def checked_lifts(n, arity, seed):
    """A random ``arity``-ary table on e0..e(n-1), and its lift and
    reference lift, checked to agree on the functions that list every row
    of the table: as ``bytes`` up to 256 elements, as a tuple above."""
    rng = random.Random(seed)
    carrier = [f"e{i}" for i in range(n)]
    table = {args: rng.choice(carrier) for args in product(carrier, repeat=arity)}
    algebra = make_algebra(f"R{n}", carrier, {"o": table})
    lifts = _function_lift(algebra, "o", arity), reference_function_lift(algebra, "o")
    assert_lifts_agree(*lifts, n, zip(*product(range(n), repeat=arity)))
    return lifts


def assert_lifts_agree(lift, reference, n, functions):
    collect = bytes if n <= 256 else tuple
    functions = list(map(tuple, functions))
    got = lift(tuple(map(collect, functions)))
    assert type(got) is collect
    assert tuple(got) == reference(tuple(functions))


# Each kernel and its bounds: unary ``translate``, binary byte lanes in
# one part (n <= 16) and in parts of 256 // n table rows (16 < n <= 48,
# the last part full at n = 32 and partial at n = 26), a lookup per
# assignment into bytes (n <= 256, and every ternary operation) and into
# tuples (n > 256).
KERNEL_SIZES = [(n, 1) for n in (2, 16, 17, 255, 256, 257)]
KERNEL_SIZES += [(n, 2) for n in (2, 16, 17, 26, 32, 48, 49, 255, 256, 257)]
KERNEL_SIZES += [(n, 3) for n in (2, 16, 17)]


@pytest.mark.parametrize("n,arity", KERNEL_SIZES, ids=[f"n={n} arity {a}" for n, a in KERNEL_SIZES])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_kernels_match_the_reference_lift(n, arity, data):
    """On random tables and random functions, each lift gives the
    reference lift's values."""
    lifts = checked_lifts(n, arity, data.draw(st.integers(0, 2), label="table"))
    size = data.draw(st.integers(1, 300), label="assignments")
    values = st.lists(st.integers(0, n - 1), min_size=size, max_size=size)
    assert_lifts_agree(*lifts, n, [data.draw(values, label=f"function {i}") for i in range(arity)])


@pytest.mark.parametrize("n", [n for n, arity in KERNEL_SIZES if arity == 2 and n <= 16])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_row_lifts_match_the_lift(n, data):
    """The one-part binary kernel's ``row(f, gs)``, which the closure calls
    for a memo row by first argument, lists ``lift((f, g))`` for each g."""
    lift = checked_lifts(n, 2, data.draw(st.integers(0, 2), label="table"))[0]
    size = data.draw(st.integers(1, 300), label="assignments")
    function = st.lists(st.integers(0, n - 1), min_size=size, max_size=size).map(bytes)
    f, gs = data.draw(function, label="f"), data.draw(st.lists(function, max_size=6), label="gs")
    assert lift.row(f, gs) == [lift((f, g)) for g in gs]
