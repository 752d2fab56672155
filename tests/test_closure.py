"""The semi-naive closure against a naive reference.

The reference re-enumerates every combination of accepted items after each
acceptance and keeps those that use the new item.  Both must accept the
same profiles, with the same witnesses, in the same order.  The table rows
of the naive monolinear closure are also the oracle for the monolinear
engine's dominators.
"""

import heapq
import random
from itertools import product

import pytest

from gensim.algebra import AlgebraPair, make_algebra, self_pair, validate_pair
from gensim.closure import RowIndex, least_witness_closure
from gensim.corpus import load_fixture, powerset_algebra, truncated_multiplication_algebra
from gensim.general import saturate_profiles
from gensim.linear import reachable_profiles
from gensim.monolinear import paired_clone, paired_ground_values, polynomial_clone
from gensim.morphism import random_monounary_algebra
from gensim.similarity import GeneralEngine, LinearEngine, MonolinearEngine, UnaryEngine
from gensim.terms import (
    App,
    Const,
    Var,
    canonicalize,
    shift_variables,
    term_variables,
    witness_key,
)


def naive_closure(seeds, ops, sig):
    """ops: (arity, combine) with combine(items) -> (profile, witness)."""
    heap = []
    counter = 0

    def push(profile, witness):
        nonlocal counter
        heapq.heappush(heap, (witness_key(witness, sig), counter, profile, witness))
        counter += 1

    for profile, witness in seeds:
        push(profile, witness)
    accepted = set()
    order = []
    while heap:
        _, _, profile, witness = heapq.heappop(heap)
        if profile in accepted:
            continue
        accepted.add(profile)
        order.append((profile, witness))
        new = len(order) - 1
        for arity, combine in ops:
            for combo in product(range(len(order)), repeat=arity):
                if new in combo:
                    push(*combine([order[i] for i in combo]))
    return order


def naive_linear(pair):
    sig = pair.left.signature

    def op(sym):
        def combine(items):
            left = frozenset(
                pair.left.apply(sym, c) for c in product(*(p[0] for p, _ in items))
            )
            right = frozenset(
                pair.right.apply(sym, c) for c in product(*(p[1] for p, _ in items))
            )
            args, offset = [], 0
            for _, w in items:
                args.append(shift_variables(w, offset))
                offset += len(term_variables(w))
            return (left, right), canonicalize(App(sym, tuple(args)))

        return combine

    seeds = [((frozenset(pair.left.carrier), frozenset(pair.right.carrier)), Var(1))]
    seeds += [((frozenset({c}), frozenset({c})), Const(c)) for c in sig.constant_symbols]
    return naive_closure(seeds, [(ar, op(sym)) for sym, ar in sig.operations], sig)


def naive_general(pair, k):
    sig = pair.left.signature
    left_asg = list(product(pair.left.carrier, repeat=k))
    right_asg = list(product(pair.right.carrier, repeat=k))

    def op(sym):
        left_table, right_table = pair.left.tables[sym], pair.right.tables[sym]

        def combine(items):
            left = tuple(left_table[args] for args in zip(*(p[0] for p, _ in items)))
            right = tuple(right_table[args] for args in zip(*(p[1] for p, _ in items)))
            return (left, right), App(sym, tuple(w for _, w in items))

        return combine

    seeds = [
        ((tuple(a[i] for a in left_asg), tuple(a[i] for a in right_asg)), Var(i + 1))
        for i in range(k)
    ]
    seeds += [
        (((c,) * len(left_asg), (c,) * len(right_asg)), Const(c))
        for c in sig.constant_symbols
    ]
    return naive_closure(seeds, [(ar, op(sym)) for sym, ar in sig.operations], sig)


def naive_paired_clone(pair, ranges=False):
    """The ground values and the monolinear family: table pairs, or range
    pairs when ``ranges`` is set."""
    sig = pair.left.signature
    image = frozenset if ranges else tuple

    def ground_op(sym):
        def combine(items):
            left = pair.left.apply(sym, [p[0] for p, _ in items])
            right = pair.right.apply(sym, [p[1] for p, _ in items])
            return (left, right), App(sym, tuple(w for _, w in items))

        return combine

    grounds = naive_closure(
        [((c, c), Const(c)) for c in sig.constant_symbols],
        [(ar, ground_op(sym)) for sym, ar in sig.operations],
        sig,
    )

    def plug(sym, position, fillers):
        def combine(items):
            (left, right), term = items[0]
            lv = [p[0] for p, _ in fillers]
            rv = [p[1] for p, _ in fillers]
            args = [w for _, w in fillers]
            args.insert(position, term)
            return (
                image(pair.left.apply(sym, lv[:position] + [x] + lv[position:]) for x in left),
                image(pair.right.apply(sym, rv[:position] + [x] + rv[position:]) for x in right),
            ), App(sym, tuple(args))

        return combine

    ops = [
        (1, plug(sym, position, fillers))
        for sym, ar in sig.operations
        for position in range(ar)
        for fillers in product(grounds, repeat=ar - 1)
    ]
    seed = ((image(pair.left.carrier), image(pair.right.carrier)), Var(1))
    return grounds, naive_closure([seed], ops, sig)


def meet_algebra(universe):
    carrier = powerset_algebra(universe).carrier
    members = {name: frozenset(name) - {"0"} for name in carrier}
    by_members = {m: name for name, m in members.items()}
    table = {(x, y): by_members[members[x] & members[y]] for x in carrier for y in carrier}
    return make_algebra("Meet", carrier, {"u": table}, constants="all")


def _fixture_pairs():
    names = [
        "chain5.alg", "chain4_a.alg", "nat_sink7.alg", "triple_b.alg",
        "merge_src.alg", "unary_fg.alg",
    ]
    pairs = [(n, self_pair(load_fixture(n))) for n in names]
    for left, right in [("chain4_a", "chain4_b"), ("triple_b", "triple_c"), ("merge_tgt", "merge_src")]:
        pairs.append((
            f"{left}/{right}",
            validate_pair(load_fixture(f"{left}.alg"), load_fixture(f"{right}.alg")),
        ))
    return pairs


P3, M3 = powerset_algebra(tuple("123")), meet_algebra(tuple("123"))
T3 = truncated_multiplication_algebra(3)
# Table clones of random cross pairs grow fast with the carrier (over
# 10,000 table pairs at n = 8), so the cross pair is smaller.
PAIRS = _fixture_pairs() + [
    ("P3", self_pair(P3)),
    ("P3/M3", AlgebraPair(P3, M3)),
    ("M3/P3", AlgebraPair(M3, P3)),
    ("T3", self_pair(T3)),
    ("mono2 8", self_pair(random_monounary_algebra(random.Random(7), 8, 2, name="A"))),
    ("mono2 5/5", AlgebraPair(
        random_monounary_algebra(random.Random(0), 5, 2, name="A"),
        random_monounary_algebra(random.Random(100), 5, 2, name="B"),
    )),
]


@pytest.mark.parametrize("label,pair", PAIRS, ids=[label for label, _ in PAIRS])
def test_linear_matches_naive(label, pair):
    family = [((p.left, p.right), p.witness) for p in reachable_profiles(pair)]
    assert family == naive_linear(pair)


@pytest.mark.parametrize("label,pair", PAIRS, ids=[label for label, _ in PAIRS])
def test_general_k2_matches_naive(label, pair):
    names_l, names_r = pair.left.carrier, pair.right.carrier
    profiles = [
        ((tuple(names_l[i] for i in p.left), tuple(names_r[i] for i in p.right)), p.witness)
        for p in saturate_profiles(pair, 2)
    ]
    assert profiles == naive_general(pair, 2)


def random_binary(seed, name):
    """A binary and a unary operation on four elements, constant e0: the
    fillers of a non-commutative operation must keep their positions."""
    rng = random.Random(seed)
    carrier = [f"e{i}" for i in range(4)]
    tables = {
        "m": {(x, y): rng.choice(carrier) for x in carrier for y in carrier},
        "f": {x: rng.choice(carrier) for x in carrier},
    }
    return make_algebra(name, carrier, tables, constants=["e0"])


MONOLINEAR_PAIRS = PAIRS + [
    ("bin4", self_pair(random_binary(0, "A"))),
    ("bin4 A/B", validate_pair(random_binary(2, "A"), random_binary(102, "B"))),
]


@pytest.mark.parametrize("label,pair", MONOLINEAR_PAIRS, ids=[label for label, _ in MONOLINEAR_PAIRS])
def test_paired_monolinear_matches_naive(label, pair):
    grounds, clone = naive_paired_clone(pair, ranges=True)
    assert [((l, r), w) for l, r, w in paired_ground_values(pair)] == grounds
    assert [((p.left, p.right), p.witness) for p in paired_clone(pair)] == clone
    if pair.left is pair.right:
        _, tables = naive_paired_clone(pair)
        assert [(p.table, p.witness) for p in polynomial_clone(pair.left)] == [
            (left, w) for (left, _), w in tables
        ]


@pytest.mark.parametrize("label,pair", MONOLINEAR_PAIRS, ids=[label for label, _ in MONOLINEAR_PAIRS])
def test_monolinear_dominators_match_table_rows(label, pair):
    # The table rows are the oracle: a term's membership in Gen(a, b)
    # depends only on its ranges, so the range rows decide alike.
    _, tables = naive_paired_clone(pair)
    oracle = RowIndex(
        [(frozenset(left), frozenset(right), w) for (left, right), w in tables],
        pair.right.carrier,
    )
    engine = MonolinearEngine(pair)
    for a in pair.left.carrier:
        for b in pair.right.carrier:
            assert engine.dominator(a, b) == oracle.dominator(a, b), (a, b)


def _engines(pair):
    yield LinearEngine(pair)
    yield MonolinearEngine(pair)
    yield GeneralEngine(pair, 2, 200_000)
    if pair.left.signature.is_unary():
        yield UnaryEngine(pair)


@pytest.mark.parametrize("label,pair", PAIRS, ids=[label for label, _ in PAIRS])
def test_classes_come_in_witness_order(label, pair):
    # find_characteristic_set relies on this order for its tie-break.
    sig = pair.left.signature
    for engine in _engines(pair):
        keys = [witness_key(w, sig) for _, _, w in engine.classes()]
        assert keys == sorted(keys), type(engine).__name__


def test_semi_naive_lifts_each_combination_once():
    # Profiles are integers capped at 3; the left lift records what it sees.
    seen = []

    def lift_left(values):
        seen.append(values)
        return min(sum(values), 3)

    def lift_right(values):
        return min(sum(values), 3)

    sig = make_algebra("S", ["x"], {"s": {("x", "x"): "x"}}).signature
    items = least_witness_closure(
        [(1, 1, Const("x"))],
        [(2, lift_left, lift_right, lambda witnesses: App("s", witnesses))],
        lambda t: witness_key(t, sig),
    )
    assert [left for left, _, _ in items] == [1, 2, 3]
    assert sorted(seen) == sorted(product([1, 2, 3], repeat=2))
