"""The semi-naive closure against a naive reference, and its unary and
binary kernels against the one-product-per-arity loop they replace.

The reference re-enumerates every combination of accepted items after each
acceptance and keeps those that use the new item.  Both must accept the
same profiles, with the same witnesses, in the same order.  The table rows
of the naive monolinear closure are also the oracle for the monolinear
engine's dominators, and the raw function-pair rows of the general
closure the oracle for the general engine's.  The general closure's byte
sides must read as the tuple sides of the reference lift, on every
general pair of these tests and of ``test_general.py``.
"""

import contextlib
import heapq
import random
from itertools import product

import pytest

from gensim import closure, general, linear, monolinear
from gensim.algebra import AlgebraPair, make_algebra, self_pair, validate_pair
from gensim.closure import DEFAULT_CAP, SaturationCapError, least_witness_closure
from gensim.corpus import load_fixture, powerset_algebra, truncated_multiplication_algebra
from gensim.general import saturate_profiles
from gensim.linear import reachable_profiles
from gensim.monolinear import paired_clone, paired_ground_values, polynomial_clone
from gensim.morphism import random_monounary_algebra
from gensim.similarity import (
    Engine,
    GeneralEngine,
    LinearEngine,
    MonolinearEngine,
    QueryConfig,
    build_engine,
    build_engines,
)
from gensim.terms import (
    App,
    Const,
    Var,
    app_key,
    shift_variables,
    term_variables,
    witness_key,
)
import oracles
from oracles import canonicalize, named, reference_closure, reference_general
from test_decision import UNARY_FIXTURES
from test_similarity import with_constants


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
P4, M4 = powerset_algebra(tuple("1234")), meet_algebra(tuple("1234"))
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
    family = [((p.left, p.right), p.witness) for p in named(pair, reachable_profiles(pair))]
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
    assert [((l, r), w) for l, r, w in named(pair, paired_ground_values(pair))] == grounds
    assert [((p.left, p.right), p.witness) for p in named(pair, paired_clone(pair))] == clone
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
    rows = [(frozenset(left), frozenset(right), w) for (left, right), w in tables]
    oracle = Engine(pair, "oracle", named(pair, rows, ids=True))
    engine = MonolinearEngine(pair)
    for a in pair.left.carrier:
        for b in pair.right.carrier:
            assert engine.verdict(a, b).certificate == oracle.verdict(a, b).certificate, (a, b)


@pytest.mark.parametrize("label,pair", PAIRS, ids=[label for label, _ in PAIRS])
def test_general_dominators_match_function_rows(label, pair):
    # One row per function pair, each witness canonicalized: duplicate
    # range pairs share every mask, so the distinct rows decide alike.
    rows = [
        (frozenset(p.left), frozenset(p.right), canonicalize(p.witness))
        for p in saturate_profiles(pair, 2)
    ]
    oracle = Engine(pair, "oracle", rows)
    engine = GeneralEngine(pair, 2, 200_000)
    for a in pair.left.carrier:
        for b in pair.right.carrier:
            assert engine.verdict(a, b).certificate == oracle.verdict(a, b).certificate, (a, b)


def _engines(pair):
    yield LinearEngine(pair)
    yield MonolinearEngine(pair)
    yield GeneralEngine(pair, 2, 200_000)


@pytest.mark.parametrize("label,pair", PAIRS, ids=[label for label, _ in PAIRS])
def test_classes_come_in_witness_order(label, pair):
    # find_characteristic_set relies on this order for its tie-break.
    sig = pair.left.signature
    for engine in _engines(pair):
        keys = [witness_key(w, sig) for _, _, w in engine.classes()]
        assert keys == sorted(keys), type(engine).__name__


@pytest.mark.parametrize("label,pair", PAIRS, ids=[label for label, _ in PAIRS])
def test_classes_are_distinct_range_pairs_with_canonical_witnesses(label, pair):
    for engine in _engines(pair):
        classes = engine.classes()
        name = type(engine).__name__
        assert len({(left, right) for left, right, _ in classes}) == len(classes), name
        assert all(w == canonicalize(w) for _, _, w in classes), name


def test_semi_naive_lifts_each_combination_once():
    # Profiles are integers capped at 3; each lift records what it sees.
    # The two sides are different functions, so each keeps its own memo.
    seen_left, seen_right = [], []

    def lift(seen):
        def capped_sum(values):
            seen.append(values)
            return min(sum(values), 3)

        return capped_sum

    sig = make_algebra("S", ["x"], {"s": {("x", "x"): "x"}}).signature
    items = least_witness_closure(
        [(1, 1, Const("x"))],
        [(2, lift(seen_left), lift(seen_right), *app_key("s", sig), False)],
        lambda t: witness_key(t, sig),
    )
    assert [left for left, _, _ in items] == [1, 2, 3]
    assert sorted(seen_left) == sorted(product([1, 2, 3], repeat=2))
    assert sorted(seen_right) == sorted(product([1, 2, 3], repeat=2))


CLOSURE_MODULES = (linear, general, monolinear)


@pytest.fixture
def closure_calls(monkeypatch):
    """Record every closure the engines run: its items, the keys the
    closure composed for them, and the engine's seed key."""
    calls = []

    def recording(seeds, rules, key, cap=None, keys=None, stop=None):
        composed = [] if keys is None else keys
        items = least_witness_closure(seeds, rules, key, cap, composed, stop)
        calls.append((items, composed, key))
        return items

    for module in CLOSURE_MODULES:
        monkeypatch.setattr(module, "least_witness_closure", recording)
    return calls


def _run_closures(label, pair):
    """The engines' closures, general K = 2 on ``PAIRS`` only: on the
    binary ``bin4`` algebras it runs past any useful cap."""
    reachable_profiles(pair)
    paired_clone(pair)
    if any(label == name for name, _ in PAIRS):
        saturate_profiles(pair, 2)
    if pair.left is pair.right:
        polynomial_clone(pair.left)


@pytest.mark.parametrize("label,pair", MONOLINEAR_PAIRS, ids=[label for label, _ in MONOLINEAR_PAIRS])
def test_composed_keys_equal_witness_keys(label, pair, closure_calls):
    # Only seeds are keyed by walking the term; every other key is composed
    # from the keys of the arguments, and must be the witness's own key.
    _run_closures(label, pair)
    assert len(closure_calls) >= 3  # linear, ground values, monolinear
    for items, composed, key in closure_calls:
        assert composed == [key(p.witness) for p in items]


@pytest.fixture
def lift_calls(monkeypatch):
    """Wrap the lifts of every rule, keeping one wrapper for a lift that
    serves both sides; returns the calls per wrapper and side."""
    calls = []

    def counted(lift, side):
        seen = []
        calls.append((side, seen))

        def wrapper(values):
            seen.append(values)
            return lift(values)

        return wrapper

    def recording(seeds, rules, key, cap=None, keys=None, stop=None):
        wrapped = []
        for arity, lift_left, lift_right, build, compose, commutative in rules:
            left = counted(lift_left, "both" if lift_left is lift_right else "left")
            right = left if lift_left is lift_right else counted(lift_right, "right")
            wrapped.append((arity, left, right, build, compose, commutative))
        return least_witness_closure(seeds, wrapped, key, cap, keys, stop)

    for module in CLOSURE_MODULES:
        monkeypatch.setattr(module, "least_witness_closure", recording)
    return calls


LIFT_PAIRS = [
    ("P3", self_pair(P3)),
    ("P3/M3", AlgebraPair(P3, M3)),
    ("bin4", MONOLINEAR_PAIRS[-2][1]),
    ("bin4 A/B", MONOLINEAR_PAIRS[-1][1]),
    # Rows share ids on both sides: the benchmark's largest linear closure.
    ("P4/M4", AlgebraPair(P4, M4)),
]


@pytest.mark.parametrize("label,pair", LIFT_PAIRS, ids=[label for label, _ in LIFT_PAIRS])
def test_self_pairs_lift_one_side_and_each_tuple_once(label, pair, lift_calls):
    _run_closures(label, pair)
    sides = {side for side, _ in lift_calls}
    # A self pair's rules share one lift; a cross pair's never do.
    assert sides == ({"both"} if pair.left is pair.right else {"left", "right"})
    assert any(seen for _, seen in lift_calls)
    for _, seen in lift_calls:
        # Components are interned, so distinct argument ids are distinct
        # argument values: each distinct tuple is lifted once.
        assert len(seen) == len(set(seen))


@pytest.mark.parametrize("engine", [reachable_profiles, lambda pair: saturate_profiles(pair, 2)])
def test_commutative_lifts_lift_each_unordered_pair_once(engine, monkeypatch):
    """Union (P3) and meet (M3) commute: their lifts are marked, each
    unordered pair of arguments is lifted once, and the rows and witnesses
    are those of the closure whose lifts are not marked."""
    pair = AlgebraPair(P3, M3)
    seen = []
    marking = closure.operation_rules

    def recording(pair, make, linear=False):
        rules = marking(pair, make, linear)
        assert all(rule[5] for rule in rules)

        def counted(lift, side):
            return lambda args: seen.append((side, frozenset(args))) or lift(args)

        return [(arity, counted(left, "left"), counted(right, "right"), *rest)
                for arity, left, right, *rest in rules]

    def unmarked(pair, make, linear=False):
        return [(*rule[:5], False) for rule in marking(pair, make, linear)]

    for module in (linear, general):
        monkeypatch.setattr(module, "operation_rules", recording)
    marked = engine(pair)
    assert seen and len(seen) == len(set(seen))
    for module in (linear, general):
        monkeypatch.setattr(module, "operation_rules", unmarked)
    assert marked == engine(pair)


ENGINE_ROWS = {
    "linear": reachable_profiles,
    "monolinear": paired_clone,
    "general": lambda pair: saturate_profiles(pair, 1),
}


def constant_pairs(engine, left_constants, right_constants):
    """Seeded cross pairs whose algebras declare the constants e3 and e0 in
    the given orders: 2-op monounary ones, and for the range engines ones
    with a binary operation, whose monolinear terms take constant fillers.
    The general engine's function pairs of those are too many for a test."""
    size = 4 if engine == "general" else 8
    pairs = [
        (random_monounary_algebra(random.Random(seed), size, 2, name="A"),
         random_monounary_algebra(random.Random(seed + 100), size, 2, name="B"))
        for seed in range(8)
    ]
    if engine != "general":
        pairs += [(random_binary(seed, "A"), random_binary(seed + 100, "B")) for seed in range(2)]
    for left, right in pairs:
        yield validate_pair(
            with_constants(left, left_constants), with_constants(right, right_constants)
        )


@pytest.mark.parametrize("engine", sorted(ENGINE_ROWS))
def test_swapped_pair_transposes_rows_when_constant_orders_agree(engine):
    """The rows of the swapped pair are the pair's rows with their sides
    swapped: same order, same witnesses."""
    rows = ENGINE_ROWS[engine]
    for pair in constant_pairs(engine, ("e3", "e0"), ("e3", "e0")):
        assert rows(pair.swapped()) == [(p.right, p.left, p.witness) for p in rows(pair)]


@pytest.mark.parametrize("engine", sorted(ENGINE_ROWS))
def test_swapped_pair_keeps_the_row_set_when_constant_orders_differ(engine):
    """A closure ranks the constants in its left algebra's order, so the
    swapped pair's rows may come in another order with other witnesses;
    only the set of rows is the same."""
    rows = ENGINE_ROWS[engine]
    for pair in constant_pairs(engine, ("e3", "e0"), ("e0", "e3")):
        forward = [(p.right, p.left) for p in rows(pair)]
        backward = [(p.left, p.right) for p in rows(pair.swapped())]
        assert len(backward) == len(forward) and set(backward) == set(forward)


TRANSPOSE_CONFIGS = {
    "linear": QueryConfig("linear"),
    "monolinear": QueryConfig("monolinear"),
    "general K=1": QueryConfig("general", max_vars=1),
}


def transpose_pairs(engine, left_order, right_order):
    """Every pair of bundled fixtures with one signature, then seeded cross
    pairs whose algebras declare the constants ``e<i>`` for i in the given
    orders: 1-, 2- and 3-op n = 8 monounary ones and the ``random_binary``
    ones.  The general engine's K = 1 function pairs outgrow a test there,
    so it takes 3-op n = 4 and the kernel cases' 3-element binary pair
    (index 3 read as 2)."""
    fixtures = [load_fixture(name) for name in UNARY_FIXTURES]
    for left in fixtures:
        yield from (validate_pair(left, r) for r in fixtures if r.signature == left.signature)
    general = engine.startswith("general")
    pairs = []
    for ops in (1, 2, 3):
        size = 4 if general and ops == 3 else 8
        pairs += [
            (random_monounary_algebra(random.Random(seed), size, ops, name="A"),
             random_monounary_algebra(random.Random(seed + 100), size, ops, name="B"))
            for seed in range(2)
        ]
    if general:
        pairs.append((random_algebra(2, 3, (2, 1), "A"), random_algebra(102, 3, (2, 1), "B")))
    else:
        pairs += [(random_binary(seed, "A"), random_binary(seed + 100, "B")) for seed in range(2)]
    for left, right in pairs:
        last = len(left.carrier) - 1
        yield validate_pair(
            with_constants(left, [f"e{min(i, last)}" for i in left_order]),
            with_constants(right, [f"e{min(i, last)}" for i in right_order]),
        )


@pytest.mark.parametrize("constants", [(), (3, 0)], ids=["no constants", "e3 e0"])
@pytest.mark.parametrize("engine", sorted(TRANSPOSE_CONFIGS))
def test_the_reverse_engine_is_the_rebuilt_swapped_engine(engine, constants):
    """One closure serves both directions: when the constant orders agree,
    the forward engine transposed has the classes, in order, and the label
    of the engine that a second closure builds for the swapped pair."""
    config = TRANSPOSE_CONFIGS[engine]
    for pair in transpose_pairs(engine, constants, constants):
        forward, reverse = build_engines(pair, config)
        rebuilt = build_engine(pair.swapped(), config)
        assert reverse.pair == pair.swapped()
        assert reverse.classes() == rebuilt.classes()
        assert reverse.label == rebuilt.label == forward.label


@pytest.mark.parametrize("engine", sorted(TRANSPOSE_CONFIGS))
def test_the_reverse_engine_keeps_the_rebuilt_class_set_when_constant_orders_differ(engine):
    """The reverse engine ranks the constants in the pair's left order, so
    its witnesses may differ from a rebuilt swapped engine's, but never its
    term classes."""
    config = TRANSPOSE_CONFIGS[engine]
    for pair in transpose_pairs(engine, (3, 0), (0, 3)):
        reverse = build_engines(pair, config)[1]
        rebuilt = build_engine(pair.swapped(), config)
        ranges, want = ([(left, right) for left, right, _ in e.classes()] for e in (reverse, rebuilt))
        assert len(ranges) == len(want) and set(ranges) == set(want)


def random_algebra(seed, size, arities, name, constants=("e0",)):
    """Random tables on e0..e(size-1), one operation o<j> per arity."""
    rng = random.Random(seed)
    carrier = [f"e{i}" for i in range(size)]
    tables = {
        f"o{j}": {args: rng.choice(carrier) for args in product(carrier, repeat=arity)}
        for j, arity in enumerate(arities)
    }
    return make_algebra(name, carrier, tables, constants=constants)


KERNEL_ENGINES = {
    "linear": reachable_profiles,
    "monolinear": paired_clone,  # and the paired ground values
    "clone": lambda pair: polynomial_clone(pair.left),
    "general1": lambda pair: saturate_profiles(pair, 1),
    "general2": lambda pair: saturate_profiles(pair, 2),
    # Binary K = 2 function pairs run far past any useful count.
    "general2 cap 200": lambda pair: saturate_profiles(pair, 2, cap=200),
}


def _kernel_cases():
    cases = [
        (label, pair, ("linear", "monolinear", "general1", "general2")
         + ("clone",) * (pair.left is pair.right))
        for label, pair in _fixture_pairs()
    ]
    # Seeds whose 3-op clone stays small (most run past 3,000 tables).
    for ops, seed in ((1, 3), (2, 0), (3, 7)):
        left = random_monounary_algebra(random.Random(seed), 8, ops, name="A")
        right = random_monounary_algebra(random.Random(seed + 100), 8, ops, name="B")
        for constants in ((), ("e3", "e0")):
            left_c, right_c = with_constants(left, constants), with_constants(right, constants)
            label = f"mono{ops} 8 {'/'.join(constants) or 'no constants'}"
            cases.append((label, self_pair(left_c), ("linear", "monolinear", "clone", "general1")))
            cases.append((f"{label} A/B", validate_pair(left_c, right_c), ("linear", "monolinear")))
    # Cross pairs of binary n = 4 algebras have too many K = 1 function pairs.
    for size, seed in ((3, 2), (4, 4)):
        left = random_algebra(seed, size, (2, 1), "A")
        right = random_algebra(seed + 100, size, (2, 1), "B")
        general = ("general1", "general2 cap 200")
        cases.append((f"bin {size}", self_pair(left), ("linear", "monolinear", "clone") + general))
        cases.append((
            f"bin {size} A/B",
            validate_pair(left, right),
            ("linear", "monolinear") + general * (size == 3),
        ))
    # The benchmark's two heaviest closures.
    cases.append(("P3/M3", AlgebraPair(P3, M3), ("linear", "monolinear", "general1", "general2")))
    cases.append(("P4/M4", AlgebraPair(P4, M4), ("linear",)))
    ternary = random_algebra(5, 3, (1, 3), "A")
    cases.append(("ternary", self_pair(ternary), ("linear", "monolinear", "general1", "clone")))
    cases.append((
        "ternary A/B",
        validate_pair(ternary, random_algebra(105, 3, (1, 3), "B")),
        ("linear", "monolinear"),
    ))
    return cases


KERNEL_CASES = _kernel_cases()


@pytest.fixture
def closure_args(monkeypatch):
    """Record the arguments of every closure the engines run."""
    calls = []

    def recording(seeds, rules, key, cap=None, keys=None, stop=None):
        seeds = list(seeds)
        calls.append((seeds, rules, key, cap))
        return least_witness_closure(seeds, rules, key, cap, keys, stop)

    for module in CLOSURE_MODULES:
        monkeypatch.setattr(module, "least_witness_closure", recording)
    return calls


def _outcome(closure, seeds, rules, key, cap):
    """The accepted items, or None when the cap was hit, with the keys
    composed for them (up to the item past the cap)."""
    keys = []
    try:
        return closure(seeds, rules, key, cap, keys), keys
    except SaturationCapError:
        return None, keys


@pytest.mark.parametrize("label,pair,engines", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_kernels_match_the_reference_loop(label, pair, engines, closure_args):
    """The same rows, witnesses and keys in the same order, and the cap
    hit at the same accepted count."""
    for engine in engines:
        with contextlib.suppress(SaturationCapError):
            KERNEL_ENGINES[engine](pair)
    assert closure_args
    for seeds, rules, key, cap in closure_args:
        items, keys = _outcome(least_witness_closure, seeds, rules, key, cap)
        assert (items, keys) == _outcome(reference_closure, seeds, rules, key, cap)
        if items is None:
            assert len(keys) == cap + 1
        elif len(items) > 1:
            low = len(items) // 2
            capped = _outcome(least_witness_closure, seeds, rules, key, low)
            assert capped == (None, keys[:low + 1])
            assert capped == _outcome(reference_closure, seeds, rules, key, low)



def _recording_push(keys):
    def push(heap, entry):
        keys.append(entry[0])
        heapq.heappush(heap, entry)

    return push


@pytest.mark.parametrize("label,engine", [
    ("P4/M4", "linear"),
    ("P3/M3", "general2"),
    ("bin 4 A/B", "linear"),
    ("bin 3 A/B", "general1"),
])
def test_kernels_push_what_the_reference_pushes(label, engine, closure_args, monkeypatch):
    """A candidate is pushed only when it beats the key pending at that
    moment, also when one batch offers a profile twice: the same keys are
    pushed in the same order as by the reference loop."""
    pair = next(pair for name, pair, _ in KERNEL_CASES if name == label)
    KERNEL_ENGINES[engine](pair)
    pushed = {closure: [], oracles: []}
    for module, keys in pushed.items():
        monkeypatch.setattr(module, "heappush", _recording_push(keys))
    for seeds, rules, key, cap in closure_args:
        least_witness_closure(seeds, rules, key, cap)
        reference_closure(seeds, rules, key, cap)
        assert pushed[closure] == pushed[oracles]


# u(x, y) = x on P3's carrier: u commutes in P3 and not here.
FIRST3 = make_algebra(
    "First", P3.carrier, {"u": {(x, y): x for x in P3.carrier for y in P3.carrier}}, constants="all"
)
ONE_SIDED_PAIRS = [("P3/First3", AlgebraPair(P3, FIRST3)), ("First3/P3", AlgebraPair(FIRST3, P3))]


@pytest.mark.parametrize("engine", ["linear", "monolinear", "general1"])
@pytest.mark.parametrize("label,pair", ONE_SIDED_PAIRS, ids=[label for label, _ in ONE_SIDED_PAIRS])
def test_an_operation_commutative_on_one_side_is_not_marked(label, pair, engine, closure_args):
    """Union commutes in P3, and u(x, y) = x on the same carrier does
    not: neither side's lift is marked, and the closure is the reference
    loop's."""
    rules = closure.operation_rules(pair, linear._range_lift)
    assert not rules[0][5]
    KERNEL_ENGINES[engine](pair)
    assert closure_args
    for seeds, rules, key, cap in closure_args:
        assert not any(rule[5] for rule in rules)
        assert _outcome(least_witness_closure, seeds, rules, key, cap) == _outcome(
            reference_closure, seeds, rules, key, cap)


def difference_algebra(n, name="D", constants=()):
    """x - y mod n on e0..e(n-1), not commutative: its K = 1 terms in z1
    denote the n maps x -> a * x, so its closures stay small."""
    carrier = [f"e{i}" for i in range(n)]
    table = {(x, y): carrier[(i - j) % n] for i, x in enumerate(carrier) for j, y in enumerate(carrier)}
    return make_algebra(name, carrier, {"s": table}, constants=constants)


def swap_min_algebra(n, constants=()):
    """min on the chain e0 < ... < e(n-1), and f swapping e0 and e1."""
    carrier = [f"e{i}" for i in range(n)]
    tables = {
        "m": {(x, y): min(x, y, key=carrier.index) for x in carrier for y in carrier},
        "f": {x: {"e0": "e1", "e1": "e0"}.get(x, x) for x in carrier},
    }
    return make_algebra(f"SwapMin{n}", carrier, tables, constants=constants)


# The lift paths by carrier size n: byte lanes in one part (n <= 16) and
# in parts of table rows (16 < n <= 48), and tuple sides over n > 256;
# ternary operations look each assignment up.
NAIVE_GENERAL_CASES = [
    ("difference 19", self_pair(difference_algebra(19)), 1),
    ("difference 4/18", validate_pair(difference_algebra(4), difference_algebra(18, "E")), 1),
    ("difference 5 e1", self_pair(difference_algebra(5, constants=["e1"])), 1),
    ("swap-min 17 e3", self_pair(swap_min_algebra(17, ["e3"])), 1),
    ("ternary", self_pair(random_algebra(5, 3, (1, 3), "A")), 1),
    ("ternary 2 K=2", self_pair(random_algebra(6, 2, (3,), "A")), 2),
    ("swap-min 257", self_pair(swap_min_algebra(257)), 1),
    ("swap-min 257 e3", self_pair(swap_min_algebra(257, ["e3"])), 1),
]


@pytest.mark.parametrize("label,pair,k", NAIVE_GENERAL_CASES, ids=[c[0] for c in NAIVE_GENERAL_CASES])
def test_general_lift_paths_match_naive(label, pair, k):
    """Sides are ``bytes`` over at most 256 elements and tuples above,
    and read as names they are the naive closure's functions."""
    names_l, names_r = pair.left.carrier, pair.right.carrier
    profiles = saturate_profiles(pair, k)
    for p in profiles:
        assert type(p.left) is (bytes if len(names_l) <= 256 else tuple)
        assert type(p.right) is (bytes if len(names_r) <= 256 else tuple)
    named = [
        ((tuple(names_l[i] for i in p.left), tuple(names_r[i] for i in p.right)), p.witness)
        for p in profiles
    ]
    assert named == naive_general(pair, k)


def _general_closures():
    """Every general closure these tests and ``test_general.py`` run, as
    (label, pair, K, cap), each once."""
    import test_general

    cases = [(f"{label} K=2", pair, 2, DEFAULT_CAP) for label, pair in PAIRS]
    for label, pair, engines in KERNEL_CASES:
        cases += [
            (f"{label} {engine}", pair, int(engine[7]), 200 if "cap" in engine else DEFAULT_CAP)
            for engine in engines if engine.startswith("general")
        ]
    for orders in ((("e3", "e0"), ("e3", "e0")), (("e3", "e0"), ("e0", "e3"))):
        cases += [
            (f"constants {'/'.join(orders[1])} {i}", pair, 1, DEFAULT_CAP)
            for i, pair in enumerate(constant_pairs("general", *orders))
        ]
    for orders in (((), ()), ((3, 0), (3, 0)), ((3, 0), (0, 3))):
        cases += [
            (f"transpose {orders} {i}", pair, 1, DEFAULT_CAP)
            for i, pair in enumerate(transpose_pairs("general K=1", *orders))
        ]
    for table, k, cap in (("0110", 2, DEFAULT_CAP), ("0110", 2, 2), ("0111", 2, DEFAULT_CAP),
                          ("0111", 4, DEFAULT_CAP), ("1000", 2, 4), ("1000", 2, 16)):
        cases.append((f"two-element {table} K={k} cap {cap}",
                      self_pair(test_general.two_elem(table)), k, cap))
    cases += [(label, pair, k, DEFAULT_CAP) for label, pair, k in NAIVE_GENERAL_CASES]
    unique: dict = {}
    for case in cases:
        unique.setdefault((id(case[1]), case[2], case[3]), case)
    return list(unique.values())


GENERAL_CLOSURES = _general_closures()


@pytest.mark.parametrize("label,pair,k,cap", GENERAL_CLOSURES, ids=[c[0] for c in GENERAL_CLOSURES])
def test_byte_sides_match_the_reference_general_closure(label, pair, k, cap, monkeypatch):
    """The byte kernels change no outcome: read as tuples, the sides come
    with the same witnesses and keys, in the same order, as those of the
    tuple sides lifted one assignment at a time by the reference loop,
    and the cap is hit at the same accepted count."""
    def outcome(closure, keys):
        try:
            return [(tuple(p.left), tuple(p.right), p.witness) for p in closure()], keys
        except SaturationCapError:
            return None, keys

    keys: list = []
    monkeypatch.setattr(general, "least_witness_closure",
                        lambda *args, stop=None: least_witness_closure(*args, keys, stop))
    got = outcome(lambda: saturate_profiles(pair, k, cap), keys)
    want_keys: list = []
    assert got == outcome(lambda: reference_general(pair, k, cap, want_keys), want_keys)


def _cross_engines():
    """Every cross pair these tests build, with each engine config that
    builds it in reasonable time."""
    general = {id(pair) for _, pair in PAIRS} | {
        id(pair) for _, pair, engines in KERNEL_CASES if "general1" in engines
    }
    pairs = {id(pair): pair for _, pair in MONOLINEAR_PAIRS}
    pairs.update((id(pair), pair) for _, pair, _ in KERNEL_CASES)
    for pair in pairs.values():
        if pair.left is not pair.right:
            yield "linear", pair
            yield "monolinear", pair
            if id(pair) in general:
                yield "general K=1", pair
    for engine in TRANSPOSE_CONFIGS:
        for orders in (((), ()), ((3, 0), (0, 3))):
            yield from ((engine, pair) for pair in transpose_pairs(engine, *orders))


@pytest.mark.parametrize("engine", sorted(TRANSPOSE_CONFIGS))
def test_the_reverse_engine_transposes_the_row_masks(engine):
    """The reverse engine takes the forward engine's row masks, swapped:
    they are the masks rebuilt from its rows."""
    cases = [pair for name, pair in _cross_engines() if name == engine]
    assert cases
    for pair in cases:
        forward, reverse = build_engines(pair, TRANSPOSE_CONFIGS[engine])
        rebuilt = Engine(pair.swapped(), reverse.label, named(pair.swapped(), reverse.classes(), ids=True))
        assert (reverse._left, reverse._right) == (forward._right, forward._left)
        assert (reverse._left, reverse._right) == (rebuilt._left, rebuilt._right)
