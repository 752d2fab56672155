"""Metamorphic relations of the similarity matrix.

Declaring the operations in another order, swapping the two algebras and
renaming the elements each keep the verdicts, and so does putting an
isomorphic copy in place of one side.  None of the relations needs
an oracle, so they run on cross pairs beyond the brute-force oracles'
reach.  Operation order changes the ranks inside witness keys, so it may
change an evidence term, but never a holds bit or a dominating element;
every evidence term must still pass the range oracle.  Swapping two
algebras that declare their constants in different orders changes the
constant ranks in the same way.
"""

import random
from itertools import product

import pytest

from gensim.algebra import Algebra, Signature, make_algebra, self_pair, validate_pair
from gensim.morphism import check_g_functor, random_monounary_algebra
from gensim.similarity import QueryConfig, decide_leq, similarity_matrix
from oracles import relabeled_copy
from test_similarity import assert_evidence, with_constants


def cross_pair(seed, n, n_ops):
    return validate_pair(
        random_monounary_algebra(random.Random(seed), n, n_ops, "A"),
        random_monounary_algebra(random.Random(seed + 100), n, n_ops, "B"),
    )


def mixed_pair(seed):
    """A cross pair with a binary operation, a unary one and a constant,
    so that the monolinear engine plugs between ground fillers."""

    def algebra(rng, name):
        carrier = [f"e{i}" for i in range(4)]
        tables = {
            "m": {tup: rng.choice(carrier) for tup in product(carrier, repeat=2)},
            "f": {(x,): rng.choice(carrier) for x in carrier},
        }
        return make_algebra(name, carrier, tables, ("e1",))

    return validate_pair(algebra(random.Random(seed), "A"), algebra(random.Random(seed + 50), "B"))


# (seed, n, operations): 2- and 3-op cross pairs at n = 12, 1-op at n = 40.
CROSS = [(seed, n, n_ops) for seed in range(3) for n, n_ops in ((12, 2), (12, 3), (40, 1))]
# 2-op cross pairs at the paper's scale, where one closure serves both directions.
PAPER_SCALE = [(seed, 16, 2) for seed in range(3)]
SWAPPED = [(0, 12, 2), (1, 12, 2), (0, 40, 1)]


def reversed_operations(algebra):
    sig = algebra.signature
    signature = Signature(sig.operations[::-1], sig.constant_symbols)
    return Algebra(algebra.name, algebra.carrier, signature, algebra.tables)


def assert_matrix_evidence(matrix):
    """Every failing directed cell's evidence passes the range oracle."""
    left, right = matrix.pair.left, matrix.pair.right
    for (a, b), verdict in matrix.leq.items():
        if not verdict.holds:
            assert_evidence(verdict, a, b, left, right)
    for (a, b), verdict in matrix.geq.items():
        if not verdict.holds:
            assert_evidence(verdict, b, a, right, left)


def outcomes(matrix):
    """Each cell's holds bits, with the dominating element of each failing
    verdict."""
    return {
        cell: tuple(
            (v.holds, v.certificate and v.certificate.element)
            for v in (matrix.leq[cell], matrix.geq[cell], matrix.approx[cell])
        )
        for cell in matrix.leq
    }


@pytest.mark.parametrize("fragment", ["auto", "monolinear"])
@pytest.mark.parametrize(
    "pair",
    [cross_pair(*case) for case in CROSS + PAPER_SCALE] + [mixed_pair(seed) for seed in range(3)],
    ids=[f"seed{s}-n{n}-ops{k}" for s, n, k in CROSS + PAPER_SCALE]
    + [f"mixed-seed{s}" for s in range(3)],
)
def test_operation_order_keeps_bits_and_dominating_elements(pair, fragment):
    config = QueryConfig(fragment)
    flipped = validate_pair(reversed_operations(pair.left), reversed_operations(pair.right))
    before, after = similarity_matrix(pair, config), similarity_matrix(flipped, config)
    assert outcomes(after) == outcomes(before)
    assert_matrix_evidence(before)
    assert_matrix_evidence(after)


@pytest.mark.parametrize("fragment", ["auto", "monolinear"])
@pytest.mark.parametrize("constants", [(), ("e3", "e0")], ids=["no-constants", "constants"])
@pytest.mark.parametrize("seed,n,n_ops", SWAPPED + PAPER_SCALE)
def test_swapped_pair_leq_is_the_geq_transposed(seed, n, n_ops, constants, fragment):
    # The constants come in the same order on both sides.
    pair = cross_pair(seed, n, n_ops)
    pair = validate_pair(with_constants(pair.left, constants), with_constants(pair.right, constants))
    config = QueryConfig(fragment)
    forward, backward = similarity_matrix(pair, config), similarity_matrix(pair.swapped(), config)
    assert {(b, a): v for (a, b), v in forward.geq.items()} == backward.leq
    assert {(b, a): v for (a, b), v in backward.geq.items()} == forward.leq


def brief(verdict):
    return verdict.holds, verdict.certificate and verdict.certificate.element


@pytest.mark.parametrize("fragment", ["auto", "monolinear"])
@pytest.mark.parametrize(
    "pair",
    [cross_pair(*case) for case in SWAPPED] + [mixed_pair(seed) for seed in range(2)],
    ids=[f"seed{s}-n{n}-ops{k}" for s, n, k in SWAPPED] + [f"mixed-seed{s}" for s in range(2)],
)
def test_swap_keeps_bits_and_dominating_elements_when_constant_orders_differ(pair, fragment):
    # A pair ranks the constants in its left algebra's order in both
    # directions, so the two pairs may pick other evidence terms.
    pair = validate_pair(
        with_constants(pair.left, ("e3", "e0")), with_constants(pair.right, ("e0", "e3"))
    )
    config = QueryConfig(fragment)
    forward, backward = similarity_matrix(pair, config), similarity_matrix(pair.swapped(), config)
    for ours, theirs in ((forward.geq, backward.leq), (forward.leq, backward.geq)):
        assert {(b, a): brief(v) for (a, b), v in ours.items()} == {
            cell: brief(v) for cell, v in theirs.items()
        }
    assert {(b, a): v.holds for (a, b), v in forward.approx.items()} == {
        cell: v.holds for cell, v in backward.approx.items()
    }
    assert_matrix_evidence(forward)
    assert_matrix_evidence(backward)


@pytest.mark.parametrize("seed,n,n_ops", CROSS)
def test_renaming_keeps_every_holds_bit(seed, n, n_ops):
    # Both sides are renamed apart first: a renaming that creates or
    # removes a name the two sides share may move the b' = a exclusion.
    rng = random.Random(seed)
    pair = cross_pair(seed, n, n_ops)
    first = validate_pair(
        relabeled_copy(rng, pair.left, "p_").target, relabeled_copy(rng, pair.right, "q_").target
    )
    left_map, right_map = relabeled_copy(rng, first.left, "s_"), relabeled_copy(rng, first.right, "t_")
    second = validate_pair(left_map.target, right_map.target)
    before, after = similarity_matrix(first), similarity_matrix(second)

    def holds_bits(matrix, rename=lambda cell: cell):
        return {
            rename(cell): (matrix.leq[cell].holds, matrix.geq[cell].holds, matrix.approx[cell].holds)
            for cell in matrix.leq
        }

    assert holds_bits(before, lambda cell: (left_map(cell[0]), right_map(cell[1]))) == holds_bits(after)
    assert_matrix_evidence(after)


def test_the_self_pair_leaves_out_b_prime_equal_to_a_by_name():
    # The pinned exception: e0 <~ e2 holds in A because the competitor
    # e0 = a is left out by name, while its copy r_2 = F(e0) competes
    # against r_1 = F(e2) in the cross pair.
    a = random_monounary_algebra(random.Random(0), 4, 2, name="A")
    emap = relabeled_copy(random.Random(0), a)
    assert emap.table == {"e0": "r_2", "e1": "r_0", "e2": "r_1", "e3": "r_3"}
    assert decide_leq(self_pair(a), "e0", "e2").holds
    verdict = decide_leq(validate_pair(a, emap.target), "e0", "r_1")
    assert not verdict.holds
    assert verdict.certificate.element == "r_2" == emap("e0")
    assert_evidence(verdict, "e0", "r_1", a, emap.target)


@pytest.mark.parametrize(
    "seed,n,n_ops", [(seed, n, k) for seed in range(3) for n, k in ((40, 1), (12, 2))]
)
def test_an_isomorphic_copy_keeps_every_holds_bit(seed, n, n_ops):
    a = random_monounary_algebra(random.Random(seed), n, n_ops, "A")
    emap = relabeled_copy(random.Random(seed), a)
    assert check_g_functor(emap).holds
    # C is named apart from A (e0..) and from F(A) (r_0..).
    rng = random.Random(seed + 100)
    c = relabeled_copy(rng, random_monounary_algebra(rng, n, n_ops, "C"), "c_").target
    before = similarity_matrix(validate_pair(a, c))
    after = similarity_matrix(validate_pair(emap.target, c))
    for (x, b), verdict in before.leq.items():
        cell = (emap(x), b)
        assert [r[cell].holds for r in (after.leq, after.geq, after.approx)] == [
            verdict.holds, before.geq[(x, b)].holds, before.approx[(x, b)].holds
        ]
        if not verdict.holds:
            # Terms range alike over A and F(A): the certificate carries over.
            assert_evidence(verdict, emap(x), b, emap.target, c)
            assert_evidence(after.leq[cell], emap(x), b, emap.target, c)
