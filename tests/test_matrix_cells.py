"""The dict contract of ``SimilarityMatrix.leq``, ``geq`` and ``approx``.

The three maps are read-only views over the matrix's rows of verdicts.
Each must read like the dict built cell by cell from ``decide_leq`` and
``decide_approx``: same keys and values in the same order, same lookups,
equal to it from both sides, and with its repr.
"""

import copy
import pickle
import time
import tracemalloc

import pytest

from gensim import cli
from gensim.algebra import make_algebra, self_pair
from gensim.corpus import load_fixture
from gensim.similarity import Cells, build_engines, decide_approx, decide_leq, similarity_matrix
from test_decision import random_pair

PAIRS = [(1, 40, seed, cross) for seed in range(2) for cross in (False, True)]
PAIRS += [(2, 12, seed, True) for seed in range(2)]


def cell_dicts(pair):
    """The ``<~``, ``>~`` and ``~~`` dicts of ``pair``, a call per cell."""
    engine, reverse = build_engines(pair)
    swapped = pair.swapped()
    cells = [(a, b) for a in pair.left.carrier for b in pair.right.carrier]
    return (
        {(a, b): decide_leq(pair, a, b, engine=engine) for a, b in cells},
        {(a, b): decide_leq(swapped, b, a, engine=reverse) for a, b in cells},
        {(a, b): decide_approx(pair, a, b, engine=engine, reverse_engine=reverse) for a, b in cells},
    )


@pytest.fixture(scope="module", params=PAIRS, ids=lambda p: "ops%d-n%d-seed%d-%s" % (
    p[0], p[1], p[2], "cross" if p[3] else "self"))
def matrix_and_dicts(request):
    pair = random_pair(*request.param)
    return similarity_matrix(pair), cell_dicts(pair)


def views(matrix):
    return (matrix.leq, matrix.geq, matrix.approx)


def test_views_read_like_the_cell_dicts(matrix_and_dicts):
    matrix, dicts = matrix_and_dicts
    for view, expected in zip(views(matrix), dicts):
        assert not isinstance(view, dict)
        assert list(view) == list(view.keys()) == list(expected)
        assert list(view.values()) == list(expected.values())
        assert list(view.items()) == list(expected.items())
        assert len(view) == len(view.keys()) == len(view.values()) == len(expected)
        assert len(view.items()) == len(expected)
        for key, value in expected.items():
            assert key in view and key in view.keys()
            assert (key, value) in view.items()
            assert view[key] == value and view.get(key) == value
        assert repr(view) == repr(expected)
        assert dict(view) == expected and list(dict(view)) == list(expected)


def test_views_equal_the_cell_dicts_both_ways(matrix_and_dicts):
    matrix, dicts = matrix_and_dicts
    for view, expected in zip(views(matrix), dicts):
        assert view == expected and expected == view
        assert not view != expected and not expected != view
        key = next(iter(expected))
        other = next(v for v in expected.values() if v != expected[key])
        changed = {**expected, key: other}
        assert view != changed and changed != view
        assert view != dict(list(expected.items())[1:])
        assert view != list(expected)


def test_unknown_and_malformed_keys_raise_key_error(matrix_and_dicts):
    matrix, _ = matrix_and_dicts
    a, b = matrix.rows[0], matrix.cols[-1]
    bad = [
        ("nosuch", b), (a, "nosuch"), (a,), (a, b, b), (), a, a + b, [a, b],
        ([a], b), (a, [b]), None, 0, (0, 0),
    ]
    for view in views(matrix):
        for key in bad:
            with pytest.raises(KeyError):
                view[key]
            assert view.get(key, "absent") == "absent"
            if not isinstance(key, list):
                assert key not in view


def test_a_string_of_two_names_is_no_key():
    """In chain5 the names are single letters: "ab" unpacks to two names,
    but only the pair ("a", "b") is a key."""
    matrix = similarity_matrix(self_pair(load_fixture("chain5.alg")))
    for view in views(matrix):
        assert ("a", "b") in view
        with pytest.raises(KeyError):
            view["ab"]
        assert "ab" not in view and view.get("ab") is None


def test_views_are_read_only(matrix_and_dicts):
    matrix, dicts = matrix_and_dicts
    key = (matrix.rows[0], matrix.cols[0])
    for view, expected in zip(views(matrix), dicts):
        with pytest.raises(TypeError):
            view[key] = expected[key]
        with pytest.raises(TypeError):
            del view[key]
        with pytest.raises(TypeError):
            hash(view)
        assert view == expected


def test_copies_and_pickles_give_equal_matrices(matrix_and_dicts):
    matrix, dicts = matrix_and_dicts
    text = []
    cli.write_matrix_json(matrix, text.append)
    for other in (copy.copy(matrix), copy.deepcopy(matrix), pickle.loads(pickle.dumps(matrix))):
        assert other == matrix and matrix == other
        assert [dict(view) for view in views(other)] == list(dicts)
        assert repr(other) == repr(matrix)
        assert other.render_text() == matrix.render_text()
        assert other.to_dict() == matrix.to_dict()
        copied = []
        cli.write_matrix_json(other, copied.append)
        assert "".join(copied) == "".join(text)


def chain_pair(n):
    """The self pair of the n-element chain f(e_i) = e_(i+1), a sink at the end."""
    carrier = [f"e{i}" for i in range(n)]
    table = {(e,): carrier[min(i + 1, n - 1)] for i, e in enumerate(carrier)}
    return self_pair(make_algebra("Chain", carrier, {"f": table}))


def test_chain_matrix_builds_no_cell_keys():
    """The 400-element chain's matrix keeps rows of verdicts, not n² keys
    in three dicts, and the peak that ``similarity_matrix`` allocates
    stays under 20 MB (it read about 37 MB when the maps were dicts)."""
    pair = chain_pair(400)
    tracemalloc.start()
    try:
        matrix = similarity_matrix(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(matrix.leq) == 400 * 400
    assert peak < 20_000_000


class ChainMatrices:
    """The 400-element chain's matrix and its pickled copy, under a short
    repr: pytest's long traceback reprs each test's arguments, and a view
    of this matrix has a 244 MB repr."""

    def __init__(self):
        self.matrix = similarity_matrix(chain_pair(400))
        self.copy = pickle.loads(pickle.dumps(self.matrix))

    def __repr__(self):
        return "ChainMatrices(400)"


@pytest.fixture(scope="module")
def chain_matrix_and_copy():
    return ChainMatrices()


def test_matrices_without_shared_verdicts_compare_fast(chain_matrix_and_copy):
    """A pickled copy shares no verdict object with its matrix, and its
    evidence terms are up to 399 symbols deep: comparing each cell in
    full took over 25 s.  (Results are asserted as plain booleans, as a
    failing assertion would render both matrices.)"""
    matrix, other = chain_matrix_and_copy.matrix, chain_matrix_and_copy.copy
    shared = {*map(id, matrix.leq.values())} & {*map(id, other.leq.values())}
    assert not shared
    start = time.perf_counter()
    equal = matrix == other and other == matrix
    assert time.perf_counter() - start < 3
    assert equal


def test_one_changed_cell_makes_views_unequal(chain_matrix_and_copy):
    matrix, other = chain_matrix_and_copy.matrix, chain_matrix_and_copy.copy
    other = pickle.loads(pickle.dumps(other))
    row = other.leq._rows[5]
    failing, holding = row[2].holds, row[7].holds
    assert (failing, holding) == (False, True)
    row[2] = row[7]  # e5 <~ e2 now holds
    unequal = other.leq != matrix.leq and matrix.leq != other.leq and other != matrix
    assert unequal
    equal = other.geq == matrix.geq and other.approx == matrix.approx
    assert equal
    row[2] = copy.deepcopy(matrix.leq["e5", "e2"])  # equal, yet another object
    equal = other.leq == matrix.leq and other == matrix
    assert equal


def test_views_equal_their_cell_dicts_in_any_order(chain_matrix_and_copy):
    matrix = chain_matrix_and_copy.matrix
    for view in views(matrix):
        cells = dict(view)
        equal = view == cells and cells == view and not view != cells and not cells != view
        assert equal
    # Rows in another order fall back to comparing cell by cell.
    matrix = similarity_matrix(chain_pair(20))
    view = pickle.loads(pickle.dumps(matrix)).leq
    rows = view._rows[::-1]
    reordered = Cells(rows, {a: i for i, a in enumerate(matrix.rows[::-1])}, view._cols)
    assert list(reordered) == sorted(matrix.leq, key=lambda key: -matrix.rows.index(key[0]))
    assert reordered == matrix.leq and matrix.leq == reordered
    rows[0] = rows[1]
    assert reordered != matrix.leq and matrix.leq != reordered
