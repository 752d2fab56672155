"""The CLI's JSON writers against ``json.dumps(payload, indent=2)``.

Every JSON report of the CLI but ``matrix`` goes through
``cli.render_json``; ``matrix`` writes its report a row at a time with
``cli.write_matrix_json``.  The reference is ``json.dumps(payload,
indent=2)``, the encoder the reports were written with before, on
``SimilarityMatrix.to_dict()`` for a matrix; the writers must give the
same bytes on every payload, shared dicts included.
"""

import copy
import gc
import json
import random
import re
import tracemalloc
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from gensim import cli, verdict
from gensim.algebra import Algebra, Signature, make_algebra, render_algebra, self_pair, validate_pair
from gensim.morphism import random_monounary_algebra
from gensim.similarity import QueryConfig, similarity_matrix
from gensim.terms import render_term
from oracles import relabeled_copy, render_map
from test_decision import chain_pairs

FIXTURES = [
    "chain5.alg", "chain4_a.alg", "chain4_b.alg", "nat_sink7.alg",
    "triple_a.alg", "triple_b.alg", "triple_c.alg", "triple_d.alg",
    "merge_src.alg", "merge_tgt.alg", "unary_fg.alg",
]


def fixture_path(name: str) -> str:
    return str(resources.files("gensim") / "fixtures" / name)


def assert_matches_dumps(payload):
    assert cli.render_json(payload) == json.dumps(payload, indent=2)


def matrix_payload(matrix):
    """``matrix.to_dict()``, checked cell by cell against each verdict's
    own ``to_dict``: sharing dicts must not merge two distinct verdicts."""
    payload = matrix.to_dict()
    expected = [
        {
            "a": a,
            "b": b,
            "leq": matrix.leq[(a, b)].to_dict(),
            "geq": matrix.geq[(a, b)].to_dict(),
            "approx": matrix.approx[(a, b)].to_dict(),
        }
        for a in matrix.rows
        for b in matrix.cols
    ]
    assert payload["cells"] == expected
    return payload


def matrix_json(matrix) -> str:
    """What ``write_matrix_json`` writes, checked against json.dumps."""
    pieces = []
    cli.write_matrix_json(matrix, pieces.append)
    text = "".join(pieces)
    assert text == json.dumps(matrix_payload(matrix), indent=2) + "\n"
    return text


@pytest.fixture
def recorded(monkeypatch, capsys):
    """Run the CLI and check what it printed: for ``matrix``, the
    json.dumps text of the one matrix it wrote; otherwise the text that
    its one ``render_json`` call returned, checked against json.dumps."""
    calls, matrices = [], []
    writer, matrix_writer = cli.render_json, cli.write_matrix_json

    def recording(payload):
        text = writer(payload)
        calls.append((payload, text))
        return text

    def recording_matrix(matrix, write):
        matrices.append(matrix)
        matrix_writer(matrix, write)

    monkeypatch.setattr(cli, "render_json", recording)
    monkeypatch.setattr(cli, "write_matrix_json", recording_matrix)

    def run(*argv):
        calls.clear()
        matrices.clear()
        code = cli.main([*argv, "--format", "json"])
        out = capsys.readouterr().out
        assert code in (0, 1), argv
        if argv[0] == "matrix":
            assert len(matrices) == 1, argv
            payload = matrix_payload(matrices[0])
            assert out == json.dumps(payload, indent=2) + "\n", argv
            return payload
        assert (len(calls), matrices) == (1, []), argv
        payload, text = calls[0]
        assert text == json.dumps(payload, indent=2), argv
        assert out == text + "\n", argv
        return payload

    return run


@pytest.fixture
def cli_matrix(capsys, tmp_path):
    """The stdout of ``gensim matrix --format json`` on a pair, its
    algebras written to files (``--right`` only for a cross pair)."""

    def run(pair, *options):
        argv = ["matrix", *options, "--format", "json"]
        for side, algebra in (("--left", pair.left), ("--right", pair.right)):
            if side == "--left" or pair.right is not pair.left:
                path = tmp_path / f"{side[2:]}.alg"
                path.write_text(render_algebra(algebra), encoding="utf-8")
                argv += [side, str(path)]
        assert cli.main(argv) == 0
        return capsys.readouterr().out

    return run


def test_every_subcommand_on_fixtures(recorded):
    for name in FIXTURES:
        path = fixture_path(name)
        carrier = cli._load_algebra(path).carrier
        first, last = carrier[0], carrier[-1]
        for relation in ("leq", "approx"):
            recorded("check", "--left", path, "--a", first, "--b", last, "--relation", relation)
            recorded("transitivity", "--left", path, "--relation", relation)
        recorded("matrix", "--left", path)
        recorded("genlang", "--algebra", path, "--element", first)
        recorded("charset", "--left", path, "--a", first, "--b", first)
        recorded("charset", "--left", path, "--a", first, "--b", last, "--max-size", "1")
        recorded("clone", "--algebra", path)
        recorded("reflexivity", "--left", path)
    pairs = [("chain4_a.alg", "chain4_b.alg"), ("triple_b.alg", "triple_c.alg")]
    for left, right in pairs:
        both = ("--left", fixture_path(left), "--right", fixture_path(right))
        recorded("matrix", *both)
        recorded("reflexivity", *both)
    recorded(
        "transitivity", "--left", fixture_path("triple_a.alg"),
        "--mid", fixture_path("triple_b.alg"), "--right", fixture_path("triple_c.alg"),
    )
    merge = ("--map", fixture_path("merge.map"),
             "--algebras", fixture_path("merge_src.alg"), fixture_path("merge_tgt.alg"))
    for verify in ("hom", "iso", "g-functor"):
        recorded("morphism", *merge, "--verify", verify)
    recorded("examples")


def test_isomorphism_reports(recorded, tmp_path):
    """iso-lemma and sit need isomorphisms: a renamed copy of chain5."""
    source = fixture_path("chain5.alg")
    emap = relabeled_copy(random.Random(0), cli._load_algebra(source))
    copy = tmp_path / "copy.alg"
    copy.write_text(render_algebra(emap.target))
    iso = tmp_path / "iso.map"
    iso.write_text(render_map(emap))
    maps = ("--map", str(iso), "--algebras", source, str(copy))
    assert recorded("morphism", *maps, "--verify", "iso")["isomorphism"] is True
    recorded("morphism", *maps, "--verify", "iso-lemma")
    recorded("morphism", *maps, "--map2", str(iso), "--verify", "sit")


def test_escaped_element_names(recorded, tmp_path):
    """Quotes, backslashes and non-ASCII names, as the .alg grammar admits."""
    alg = tmp_path / "names.alg"
    alg.write_text(
        'algebra Names\nelements a"b c\\d é\nconstants none\nop f/1\n'
        '  a"b -> c\\d\n  c\\d -> é\n  é -> é\nend\n',
        encoding="utf-8",
    )
    payload = recorded("matrix", "--left", str(alg))
    assert payload["rows"] == ['a"b', "c\\d", "é"]
    recorded("check", "--left", str(alg), "--a", 'a"b', "--b", "é")
    recorded("clone", "--algebra", str(alg))


def test_template_markers_and_null_as_names(recorded, tmp_path):
    """Names that read as ``%`` format markers or as a JSON literal, in
    names, constants and certificates; and a one-element carrier."""
    alg = tmp_path / "marks.alg"
    alg.write_text(
        "algebra P%s\nelements % a%sb null %%\nconstants null\nop f/1\n"
        "  % -> a%sb\n  a%sb -> null\n  null -> null\n  %% -> %%\nend\n",
        encoding="utf-8",
    )
    payload = recorded("matrix", "--left", str(alg))
    assert payload["rows"] == ["%", "a%sb", "null", "%%"]
    assert any(not cell["leq"]["holds"] for cell in payload["cells"])
    one = tmp_path / "one.alg"
    one.write_text("algebra One\nelements x\nconstants none\nop f/1\n  x -> x\nend\n")
    assert len(recorded("matrix", "--left", str(one))["cells"]) == 1


@pytest.mark.parametrize("seed", range(3))
def test_random_one_op_matrices(seed, cli_matrix):
    left = random_monounary_algebra(random.Random(seed), 40, 1)
    right = random_monounary_algebra(random.Random(seed + 100), 40, 1)
    for pair in (self_pair(left), validate_pair(left, right)):
        matrix = similarity_matrix(pair)
        payload = matrix_payload(matrix)
        assert_matches_dumps(payload)
        assert cli_matrix(pair) == matrix_json(matrix)
        # one dict per distinct verdict object, shared by the cells that hold it
        dicts = [cell[k] for cell in payload["cells"] for k in ("leq", "geq", "approx")]
        verdicts = [m[key] for key in matrix.leq for m in (matrix.leq, matrix.geq, matrix.approx)]
        assert first_places(dicts) == first_places(verdicts)


def first_places(objects) -> list[int]:
    """Each object's place of first occurrence: two lists read alike when
    their objects repeat at the same places."""
    first: dict = {}
    return [first.setdefault(id(obj), i) for i, obj in enumerate(objects)]


@pytest.mark.parametrize("report", [
    lambda matrix: matrix.to_dict(),
    lambda matrix: cli.write_matrix_json(matrix, len),
], ids=["to_dict", "write_matrix_json"])
def test_matrix_report_renders_each_evidence_term_once(monkeypatch, report):
    # A failing <~ verdict and its ~~ restatement share one term.
    rendered = []
    monkeypatch.setattr(verdict, "render_term", lambda term: rendered.append(term) or render_term(term))
    left = random_monounary_algebra(random.Random(0), 40, 1)
    right = random_monounary_algebra(random.Random(100), 40, 1)
    matrix = similarity_matrix(validate_pair(left, right))
    report(matrix)
    terms = {
        id(v.certificate.term)
        for verdicts in (matrix.leq, matrix.geq, matrix.approx)
        for v in verdicts.values()
        if not v.holds
    }
    assert len(rendered) == len(terms) > 0
    assert {id(term) for term in rendered} == terms


def with_constants(algebra, constants):
    signature = Signature(algebra.signature.operations, tuple(constants))
    return Algebra(algebra.name, algebra.carrier, signature, algebra.tables)


@pytest.mark.parametrize("fragment", ["unary", "linear"])
def test_two_op_cross_pairs_with_constants(fragment, cli_matrix):
    for seed in range(5):
        left = with_constants(random_monounary_algebra(random.Random(seed), 8, 2), ("e0", "e3"))
        right = with_constants(
            random_monounary_algebra(random.Random(seed + 100), 8, 2, name="S"), ("e0", "e3")
        )
        pair = validate_pair(left, right)
        matrix = similarity_matrix(pair, QueryConfig(fragment=fragment))
        assert_matches_dumps(matrix_payload(matrix))
        assert cli_matrix(pair, "--fragment", fragment) == matrix_json(matrix)


def test_chain_matrices(cli_matrix):
    """The n = 50 chain, and its cross pair with a relabelled copy: that
    pair's reverse engine is another engine, so the writer encodes the
    verdicts of two engines.  A copy of the matrix, which lacks the
    engines' lists, is written from its cells."""
    for pair in chain_pairs(50)[:2]:
        matrix = similarity_matrix(pair)
        text = json.dumps(matrix.to_dict(), indent=2) + "\n"
        assert cli_matrix(pair) == matrix_json(matrix) == text
        assert matrix_json(copy.copy(matrix)) == text
    leq, geq = ({id(v) for v in m.values()} for m in (matrix.leq, matrix.geq))
    assert leq and geq and not leq & geq


@pytest.fixture(scope="module")
def chain200():
    """The matrix of the chain e0 -> e1 -> ... -> e199, a sink: 40 MB of JSON."""
    carrier = [f"e{i}" for i in range(200)]
    table = {(e,): carrier[min(i + 1, 199)] for i, e in enumerate(carrier)}
    return similarity_matrix(self_pair(make_algebra("Chain", carrier, {"f": table})))


def test_matrix_is_written_a_row_at_a_time(chain200):
    """More than one piece, none longer than a row of cells plus the
    head or the tail."""
    pieces = []
    cli.write_matrix_json(chain200, pieces.append)
    text = "".join(pieces)
    assert text == cli.render_json(chain200.to_dict()) + "\n"
    # Each cell starts a line indented by four spaces; the lines inside a
    # cell are indented deeper, the head's and the tail's less.
    starts = [m.start() for m in re.finditer("\n    {", text)]
    head, tail = starts[0], len(text) - text.rindex("\n  ]")
    n = len(chain200.cols)
    starts.append(len(text) - tail)
    row = max(starts[i + n] - starts[i] for i in range(0, n * n, n))
    assert len(pieces) > 1
    assert max(map(len, pieces)) <= row + max(head, tail)


def test_matrix_writer_holds_little_of_the_report(chain200):
    """The report is never held whole: the peak of what the writer
    allocates stays under a quarter of the text it writes."""
    written = []
    cli.write_matrix_json(chain200, lambda piece: written.append(len(piece)))
    tracemalloc.start()
    try:
        cli.write_matrix_json(chain200, len)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sum(written) / 4


def test_shared_dict_at_two_depths():
    shared = {"holds": False, "certificate": {"kind": "k", "direction": ["A", "B"]}}
    payload = {
        "x": shared,
        "y": [shared, {"z": shared}, (1, -2, True, None)],
        "same": [shared, shared],
        "empty": [{}, [], ()],
        "n": 10**20,
    }
    assert_matches_dumps(payload)
    for scalar in ("s", 0, True, None, [], {}):
        assert_matches_dumps(scalar)


def test_unsupported_values_raise():
    with pytest.raises(TypeError):
        cli.render_json({"s": {1, 2}})
    with pytest.raises(TypeError):
        cli.render_json([{"ok": [set()]}])
    with pytest.raises(TypeError):
        cli.render_json({("a", "b"): 1})


def test_writer_leaves_nothing_for_the_cyclic_gc():
    """One call frees everything it builds on return."""
    matrix = similarity_matrix(self_pair(random_monounary_algebra(random.Random(3), 40)))
    payload = matrix.to_dict()
    gc.collect()
    gc.disable()
    try:
        cli.render_json(payload)
        assert gc.collect() == 0
        cli.write_matrix_json(matrix, len)
        assert gc.collect() == 0
    finally:
        gc.enable()


# Keys and strings built from the characters the writer must escape or
# keep: ``%`` format markers, quotes, backslashes, control and non-ASCII.
PIECES = ["a", "%", "%s", "%%", '"', "\\", "\n", "é", "\u2603", "\U0001f600"]
TEXT = st.lists(st.sampled_from(PIECES), max_size=4).map("".join)
SCALARS = st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40) | TEXT


def containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(TEXT | st.text(max_size=3), children, max_size=4)
    )


@st.composite
def payloads(draw):
    """Trees whose leaves may be the very same dict or list object, so
    one object sits at several depths and beside itself."""
    shared = draw(st.lists(st.recursive(SCALARS, containers, max_leaves=6), min_size=1, max_size=3))
    return draw(st.recursive(SCALARS | st.sampled_from(shared), containers, max_leaves=24))


@settings(max_examples=300, deadline=None)
@given(payloads())
def test_writer_matches_dumps_on_generated_payloads(payload):
    assert_matches_dumps(payload)


def test_same_shape_dicts_with_an_unsupported_value_raise():
    rows = [{"a": 1, "b": [2]} for _ in range(3)]
    assert_matches_dumps(rows)
    for bad in ({1: "x"}, {"x": 1, 2: "y"}, {3}, 1.5):
        with pytest.raises(TypeError):
            cli.render_json([*rows, {"a": 1, "b": bad}])
        with pytest.raises(TypeError):
            cli.render_json([*rows, {"a": bad, "b": [2]}])
    assert_matches_dumps(rows)



def test_runs_of_same_shape_dicts():
    """Lists of dicts with one tuple of keys, as a matrix's cells are, and
    every way a list can come close to that, read as ``json.dumps``
    writes them."""
    shared = {"holds": True, "fragment": "exact"}
    row = {"a": "x", "b": shared}
    seen = ["seen"]
    cases = [
        # values seen before in the payload, none of them or some
        [{"a": i, "b": str(i), "c": [i, None]} for i in range(5)],
        [[[seen]], [{"k": seen}, {"k": ["new"]}, {"k": seen}]],
        # one dict object repeated inside the run and also outside the list
        {"cells": [row, {"a": "y", "b": shared}, row], "row": row, "more": [[row]]},
        # two shapes that alternate
        [{"a": 1, "b": 2}, {"c": 3}, {"a": 4, "b": 5}, {"c": 6}],
        # the same keys in another order, or split over several dicts
        [{"a": 1, "b": 2}, {"b": 3, "a": 4}],
        [{"a": 1, "b": 2}, {"a": 3}, {"b": 4}, {"a": 5, "b": 6}],
        [{"a": 1}, {"a": 2, "b": 3}],
        # items that iterate like the keys but are not dicts
        [{"a": 1}, ["a"]],
        [{"a": 1}, "a"],
        # keys containing ``%`` format markers
        [{"%": "%s", "%s": "%%", "a%sb": "%(x)s"} for _ in range(3)],
        # runs of {}
        [{}, {}, {}],
        {"x": [{}], "y": [{}, {}], "z": [[{}, {}]], "w": [{}, {"a": 1}]},
    ]
    for payload in cases:
        assert_matches_dumps(payload)
