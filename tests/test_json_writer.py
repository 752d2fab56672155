"""The CLI's JSON writer against ``json.dumps(payload, indent=2)``.

Every JSON report of the CLI goes through ``cli.render_json``.  The
reference is ``json.dumps(payload, indent=2)``, the encoder the reports
were written with before; the writer must give the same bytes on every
payload, shared dicts included.
"""

import gc
import json
import random
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from gensim import cli, verdict
from gensim.algebra import Algebra, Signature, render_algebra, self_pair, validate_pair
from gensim.morphism import random_monounary_algebra
from gensim.similarity import QueryConfig, similarity_matrix
from gensim.terms import render_term
from oracles import relabeled_copy, render_map

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


@pytest.fixture
def recorded(monkeypatch, capsys):
    """Run the CLI, check each payload it wrote against json.dumps and
    the printed text against what the writer returned."""
    calls = []
    writer = cli.render_json

    def recording(payload):
        text = writer(payload)
        calls.append((payload, text))
        return text

    monkeypatch.setattr(cli, "render_json", recording)

    def run(*argv):
        calls.clear()
        code = cli.main([*argv, "--format", "json"])
        out = capsys.readouterr().out
        assert code in (0, 1), argv
        assert len(calls) == 1, argv
        payload, text = calls[0]
        assert text == json.dumps(payload, indent=2), argv
        assert out == text + "\n", argv
        return payload

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


@pytest.mark.parametrize("seed", range(3))
def test_random_one_op_matrices(seed):
    left = random_monounary_algebra(random.Random(seed), 40, 1)
    right = random_monounary_algebra(random.Random(seed + 100), 40, 1)
    for pair in (self_pair(left), validate_pair(left, right)):
        payload = matrix_payload(similarity_matrix(pair))
        assert_matches_dumps(payload)
        # one dict per distinct verdict, shared by the cells that repeat it
        verdicts = [cell[k] for cell in payload["cells"] for k in ("leq", "geq", "approx")]
        assert len({id(v) for v in verdicts}) == len({json.dumps(v) for v in verdicts})


def test_matrix_report_renders_each_evidence_term_once(monkeypatch):
    # A failing <~ verdict and its ~~ restatement share one term.
    rendered = []
    monkeypatch.setattr(verdict, "render_term", lambda term: rendered.append(term) or render_term(term))
    left = random_monounary_algebra(random.Random(0), 40, 1)
    right = random_monounary_algebra(random.Random(100), 40, 1)
    matrix = similarity_matrix(validate_pair(left, right))
    matrix.to_dict()
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
def test_two_op_cross_pairs_with_constants(fragment):
    for seed in range(5):
        left = with_constants(random_monounary_algebra(random.Random(seed), 8, 2), ("e0", "e3"))
        right = with_constants(
            random_monounary_algebra(random.Random(seed + 100), 8, 2, name="S"), ("e0", "e3")
        )
        matrix = similarity_matrix(validate_pair(left, right), QueryConfig(fragment=fragment))
        assert_matches_dumps(matrix_payload(matrix))


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
    """One call frees its pieces and its memo on return."""
    payload = similarity_matrix(self_pair(random_monounary_algebra(random.Random(3), 40))).to_dict()
    gc.collect()
    gc.disable()
    try:
        cli.render_json(payload)
        assert gc.collect() == 0
    finally:
        gc.enable()


# Keys and strings built from the characters the writer must escape or
# keep: template markers, quotes, backslashes, control and non-ASCII.
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
    """A list of dicts that all have one tuple of keys is written with one
    template fill; every way a list can come close to that must still
    read as ``json.dumps`` writes it."""
    shared = {"holds": True, "fragment": "exact"}
    row = {"a": "x", "b": shared}
    seen = ["seen"]
    cases = [
        # values that miss the memo, all of them or some
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
        # keys containing template markers
        [{"%": "%s", "%s": "%%", "a%sb": "%(x)s"} for _ in range(3)],
        # runs of {}
        [{}, {}, {}],
        {"x": [{}], "y": [{}, {}], "z": [[{}, {}]], "w": [{}, {"a": 1}]},
    ]
    for payload in cases:
        assert_matches_dumps(payload)
