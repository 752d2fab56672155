import random
import time

import pytest

from gensim import linear
from gensim.algebra import (
    AlgebraError,
    AlgebraParseError,
    SignatureMismatchError,
    make_algebra,
    validate_pair,
)
from gensim.corpus import load_fixture
from gensim.morphism import (
    ConstantPreservationError,
    ElementMap,
    LemmaReport,
    MapError,
    check_g_functor,
    check_second_isomorphism,
    is_homomorphism,
    is_isomorphism,
    parse_map,
    random_monounary_algebra,
    verify_isomorphism_lemma,
)
from gensim.similarity import QueryConfig, decide_approx
from gensim.terms import render_term
from oracles import lemma_violations, relabeled_copy, render_map


def identity_map(algebra):
    return ElementMap("id", algebra, algebra, {e: e for e in algebra.carrier})


def test_parse_map_round_trip(merge_map, merge_src, merge_tgt):
    text = render_map(merge_map)
    again = parse_map(text, {"MergeSrc": merge_src, "MergeTgt": merge_tgt})
    assert again.table == merge_map.table
    assert again.source is merge_src and again.target is merge_tgt


def test_parse_map_ignores_comments_and_blank_lines(merge_src, merge_tgt):
    algebras = {"MergeSrc": merge_src, "MergeTgt": merge_tgt}
    plain = parse_map("map F : MergeSrc -> MergeTgt\n  a -> c\n  b -> c\n", algebras)
    commented = parse_map(
        "# header comment\n\nmap F : MergeSrc -> MergeTgt  # inline\n"
        "   \n  a -> c # first\n\n# between\n  b -> c\n",
        algebras,
    )
    assert commented == plain


def test_parse_map_errors(merge_src, merge_tgt):
    algebras = {"MergeSrc": merge_src, "MergeTgt": merge_tgt}
    with pytest.raises(AlgebraParseError, match="unknown source"):
        parse_map("map F : Nope -> MergeTgt\n  a -> c\n", algebras)
    with pytest.raises(AlgebraParseError, match="duplicate image"):
        parse_map(
            "map F : MergeSrc -> MergeTgt\n  a -> c\n  a -> c\n  b -> c\n", algebras
        )
    with pytest.raises(MapError, match="no image"):
        parse_map("map F : MergeSrc -> MergeTgt\n  a -> c\n", algebras)


HEADER = "map F : MergeSrc -> MergeTgt\n"


@pytest.mark.parametrize("text, message", [
    (HEADER + HEADER + "  a -> c\n  b -> c\n", "line 2: duplicate 'map' header"),
    ("map F MergeSrc -> MergeTgt\n  a -> c\n",
     "line 1: expected 'map <name> : <source> -> <target>'"),
    ("map F : MergeSrc -> Nope\n  a -> c\n", "line 1: unknown target algebra 'Nope'"),
    ("  a -> c\n" + HEADER + "  b -> c\n", "line 1: map row before 'map' header"),
    ("# no header\n", "missing 'map' header"),
], ids=["header-twice", "header-malformed", "target-unknown", "row-first", "header-missing"])
def test_parse_map_header_faults(merge_src, merge_tgt, text, message):
    with pytest.raises(AlgebraParseError) as exc:
        parse_map(text, {"MergeSrc": merge_src, "MergeTgt": merge_tgt})
    assert (exc.type, str(exc.value)) == (AlgebraParseError, message)


def test_element_map_faults(merge_src, merge_tgt, chain5):
    cases = [
        ((merge_src, merge_tgt, {"a": "c", "b": "c", "w": "c"}),
         MapError, "map 'F': unknown source element 'w'"),
        ((merge_src, merge_tgt, {"a": "c", "b": "w"}),
         MapError, "map 'F': image 'w' not in target carrier"),
        ((merge_src, make_algebra("G", ["c"], {"g": {"c": "c"}}), {"a": "c", "b": "c"}),
         SignatureMismatchError, "operation 'f' present in only one algebra"),
    ]
    for args, error, message in cases:
        with pytest.raises(error) as exc:
            ElementMap("F", *args)
        assert (exc.type, str(exc.value)) == (error, message)
    with pytest.raises(MapError) as exc:
        identity_map(chain5)("w")
    assert (exc.type, str(exc.value)) == (MapError, "map 'id': no image for 'w'")


def test_random_algebra_needs_elements_and_operations():
    for size, n_ops in ((0, 1), (1, 0)):
        with pytest.raises(AlgebraError) as exc:
            random_monounary_algebra(random.Random(0), size, n_ops)
        assert (exc.type, str(exc.value)) == (AlgebraError, "size and op count must be positive")


def test_map_rows_use_the_table_row_grammar():
    # A row is split at the arrow before its image, as a unary table row.
    algebra = make_algebra("A->B", ["a->b", "map"], {"f": {"a->b": "map", "map": "a->b"}})
    emap = parse_map("map F : A->B -> A->B\n  a->b -> map\n  map -> a->b\n", {"A->B": algebra})
    assert emap.table == {"a->b": "map", "map": "a->b"}
    for row in ("a->b, map -> map", "(a->b) -> map", "a->b) -> map", "-> map"):
        with pytest.raises(AlgebraParseError, match=r"^line 3: malformed map row"):
            parse_map(f"map F : A->B -> A->B\n  map -> map\n  {row}\n", {"A->B": algebra})


@pytest.mark.parametrize("header, name, source", [
    ("map m:n : A -> A", "m:n", "A"),
    ("map m:n\t:\tA -> A", "m:n", "A"),
    ("map F: A -> A", "F", "A"),
    ("map F:A -> A", "F", "A"),
    ("map F : A:B -> A", "F", "A:B"),
    ("map F: A:B -> A", "F", "A:B"),
    ("map m:n : A:B -> A", "m:n", "A:B"),
])
def test_map_header_colon(header, name, source):
    # The header splits at a ':' with whitespace on both sides, else at its
    # first ':'.
    algebras = {n: make_algebra(n, ["x"], {"f": {"x": "x"}}) for n in ("A", "A:B")}
    emap = parse_map(f"{header}\n  x -> x\n", algebras)
    assert (emap.name, emap.source.name, emap.target.name) == (name, source, "A")


def test_map_rejects_moved_constant():
    algebra = make_algebra(
        "K", ["x", "y"], {"f": {"x": "y", "y": "y"}}, constants=["x"]
    )
    with pytest.raises(ConstantPreservationError):
        ElementMap("bad", algebra, algebra, {"x": "y", "y": "y"})


def test_merge_map_is_homomorphism_not_iso(merge_map):
    assert is_homomorphism(merge_map)
    assert not is_isomorphism(merge_map)


def test_identity_is_isomorphism(chain5):
    ident = identity_map(chain5)
    assert is_isomorphism(ident)
    assert verify_isomorphism_lemma(ident) == LemmaReport(ident, "isomorphism")
    assert check_g_functor(ident).holds


def test_swap_two_chain_elements_breaks_hom(chain5):
    # swapping c and d breaks the f-edges
    table = {e: e for e in chain5.carrier}
    table["c"], table["d"] = "d", "c"
    swap = ElementMap("swap", chain5, chain5, table)
    assert swap.is_bijective()
    assert not is_homomorphism(swap)
    assert not is_isomorphism(swap)


def test_bijective_non_commuting_map(chain4_a, chain4_b):
    ident_names = ElementMap(
        "names", chain4_a, chain4_b, {e: e for e in chain4_a.carrier}
    )
    assert ident_names.is_bijective()
    assert not is_homomorphism(ident_names)


def test_relabeled_copy_is_isomorphism(chain5):
    rng = random.Random(7)
    emap = relabeled_copy(rng, chain5)
    assert set(emap.target.carrier).isdisjoint(chain5.carrier)
    assert is_isomorphism(emap)
    assert verify_isomorphism_lemma(emap) == LemmaReport(emap, "isomorphism")
    assert lemma_violations(emap) == []
    assert check_g_functor(emap).holds


def test_lemma_requires_isomorphism(merge_map):
    with pytest.raises(MapError, match="isomorphism"):
        verify_isomorphism_lemma(merge_map)


def test_lemma_on_binary_signature(powerset3):
    emap = identity_map(powerset3)
    assert verify_isomorphism_lemma(emap) == LemmaReport(emap, "isomorphism")
    assert lemma_violations(emap) == []


FIXTURES = [
    "chain5.alg", "chain4_a.alg", "chain4_b.alg", "nat_sink7.alg",
    "triple_a.alg", "triple_b.alg", "triple_c.alg", "triple_d.alg",
    "merge_src.alg", "merge_tgt.alg", "unary_fg.alg",
]


def lemma_maps(powerset3):
    yield identity_map(powerset3)
    for name in FIXTURES:
        algebra = load_fixture(name)
        yield identity_map(algebra)
        yield relabeled_copy(random.Random(name), algebra)
    for seed in range(30):
        rng = random.Random(seed)
        algebra = random_monounary_algebra(rng, rng.randint(1, 6), rng.randint(1, 3))
        yield relabeled_copy(rng, algebra)
    # f(c) is a ground term of b: it must count on both sides
    swap = make_algebra("Swap", ["a", "b", "d"], {"f": {"a": "b", "b": "a", "d": "d"}},
                        constants=["a"])
    yield identity_map(swap)


def test_lemma_certifies_isomorphisms(powerset3):
    for emap in lemma_maps(powerset3):
        assert verify_isomorphism_lemma(emap) == LemmaReport(emap, "isomorphism"), emap.name
        assert lemma_violations(emap) == [], emap.name


def test_lemma_builds_no_closure(monkeypatch, chain5):
    # At the cap of 200,000 range pairs, the linear closure of this pair
    # ran out after about 11 s; the isomorphism alone settles the lemma.
    algebra = random_monounary_algebra(random.Random(0), 60, 2)
    maps = [identity_map(chain5), relabeled_copy(random.Random(0), algebra)]

    def refuse(*args, **kwargs):
        raise AssertionError("the lemma built a closure")

    monkeypatch.setattr(linear, "least_witness_closure", refuse)
    for emap in maps:
        start = time.perf_counter()
        report = verify_isomorphism_lemma(emap)
        assert time.perf_counter() - start < 1
        assert report == LemmaReport(emap, "isomorphism")


def test_lemma_flags_a_bijection_that_is_no_homomorphism(chain5):
    # a and b swapped: f(z1), with range {b, c, d, e}, generalizes b but
    # not its image a, and not a but its image b
    table = {e: e for e in chain5.carrier}
    table["a"], table["b"] = "b", "a"
    swap = ElementMap("swap", chain5, chain5, table)
    assert lemma_violations(swap) == ["a", "b"]


def test_merge_map_is_not_g_functor(merge_map):
    verdict = check_g_functor(merge_map)
    assert not verdict.holds
    assert verdict.certificate.kind == "failing-element"
    assert verdict.certificate.element == "a"
    # the failure is in the reverse direction: c is dominated by b
    assert verdict.certificate.direction == ("MergeTgt", "MergeSrc")
    assert render_term(verdict.certificate.term) == "f(z1)"


def g_functor_by_element(emap, config):
    """(failing element, verdict) from one ``decide_approx`` per element,
    each building its own engines."""
    pair = validate_pair(emap.source, emap.target)
    for a in emap.source.carrier:
        verdict = decide_approx(pair, a, emap(a), config)
        if not verdict.holds:
            return a, verdict
    return None, verdict


@pytest.mark.parametrize("fragment", ["auto", "monolinear"])
def test_g_functor_builds_two_engines(engine_builds, merge_map, fragment):
    config = QueryConfig(fragment=fragment)
    algebra = random_monounary_algebra(random.Random(0), 40, 1)
    maps = [merge_map, relabeled_copy(random.Random(1), algebra)]
    for seed in range(3):
        rng = random.Random(seed)
        table = {e: rng.choice(algebra.carrier) for e in algebra.carrier}
        maps.append(ElementMap(f"m{seed}", algebra, algebra, table))
    # One closure per pair, and one engine per direction: the reverse is
    # the transpose; a self map's pair needs one engine in all.
    closures, engines = engine_builds
    for emap in maps:
        failing, expected = g_functor_by_element(emap, config)
        closures.clear()
        engines.clear()
        verdict = check_g_functor(emap, config)
        assert len(closures) == 1
        assert len(engines) == (1 if emap.source is emap.target else 2)
        assert verdict.holds == expected.holds
        assert verdict.fragment_label == expected.fragment_label
        if failing is not None:
            cert, want = verdict.certificate, expected.certificate
            assert (cert.element, cert.term, cert.direction) == (
                failing, want.term, want.direction
            )


def test_second_isomorphism_on_renamings(chain5):
    rng = random.Random(11)
    f_map = relabeled_copy(rng, chain5, prefix="p_")
    g_map = relabeled_copy(rng, chain5, prefix="q_")
    report = check_second_isomorphism(f_map, g_map)
    assert report.certified
    assert report.pairs_checked == 25


def test_second_isomorphism_triple_fixture(triple_a, triple_b):
    rng = random.Random(3)
    f_map = relabeled_copy(rng, triple_a, prefix="p_")
    g_map = relabeled_copy(rng, triple_b, prefix="q_")
    report = check_second_isomorphism(f_map, g_map)
    assert report.certified


def test_second_isomorphism_requires_isos(merge_map):
    with pytest.raises(MapError, match="isomorphism"):
        check_second_isomorphism(merge_map, merge_map)


def test_random_monounary_generator_shapes():
    rng = random.Random(0)
    algebra = random_monounary_algebra(rng, 5, n_ops=2)
    assert len(algebra.carrier) == 5
    assert algebra.signature.operations == (("f0", 1), ("f1", 1))
    # determinism under the same seed
    again = random_monounary_algebra(random.Random(0), 5, n_ops=2)
    assert again == algebra
