import random

import pytest

from gensim import morphism, similarity
from gensim.algebra import make_algebra, validate_pair
from gensim.corpus import load_fixture
from gensim.morphism import (
    ConstantPreservationError,
    ElementMap,
    MapError,
    check_g_functor,
    check_second_isomorphism,
    is_homomorphism,
    is_isomorphism,
    parse_map,
    random_monounary_algebra,
    relabeled_copy,
    render_map,
    verify_isomorphism_lemma,
)
from gensim.similarity import QueryConfig, decide_approx
from gensim.terms import render_term


def identity_map(algebra):
    return ElementMap("id", algebra, algebra, {e: e for e in algebra.carrier})


def test_parse_map_round_trip(merge_map, merge_src, merge_tgt):
    text = render_map(merge_map)
    again = parse_map(text, {"MergeSrc": merge_src, "MergeTgt": merge_tgt})
    assert again.table == merge_map.table
    assert again.source is merge_src and again.target is merge_tgt


def test_parse_map_errors(merge_src, merge_tgt):
    algebras = {"MergeSrc": merge_src, "MergeTgt": merge_tgt}
    from gensim.algebra import AlgebraParseError

    with pytest.raises(AlgebraParseError, match="unknown source"):
        parse_map("map F : Nope -> MergeTgt\n  a -> c\n", algebras)
    with pytest.raises(AlgebraParseError, match="duplicate image"):
        parse_map(
            "map F : MergeSrc -> MergeTgt\n  a -> c\n  a -> c\n  b -> c\n", algebras
        )
    with pytest.raises(MapError, match="no image"):
        parse_map("map F : MergeSrc -> MergeTgt\n  a -> c\n", algebras)


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
    assert verify_isomorphism_lemma(ident).certified
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
    report = verify_isomorphism_lemma(emap)
    assert report.certified
    assert report.method == "dfa-equivalence"
    assert check_g_functor(emap).holds


def test_lemma_requires_isomorphism(merge_map):
    with pytest.raises(MapError, match="isomorphism"):
        verify_isomorphism_lemma(merge_map)


def test_lemma_on_binary_signature(powerset3):
    report = verify_isomorphism_lemma(identity_map(powerset3))
    assert report.certified
    assert report.method == "linear-profile-renaming"


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
def test_g_functor_builds_two_engines(monkeypatch, merge_map, fragment):
    config = QueryConfig(fragment=fragment)
    algebra = random_monounary_algebra(random.Random(0), 40, 1)
    maps = [merge_map, relabeled_copy(random.Random(1), algebra)]
    for seed in range(3):
        rng = random.Random(seed)
        table = {e: rng.choice(algebra.carrier) for e in algebra.carrier}
        maps.append(ElementMap(f"m{seed}", algebra, algebra, table))
    builds = []
    build_engine = similarity.build_engine

    def counted(pair, config=None):
        builds.append(pair)
        return build_engine(pair, config)

    for emap in maps:
        failing, expected = g_functor_by_element(emap, config)
        builds.clear()
        for module in (morphism, similarity):
            monkeypatch.setattr(module, "build_engine", counted)
        verdict = check_g_functor(emap, config)
        monkeypatch.undo()
        assert len(builds) == 2
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
