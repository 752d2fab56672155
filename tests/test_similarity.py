import random

import pytest

from gensim import similarity
from gensim.algebra import (
    Algebra,
    AlgebraError,
    Signature,
    make_algebra,
    self_pair,
    validate_pair,
)
from gensim.corpus import powerset_algebra
from gensim.morphism import check_second_isomorphism, random_monounary_algebra
from gensim.similarity import (
    Engine,
    GeneralEngine,
    LinearEngine,
    MonolinearEngine,
    QueryConfig,
    build_engine,
    build_engines,
    check_reflexive,
    check_transitive,
    decide_algebra_approx,
    decide_algebra_leq,
    decide_approx,
    decide_leq,
    find_characteristic_set,
    similarity_matrix,
)
from gensim.terms import range_of_term, render_term
from gensim.verdict import Certificate, Verdict
from oracles import reference_characteristic_set, relabeled_copy
from test_decision import fixture_pairs, meet3, random_pair


def test_query_config_validation():
    with pytest.raises(AlgebraError, match="fragment"):
        QueryConfig(fragment="bogus")
    with pytest.raises(AlgebraError, match="positive"):
        QueryConfig(max_vars=0)


@pytest.mark.parametrize("fragment", ["auto", "unary", "linear", "monolinear", "general"])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_subset_rejects_unknown_element(chain5_pair, fragment, slot):
    engine = build_engine(chain5_pair, QueryConfig(fragment=fragment))
    names = ["b", "c", "d"]
    names[slot] = "nosuch"
    with pytest.raises(AlgebraError, match="nosuch"):
        engine.subset(*names)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("names,unknown", [
    (("x", "y", "w"), "x"),
    (("1", "y", "w"), "y"),
    (("1", "2", "w"), "w"),
])
def test_engine_names_the_first_unknown_element(chain4_pair, warm, names, unknown):
    """``Engine.subset`` checks a, then b, then b', and ``Engine.verdict``
    a, then b, whether or not the row of a is decided."""
    engine = build_engine(chain4_pair)
    if warm:
        engine.verdict("1", "0")
    side = chain4_pair.left if unknown == names[0] else chain4_pair.right
    message = f"element {unknown!r} not in carrier of {side.name!r}"
    calls = [lambda: engine.subset(*names)]
    if unknown != names[2]:
        calls.append(lambda: engine.verdict(*names[:2]))
    for call in calls:
        with pytest.raises(AlgebraError) as caught:
            call()
        assert str(caught.value) == message


@pytest.mark.parametrize("fragment", ["auto", "unary", "linear", "monolinear", "general"])
@pytest.mark.parametrize("side", ["a", "b"])
def test_decisions_reject_unknown_element(chain4_pair, fragment, side):
    """The name check lives in ``Engine.verdict``'s row lookups: an
    unknown name raises whether or not the engine's memo is warm."""
    config = QueryConfig(fragment=fragment)
    names = {"a": "1", "b": "2", side: "nosuch"}
    algebra = chain4_pair.left if side == "a" else chain4_pair.right
    message = f"element 'nosuch' not in carrier of {algebra.name!r}"
    engine, reverse = build_engines(chain4_pair, config)
    decide_leq(chain4_pair, "1", "2", engine=engine)  # warm the memo of "1"
    decisions = [
        lambda: decide_leq(chain4_pair, names["a"], names["b"], config),
        lambda: decide_leq(chain4_pair, names["a"], names["b"], engine=engine),
        lambda: decide_approx(chain4_pair, names["a"], names["b"], config),
        lambda: decide_approx(chain4_pair, names["a"], names["b"], None, engine, reverse),
        lambda: find_characteristic_set(chain4_pair, names["a"], names["b"], config=config),
    ]
    for decide in decisions:
        with pytest.raises(AlgebraError) as caught:
            decide()
        assert str(caught.value) == message


def test_build_engine_auto(chain5_pair, powerset3):
    # auto, unary and linear all build the linear engine
    for fragment in ("auto", "unary", "linear"):
        engine = build_engine(chain5_pair, QueryConfig(fragment=fragment))
        assert type(engine) is LinearEngine and engine.label == "exact"
    assert type(build_engine(self_pair(powerset3))) is LinearEngine
    assert isinstance(
        build_engine(chain5_pair, QueryConfig(fragment="monolinear")),
        MonolinearEngine,
    )
    assert isinstance(
        build_engine(chain5_pair, QueryConfig(fragment="general")), GeneralEngine
    )


def test_unary_engine_requires_unary(powerset3):
    from gensim.automata import NonUnaryError

    with pytest.raises(NonUnaryError, match="^the unary engine requires an all-unary signature$"):
        build_engine(self_pair(powerset3), QueryConfig(fragment="unary"))


def test_chain5_matrix(chain5, chain5_pair):
    rank = {"a": 0, "b": 1, "c": 2, "d": 2, "e": 2}
    matrix = similarity_matrix(chain5_pair)
    for x in chain5.carrier:
        for y in chain5.carrier:
            assert matrix.leq[(x, y)].holds == (rank[x] <= rank[y]), (x, y)
            assert matrix.approx[(x, y)].holds == (rank[x] == rank[y]), (x, y)
    assert matrix.leq[("a", "b")].fragment_label == "exact"


def test_leq_failure_certificate(chain5_pair):
    verdict = decide_leq(chain5_pair, "b", "a")
    assert not verdict.holds
    cert = verdict.certificate
    assert cert.kind == "dominating-element"
    # b's shared set with a is {z1}; any non-a competitor strictly beats it
    assert cert.element != "a"
    assert render_term(cert.term) == "f(z1)"


def test_approx_direction(chain4_pair):
    verdict = decide_approx(chain4_pair, "1", "1")
    assert not verdict.holds
    assert verdict.certificate.direction == ("ChainA", "ChainB")
    assert verdict.certificate.element == "0"
    assert render_term(verdict.certificate.term) == "f(z1)"


def test_cross_engine_agreement_on_fixture(chain4_pair):
    for fragment in ("unary", "linear", "monolinear", "general"):
        config = QueryConfig(fragment=fragment, max_vars=1)
        verdict = decide_leq(chain4_pair, "1", "1", config)
        assert not verdict.holds, fragment
        assert verdict.certificate.element == "0", fragment


def test_algebra_level_relations(chain5, chain4_a, chain4_b):
    assert decide_algebra_approx(self_pair(chain5)).holds
    # ChainA and ChainB swap 0 and 1: 0 ~~ 1 and 1 ~~ 0.
    pair = validate_pair(chain4_a, chain4_b)
    assert decide_algebra_leq(pair) == Verdict(True, None, "exact")
    assert decide_algebra_approx(pair) == Verdict(True, None, "exact")
    # Every Chain5 element has a partner in ChainA, but ChainA's 2 has none.
    pair = validate_pair(chain5, chain4_a)
    assert decide_algebra_leq(pair) == Verdict(True, None, "exact")
    cert = Certificate("missing-partner", element="2", direction=("ChainA", "Chain5"))
    assert decide_algebra_approx(pair) == Verdict(False, cert, "exact")


def partners_by_cell(pair, both_sides):
    """The algebra-level verdict spelled out from one ``decide_approx``
    call per cell: it fails at the first left element with no ``~~``
    partner, then (``both_sides``) at the first right element with none."""
    engine, reverse = build_engines(pair)
    cells = {
        (a, b): decide_approx(pair, a, b, engine=engine, reverse_engine=reverse)
        for a in pair.left.carrier
        for b in pair.right.carrier
    }
    (label,) = {v.fragment_label for v in cells.values()}
    for a in pair.left.carrier:
        if not any(cells[a, b].holds for b in pair.right.carrier):
            return Verdict(False, Certificate("missing-partner", element=a), label)
    if both_sides:
        for b in pair.right.carrier:
            if not any(cells[a, b].holds for a in pair.left.carrier):
                direction = (pair.right.name, pair.left.name)
                cert = Certificate("missing-partner", element=b, direction=direction)
                return Verdict(False, cert, label)
    return Verdict(True, None, label)


def test_algebra_level_relations_match_per_cell_decisions():
    pairs = fixture_pairs()
    for n_ops in (1, 2):
        for seed in range(6):
            left = random_monounary_algebra(random.Random(seed), 5, n_ops, name="L")
            right = random_monounary_algebra(random.Random(seed + 100), 5, n_ops, name="S")
            pairs += [validate_pair(left, right), validate_pair(right, left)]
    seen = set()
    for pair in pairs:
        names = (pair.left.name, pair.right.name)
        assert decide_algebra_leq(pair) == partners_by_cell(pair, both_sides=False), names
        approx = decide_algebra_approx(pair)
        assert approx == partners_by_cell(pair, both_sides=True), names
        cert = approx.certificate
        seen.add("holds" if cert is None else "right" if cert.direction else "left")
    # Each outcome occurs: holds, no partner for a left or a right element.
    assert seen == {"holds", "left", "right"}


def test_decide_approx_builds_the_reverse_engine_only_when_forward_holds(
    engine_builds, chain5, chain4_a, chain4_b
):
    cross = validate_pair(chain4_a, chain4_b)
    forward = similarity_matrix(cross).leq
    fails = next(cell for cell, verdict in forward.items() if not verdict.holds)
    holds = next(cell for cell, verdict in forward.items() if verdict.holds)
    closures, engines = engine_builds

    def made(pair, a, b):
        """The pairs of the closures and of the engines one decision makes."""
        closures.clear()
        engines.clear()
        decide_approx(pair, a, b)
        return [(p.left, p.right) for p in closures], [(p.left, p.right) for p in engines]

    # chain5: c ~~ d holds, a <~ b holds but b <~ a fails, b <~ a fails.
    for a, b in (("c", "d"), ("a", "b"), ("b", "a")):
        assert made(self_pair(chain5), a, b) == ([(chain5, chain5)], [(chain5, chain5)])
    one = [(chain4_a, chain4_b)]
    assert made(cross, *fails) == (one, one)
    # The reverse engine is the forward one's transpose, not a second closure.
    assert made(cross, *holds) == (one, one + [(chain4_b, chain4_a)])


@pytest.mark.parametrize("driver", [decide_algebra_approx, decide_algebra_leq, check_reflexive])
def test_drivers_build_one_engine_per_distinct_direction(
    engine_builds, driver, chain5, chain4_a, chain4_b
):
    closures, engines = engine_builds
    for pair, directions in ((self_pair(chain5), 1), (validate_pair(chain4_a, chain4_b), 2)):
        closures.clear()
        engines.clear()
        driver(pair)
        assert len(closures) == 1
        assert len(engines) == directions


def test_sit_and_triple_transitivity_run_one_closure_per_pair(
    engine_builds, chain4_a, chain4_b, chain5
):
    closures, engines = engine_builds
    f_map = relabeled_copy(random.Random(0), chain4_a, "f_")
    g_map = relabeled_copy(random.Random(1), chain4_b, "g_")
    closures.clear()
    check_second_isomorphism(f_map, g_map)
    assert [(p.left, p.right) for p in closures] == [
        (chain4_a, chain4_b), (f_map.target, g_map.target)
    ]
    closures.clear()
    check_transitive((chain4_a, chain4_b, chain5))
    assert [(p.left, p.right) for p in closures] == [
        (chain4_a, chain4_b), (chain4_b, chain5), (chain4_a, chain5)
    ]
    closures.clear()
    check_transitive(chain5)
    assert len(closures) == 1


def test_matrix_text_render(chain5_pair):
    text = similarity_matrix(chain5_pair).render_text()
    assert "~~" in text and "<~" in text
    assert text.splitlines()[0].split() == ["a", "b", "c", "d", "e"]


def test_characteristic_set_singleton(triple_b, triple_c):
    pair = validate_pair(triple_b, triple_c)
    result = find_characteristic_set(pair, "b", "c")
    assert result is not None
    assert [render_term(t) for t in result] == ["g(z1)"]


def test_characteristic_set_needs_two_terms(chain5):
    # single algebra: pin down c among {a,b,d,e}; depth alone cannot separate
    # c from d and e, so no characteristic set exists in the linear fragment
    pair = self_pair(chain5)
    assert find_characteristic_set(pair, "c", "c", max_size=3) is None


def test_characteristic_set_respects_exclusion(chain5):
    # pinning b against competitors {c,d,e} only: a is excluded as b' = a?
    # no: a is the left element here, so exclusion drops a from competitors
    pair = self_pair(chain5)
    result = find_characteristic_set(pair, "a", "b", max_size=3)
    # Gen(a,b) = {z1}; every element lies in ran(z1), so nothing pins b down
    assert result is None


def test_characteristic_set_bounds(triple_b, triple_c):
    pair = validate_pair(triple_b, triple_c)
    for max_size in (0, -1):
        with pytest.raises(AlgebraError, match="max_size must be >= 1"):
            find_characteristic_set(pair, "b", "c", max_size)
    # the engine comes from the config only
    with pytest.raises(TypeError, match="engine"):
        find_characteristic_set(pair, "b", "c", engine=None)


def test_dominated_characteristic_set_tries_no_combination(chain4_pair, triple_b, triple_c, monkeypatch):
    """0 dominates 1 <~ 1, so it lies in the cut of every candidate: no set
    of any size pins 1 down, and no combination is tried."""
    calls = []
    combinations = similarity.combinations

    def counted(*args):
        calls.append(args)
        return combinations(*args)

    monkeypatch.setattr(similarity, "combinations", counted)
    assert decide_leq(chain4_pair, "1", "1").certificate.element == "0"
    assert find_characteristic_set(chain4_pair, "1", "1", max_size=5) is None
    assert calls == []
    assert find_characteristic_set(validate_pair(triple_b, triple_c), "b", "c")
    assert calls


def test_characteristic_set_with_constants():
    algebra = make_algebra(
        "K", ["x", "y"], {"f": {"x": "y", "y": "y"}}, constants=["x"]
    )
    pair = self_pair(algebra)
    result = find_characteristic_set(pair, "x", "x")
    assert result is not None
    assert [render_term(t) for t in result] == ["x"]


def random_binary_algebra(seed, n=3):
    rng = random.Random(seed)
    carrier = [f"e{i}" for i in range(n)]
    table = {(x, y): rng.choice(carrier) for x in carrier for y in carrier}
    return make_algebra(f"Bin{seed}", carrier, {"o": table})


def three_term_pair():
    """Gen(a,b) is z1 and each f_i(z1), whose right range leaves out c_i
    alone: b is pinned down by the three f_i(z1) together."""
    ops = ["f1", "f2", "f3"]
    left = make_algebra("Three", ["a", "p1", "p2", "p3", "q"], {
        f: {x: "a" if x == f"p{f[1]}" else "q" for x in ["a", "p1", "p2", "p3", "q"]} for f in ops
    })
    right = make_algebra("Pin", ["b", "c1", "c2", "c3"], {
        f: {x: "b" if x == f"c{f[1]}" else x for x in ["b", "c1", "c2", "c3"]} for f in ops
    })
    return validate_pair(left, right)


def charset_pairs():
    yield from fixture_pairs()
    yield three_term_pair()
    for seed in range(3):
        yield random_pair(1, 6, seed, False)
        yield random_pair(1, 6, seed, True)
        left = random_binary_algebra(seed)
        yield self_pair(left)
        yield validate_pair(left, random_binary_algebra(seed + 100))


def test_characteristic_set_matches_reference():
    """Each size's least set by (total size, sorted spellings), the first
    least one on a tie, as the hand-kept loop of the reference finds it."""
    sizes = set()
    for pair in charset_pairs():
        for a in pair.left.carrier:
            for b in pair.right.carrier:
                for max_size in (1, 2, 3):
                    result = find_characteristic_set(pair, a, b, max_size)
                    assert result == reference_characteristic_set(pair, a, b, max_size), (pair.left.name, a, b)
                    sizes.add(result and len(result))
    assert sizes == {None, 1, 2, 3}


def test_reflexivity_report(chain4_pair, chain5_pair):
    report = check_reflexive(chain4_pair)
    assert not report.reflexive
    failing = {(e, d) for e, d, _ in report.violations}
    assert ("1", ("ChainA", "ChainB")) in failing
    assert check_reflexive(chain5_pair).reflexive


def test_transitivity_single_algebra(chain5, triple_d):
    assert check_transitive(chain5).transitive
    report = check_transitive(triple_d, relation="approx")
    assert not report.transitive
    assert ("a", "b", "c") in report.violations
    leq_report = check_transitive(triple_d, relation="leq")
    assert ("a", "b", "c") in leq_report.violations


def test_transitivity_triple_mode(triple_a, triple_b, triple_c):
    report = check_transitive((triple_a, triple_b, triple_c), relation="leq")
    assert not report.transitive
    assert ("a", "b", "c") in report.violations
    assert report.details == {"algebras": ["TripleA", "TripleB", "TripleC"]}


def test_transitivity_rejects_unknown_relation(chain5):
    with pytest.raises(AlgebraError, match="relation"):
        check_transitive(chain5, relation="eq")


def test_verdict_to_dict(chain4_pair):
    verdict = decide_leq(chain4_pair, "1", "1")
    payload = verdict.to_dict()
    assert payload["holds"] is False
    assert payload["fragment"] == "exact"
    assert payload["certificate"]["term"] == "f(z1)"


def with_constants(algebra, constants):
    signature = Signature(algebra.signature.operations, tuple(constants))
    return Algebra(algebra.name, algebra.carrier, signature, algebra.tables)


def assert_evidence(verdict, a, b, left, right):
    """A failing a <~ b: the evidence generalizes a and the dominating
    element, and not b (checked by the range oracle)."""
    term, b_prime = verdict.certificate.term, verdict.certificate.element
    assert a in range_of_term(term, left)
    assert b_prime in range_of_term(term, right)
    assert b not in range_of_term(term, right)


@pytest.mark.parametrize("fragment", ["auto", "linear", "monolinear", "general"])
def test_constants_declared_in_another_order(fragment):
    """Each direction ranks the constants in its left algebra's order, so
    only the backward evidence may be spelled differently."""
    config = QueryConfig(fragment=fragment, max_vars=1)
    seeds = range(1, 4) if fragment in ("monolinear", "general") else range(8)
    for seed in seeds:
        left = with_constants(random_monounary_algebra(random.Random(seed), 8, 2), ("e3", "e0"))
        right = random_monounary_algebra(random.Random(seed + 100), 8, 2, name="S")
        expected = similarity_matrix(
            validate_pair(left, with_constants(right, ("e3", "e0"))), config
        )
        pair = validate_pair(left, with_constants(right, ("e0", "e3")))
        got = similarity_matrix(pair, config)
        for a, b in expected.leq:
            assert got.leq[(a, b)] == expected.leq[(a, b)]
            for relation in ("geq", "approx"):
                want, have = getattr(expected, relation)[(a, b)], getattr(got, relation)[(a, b)]
                assert have.holds == want.holds
                if not want.holds:
                    assert have.certificate.element == want.certificate.element
                    assert have.certificate.direction == want.certificate.direction
            if not got.leq[(a, b)].holds:
                assert_evidence(got.leq[(a, b)], a, b, pair.left, pair.right)
            if not got.geq[(a, b)].holds:
                assert_evidence(got.geq[(a, b)], b, a, pair.right, pair.left)


def outcome(verdict):
    """Everything a verdict says, its evidence spelled out."""
    cert = verdict.certificate
    if cert is None:
        return verdict.holds, verdict.fragment_label
    return (verdict.holds, verdict.fragment_label, cert.kind, cert.element,
            render_term(cert.term), cert.direction)


def assert_matrix_matches_one_off(pair, config, sample=None):
    """Each cell (all of them, or ``sample`` of them) equals a one-off
    decision on a fresh engine: the same rows, nothing memoized."""
    matrix = similarity_matrix(pair, config)
    engine, reverse = build_engines(pair, config)

    def fresh(e):
        return Engine(e.pair, e.label, e.classes())

    cells = sorted(matrix.leq)
    if sample is not None:
        cells = random.Random(0).sample(cells, sample)
    for a, b in cells:
        leq = decide_leq(pair, a, b, engine=fresh(engine))
        geq = decide_leq(pair.swapped(), b, a, engine=fresh(reverse))
        approx = decide_approx(pair, a, b, engine=fresh(engine), reverse_engine=fresh(reverse))
        assert outcome(matrix.leq[(a, b)]) == outcome(leq), (a, b)
        assert outcome(matrix.geq[(a, b)]) == outcome(geq), (a, b)
        assert outcome(matrix.approx[(a, b)]) == outcome(approx), (a, b)


@pytest.mark.parametrize("fragment", ["linear", "monolinear", "general"])
def test_matrix_matches_one_off_on_fixtures(fragment):
    config = QueryConfig(fragment=fragment, max_vars=1)
    for pair in fixture_pairs():
        assert_matrix_matches_one_off(pair, config)
    p3 = powerset_algebra(("1", "2", "3"))
    config = QueryConfig(fragment=fragment, max_vars=2)
    for pair in (self_pair(p3), validate_pair(p3, meet3()), validate_pair(meet3(), p3)):
        assert_matrix_matches_one_off(pair, config)


@pytest.mark.parametrize("cross", [False, True])
def test_matrix_matches_one_off_on_random_pairs(cross):
    assert_matrix_matches_one_off(random_pair(1, 40, 0, cross), QueryConfig())
    # The linear rows of 2-op n = 40 cross pairs exceed the default cap,
    # and a self pair has thousands: those take n = 12, or a sample.
    if cross:
        assert_matrix_matches_one_off(random_pair(2, 12, 0, cross), QueryConfig())
    else:
        assert_matrix_matches_one_off(random_pair(2, 40, 2, cross), QueryConfig(), sample=40)


def assert_one_object_per_outcome(verdicts):
    verdicts = list(verdicts)
    assert len({id(v) for v in verdicts}) == len({outcome(v) for v in verdicts})


@pytest.mark.parametrize("cross", [False, True])
@pytest.mark.parametrize("n_ops,size", [(1, 40), (2, 12)])
def test_one_verdict_object_per_outcome(cross, n_ops, size):
    pair = random_pair(n_ops, size, 1, cross)
    engine = build_engine(pair)
    verdicts = [
        decide_leq(pair, a, b, engine=engine)
        for a in pair.left.carrier
        for b in pair.right.carrier
    ]
    assert len({outcome(v) for v in verdicts}) > 1
    assert_one_object_per_outcome(verdicts)
    matrix = similarity_matrix(pair)
    for relation in (matrix.leq, matrix.geq, matrix.approx):
        assert_one_object_per_outcome(relation.values())
    if not cross:
        # one engine decides both directions of a self pair
        assert_one_object_per_outcome([*matrix.leq.values(), *matrix.geq.values()])


@pytest.mark.parametrize("n_ops,size,cross", [(1, 40, False), (1, 40, True), (2, 12, True)])
def test_each_verdict_built_once(monkeypatch, n_ops, size, cross):
    """``similarity_matrix`` builds a verdict or a certificate only for an
    object it hands out: at most the distinct verdicts of the three maps,
    and one holding verdict per engine."""
    built = {Verdict: 0, Certificate: 0}
    for cls in built:
        def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    for seed in range(2):
        built.update(dict.fromkeys(built, 0))
        matrix = similarity_matrix(random_pair(n_ops, size, seed, cross))
        cells = [*matrix.leq.values(), *matrix.geq.values(), *matrix.approx.values()]
        distinct = {id(v): v for v in cells}.values()
        assert built[Verdict] <= len(distinct) + (2 if cross else 1)
        assert built[Certificate] <= sum(v.certificate is not None for v in distinct)
