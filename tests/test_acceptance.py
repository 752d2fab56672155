"""Acceptance gate: one test per headline guarantee, one printed line each.

Every expected value here was computed by hand or by an independent oracle
before the engines existed; the tests compare engine output against those
frozen expectations.
"""

import random
from itertools import product

import pytest

from gensim import automata
from gensim.algebra import AlgebraPair, make_algebra, self_pair, validate_pair
from gensim.corpus import (
    load_fixture,
    load_merge_map,
    powerset_algebra,
    truncated_multiplication_algebra,
)
from gensim.general import SaturationCapError
from gensim.morphism import (
    LemmaReport,
    check_g_functor,
    check_second_isomorphism,
    is_homomorphism,
    random_monounary_algebra,
    verify_isomorphism_lemma,
)
from gensim.similarity import (
    GeneralEngine,
    LinearEngine,
    MonolinearEngine,
    QueryConfig,
    check_transitive,
    decide_leq,
    find_characteristic_set,
    similarity_matrix,
)
from gensim.terms import (
    App,
    Const,
    Var,
    range_of_term,
    render_term,
)
from oracles import enumerate_terms, lemma_violations, lifted_range, relabeled_copy


def report(number: int, description: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number:2d}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_chain_ordering():
    chain5 = load_fixture("chain5.alg")
    matrix = similarity_matrix(self_pair(chain5))
    rank = {"a": 0, "b": 1, "c": 2, "d": 2, "e": 2}
    ok = all(
        matrix.leq[(x, y)].holds == (rank[x] <= rank[y])
        and matrix.approx[(x, y)].holds == (rank[x] == rank[y])
        for x in chain5.carrier
        for y in chain5.carrier
    )
    report(1, "5-element chain orders as a < b < c ~ d ~ e (25 verdicts)", ok)


def test_criterion_02_chain_gen_languages():
    chain5 = load_fixture("chain5.alg")

    def expected_dfa(kind):
        # hand-built automata: {eps}, {eps, f}, f*
        if kind == "eps":
            return automata.GenDfa(("f",), 2, 0, frozenset({0}), ((1,), (1,)))
        if kind == "eps_f":
            return automata.GenDfa(
                ("f",), 3, 0, frozenset({0, 1}), ((1,), (2,), (2,))
            )
        return automata.GenDfa(("f",), 1, 0, frozenset({0}), ((0,),))

    expected = {"a": "eps", "b": "eps_f", "c": "star", "d": "star", "e": "star"}
    def same_language(x, y):
        return automata.dfa_subset(x, y)[0] and automata.dfa_subset(y, x)[0]

    ok = all(
        same_language(automata.gen_language(chain5, element), expected_dfa(kind))
        for element, kind in expected.items()
    )
    report(2, "chain languages are {eps}, {eps,f}, f*, f*, f*", ok)


def test_criterion_03_truncated_successor():
    nat = load_fixture("nat_sink7.alg")
    matrix = similarity_matrix(self_pair(nat))
    interior = [str(i) for i in range(5)]
    ok = all(
        matrix.leq[(x, y)].holds == (int(x) <= int(y))
        and matrix.approx[(x, y)].holds == (x == y)
        for x in interior
        for y in interior
    )
    report(3, "truncated successor: <= on interior 0..4, ~ iff equal", ok)


def test_criterion_04_reflexivity_failure():
    pair = validate_pair(load_fixture("chain4_a.alg"), load_fixture("chain4_b.alg"))
    verdict = decide_leq(pair, "1", "1")
    ok = (
        not verdict.holds
        and verdict.fragment_label == "exact"
        and verdict.certificate.kind == "dominating-element"
        and verdict.certificate.element == "0"
        and render_term(verdict.certificate.term) == "f(z1)"
    )
    report(4, "cross-pair 1 not<~ 1, dominated by 0, evidence f(z1)", ok)


def test_criterion_05_transitivity_failure():
    a = load_fixture("triple_a.alg")
    b = load_fixture("triple_b.alg")
    c = load_fixture("triple_c.alg")
    d = load_fixture("triple_d.alg")
    ab = decide_leq(validate_pair(a, b), "a", "b")
    bc = decide_leq(validate_pair(b, c), "b", "c")
    ac = decide_leq(validate_pair(a, c), "a", "c")
    combined = check_transitive(d, relation="approx")
    triple_mode = check_transitive((a, b, c), relation="leq")
    ok = (
        ab.holds
        and bc.holds
        and not ac.holds
        and ac.certificate.element == "cp"
        and ("a", "b", "c") in triple_mode.violations
        and ("a", "b", "c") in combined.violations
    )
    report(5, "a <~ b <~ c but a not<~ c, also inside the union algebra", ok)


def test_criterion_06_homomorphism_not_g_functor():
    emap = load_merge_map()
    g_verdict = check_g_functor(emap)
    back = decide_leq(validate_pair(emap.target, emap.source), "c", "a")
    ok = (
        is_homomorphism(emap)
        and not g_verdict.holds
        and g_verdict.certificate.element == "a"
        and not back.holds
        and back.certificate.kind == "dominating-element"
        and back.certificate.element == "b"
        and render_term(back.certificate.term) == "f(z1)"
    )
    report(6, "merge map is a homomorphism but not a g-functor", ok)


def test_criterion_07_isomorphism_properties():
    lemma_ok = functor_ok = 0
    for seed in range(100):
        rng = random.Random(seed)
        algebra = random_monounary_algebra(
            rng, rng.randint(1, 5), n_ops=rng.randint(1, 2)
        )
        emap = relabeled_copy(rng, algebra)
        lemma = verify_isomorphism_lemma(emap) == LemmaReport(emap, "isomorphism")
        if lemma and lemma_violations(emap) == []:
            lemma_ok += 1
        if check_g_functor(emap).holds:
            functor_ok += 1
    sit_ok = 0
    for seed in range(50):
        rng = random.Random(10_000 + seed)
        # disjoint carrier names on both sides: the competitor exclusion
        # keys on element names, so transport is only claimed for pairs
        # without cross-carrier name collisions
        left = random_monounary_algebra(rng, rng.randint(1, 4), name="L")
        right = relabeled_copy(
            rng, random_monounary_algebra(rng, rng.randint(1, 4), name="R"),
            prefix="s_",
        ).target
        f_map = relabeled_copy(rng, left, prefix="p_")
        g_map = relabeled_copy(rng, right, prefix="q_")
        if check_second_isomorphism(f_map, g_map).certified:
            sit_ok += 1
    ok = lemma_ok == 100 and functor_ok == 100 and sit_ok == 50
    report(7, "isomorphisms: lemma 100/100, g-functor 100/100, transport 50/50", ok)


def test_criterion_08_powerset_inclusion_law():
    algebra = powerset_algebra(("1", "2", "3"))
    pair = self_pair(algebra)
    engine = MonolinearEngine(pair)
    subsets = {e: set(e.replace("0", "")) for e in algebra.carrier}
    full = "123"
    ok = True
    for x in algebra.carrier:
        for y in algebra.carrier:
            verdict = decide_leq(pair, x, y, engine=engine)
            if x != full and verdict.holds != (subsets[x] <= subsets[y]):
                ok = False
            if x != full and y != full:
                approx = verdict.holds and decide_leq(pair, y, x, engine=engine).holds
                if approx != (x == y):
                    ok = False
            if x == full and len(subsets[y]) == 2 and not verdict.holds:
                ok = False
    report(8, "powerset at |U|=3: monolinear <~ is inclusion (64 pairs)", ok)


def test_criterion_09_divisibility_oracle():
    algebra = truncated_multiplication_algebra(12)
    terms = enumerate_terms(algebra.signature, 2, 1, "monolinear")
    # lifted ranges are exact on (mono)linear terms; validated elsewhere
    # against direct assignment enumeration
    ranges = {t: lifted_range(t, algebra) for t in terms}
    ok = True
    for k in range(1, 13):
        scaled = App("m", (Const(str(k)), Var(1)))
        if scaled not in ranges:
            ok = False
            continue
        for a in range(1, 13):
            if (str(a) in ranges[scaled]) != (a % k == 0):
                ok = False
    report(9, "k*z generalizes a in truncated (1..144,*) iff k | a", ok)


def _random_algebra_mixed(rng):
    size = rng.randint(2, 3)
    carrier = [f"e{i}" for i in range(size)]
    n_ops = rng.randint(1, 2)
    arities = [rng.choice([1, 2]) for _ in range(n_ops)]
    if arities.count(2) > 1:
        arities[1] = 1  # at most one binary op keeps the oracle affordable
    tables = {
        f"f{j}": {
            tuple(tup): rng.choice(carrier)
            for tup in product(carrier, repeat=ar)
        }
        for j, ar in enumerate(arities)
    }
    return make_algebra(
        "R", carrier, tables, arities={f"f{j}": a for j, a in enumerate(arities)}
    )


def _dfa_leq_verdicts(pair):
    """a <~ b for every (a, b), by inclusion of the automata for the
    shared generalization languages."""
    left = {e: automata.gen_language(pair.left, e) for e in pair.left.carrier}
    right = {e: automata.gen_language(pair.right, e) for e in pair.right.carrier}
    shared = {
        (a, b): automata.dfa_intersect(left[a], right[b])
        for a in pair.left.carrier
        for b in pair.right.carrier
    }
    verdicts = {}
    for a, b in shared:
        verdicts[(a, b)] = not any(
            automata.dfa_subset(shared[(a, b)], shared[(a, b_prime)])[0]
            and not automata.dfa_subset(shared[(a, b_prime)], shared[(a, b)])[0]
            for b_prime in pair.right.carrier
            if b_prime != b and not (b_prime == a and a in pair.right.carrier)
        )
    return verdicts


def test_criterion_10_cross_engine_coherence():
    # part 1: linear engine vs brute force on 200 seeded random algebras
    enum_cache = {}
    ok = True
    for seed in range(200):
        rng = random.Random(seed)
        algebra = _random_algebra_mixed(rng)
        pair = self_pair(algebra)
        linear = LinearEngine(pair)
        key = algebra.signature.operations
        if key not in enum_cache:
            enum_cache[key] = enumerate_terms(
                algebra.signature, 4, 5, "linear", max_size=10
            )
        terms = enum_cache[key]
        ranges = [lifted_range(t, algebra) for t in terms]
        # spot-validate the lifted oracle against assignment enumeration
        for t in terms[:: max(1, len(terms) // 10)]:
            if lifted_range(t, algebra) != range_of_term(t, algebra):
                ok = False
        for a in algebra.carrier:
            for b in algebra.carrier:
                gen_ab = {i for i, r in enumerate(ranges) if a in r and b in r}
                for b_prime in algebra.carrier:
                    if b_prime == b:
                        continue
                    gen_abp = {
                        i for i, r in enumerate(ranges) if a in r and b_prime in r
                    }
                    brute = gen_ab <= gen_abp
                    engine, witness = linear.subset(a, b, b_prime)
                    if engine != brute:
                        ok = False
                    if not engine:
                        rng_w = range_of_term(witness, algebra)
                        if not (a in rng_w and b in rng_w and b_prime not in rng_w):
                            ok = False

    # part 2: all engines, and DFA inclusion, agree on the unary fixtures
    unary_fixtures = [
        "chain5.alg", "chain4_a.alg", "chain4_b.alg", "nat_sink7.alg",
        "triple_a.alg", "triple_b.alg", "triple_c.alg", "triple_d.alg",
        "merge_src.alg", "merge_tgt.alg", "unary_fg.alg",
    ]
    for name in unary_fixtures:
        algebra = load_fixture(name)
        pair = self_pair(algebra)
        brute_terms = enumerate_terms(algebra.signature, 8, 1, "monolinear")
        brute_ranges = [range_of_term(t, algebra) for t in brute_terms]
        verdicts = {}
        for fragment in ("unary", "linear", "monolinear", "general"):
            config = QueryConfig(fragment=fragment, max_vars=1)
            verdicts[fragment] = {
                (a, b): decide_leq(pair, a, b, config).holds
                for a in algebra.carrier
                for b in algebra.carrier
            }
        verdicts["dfa"] = _dfa_leq_verdicts(pair)
        if not (
            verdicts["dfa"] == verdicts["unary"] == verdicts["linear"]
            == verdicts["monolinear"] == verdicts["general"]
        ):
            ok = False
        # brute-force verdicts from term enumeration (depth 8 covers all
        # distinct word images on carriers of at most 7 elements)
        for a in algebra.carrier:
            for b in algebra.carrier:
                brute_holds = True
                gen_ab = {
                    i for i, r in enumerate(brute_ranges) if a in r and b in r
                }
                for b_prime in algebra.carrier:
                    # competitor exclusion: skip b' = b and b' = a (self pair)
                    if b_prime in (b, a):
                        continue
                    gen_abp = {
                        i
                        for i, r in enumerate(brute_ranges)
                        if a in r and b_prime in r
                    }
                    if gen_ab <= gen_abp and not (gen_abp <= gen_ab):
                        brute_holds = False
                if verdicts["unary"][(a, b)] != brute_holds:
                    ok = False
    report(10, "cross-engine coherence: 200 random + unary fixture agreement", ok)


BIT = {"0": 0, "1": 1}


def _clone_is_small(table: str, k: int = 4, cap: int = 300) -> bool:
    """Bit-packed count of k-ary term functions on a 2-element algebra.

    Operations like implication or nand generate clones approaching 2^16
    functions per side (joint profile spaces near 2^32), which no
    enumeration can traverse; those tables are filtered out of the random
    sample below.
    """
    n_assign = 1 << k
    op = {(x, y): BIT[table[2 * x + y]] for x in (0, 1) for y in (0, 1)}

    def combine(a, b):
        out = 0
        for i in range(n_assign):
            if op[((a >> i) & 1, (b >> i) & 1)]:
                out |= 1 << i
        return out

    seen = set()
    for v in range(k):
        mask = 0
        for i in range(n_assign):
            if (i >> v) & 1:
                mask |= 1 << i
        seen.add(mask)
    frontier = list(seen)
    while frontier:
        new = []
        for f in frontier:
            for s in list(seen):
                for c in (combine(f, s), combine(s, f)):
                    if c not in seen:
                        seen.add(c)
                        new.append(c)
                        if len(seen) > cap:
                            return False
        frontier = new
    return True


def _random_two_element(table: str, name: str):
    rows = {
        ("0", "0"): table[0],
        ("0", "1"): table[1],
        ("1", "0"): table[2],
        ("1", "1"): table[3],
    }
    return make_algebra(name, ["0", "1"], {"m": rows})


def test_criterion_11_variable_collapse_bound():
    accepted = 0
    seed = 0
    ok = True
    sig_terms = None
    while accepted < 50 and seed < 500:
        rng = random.Random(3000 + seed)
        seed += 1
        table_a = "".join(rng.choice("01") for _ in range(4))
        table_b = "".join(rng.choice("01") for _ in range(4))
        if not (_clone_is_small(table_a) and _clone_is_small(table_b)):
            continue
        left = _random_two_element(table_a, "A")
        right = _random_two_element(table_b, "B")
        pair = AlgebraPair(left, right)
        try:
            general = GeneralEngine(pair, 4, 20_000)
        except SaturationCapError:
            continue
        if sig_terms is None:
            sig_terms = enumerate_terms(left.signature, 4, 5, "general", max_size=9)
        ranges_a = [range_of_term(t, left) for t in sig_terms]
        ranges_b = [range_of_term(t, right) for t in sig_terms]
        for a in left.carrier:
            for b in right.carrier:
                for b_prime in right.carrier:
                    if b_prime == b:
                        continue
                    brute = not any(
                        a in ranges_a[i]
                        and b in ranges_b[i]
                        and b_prime not in ranges_b[i]
                        for i in range(len(sig_terms))
                    )
                    engine, witness = general.subset(a, b, b_prime)
                    if engine != brute:
                        ok = False
                    if not engine:
                        rng_a = range_of_term(witness, left)
                        rng_b = range_of_term(witness, right)
                        if not (
                            a in rng_a and b in rng_b and b_prime not in rng_b
                        ):
                            ok = False
        accepted += 1
    ok = ok and accepted == 50
    report(11, "K=4 engine equals 5-variable depth-4 oracle on 50 pairs", ok)


def test_criterion_12_characteristic_set():
    pair = validate_pair(load_fixture("triple_b.alg"), load_fixture("triple_c.alg"))
    result = find_characteristic_set(pair, "b", "c")
    minimal_ok = result is not None and [render_term(t) for t in result] == ["g(z1)"]
    # the larger singleton g(f(z1)) is characteristic too: it reaches c and
    # excludes the only competitor cp
    deep = App("g", (App("f", (Var(1),)),))
    c_algebra = pair.right
    deep_range = range_of_term(deep, c_algebra)
    deep_ok = (
        "b" in range_of_term(deep, pair.left)
        and "c" in deep_range
        and "cp" not in deep_range
    )
    report(12, "characteristic set is the minimal singleton {g(z1)}", minimal_ok and deep_ok)
