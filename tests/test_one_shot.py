"""One-shot queries: ``decide_leq`` and ``decide_approx`` called without an
engine stop their closure once a row has separated every competitor.

Each cell must read as ``Engine.verdict`` reads it over the full closure:
the same holds bit and label, and for a failing cell the same dominating
element, evidence term and direction.  The closures that stop early are
counted, so the test fails when the early exit is switched off.
"""

import random

import pytest

from gensim import similarity
from gensim.algebra import self_pair, validate_pair
from gensim.closure import SaturationCapError
from gensim.corpus import powerset_algebra, truncated_multiplication_algebra
from gensim.similarity import QueryConfig, build_engines, decide_approx, decide_leq
from gensim.terms import render_term

from test_closure import meet_algebra, random_algebra
from test_decision import fixture_pairs

# A fragment runs on a pair when its full closure stays under this cap.
SMALL = 3000

UNARY_CONFIGS = [QueryConfig("linear"), QueryConfig("monolinear"), QueryConfig("general", 1)]
BINARY_CONFIGS = [QueryConfig("linear"), QueryConfig("monolinear"), QueryConfig("general", 2)]


def _random_pairs():
    pairs = []
    for ops in (1, 2, 3):
        for constants in ((), ("e0",)):
            for seed in range(1):
                arities = (1,) * ops
                left = random_algebra(seed, 6, arities, "A", constants)
                right = random_algebra(seed + 100, 6, arities, "B", constants)
                pairs += [self_pair(left), validate_pair(left, right)]
    return pairs


P3, M3 = powerset_algebra(tuple("123")), meet_algebra(tuple("123"))
P4, M4 = powerset_algebra(tuple("1234")), meet_algebra(tuple("1234"))
# (pair, configs, the size of a seeded sample of its cells, or None for all)
GROUPS = {
    "fixtures": [(pair, UNARY_CONFIGS, None) for pair in fixture_pairs()],
    "non-unary": [
        (self_pair(P3), BINARY_CONFIGS, None),
        (validate_pair(P3, M3), BINARY_CONFIGS, None),
        (validate_pair(P4, M4), BINARY_CONFIGS, 12),
        (self_pair(truncated_multiplication_algebra(3)), BINARY_CONFIGS, 40),
    ],
    "random-unary": [(pair, UNARY_CONFIGS, None) for pair in _random_pairs()],
}
# The cells per group, and the least number of them whose closure stopped
# early (a stopped closure has fewer rows than the full one): 363, 248 and
# 824 when written; with b' = a admitted as a competitor, 249, 184 and 528.
MINIMA = {"fixtures": (2556, 345), "non-unary": (1080, 236), "random-unary": (2448, 780)}


def shown(verdict):
    cert = verdict.certificate
    if cert is None:
        return verdict.holds, verdict.fragment_label
    return (verdict.holds, verdict.fragment_label, cert.kind, cert.element,
            render_term(cert.term), cert.direction)


@pytest.fixture
def one_shot_rows(monkeypatch):
    """The row count of each engine built with a stop predicate."""
    counts = []
    build = similarity.build_engine

    def recording(pair, config=None, stop=None):
        engine = build(pair, config, stop)
        if stop is not None:
            counts.append(len(engine.classes()))
        return engine

    monkeypatch.setattr(similarity, "build_engine", recording)
    return counts


@pytest.mark.parametrize("group", list(GROUPS))
def test_one_shot_queries_read_as_the_full_engine(group, one_shot_rows):
    cells = early = 0
    for pair, configs, sample in GROUPS[group]:
        grid = [(a, b) for a in pair.left.carrier for b in pair.right.carrier]
        if sample is not None:
            grid = random.Random(0).sample(grid, sample)
        for config in configs:
            try:
                engine, reverse = build_engines(pair, QueryConfig(config.fragment, config.max_vars, SMALL))
            except SaturationCapError:
                continue
            for a, b in grid:
                leq = decide_leq(pair, a, b, config)
                approx = decide_approx(pair, a, b, config)
                assert shown(leq) == shown(engine.verdict(a, b)), (pair, config, a, b)
                want = decide_approx(pair, a, b, config, engine, reverse)
                assert shown(approx) == shown(want), (pair, config, a, b)
                cells += 2
                early += sum(rows < len(engine.classes()) for rows in one_shot_rows[-2:])
    want_cells, lowest_early = MINIMA[group]
    assert cells == want_cells and early >= lowest_early, (cells, early)
