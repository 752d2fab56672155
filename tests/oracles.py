"""Brute-force oracles for the engines, straight from the definitions:
enumerate the terms within bounds and evaluate each one."""

from __future__ import annotations

from gensim.algebra import Algebra, AlgebraPair
from gensim.terms import GENERAL, Term, enumerate_terms, is_generalization, range_of_term


def brute_force_gen(
    algebra: Algebra,
    a: str,
    max_depth: int,
    max_vars: int,
    fragment: str = GENERAL,
    cap: int = 1_000_000,
    max_size: int | None = None,
) -> list[Term]:
    """Direct-definition oracle: enumerate terms, keep the generalizations."""
    algebra.require_element(a)
    terms = enumerate_terms(
        algebra.signature, max_depth, max_vars, fragment, cap=cap, max_size=max_size
    )
    return [t for t in terms if is_generalization(t, algebra, a)]


def brute_force_subset(
    pair: AlgebraPair,
    a: str,
    b: str,
    b_prime: str,
    max_depth: int,
    max_vars: int,
    fragment: str = GENERAL,
    cap: int = 1_000_000,
    max_size: int | None = None,
) -> tuple[bool, Term | None]:
    """Oracle-level subset verdict over the enumerated term family."""
    pair.left.require_element(a)
    pair.right.require_element(b)
    pair.right.require_element(b_prime)
    terms = enumerate_terms(
        pair.left.signature, max_depth, max_vars, fragment, cap=cap, max_size=max_size
    )
    for t in terms:
        left_range = range_of_term(t, pair.left)
        if a not in left_range:
            continue
        right_range = range_of_term(t, pair.right)
        if b in right_range and b_prime not in right_range:
            return False, t
    return True, None
