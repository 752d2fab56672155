"""General engine: saturation over K-variable function profiles.

A term over variables z1..zK induces a function A^K -> A on the left and
B^K -> B on the right.  The reachable pairs of such functions are the least
set containing the projections and constants, closed componentwise under
the operations.  Verdicts computed on the K-variable fragment are exact for
all terms once K reaches |A| * |B|: a separating term can always have
variables identified down to that many, because identifying variables only
shrinks ranges and therefore preserves a separator.  That bound is derived
here, not quoted, and the test suite validates it against the brute-force
oracle before it is relied on.
"""

from __future__ import annotations

from functools import partial
from itertools import product

from .algebra import Algebra, AlgebraError, AlgebraPair
from .closure import Profile, SaturationCapError, least_witness_closure  # noqa: F401 (re-export)
from .terms import (
    Term,
    App,
    Const,
    Var,
    enumerate_terms,
    is_generalization,
    range_of_term,
    witness_key,
    GENERAL,
)
from .verdict import EXACT, exact_for_vars


def exactness_label(pair: AlgebraPair, k: int) -> str:
    if k >= len(pair.left.carrier) * len(pair.right.carrier):
        return EXACT
    return exact_for_vars(k)


def _function_lift(algebra: Algebra, sym: str):
    """Lift ``sym`` pointwise over value-index tuples."""
    index = algebra.index
    table = {
        tuple(index(x) for x in tup): index(out)
        for tup, out in algebra.tables[sym].items()
    }
    return lambda functions: tuple(table[args] for args in zip(*functions))


def saturate_profiles(pair: AlgebraPair, k: int, cap: int = 200_000) -> list[Profile]:
    """Least closed set of K-variable function pairs, minimal witnesses.

    Each side of a profile holds one value index per assignment over A^K
    (left) or B^K (right).

    The theoretical profile space is doubly exponential, so feasibility is
    enforced as a runtime cap on the number of accepted profiles rather
    than a priori.  A K for which |A|^K or |B|^K exceeds the cap is
    refused before the assignments are listed.
    """
    if k < 1:
        raise AlgebraError("K must be >= 1")
    left_alg, right_alg = pair.left, pair.right
    for algebra in (left_alg, right_alg):
        if len(algebra.carrier) ** k > cap:
            raise SaturationCapError(cap, (
                f"K = {k} needs {len(algebra.carrier)}^{k} assignments over "
                f"{algebra.name!r}, more than the cap of {cap}; "
                "lower K (--max-vars) or raise --cap"
            ))
    sig = left_alg.signature
    left_assignments = list(product(range(len(left_alg.carrier)), repeat=k))
    right_assignments = list(product(range(len(right_alg.carrier)), repeat=k))

    # zip(*assignments) lists the K projections.
    projections = zip(zip(*left_assignments), zip(*right_assignments))
    seeds = [(left, right, Var(i + 1)) for i, (left, right) in enumerate(projections)]
    for c in sig.constant_symbols:
        li = left_alg.index(c)
        ri = right_alg.index(c)
        seeds.append(((li,) * len(left_assignments), (ri,) * len(right_assignments), Const(c)))
    rules = [
        (arity, _function_lift(left_alg, sym), _function_lift(right_alg, sym), partial(App, sym))
        for sym, arity in sig.operations
    ]
    return least_witness_closure(seeds, rules, lambda t: witness_key(t, sig), cap)


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
