"""General engine: saturation over K-variable function profiles.

A term over variables z1..zK induces a function A^K -> A on the left and
B^K -> B on the right.  The reachable pairs of such functions are the least
set containing the projections and constants, closed componentwise under
the operations.  Verdicts computed on the K-variable fragment are exact for
all terms once K reaches |A| * |B|: a separating term can always have
variables identified down to that many, because identifying variables only
shrinks ranges and therefore preserves a separator.  That bound is derived
here, not quoted, and the test suite validates it against the brute-force
oracle (``tests/oracles.py``) before it is relied on.
"""

from __future__ import annotations

from itertools import product

from .algebra import Algebra, AlgebraError, AlgebraPair
from .closure import DEFAULT_CAP, Profile, SaturationCapError, least_witness_closure, side_lifts
from .terms import Const, Var, app_key, witness_key
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
    return lambda functions: tuple(map(table.__getitem__, zip(*functions)))


def saturate_profiles(pair: AlgebraPair, k: int, cap: int = DEFAULT_CAP) -> list[Profile]:
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
        (arity, *side_lifts(pair, lambda algebra: _function_lift(algebra, sym)),
         *app_key(sym, sig))
        for sym, arity in sig.operations
    ]
    return least_witness_closure(seeds, rules, lambda t: witness_key(t, sig), cap)

