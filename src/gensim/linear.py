"""Linear-fragment engine: reachable simultaneous range-set pairs.

Every linear term (no repeated variables) has a range computable by
set-lifted bottom-up evaluation, so the ranges of all linear terms over a
pair of algebras are exactly the least family of subset pairs closed under
the lifted operations.  The family is finite (it lives in 2^A x 2^B), and
each pair keeps a minimal witness term.  For unary signatures every term is
linear, so this engine is exact for the full term language there.
"""

from __future__ import annotations

from itertools import chain, product
from operator import itemgetter

from .algebra import Algebra, AlgebraPair
from .closure import Profile, least_witness_closure, operation_rules
from .terms import Const, Var, witness_key


def _range_lift(algebra: Algebra, sym: str, arity: int):
    table, n = algebra.indexed(sym), len(algebra.carrier)
    if arity != 2:
        return lambda sets: frozenset(map(table.__getitem__, product(*sets)))
    # A binary lift reads the right range out of each left element's row.
    flat = [*table.values()]
    rows = [flat[x * n:x * n + n] for x in range(n)]

    def lift(sets):
        left, right = sets
        if len(right) < 2:  # itemgetter of one key returns no tuple
            return frozenset([table[x, y] for x in left for y in right])
        return frozenset(chain.from_iterable(map(itemgetter(*right), map(rows.__getitem__, left))))

    return lift


def reachable_profiles(pair: AlgebraPair, cap: int | None = None, stop=None) -> list[Profile]:
    """Least closed family of range pairs, minimal witness per pair: each
    range a frozenset of carrier indices.

    Explored in witness order (depth, size, spelling with variables last),
    so the first witness reaching a range pair is kept.  Terminates because
    profiles live in 2^A x 2^B; raises ``SaturationCapError`` when more than
    ``cap`` range pairs are accepted.
    """
    sig = pair.left.signature
    left, right = pair.left, pair.right
    seeds = [(frozenset(range(len(left.carrier))), frozenset(range(len(right.carrier))), Var(1))]
    seeds += [(frozenset({left.index(c)}), frozenset({right.index(c)}), Const(c))
              for c in sig.constant_symbols]
    rules = operation_rules(pair, _range_lift, linear=True)
    return least_witness_closure(seeds, rules, lambda t: witness_key(t, sig), cap, stop=stop)
