"""Linear-fragment engine: reachable simultaneous range-set pairs.

Every linear term (no repeated variables) has a range computable by
set-lifted bottom-up evaluation, so the ranges of all linear terms over a
pair of algebras are exactly the least family of subset pairs closed under
the lifted operations.  The family is finite (it lives in 2^A x 2^B), and
each pair keeps a minimal witness term.  For unary signatures every term is
linear, so this engine is exact for the full term language there.
"""

from __future__ import annotations

from itertools import product

from .algebra import Algebra, AlgebraPair
from .closure import Profile, least_witness_closure
from .terms import (
    App,
    Const,
    Term,
    Var,
    render_term,
    shift_variables,
    term_variables,
    witness_key,
)


class ProfileFamily:
    """The closed family of reachable range pairs for one algebra pair."""

    def __init__(self, pair: AlgebraPair, profiles: list[Profile]):
        self.pair = pair
        self.profiles = profiles  # range pairs, sorted by witness order

    def __len__(self) -> int:
        return len(self.profiles)

    def __iter__(self):
        return iter(self.profiles)


def lifted_range(term: Term, algebra: Algebra) -> frozenset[str]:
    """Set-lifted bottom-up range; exact for linear terms."""
    if isinstance(term, Var):
        return frozenset(algebra.carrier)
    if isinstance(term, Const):
        algebra.require_element(term.name)
        return frozenset({term.name})
    return _range_lift(algebra, term.op)([lifted_range(a, algebra) for a in term.args])


def _range_lift(algebra: Algebra, sym: str):
    table = algebra.tables[sym]
    return lambda sets: frozenset(table[combo] for combo in product(*sets))


def _linear_app(sym: str):
    def build(witnesses):
        # Each witness is canonical and linear, so shifting them onto
        # disjoint variables, left to right, keeps the result canonical.
        args = []
        offset = 0
        for witness in witnesses:
            args.append(shift_variables(witness, offset))
            offset += len(term_variables(witness))
        return App(sym, tuple(args))

    return build


def reachable_profiles(pair: AlgebraPair) -> ProfileFamily:
    """Least closed family of range pairs, minimal witness per pair.

    Explored in witness order (depth, size, spelling with variables last),
    so the first witness reaching a range pair is kept.  Terminates because
    profiles live in 2^A x 2^B.
    """
    sig = pair.left.signature
    seeds = [(frozenset(pair.left.carrier), frozenset(pair.right.carrier), Var(1))]
    seeds += [(frozenset({c}), frozenset({c}), Const(c)) for c in sig.constant_symbols]
    rules = [
        (arity, _range_lift(pair.left, sym), _range_lift(pair.right, sym), _linear_app(sym))
        for sym, arity in sig.operations
    ]
    items = least_witness_closure(seeds, rules, lambda t: witness_key(t, sig))
    return ProfileFamily(pair, items)


def linear_gen_member(family: ProfileFamily, a: str, b: str) -> bool:
    """True iff some linear term generalizes a on the left and b on the right."""
    family.pair.left.require_element(a)
    family.pair.right.require_element(b)
    return any(a in p.left and b in p.right for p in family)


def dump_profiles(family: ProfileFamily) -> str:
    """Debug dump, one line per profile in witness order."""
    left_order = {e: i for i, e in enumerate(family.pair.left.carrier)}
    right_order = {e: i for i, e in enumerate(family.pair.right.carrier)}
    lines = []
    for p in family:
        ls = ",".join(sorted(p.left, key=left_order.get))
        rs = ",".join(sorted(p.right, key=right_order.get))
        lines.append(f"{{{ls}}} | {{{rs}}} | witness: {render_term(p.witness)}")
    return "\n".join(lines) + "\n"
