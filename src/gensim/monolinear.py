"""Monolinear fragment: the clone of unary polynomial functions.

A monolinear term has exactly one occurrence of a single variable; its
other argument positions are filled with ground terms over the
distinguished constants.  Each such term induces a unary function on the
carrier, and the set of those functions is the least set containing the
identity and closed under plugging into any operation position with
ground-denotable values in the remaining positions.

Sharing across an algebra pair is term-level, not table-level, so the pair
engine saturates pairs of simultaneously realizable tables, mirroring the
linear engine's profile pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product

from .algebra import Algebra, AlgebraPair, self_pair
from .closure import Profile, RowIndex, least_witness_closure
from .terms import App, Const, Term, Var, render_term, witness_key
from .verdict import (
    Certificate,
    DOMINATING_ELEMENT,
    MONOLINEAR_FRAGMENT,
    Verdict,
)


@dataclass(frozen=True)
class UnaryPolynomial:
    table: tuple[str, ...]  # indexed by carrier order
    witness: Term


def paired_ground_values(pair: AlgebraPair) -> list[Profile]:
    """Simultaneously realizable ground values over the pair, each with a
    minimal ground witness."""
    sig = pair.left.signature
    seeds = [(c, c, Const(c)) for c in sig.constant_symbols]
    left, right = pair.left.tables, pair.right.tables
    rules = [
        (arity, left[sym].__getitem__, right[sym].__getitem__, partial(App, sym))
        for sym, arity in sig.operations
    ]
    return least_witness_closure(seeds, rules, lambda t: witness_key(t, sig))


def ground_value_terms(algebra: Algebra) -> list[tuple[str, Term]]:
    """Values of ground terms over the distinguished constants, each with a
    minimal ground witness; this is the subalgebra the constants generate."""
    return [(value, term) for value, _, term in paired_ground_values(self_pair(algebra))]


def _plug_lift(algebra: Algebra, sym: str, position: int, fillers: tuple[str, ...]):
    """Plug a table into ``sym`` at ``position``, fillers elsewhere."""
    table = algebra.tables[sym]
    before, after = fillers[:position], fillers[position:]
    return lambda tables: tuple(table[before + (x,) + after] for x in tables[0])


def _plug_app(sym: str, position: int, filler_terms: tuple[Term, ...]):
    before, after = filler_terms[:position], filler_terms[position:]
    return lambda witnesses: App(sym, before + witnesses + after)


def paired_clone(pair: AlgebraPair, cap: int | None = None) -> list[Profile]:
    """Pairs of unary tables realizable by one shared monolinear term.

    Each table pair is lifted alone, over every choice of ground fillers
    for the other argument positions.  Raises ``SaturationCapError`` when
    more than ``cap`` table pairs are accepted."""
    sig = pair.left.signature
    grounds = paired_ground_values(pair)
    rules = []
    for sym, arity in sig.operations:
        for fillers in product(grounds, repeat=arity - 1):
            lefts, rights, terms = zip(*fillers) if fillers else ((), (), ())
            for position in range(arity):
                rules.append((
                    1,
                    _plug_lift(pair.left, sym, position, lefts),
                    _plug_lift(pair.right, sym, position, rights),
                    _plug_app(sym, position, terms),
                ))
    seeds = [(pair.left.carrier, pair.right.carrier, Var(1))]
    return least_witness_closure(seeds, rules, lambda t: witness_key(t, sig), cap)


def polynomial_clone(algebra: Algebra) -> list[UnaryPolynomial]:
    """All unary functions induced by monolinear terms, minimal witnesses."""
    return [UnaryPolynomial(p.left, p.witness) for p in paired_clone(self_pair(algebra))]


def m_decide_leq(
    pair: AlgebraPair, a: str, b: str, clone_pairs: list[Profile] | None = None
) -> Verdict:
    """Maximality of the shared monolinear generalizations of (a, b).

    Fails iff some admissible competitor b' realizes a strict superset; the
    competitor b' = a is excluded when a names an element of the right
    carrier.
    """
    pair.left.require_element(a)
    pair.right.require_element(b)
    if clone_pairs is None:
        clone_pairs = paired_clone(pair)
    found = RowIndex(clone_pairs, pair.right.carrier).dominator(a, b)
    if found is None:
        return Verdict(True, None, MONOLINEAR_FRAGMENT)
    b_prime, evidence = found
    return Verdict(
        False,
        Certificate(DOMINATING_ELEMENT, element=b_prime, term=evidence),
        MONOLINEAR_FRAGMENT,
    )


def dump_clone(clone: list[UnaryPolynomial], algebra: Algebra) -> str:
    """Clone report, one line per polynomial."""
    lines = []
    for p in clone:
        mapping = ", ".join(f"{x}->{y}" for x, y in zip(algebra.carrier, p.table))
        lines.append(f"[{mapping}]  witness: {render_term(p.witness)}")
    return "\n".join(lines) + "\n"
