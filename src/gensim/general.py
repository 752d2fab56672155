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

from functools import cache, partial
from itertools import product

from .algebra import Algebra, AlgebraError, AlgebraPair
from .closure import DEFAULT_CAP, Profile, SaturationCapError, least_witness_closure, operation_rules
from .terms import Const, Var, witness_key
from .verdict import EXACT, exact_for_vars


def exactness_label(pair: AlgebraPair, k: int) -> str:
    if k >= len(pair.left.carrier) * len(pair.right.carrier):
        return EXACT
    return exact_for_vars(k)


def _function_lift(algebra: Algebra, sym: str, arity: int):
    """Lift ``sym`` pointwise over profile sides, ``bytes`` over n <= 256
    elements: a unary ``sym`` is a ``translate``, a binary one for n <= 48
    translates the row indices f * n + g, in the byte lanes of one big int
    per part of 256 // n rows (past 10 parts a lookup per assignment wins).
    Other lifts look up each assignment's index tuple; over n > 256 a side
    is a tuple."""
    n, index = len(algebra.carrier), algebra.index
    table = {tuple(map(index, tup)): index(out) for tup, out in algebra.tables[sym].items()}
    if n > 256 or arity > 2 or arity == 2 and n > 48:
        collect = bytes if n <= 256 else tuple
        return lambda functions: collect(map(table.__getitem__, zip(*functions)))
    if arity == 1:
        image = bytes(table[x,] for x in range(n)) + bytes(256 - n)
        return lambda functions: functions[0].translate(image)
    number = partial(int.from_bytes, byteorder="little")
    # An accepted side meets up to 2n - 1 lifts: read it once.
    read = cache(number)
    if n <= 16:
        flat = bytes(table[x, y] for x in range(n) for y in range(n)) + bytes(256 - n * n)

        def lift(functions):
            return (read(functions[0]) * n + read(functions[1])).to_bytes(
                len(functions[0]), "little").translate(flat)

        def row(f, others):
            """``lift((f, g))`` for each g in ``others``, f read once."""
            f_rows, size = read(f) * n, len(f)
            return [(f_rows + read(g)).to_bytes(size, "little").translate(flat) for g in others]

        lift.row = row
        return lift

    # Rows x in [start, start + 256 // n): (x - start) * n + y < 256, so no
    # lane carries; f's lanes outside the part are masked off.
    parts = []
    for start in range(0, n, 256 // n):
        inside = range(start, min(start + 256 // n, n))
        rows = bytes(table[x, y] for x in inside for y in range(n))
        parts.append((bytes(x - start if x in inside else 0 for x in range(256)),
                      bytes(255 * (x in inside) for x in range(256)), rows + bytes(256 - len(rows))))

    @cache
    def split(f):
        return [(number(f.translate(shift)) * n, number(f.translate(mask)), rows)
                for shift, mask, rows in parts]

    def lift(functions):
        f, g = functions
        g, size = read(g), len(f)
        out = 0
        for f_rows, mask, rows in split(f):
            out |= mask & number((f_rows + g).to_bytes(size, "little").translate(rows))
        return out.to_bytes(size, "little")

    return lift


def saturate_profiles(pair: AlgebraPair, k: int, cap: int | None = DEFAULT_CAP, stop=None) -> list[Profile]:
    """Least closed set of K-variable function pairs, minimal witnesses.

    Each side of a profile holds one value index per assignment over A^K
    (left) or B^K (right): ``bytes``, or a tuple over more than 256
    elements.

    The theoretical profile space is doubly exponential, so feasibility is
    enforced as a runtime cap on the number of accepted profiles rather
    than a priori.  A K for which |A|^K or |B|^K exceeds the cap is
    refused before its assignments are listed; ``cap=None`` sets no cap.
    """
    if k < 1:
        raise AlgebraError("K must be >= 1")
    sig = pair.left.signature
    sides = []
    for algebra in (pair.left, pair.right):
        n = len(algebra.carrier)
        if cap is not None and n ** k > cap:
            raise SaturationCapError(cap, (
                f"K = {k} needs {n}^{k} assignments over {algebra.name!r}, "
                f"more than the cap of {cap}; lower K (--max-vars) or raise --cap"
            ))
        collect = bytes if n <= 256 else tuple
        # zip(*assignments) lists the K projections.
        sides.append([collect(p) for p in zip(*product(range(n), repeat=k))] + [
            collect((algebra.index(c),) * n ** k) for c in sig.constant_symbols])
    witnesses = [Var(i + 1) for i in range(k)] + [Const(c) for c in sig.constant_symbols]
    seeds = list(zip(*sides, witnesses))
    rules = operation_rules(pair, _function_lift)
    return least_witness_closure(seeds, rules, lambda t: witness_key(t, sig), cap, stop=stop)
