"""The least-witness closure shared by the linear, monolinear and general
engines, and the bitmask index that answers subset and maximality queries
over its result.

Each engine explores a least family of profiles closed under lifted
operations, and keeps for each profile the first witness term that reaches
it in witness order.  A profile is a pair: what a term denotes in the left
algebra and in the right one (a range, a function or a value).  The loop is
semi-naive (Bancilhon & Ramakrishnan, 1986): when an item is accepted, only
the combinations that use it are lifted.  The new item sits at some
position j, older items fill the positions before j and any accepted item
fills those after j, so every combination containing the new item is built
exactly once.
"""

from __future__ import annotations

import heapq
from itertools import product
from typing import NamedTuple

from .algebra import AlgebraError
from .terms import Term


class Profile(NamedTuple):
    """What one term denotes in the left and in the right algebra, with
    the minimal witness term that denotes it."""

    left: object
    right: object
    witness: Term


class SaturationCapError(AlgebraError):
    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(
            f"profile saturation exceeded the cap of {cap} profiles; "
            "raise the cap, or lower K for the general engine"
        )


def least_witness_closure(seeds, rules, key, cap: int | None = None) -> list[Profile]:
    """The least family of profiles containing ``seeds`` and closed under
    ``rules``, in acceptance order.

    A rule is ``(arity, lift_left, lift_right, build)``: for a tuple of
    ``arity`` profiles, ``lift_left`` maps their left components to the left
    component of the result, ``lift_right`` likewise, and ``build`` maps
    their witnesses to its witness.  Candidates are popped in ``key``
    order, so the first witness of each profile is its minimal one.  Equal
    keys must mean identical terms, so that ties never decide a witness.  Raises
    ``SaturationCapError`` when more than ``cap`` profiles are accepted.
    """
    heap: list = []
    counter = 0
    accepted: set = set()
    items: list[Profile] = []

    def push(left, right, witness: Term):
        nonlocal counter
        heapq.heappush(heap, (key(witness), counter, left, right, witness))
        counter += 1

    for seed in seeds:
        push(*seed)
    while heap:
        _, _, left, right, witness = heapq.heappop(heap)
        if (left, right) in accepted:
            continue
        accepted.add((left, right))
        new = Profile(left, right, witness)
        older = list(items)
        items.append(new)
        if cap is not None and len(items) > cap:
            raise SaturationCapError(cap)
        for arity, lift_left, lift_right, build in rules:
            for j in range(arity):
                for parts in product(*[older] * j, (new,), *[items] * (arity - 1 - j)):
                    lefts, rights, witnesses = zip(*parts)
                    profile = (lift_left(lefts), lift_right(rights))
                    if profile not in accepted:
                        push(*profile, build(witnesses))
    return items


def _mask(ids: list[int]) -> int:
    """The int with bits ``ids`` set, built in one pass: OR-ing bits into a
    growing int one at a time would copy it once per bit."""
    buf = bytearray(ids[-1] // 8 + 1 if ids else 0)
    for i in ids:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


class RowIndex:
    """Bitmask index over ``(left, right, witness)`` rows in witness order.

    Row i is bit i: ``_left[a]`` holds the rows with ``a`` on the left and
    ``_right[b]`` those with ``b`` on the right, so the rows of Gen(a,b) are
    ``_left[a] & _right[b]`` and its first row in witness order is the
    lowest set bit.
    """

    def __init__(self, rows, right_carrier):
        self._witnesses: list[Term] = []
        left_rows: dict = {}
        right_rows: dict = {e: [] for e in right_carrier}
        for i, (left, right, witness) in enumerate(rows):
            self._witnesses.append(witness)
            for e in set(left):
                left_rows.setdefault(e, []).append(i)
            for e in set(right):
                right_rows[e].append(i)
        self._left = {e: _mask(ids) for e, ids in left_rows.items()}
        self._right = {e: _mask(ids) for e, ids in right_rows.items()}
        self._dominators: dict = {}

    def _first(self, mask: int) -> Term:
        return self._witnesses[(mask & -mask).bit_length() - 1]

    def _gen(self, a: str, b: str) -> int:
        """The rows of Gen(a,b)."""
        return self._left.get(a, 0) & self._right[b]

    def separator(self, a: str, b: str, b_prime: str) -> Term | None:
        """Witness of the first row in Gen(a,b) but not Gen(a,b'), or None:
        Gen(a,b) is then a subset of Gen(a,b')."""
        rest = self._gen(a, b) & ~self._right[b_prime]
        return self._first(rest) if rest else None

    def dominator(self, a: str, b: str) -> tuple[str, Term] | None:
        """The first competitor b' in right-carrier order whose Gen(a,b')
        strictly contains Gen(a,b), with the first row of the difference;
        None when Gen(a,b) is maximal.

        A competitor named ``a`` is skipped.  The answer is memoized per
        (a, Gen(a,b)): for a fixed ``a`` the competitors of different b
        differ only in b itself, which never strictly contains its own set.
        """
        mask = self._gen(a, b)
        key = (a, mask)
        if key not in self._dominators:
            found = None
            left = self._left.get(a, 0)
            for b_prime, right in self._right.items():
                other = left & right
                if other != mask and mask & ~other == 0 and b_prime != a:
                    found = (b_prime, self._first(other & ~mask))
                    break
            self._dominators[key] = found
        return self._dominators[key]
