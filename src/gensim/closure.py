"""The least-witness closure shared by the linear, monolinear and general
engines.

Each engine explores a least family of profiles closed under lifted
operations, and keeps for each profile the first witness term that reaches
it in witness order.  A profile is a pair: what a term denotes in the left
algebra and in the right one (a range, a function or a value).  The loop is
semi-naive (Bancilhon & Ramakrishnan, 1986): when an item is accepted, only
the combinations that use it are lifted.  The new item sits at some
position j, older items fill the positions before j and any accepted item
fills those after j, so every combination containing the new item is built
exactly once.

The linear and monolinear profiles are range pairs; the general engine
projects its function pairs to range pairs.  ``similarity.Engine`` indexes
those rows for subset and maximality queries.
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
    def __init__(self, cap: int, message: str | None = None):
        self.cap = cap
        super().__init__(message or (
            f"profile saturation exceeded the cap of {cap} profiles; "
            "raise the cap, or lower K for the general engine"
        ))


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
