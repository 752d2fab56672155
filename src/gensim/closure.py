"""The least-witness closure shared by the linear, monolinear and general
engines: the least family of profiles closed under lifted operations, each
with the first witness term that reaches it in witness order.  A profile
pairs what a term denotes in the left and in the right algebra (a range, a
function or a value).  The loop is semi-naive (Bancilhon & Ramakrishnan,
1986): an accepted item lifts only the combinations that use it, each once.
It is Knuth's (1977) generalization of Dijkstra's algorithm: a term's key
exceeds its arguments' keys, so a profile's first pop is final, and a
candidate is pushed only when it beats its pending key.  Keys are composed
from the arguments' stored keys, and witnesses built only when accepted.
Components are interned as ints, and a lift is memoized per side on the
tuple of argument ids; a self pair's one lift for both sides is not.

Unary and binary rules run on unrolled kernels, higher arities on a loop
over ``product``.  A candidate's depth and size (``1 + max``, ``1 + sum``)
are checked against its pending key before its key is composed.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import chain, count, product, repeat
from typing import NamedTuple

from .algebra import AlgebraError, AlgebraPair
from .terms import Term


class Profile(NamedTuple):
    """What one term denotes in the left and in the right algebra, with
    the minimal witness term that denotes it."""

    left: object
    right: object
    witness: Term


# The default cap on the number of profiles a closure accepts.
DEFAULT_CAP = 200_000


class SaturationCapError(AlgebraError):
    def __init__(self, cap: int, message: str | None = None):
        self.cap = cap
        super().__init__(message or (
            f"profile saturation exceeded the cap of {cap} profiles; "
            "raise the cap, or lower K for the general engine"
        ))


_ACCEPTED = object()  # the pending mark of an accepted profile


def side_lifts(pair: AlgebraPair, make) -> tuple:
    """``make(algebra)`` for both sides of ``pair``; a self pair gets one
    lift for both, so the closure lifts one side only."""
    left = make(pair.left)
    return left, left if pair.right is pair.left else make(pair.right)


def least_witness_closure(seeds, rules, key, cap: int | None = None, keys=None) -> list[Profile]:
    """The least family of profiles containing ``seeds`` and closed under
    ``rules``, in acceptance order.

    A rule ``(arity, lift_left, lift_right, build, compose)`` maps the left
    components of ``arity`` profiles to a left component (``lift_left``),
    their right ones likewise, their witnesses to a witness (``build``),
    and their keys to a key, or to None when that cannot be below
    ``bound`` (``compose(keys, bound)``); ``terms.app_key`` spells both
    from one description, and ``key``, the seeds' key, folds the same
    composer.  Candidates are popped in key order, so each profile's first
    witness is its minimal one.  The two lifts may be one object only when
    every seed's sides are equal (a self pair).  Each accepted key is appended
    to ``keys`` when it is a list.  Raises ``SaturationCapError`` when more
    than ``cap`` profiles are accepted.
    """
    ids: dict = {}
    values: list = []

    def intern(value) -> int:
        i = ids.setdefault(value, len(values))
        if i == len(values):
            values.append(value)
        return i

    def lifted(lift, arg_ids, memo) -> int:
        i = None if memo is None else memo.get(arg_ids)
        if i is None:
            i = intern(lift(tuple(map(values.__getitem__, arg_ids))))
            if memo is not None:
                memo[arg_ids] = i
        return i

    heap: list = []
    tick = count()
    pending: dict = {}  # profile ids -> least key pushed, or _ACCEPTED

    def offer(candidate, depth_size, arg_keys, build, compose, args) -> None:
        """Push a candidate whose key beats its pending one."""
        best = pending.get(candidate)
        if best is None or best is not _ACCEPTED and depth_size <= best[:2]:
            k = compose(arg_keys, best)
            if k is not None and (best is None or k < best):
                pending[candidate] = k
                heappush(heap, (k, next(tick), candidate, build, args))

    rows: list = []  # per accepted item: left id, right id, key, witness
    items: list[Profile] = []
    for left, right, witness in seeds:
        profile, k = (intern(left), intern(right)), key(witness)
        if profile not in pending or k < pending[profile]:
            pending[profile] = k
            heappush(heap, (k, next(tick), profile, None, witness))
    # One lift for both sides is a self pair's: its items' ids are equal on
    # both sides, so no two combinations share an id tuple to memoize.
    memos = [({}, {}) if rule[1] is not rule[2] else (None, None) for rule in rules]
    while heap:
        k, _, profile, build, args = heappop(heap)
        if pending[profile] is _ACCEPTED:
            continue
        pending[profile] = _ACCEPTED
        witness = args if build is None else build(args)
        items.append(Profile(values[profile[0]], values[profile[1]], witness))
        if keys is not None:
            keys.append(k)
        if cap is not None and len(items) > cap:
            raise SaturationCapError(cap)
        newest = (*profile, k, witness)
        rows.append(newest)
        for (arity, lift_left, lift_right, build, compose), (memo_left, memo_right) in zip(rules, memos):
            if arity == 1:
                # The newest item is the one combination.
                if memo_right is None:
                    left = right = intern(lift_left((values[profile[0]],)))
                else:
                    left = memo_left.get(profile[:1])
                    if left is None:
                        left = lifted(lift_left, profile[:1], memo_left)
                    right = memo_right.get(profile[1:])
                    if right is None:
                        right = lifted(lift_right, profile[1:], memo_right)
                offer((left, right), (k[0] + 1, k[1] + 1), (k,), build, compose, (witness,))
            elif arity == 2:
                # The newest row first with any row second, then an older
                # row first with the newest second (ids, key, witness).
                for (la, ra, ka, wa), (lb, rb, kb, wb) in chain(
                    zip(repeat(newest), rows), zip(rows[:-1], repeat(newest))
                ):
                    if memo_right is None:
                        left = right = intern(lift_left((values[la], values[lb])))
                    else:
                        left = memo_left.get((la, lb))
                        if left is None:
                            left = lifted(lift_left, (la, lb), memo_left)
                        right = memo_right.get((ra, rb))
                        if right is None:
                            right = lifted(lift_right, (ra, rb), memo_right)
                    if pending.get((left, right)) is not _ACCEPTED:
                        depth_size = 1 + max(ka[0], kb[0]), 1 + ka[1] + kb[1]
                        offer((left, right), depth_size, (ka, kb), build, compose, (wa, wb))
            else:
                for combo in _combinations(rows, arity):
                    left_ids, right_ids, arg_keys, args = zip(*combo)
                    left = lifted(lift_left, left_ids, memo_left)
                    right = left if memo_right is None else lifted(lift_right, right_ids, memo_right)
                    depth_size = 1 + max([a[0] for a in arg_keys]), 1 + sum([a[1] for a in arg_keys])
                    offer((left, right), depth_size, arg_keys, build, compose, args)
    return items


def _combinations(rows, arity: int):
    """Each ``arity``-tuple of accepted rows that uses the newest, once: the
    newest at position j, older rows before it, any rows after."""
    for j in range(arity):
        yield from product(*[rows[:-1]] * j, rows[-1:], *[rows] * (arity - 1 - j))
