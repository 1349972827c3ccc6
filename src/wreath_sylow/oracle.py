"""Brute-force ground truth for small groups.

Everything here works on plain element objects that support ``*``,
``.inverse()``, hashing and ordering (permutations and the gallery group
elements both do), and trades cleverness for certainty: breadth-first
element enumeration, exhaustive normal-subgroup and complement searches
with canonical-set deduplication, and scans of full symmetric groups for
centralizers.  Caps guard against accidentally enumerating something huge;
override them explicitly when a test really wants a bigger sweep.

Two pieces carry all of it:

- one closure kernel, ``_walk``: everything reachable from a start set by
  a list of moves, breadth first, stopping at a cap.  The moves are right
  multiplication (closures), conjugation (normal closures and conjugacy
  orbits), lookups in a multiplication column (subgroups of an indexed
  group) or ``bytes.translate`` on packed images (counting walks, which
  multiply on the left; that generates the same group).
- one indexed form of an enumerated ``GroupSet`` (``GroupSet._index``,
  built once per group): its elements numbered in sorted order, with the
  right-multiplication column of each element filled on first use and
  stored as a compact ``array``.  The subgroup searches work on these
  numbers and dedupe subgroups as int bitmasks; containment and meeting a
  normal subgroup are int operations.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from functools import cached_property
from operator import methodcaller
from typing import Sequence

from .perm import Perm

BFS_CAP = 2**15
SEARCH_CAP = 4096


class CapExceeded(RuntimeError):
    pass


def _walk(start, moves, cap: int, what: str = "closure") -> set:
    """Everything reachable from start by the moves (unary functions), breadth first."""
    seen = set(start)
    frontier = list(seen)
    while frontier:
        nxt = []
        for move in moves:
            for y in map(move, frontier):
                if y not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"{what} exceeds cap {cap}")
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


@dataclass(frozen=True)
class GroupSet:
    """A fully enumerated subgroup: its elements, generators and identity."""

    elements: frozenset
    gens: tuple
    identity: object

    @property
    def order(self) -> int:
        return len(self.elements)

    def sorted_elements(self) -> list:
        return sorted(self.elements)

    @cached_property
    def _index(self) -> "_Index":
        return _Index(self)


class _Index:
    """An enumerated group with its elements numbered in sorted order."""

    def __init__(self, group: GroupSet):
        self.elems = group.sorted_elements()
        self.pos = {x: i for i, x in enumerate(self.elems)}
        self.e = self.pos[group.identity]
        self._cols: list = [None] * len(self.elems)
        self._code = "H" if len(self.elems) <= 1 << 16 else "I"

    def col(self, k: int) -> array:
        """Number of elems[i] * elems[k] at position i."""
        c = self._cols[k]
        if c is None:
            g, pos = self.elems[k], self.pos
            c = self._cols[k] = array(self._code, [pos[x * g] for x in self.elems])
        return c

    def closure(self, start, gens, cap: int) -> set[int]:
        """Numbers of the closure of the start set under right multiplication by gens."""
        return _walk(start, [self.col(k).__getitem__ for k in gens], cap)

    def mask(self, members) -> int:
        bits = bytearray((len(self.elems) + 7) >> 3)
        for i in members:
            bits[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(bits, "little")

    def sorted_subgroups(self, found) -> list[GroupSet]:
        """(members, gens) pairs as GroupSets, by order and then by elements."""
        elems, e = self.elems, self.elems[self.e]
        return [
            GroupSet(frozenset(elems[i] for i in members), tuple(elems[k] for k in gens), e)
            for members, gens in sorted(found, key=lambda mg: (len(mg[0]), sorted(mg[0])))
        ]


def _check_size(group: GroupSet, cap: int) -> None:
    if group.order > cap:
        raise CapExceeded(f"group order {group.order} exceeds cap {cap}")


def _identity_of(gens: Sequence, identity):
    if identity is not None:
        return identity
    if not gens:
        raise ValueError("cannot infer the identity of an empty generating set")
    g = gens[0]
    return g * g.inverse()


def bfs_closure(gens: Sequence, cap: int = BFS_CAP, identity=None) -> GroupSet:
    """Multiplicative closure of the generators, breadth first."""
    e = _identity_of(gens, identity)
    seen = _walk([e], [lambda x, g=g: x * g for g in gens], cap)
    return GroupSet(frozenset(seen), tuple(gens), e)


def _translation_tables(gens: Sequence[Perm]) -> list[bytes]:
    return [bytes(g.images) + bytes(range(g.degree, 256)) for g in gens]


def bfs_order(gens: Sequence[Perm], cap: int = 2**21) -> int:
    """Order of the closure, counting only; packs images to keep memory flat.

    For permutation groups too big to hold as GroupSets (the full tower at
    p=3, n=3 has 3^13 elements) but small enough to count.
    """
    if not gens:
        return 1
    moves = [methodcaller("translate", t) for t in _translation_tables(gens)]
    return len(_walk([bytes(range(gens[0].degree))], moves, cap))


def element_order(g, identity) -> int:
    k, x = 1, g
    while x != identity:
        x = x * g
        k += 1
    return k


def normal_closure(gens: Sequence, ambient_gens: Sequence, cap: int = BFS_CAP, identity=None) -> GroupSet:
    """Smallest subgroup containing gens and closed under ambient conjugation.

    Single walk whose moves are right multiplication by the given generators
    and conjugation by the ambient generators; both stay inside the normal
    closure, and every product of conjugates is reachable by inducting on
    its length.
    """
    e = _identity_of(tuple(gens) + tuple(ambient_gens), identity)
    moves = [lambda x, g=g: x * g for g in gens]
    moves += [lambda x, a=a, ai=a.inverse(): a * x * ai for a in ambient_gens]
    seen = _walk([e], moves, cap, "normal closure")
    return GroupSet(frozenset(seen), tuple(gens), e)


def normal_closure_order(gens: Sequence[Perm], ambient_gens: Sequence[Perm], cap: int = 2**21) -> int:
    """Order of the normal closure, counting only (packed images, flat memory)."""
    if not gens:
        return 1
    moves = [methodcaller("translate", t) for t in _translation_tables(gens)]
    moves += [
        lambda x, t=t, ai=a.inverse().images: bytes(map(x.translate(t).__getitem__, ai))
        for a, t in zip(ambient_gens, _translation_tables(ambient_gens))
    ]
    return len(_walk([bytes(range(gens[0].degree))], moves, cap, "normal closure"))


def is_normal_under(sub: GroupSet, ambient_gens: Sequence) -> bool:
    return all(
        a * x * a.inverse() in sub.elements for x in sub.elements for a in ambient_gens
    )


def _commutators_with(group: GroupSet, sub, cap: int) -> GroupSet:
    """[G, B]: the subgroup generated by the g b g^-1 b^-1, g in the group, b in sub.

    Read off the group's index: sub must lie in the group.  The gens are the
    distinct commutators, sorted.
    """
    ix = group._index
    col = ix.col
    inv = [col(k).index(ix.e) for k in range(len(ix.elems))]
    right = [(col(b), col(inv[b])) for b in sorted(ix.pos[x] for x in sub)]
    comms = set()
    for g in range(len(ix.elems)):
        back = col(inv[g])
        comms.update(b_inv[back[b_col[g]]] for b_col, b_inv in right)
    gens = sorted(comms)
    members = ix.closure([ix.e], gens, cap)
    return GroupSet(
        frozenset(ix.elems[i] for i in members), tuple(ix.elems[k] for k in gens), group.identity
    )


def derived_subgroup(group: GroupSet, cap: int = BFS_CAP) -> GroupSet:
    """Commutator subgroup of a fully enumerated group."""
    return _commutators_with(group, group.elements, cap)


def derived_subgroup_from_gens(gens: Sequence, cap: int = BFS_CAP) -> GroupSet:
    """Commutator subgroup of <gens>: the normal closure of the generator commutators."""
    comms = []
    for a in gens:
        for b in gens:
            comms.append(a * b * a.inverse() * b.inverse())
    return normal_closure(comms, gens, cap=cap, identity=_identity_of(gens, None))


def center(group: GroupSet) -> GroupSet:
    elems = [
        x
        for x in group.sorted_elements()
        if all(x * g == g * x for g in group.gens)
    ]
    return GroupSet(frozenset(elems), tuple(elems), group.identity)


def all_normal_subgroups(group: GroupSet, cap: int = SEARCH_CAP) -> list[GroupSet]:
    """Every normal subgroup, as the join closure of cyclic normal closures."""
    _check_size(group, cap)
    ix = group._index
    conj = [lambda y, g=g, gi=g.inverse(): g * y * gi for g in group.gens]
    atoms: dict[int, tuple] = {}  # mask -> (members, gens)
    classified: set[int] = set()
    for k, x in enumerate(ix.elems):
        if k == ix.e or k in classified:
            continue
        # conjugation orbit of x, then its multiplicative closure
        orbit = sorted(ix.pos[y] for y in _walk([x], conj, group.order))
        classified.update(orbit)
        members = ix.closure([ix.e], orbit, group.order)
        atoms.setdefault(ix.mask(members), (members, tuple(orbit)))
    found = {1 << ix.e: ({ix.e}, ()), **atoms}
    queue = list(found.items())
    while queue:
        cur_mask, (cur, cur_gens) = queue.pop()
        for a_mask, (_, a_gens) in atoms.items():
            if a_mask & ~cur_mask == 0:
                continue
            # cur is normal, so the join is cur times <a>
            join = ix.closure(cur, a_gens, group.order)
            mask = ix.mask(join)
            if mask not in found:
                found[mask] = (join, tuple(sorted(set(cur_gens) | set(a_gens))))
                queue.append((mask, found[mask]))
    return ix.sorted_subgroups(found.values())


def exhaustive_complements(
    group: GroupSet,
    normal: GroupSet,
    cap: int = SEARCH_CAP,
    find_all: bool = True,
) -> list[GroupSet]:
    """All subgroups C with C meet N trivial and |C| * |N| = |G|.

    Backtracking over generator extensions with canonical-set memoization;
    with find_all=False, stops at the first complement.
    """
    _check_size(group, cap)
    if group.order % normal.order:
        raise ValueError("normal subgroup order does not divide the group order")
    target = group.order // normal.order
    e = group.identity
    if target == 1:
        return [GroupSet(frozenset([e]), (), e)]
    if normal.order == 1:
        return [group]
    ix = group._index
    n_mask = ix.mask(ix.pos[x] for x in normal.elements)
    orders = [element_order(x, e) for x in ix.elems]
    seen: set[int] = set()
    results: list[tuple] = []

    def extend(current: set, mask: int, gens: tuple):
        blocked = mask | n_mask
        for g in range(len(ix.elems)):
            if blocked >> g & 1 or target % orders[g]:
                continue
            try:
                grown = ix.closure(current, gens + (g,), target)
            except CapExceeded:
                continue
            grown_mask = ix.mask(grown)
            if target % len(grown) or grown_mask in seen:
                continue
            seen.add(grown_mask)
            if (grown_mask & n_mask).bit_count() > 1:
                continue
            if len(grown) == target:
                results.append((grown, gens + (g,)))
                if not find_all:
                    raise _FoundOne
            else:
                extend(grown, grown_mask, gens + (g,))

    try:
        extend({ix.e}, 1 << ix.e, ())
    except _FoundOne:
        pass
    return ix.sorted_subgroups(results)


class _FoundOne(Exception):
    pass


def has_complement(group: GroupSet, normal: GroupSet, cap: int = SEARCH_CAP) -> bool:
    return bool(exhaustive_complements(group, normal, cap=cap, find_all=False))


def centralizer_in_sym(target_gens: Sequence[Perm], degree: int, cap_degree: int = 9) -> GroupSet:
    """Centralizer of the generated subgroup inside the full symmetric group.

    A plain scan of all degree! permutations; capped at degree 9 (which
    already takes a few seconds).
    """
    if degree > cap_degree:
        raise CapExceeded(f"degree {degree} exceeds scan cap {cap_degree}")
    gen_imgs = [g.images for g in target_gens]
    rng = range(degree)
    found = []
    for pi in itertools.permutations(rng):
        ok = True
        for img in gen_imgs:
            if any(pi[img[k]] != img[pi[k]] for k in rng):
                ok = False
                break
        if ok:
            found.append(Perm._raw(pi))
    return GroupSet(frozenset(found), tuple(target_gens), Perm.identity(degree))


def all_abelian_subgroups(group: GroupSet, cap: int = SEARCH_CAP) -> list[GroupSet]:
    """Every abelian subgroup, the trivial one included, by order and then by elements.

    Depth-first growth of commuting sets with canonical-set memoization;
    every abelian subgroup arises by adding one centralizing generator at a
    time, so the sweep is exhaustive.
    """
    _check_size(group, cap)
    ix = group._index
    found = {1 << ix.e: ({ix.e}, ())}  # mask -> (members, gens)

    def extend(current: set, mask: int, gens: tuple):
        for g in range(len(ix.elems)):
            if mask >> g & 1:
                continue
            # commuting with the generators of an abelian group is enough
            col = ix.col(g)
            if any(ix.col(h)[g] != col[h] for h in gens):
                continue
            grown = ix.closure(current, (g,), group.order)  # current times <g>
            grown_mask = ix.mask(grown)
            if grown_mask in found:
                continue
            found[grown_mask] = (grown, gens + (g,))
            extend(grown, grown_mask, gens + (g,))

    extend({ix.e}, 1 << ix.e, ())
    return ix.sorted_subgroups(found.values())


def max_abelian_stats(group: GroupSet, p: int, cap: int = SEARCH_CAP) -> tuple[int, int]:
    """Largest abelian subgroup order as an exponent of p, and how many attain it."""
    orders = [sub.order for sub in all_abelian_subgroups(group, cap)]
    exponent = 0
    order = orders[-1]
    while order > 1:
        if order % p:
            raise ValueError("group order is not a p-power")
        order //= p
        exponent += 1
    return exponent, orders.count(orders[-1])


def commutator_chain(group: GroupSet, start: GroupSet, cap: int = SEARCH_CAP) -> list[GroupSet]:
    """The chain B, [G, B], [G, [G, B]], ... down to the trivial subgroup.

    B must be a subgroup of G.  Commutators are taken over all element
    pairs, so no generation subtlety can bite at these sizes.
    """
    chain = [start]
    cur = start
    while cur.order > 1:
        nxt = _commutators_with(group, cur.elements, cap)
        if nxt.order >= cur.order:
            raise RuntimeError("commutator chain failed to descend")
        chain.append(nxt)
        cur = nxt
    return chain


def rotation_series_length(tw, cap: int = BFS_CAP) -> int:
    """Steps the rotation subgroup takes to reach the identity under repeated
    commutation with the whole tower (p = 2); each step has index 2.

    Works on the fully enumerated tower, so heights above 3 need a cap raise.
    """
    from .tower import rotation_subgroup_gens, shift_gens

    group = bfs_closure(shift_gens(tw), cap=cap)
    rot = bfs_closure(rotation_subgroup_gens(tw), cap=cap)
    chain = commutator_chain(group, rot, cap=cap)
    for a, b in zip(chain, chain[1:]):
        if a.order != 2 * b.order:
            raise RuntimeError("rotation series step is not index 2")
    return len(chain) - 1
