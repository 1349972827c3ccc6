"""Brute-force ground truth for small groups.

Everything here works on plain element objects that support ``*``,
``.inverse()``, hashing and ordering (permutations and the gallery group
elements both do), and trades cleverness for certainty: element
enumeration by cosets, exhaustive normal-subgroup and abelian-subgroup
searches with canonical-set deduplication, a complement search that lifts
the group's generators over the cosets of a normal subgroup (it refuses a
non-normal one, or one outside the group), and scans of full symmetric
groups for centralizers.
Caps guard against accidentally enumerating something huge: the searches
refuse a group above the fixed ``SEARCH_CAP``, and ``bfs_closure`` takes a
cap for the closures that are expected to be larger.

Two pieces carry all of it, one closure kernel and one index:

- one closure kernel, ``_closure``: everything that a list of moves
  reaches from a start, grown a whole right coset at a time (Dimino's
  method; G. Butler, *Fundamental Algorithms for Permutation Groups*, LNCS
  559, 1991) and stopping at a cap.  It serves element closures
  (``bfs_closure``, right multiplication by each generator in turn), the
  subgroup closures of the searches on index numbers, and the conjugacy
  orbits of the normal-subgroup search, where the start is one point.
- one indexed form of an enumerated ``GroupSet`` (``GroupSet._index``,
  built once per group): its elements numbered in sorted order, with the
  right-multiplication column of each element filled on first use and
  stored as a compact ``array``, and an inverse table built on first use.
  The subgroup searches work on these numbers and dedupe subgroups as int
  bitmasks; containment, meeting a normal subgroup and normality are int
  operations, and conjugation is two column reads and two inverse reads.
  Whether the group's gens generate it is closed once, on first use.
  The complement search reads its trial lifts by one element product each
  instead of building their columns, and skips, before any closure, every
  lift whose order differs from that of its coset in G/N: a complement
  maps isomorphically onto G/N, so no complement holds such a lift.

The abelian-subgroup search reads each element's centralizer off the
columns as one int mask, intersects them along its depth-first path, and
drops each tried coset current * g from its candidates, since every element
of that coset closes to the same join.  The normal-subgroup search likewise
closes each union of a subgroup and an atom only once.
"""

from __future__ import annotations

import itertools
import operator
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .perm import Perm

BFS_CAP = 2**15
SEARCH_CAP = 4096
SCAN_DEGREE_CAP = 9


class CapExceeded(RuntimeError):
    pass


def _closure(start, moves, cap: int) -> set:
    """Everything that the moves (unary functions) reach from start, one right coset at a time.

    It serves three starts.  A subgroup H under right multiplications: the
    closure is a union of right cosets H r, so one read of r tells whether a
    move takes H r to a new coset, and the new coset is the move mapped over
    H r.  ``{e}``, which gives the group that the moves generate.  A single
    point under any moves: every coset is one point, so this walks the
    point's orbit.  Raises CapExceeded once the closure would exceed cap.
    """
    coset = list(start)
    seen = set(coset)
    cosets = [coset]
    for coset in cosets:
        r = coset[0]
        for move in moves:
            y = move(r)
            if y not in seen:
                if len(seen) + len(coset) > cap:
                    raise CapExceeded(f"closure exceeds cap {cap}")
                new = [y, *map(move, itertools.islice(coset, 1, None))]
                seen.update(new)
                cosets.append(new)
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
        self._gens = group.gens

    def col(self, k: int) -> array:
        """Number of elems[i] * elems[k] at position i."""
        c = self._cols[k]
        if c is None:
            g, pos = self.elems[k], self.pos
            c = self._cols[k] = array(self._code, [pos[x * g] for x in self.elems])
        return c

    def columns(self, gens) -> list:
        """Right multiplication by each of gens, read off its column."""
        return [self.col(k).__getitem__ for k in gens]

    def right(self, k: int):
        """Right multiplication by elems[k]: its column once built, else one product per read."""
        c = self._cols[k]
        if c is not None:
            return c.__getitem__
        g, elems, pos = self.elems[k], self.elems, self.pos
        return lambda i: pos[elems[i] * g]

    @cached_property
    def inv(self) -> list[int]:
        """Number of the inverse of elems[k] at position k."""
        pos = self.pos
        return [pos[x.inverse()] for x in self.elems]

    @cached_property
    def generated(self) -> bool:
        """Whether the group's gens generate it (a normal closure's need not), closed once."""
        size, gens = len(self.elems), map(self.pos.__getitem__, self._gens)
        return len(_closure([self.e], self.columns(gens), size)) == size

    def conjugations(self, gens) -> list:
        """Conjugation y -> g^-1 y g by each of gens, read off its column and the inverses.

        y -> inv[col(g)[y]] is y -> (y g)^-1 = g^-1 y^-1, and twice it is g^-1 y g.
        """
        inv = self.inv
        return [lambda y, c=self.col(g).__getitem__: inv[c(inv[c(y)])] for g in gens]

    def is_normal(self, members, gens) -> bool:
        """Whether the subgroup numbered members is normalized by each of gens.

        N g == g N as masks, where g N is the inverse of N g^-1.
        """
        inv, mask = self.inv, self.mask
        return all(
            mask(map(self.col(g).__getitem__, members))
            == mask(map(inv.__getitem__, map(self.col(inv[g]).__getitem__, members)))
            for g in gens
        )

    @staticmethod
    def mask(members) -> int:
        """The int with bit i set for each i in members, which must be distinct numbers."""
        return sum(map((1).__lshift__, members))

    def sorted_subgroups(self, found) -> list[GroupSet]:
        """(members, gens) pairs as GroupSets, by order and then by elements."""
        elems, e = self.elems, self.elems[self.e]
        return [
            GroupSet(frozenset(elems[i] for i in members), tuple(elems[k] for k in gens), e)
            for members, gens in sorted(found, key=lambda mg: (len(mg[0]), sorted(mg[0])))
        ]


def _check_size(group: GroupSet) -> None:
    if group.order > SEARCH_CAP:
        raise CapExceeded(f"group order {group.order} exceeds cap {SEARCH_CAP}")


def _identity_of(gens: Sequence, identity):
    if identity is not None:
        return identity
    if not gens:
        raise ValueError("cannot infer the identity of an empty generating set")
    g = gens[0]
    return g * g.inverse()


def bfs_closure(gens: Sequence, cap: int = BFS_CAP, identity=None) -> GroupSet:
    """Multiplicative closure of the generators, by right cosets (Dimino's method).

    <g_0..g_k> is grown from <g_0..g_k-1> by ``_closure``.  Raises
    CapExceeded exactly when the closure has more than cap elements.
    """
    e = _identity_of(gens, identity)
    moves = [lambda x, g=g: x * g for g in gens]
    members = {e}
    for k in range(len(moves)):
        members = _closure(members, moves[: k + 1], cap)
    return GroupSet(frozenset(members), tuple(gens), e)


def element_order(g, identity) -> int:
    k, x = 1, g
    while x != identity:
        x = x * g
        k += 1
    return k


def _commutators_with(group: GroupSet, sub) -> GroupSet:
    """[G, B]: the subgroup generated by the g b g^-1 b^-1, g in the group, b in sub.

    Read off the group's index: sub must lie in the group.  The gens are the
    distinct commutators, sorted.
    """
    ix = group._index
    col = ix.col
    inv = ix.inv
    right = [(col(b), col(inv[b])) for b in sorted(ix.pos[x] for x in sub)]
    comms = set()
    for g in range(len(ix.elems)):
        back = col(inv[g])
        comms.update(b_inv[back[b_col[g]]] for b_col, b_inv in right)
    gens = sorted(comms)
    members = _closure([ix.e], ix.columns(gens), group.order)
    return GroupSet(
        frozenset(ix.elems[i] for i in members), tuple(ix.elems[k] for k in gens), group.identity
    )


def derived_subgroup(group: GroupSet) -> GroupSet:
    """Commutator subgroup of a fully enumerated group."""
    return _commutators_with(group, group.elements)


def all_normal_subgroups(group: GroupSet) -> list[GroupSet]:
    """Every normal subgroup, as the join closure of cyclic normal closures."""
    _check_size(group)
    ix = group._index
    conj = ix.conjugations([ix.pos[g] for g in group.gens])
    atoms: dict[int, tuple] = {}  # mask -> (members, gens)
    classified: set[int] = set()
    for k in range(len(ix.elems)):
        if k == ix.e or k in classified:
            continue
        # conjugacy class of k, then its multiplicative closure
        orbit = sorted(_closure([k], conj, group.order))
        classified.update(orbit)
        members = _closure([ix.e], ix.columns(orbit), group.order)
        atoms.setdefault(ix.mask(members), (members, tuple(orbit)))
    found = {1 << ix.e: ({ix.e}, ()), **atoms}
    closed: set[int] = set()  # unions cur_mask | a_mask already closed
    queue = list(found.items())
    while queue:
        cur_mask, (cur, cur_gens) = queue.pop()
        for a_mask, (_, a_gens) in atoms.items():
            union = cur_mask | a_mask
            if union == cur_mask or union in closed:
                continue
            closed.add(union)
            # cur is normal, so the join is cur times <a>, generated by the union
            join = _closure(cur, ix.columns(a_gens), group.order)
            mask = ix.mask(join)
            if mask not in found:
                found[mask] = (join, tuple(sorted(set(cur_gens) | set(a_gens))))
                queue.append((mask, found[mask]))
    return ix.sorted_subgroups(found.values())


def _complements(group: GroupSet, normal: GroupSet):
    """Yield each complement of the normal subgroup once, as (members, lifts) index numbers.

    A complement C maps isomorphically onto G/N, so it holds exactly one
    element of each coset N x, and those elements generate it.  The search
    lifts group.gens one at a time over their cosets (read off one index
    column each), keeping a lift while the closure stays within |G/N| and
    meets N only in e.  Two lifts from one coset differ by a non-identity
    element of N, so only C's own lift survives and each complement is
    reached on exactly one path.

    C's lift of g has the order o_g of gN in G/N, the first m >= 1 with
    g^m in N, read once per search off g's column.  So a trial lift whose
    o_g-th power is not e lies in no complement and is skipped before any
    closure; the reader that takes its powers is its move if it survives.
    A reader multiplies by one element product per read unless the lift's
    column is already built (``_Index.right``), so no column is built for
    a trial lift.  The search tree has up to |N| branches per generator,
    so the cost grows with len(group.gens).

    Refuses an N that is not contained in the group or not normal, or gens
    that do not generate the group (a normal closure's need not): the lifts
    would miss complements.
    """
    _check_size(group)
    if not normal.elements <= group.elements:
        raise ValueError("the subgroup is not contained in the group")
    if group.order % normal.order:
        raise ValueError("normal subgroup order does not divide the group order")
    ix = group._index
    if not ix.generated:
        raise ValueError("the group's gens do not generate it")
    gens = [ix.pos[g] for g in group.gens]
    in_normal = sorted(ix.pos[x] for x in normal.elements)
    if not ix.is_normal(in_normal, gens):
        raise ValueError("the subgroup is not normal in the group")
    target = group.order // normal.order
    n_mask = ix.mask(in_normal)
    orders = []  # o_g for each of gens
    for g in gens:
        col, x, m = ix.col(g), g, 1
        while not n_mask >> x & 1:
            x, m = col[x], m + 1
        orders.append(m)

    def lift(current: set, chosen: tuple, moves: list):
        if len(current) == target:
            yield current, chosen
            return
        k = len(chosen)
        for y in map(ix.col(gens[k]).__getitem__, in_normal):
            move, x = ix.right(y), y
            for _ in range(orders[k] - 1):
                x = move(x)
            if x != ix.e:
                continue
            grown_moves = moves + [move]
            try:
                grown = _closure(current, grown_moves, target)
            except CapExceeded:
                continue
            if (ix.mask(grown) & n_mask).bit_count() == 1:
                yield from lift(grown, chosen + (y,), grown_moves)

    yield from lift({ix.e}, (), [])


def exhaustive_complements(group: GroupSet, normal: GroupSet) -> list[GroupSet]:
    """All subgroups C with C meet N trivial and |C| * |N| = |G|, for a normal N.

    Each complement's gens are its lifts of group.gens (see ``_complements``).
    """
    return group._index.sorted_subgroups(_complements(group, normal))


def has_complement(group: GroupSet, normal: GroupSet) -> bool:
    return next(_complements(group, normal), None) is not None


def centralizer_in_sym(target_gens: Sequence[Perm], degree: int) -> GroupSet:
    """Centralizer of the generated subgroup inside the full symmetric group.

    A plain scan of all degree! permutations, refused above SCAN_DEGREE_CAP
    (degree 9 already takes a few seconds).
    """
    if degree > SCAN_DEGREE_CAP:
        raise CapExceeded(f"degree {degree} exceeds scan cap {SCAN_DEGREE_CAP}")
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


def all_abelian_subgroups(group: GroupSet) -> list[GroupSet]:
    """Every abelian subgroup, the trivial one included, by order and then by elements.

    Depth-first growth of commuting sets with canonical-set memoization;
    every abelian subgroup arises by adding one centralizing generator at a
    time, so the sweep is exhaustive.  Each element's centralizer is read
    off the index columns once, as an int mask (h commutes with g iff
    col(g)[h] == col(h)[g]); a subgroup's centralizer is the AND of its
    gens' masks, so the candidates for the next generator are the set bits
    of ``centralizer & ~members``, lowest first.  After g is tried the whole
    coset current * g leaves the candidates: each of its elements gives the
    same join current * <g>, which the search has then already recorded.
    """
    _check_size(group)
    ix = group._index
    size = range(len(ix.elems))
    cols = [ix.col(h) for h in size]
    # cols[h][g] is g * h: one row at a time, so no |G|^2 table is built
    cent = [
        ix.mask(
            itertools.compress(
                size, map(operator.eq, cols[g], map(operator.getitem, cols, itertools.repeat(g)))
            )
        )
        for g in size
    ]
    found = {1 << ix.e: ({ix.e}, ())}  # mask -> (members, gens)

    def extend(current: set, mask: int, gens: tuple, centralizer: int):
        candidates = centralizer & ~mask
        while candidates:
            g = (candidates & -candidates).bit_length() - 1
            candidates &= ~ix.mask(map(ix.col(g).__getitem__, current))
            grown = _closure(current, ix.columns((g,)), group.order)  # current times <g>
            grown_mask = ix.mask(grown)
            if grown_mask in found:
                continue
            found[grown_mask] = (grown, gens + (g,))
            extend(grown, grown_mask, gens + (g,), centralizer & cent[g])

    extend({ix.e}, 1 << ix.e, (), (1 << len(ix.elems)) - 1)
    return ix.sorted_subgroups(found.values())


def max_abelian_stats(group: GroupSet, p: int) -> tuple[int, int]:
    """Largest abelian subgroup order as an exponent of p, and how many attain it."""
    orders = [sub.order for sub in all_abelian_subgroups(group)]
    exponent = 0
    order = orders[-1]
    while order > 1:
        if order % p:
            raise ValueError("group order is not a p-power")
        order //= p
        exponent += 1
    return exponent, orders.count(orders[-1])


def commutator_chain(group: GroupSet, start: GroupSet) -> list[GroupSet]:
    """The chain B, [G, B], [G, [G, B]], ... down to the trivial subgroup.

    B must be a subgroup of G.  Commutators are taken over all element
    pairs, so no generation subtlety can bite at these sizes.
    """
    chain = [start]
    cur = start
    while cur.order > 1:
        nxt = _commutators_with(group, cur.elements)
        if nxt.order >= cur.order:
            raise RuntimeError("commutator chain failed to descend")
        chain.append(nxt)
        cur = nxt
    return chain
