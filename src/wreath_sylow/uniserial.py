"""Module theory of the abelianized tail subgroups.

At level j the abelianized tail splits as a direct sum of n-j copies of the
natural block-permutation module F_p^(p^j) of the height-j prefix group,
one copy per digit level j..n-1.  Each copy is uniserial: its invariant
subspaces form a single chain of length p^j.  Two functions answer the
questions the complement engine asks about an invariant subspace U of
this module:

- ``module_invariants`` gives U's rank modulo the augmentation subspace
  and its *socle coordinates*: the fixed vectors of U are combinations of
  the per-level diagonal vectors, and reading off the diagonal multipliers
  drops U's socle into F_p^(n-j).  U is a *direct summand* exactly when
  the two ranks agree;
- ``levels_from_socle`` turns the socle coordinates of a direct summand
  into a *level choice*: a set Z of digit levels whose full summands
  complement U, preferring choices that avoid level j itself.

The prefix group permutes the blocks transitively, so the per-summand
augmentation subspace is the sum-zero hyperplane and the per-summand fixed
space is the diagonal line.  These closed forms are what is computed; the
generic fixed and augmentation solves are test references only
(``tests/reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .linalg import Subspace, kernel_packed, layout, spin
from .tower import Tower, tail_movers

# which complement the engine builds from a level choice
STYLE_CO_SHIFT = "co_shift"  # prefix gens plus co-shifts at the chosen levels
STYLE_PREFIX = "prefix_tower"  # the prefix tower one level deeper


@dataclass(frozen=True)
class LevelChoice:
    """Digit levels whose full summands complement the given subspace."""

    levels: tuple[int, ...]
    style: str


def module_invariants(tower: Tower, j: int, u: Subspace) -> tuple[int, Subspace]:
    """(rank of u modulo the augmentation subspace, socle coordinates of u).

    For an invariant u (not checked).  The augmentation is the kernel of
    the per-level block sums, which map the quotient by it isomorphically
    onto F_p^(n-j).  They kill the diagonals themselves for j >= 1 (a
    constant level slice sums to p^j * c = 0), so the socle is coordinatized
    by diagonal multipliers instead: a combination of the level diagonals
    lies in u iff the same combination of their residuals modulo u
    vanishes.  Both are read off u's packed rows: a level sum is a lane sum
    of the level's slice, and a diagonal's residual subtracts the rows with
    a pivot in its level.
    """
    p, m, blocks = tower.p, tower.n - j, tower.p**j
    lay = layout(p, u.dim)
    shift = blocks * lay.width
    level = (1 << shift) - 1  # the lanes of the level-j slice
    out = layout(p, m).width
    sums = (
        sum(lay.lane_sum(w >> s * shift & level) << s * out for s in range(m)) for w in u.packed
    )
    residuals = [u._view.residual(lay.ones & level << s * shift) for s in range(m)]
    return (
        Subspace.from_packed(p, m, sums).rank,
        Subspace.from_packed(p, m, kernel_packed(p, u.dim, residuals)),
    )


def generates_uniserial(tower: Tower, j: int, coords: Sequence[int]) -> bool:
    """Does the level-j tail vector generate a uniserial submodule of full length p^j?

    Equivalent conditions, checked per summand s (the slice of p^j
    coordinates at level j+s):
    (a) projecting the module generated by the vector onto summand s is
        injective, tested as equal spin dimensions of the vector and of the
        vector cut down to s;
    (b) the summand-s slice lies outside the augmentation subspace, i.e.
        its block sum is nonzero.
    True iff some summand passes both.
    """
    p, dim, blocks = tower.p, len(coords), tower.p**j
    movers = tail_movers(tower, j)
    if not any(x % p for x in coords):
        return False
    full = spin(p, dim, [coords], movers).rank
    for k in range(0, dim, blocks):
        if sum(coords[k : k + blocks]) % p == 0:
            continue
        alone = [0] * dim
        alone[k : k + blocks] = coords[k : k + blocks]
        if spin(p, dim, [alone], movers).rank == full:
            return True
    return False


def levels_from_socle(tower: Tower, j: int, soc: Subspace) -> Optional[LevelChoice]:
    """Pick complementing levels for a direct summand, or report that none work.

    With S the socle coordinates and E the span of the coordinates above level j:

    - S not inside E: there is a choice avoiding level j; return the
      lexicographically smallest Z in {j+1, ..., n-1} with span(e_i, i in Z)
      complementing S (style co_shift);
    - S == E: level j's summand is the complement; Z = {j} (style
      prefix_tower);
    - S strictly inside E: no full-summand complement respects the
      constraint, and the engine reports no complement at all.

    On a non-summand the socle is too big and the levels would not complement.
    """
    m = tower.n - j
    lay = layout(tower.p, m)
    in_e = all(row & lay.lane == 0 for row in soc.packed)
    if not in_e:
        # greedy from the smallest index; S + E is everything, so this fills up
        ech = soc._ech()
        chosen = [j + t for t in range(1, m) if ech.insert(1 << t * lay.width)]
        return LevelChoice(tuple(chosen), STYLE_CO_SHIFT)
    if soc.rank == m - 1:
        return LevelChoice((j,), STYLE_PREFIX)
    return None
