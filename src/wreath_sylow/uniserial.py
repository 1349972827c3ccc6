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
generic fixed and augmentation solves in linalg remain only as the
reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .linalg import Subspace, left_kernel, spin
from .tower import TailVector, Tower, tail_coordinate_perms

# which complement the engine builds from a level choice
STYLE_CO_SHIFT = "co_shift"  # prefix gens plus co-shifts at the chosen levels
STYLE_PREFIX = "prefix_tower"  # the prefix tower one level deeper


@dataclass(frozen=True)
class LevelChoice:
    """Digit levels whose full summands complement the given subspace."""

    levels: tuple[int, ...]
    style: str


def level_sums(v: TailVector) -> tuple[int, ...]:
    """Per-level block sums: the map killing the augmentation subspace.

    On the quotient by the augmentation subspace this is an isomorphism onto
    F_p^(n-j); note that it kills the diagonal vectors themselves for j >= 1
    (a constant block row sums to p^j * c = 0), which is why socle vectors
    are coordinatized by their diagonal multipliers instead, see
    module_invariants.
    """
    return tuple(sum(v.summand(s)) % v.p for s in range(v.levels))


def module_invariants(tower: Tower, j: int, u: Subspace) -> tuple[int, Subspace]:
    """(rank of u modulo the augmentation subspace, socle coordinates of u).

    For an invariant u (not checked).  The augmentation is the kernel of
    level_sums; a combination of the level diagonals lies in u iff the same
    combination of their residuals modulo u vanishes.
    """
    p, m, blocks = tower.p, tower.n - j, tower.p**j
    sums = [level_sums(TailVector(p, tower.n, j, row)) for row in u.rows]
    ech = u._view()
    residuals = [
        ech.residual([0] * (s * blocks) + [1] * blocks + [0] * ((m - 1 - s) * blocks))
        for s in range(m)
    ]
    return (
        Subspace.span(p, m, sums).rank,
        Subspace.span(p, m, left_kernel(residuals, p, u.dim)),
    )


def generates_uniserial(tower: Tower, v: TailVector) -> bool:
    """Does v generate a uniserial submodule of full length p^j?

    Equivalent conditions, checked per summand s:
    (a) projecting the module generated by v onto summand s is injective,
        tested as equal spin dimensions of v and of v cut down to s;
    (b) the summand-s part of v lies outside the augmentation subspace,
        i.e. its block sum is nonzero.
    True iff some summand passes both.
    """
    perms = tail_coordinate_perms(tower, v.j)
    if not any(x % v.p for x in v.coords):
        return False
    full = spin(v.p, v.dim, [v.coords], perms).rank
    for s in range(v.levels):
        if sum(v.summand(s)) % v.p == 0:
            continue
        alone = v.with_only_summand(s)
        if spin(v.p, v.dim, [alone.coords], perms).rank == full:
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
    in_e = all(row[0] == 0 for row in soc.rows)
    if not in_e:
        # greedy from the smallest index; S + E is everything, so this fills up
        ech = soc._ech()
        chosen = []
        for t in range(1, m):
            e_t = tuple(1 if k == t else 0 for k in range(m))
            if ech.insert(e_t):
                chosen.append(j + t)
        return LevelChoice(tuple(chosen), STYLE_CO_SHIFT)
    if soc.rank == m - 1:
        return LevelChoice((j,), STYLE_PREFIX)
    return None
