"""Module theory of the abelianized tail subgroups.

At level j the abelianized tail splits as a direct sum of n-j copies of the
natural block-permutation module F_p^(p^j) of the height-j prefix group,
one copy per digit level j..n-1.  Each copy is uniserial: its invariant
subspaces form a single chain of length p^j.  Three functions answer the
questions the complement engine asks about an invariant subspace U of
this module:

- ``rank_mod_augmentation`` gives U's rank modulo the augmentation
  subspace, read off the generators' portraits: the level sums are
  unchanged by every prefix shift, so they span the same space on U as
  on its generators, each level's sum a portrait row sum;
- ``module_invariants`` gives U's *socle coordinates*: the fixed vectors
  of U are combinations of the per-level diagonal vectors, and reading
  off the diagonal multipliers drops U's socle into F_p^(n-j).  U is a
  *direct summand* exactly when the two ranks agree;
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
from typing import Iterable, Optional, Sequence

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


def rank_mod_augmentation(tower: Tower, j: int, portraits: Iterable[Sequence[Sequence[int]]]) -> int:
    """The rank modulo the augmentation subspace of the module the portraits' tail images spin.

    The augmentation is the kernel of the level sums, which map the quotient
    by it isomorphically onto F_p^(n-j).  Every prefix shift permutes each
    level slice, so the level sums of the spun module are spanned by the
    seeds' own; level s of a seed sums to its row j+s.  Equal sums are
    spanned once: a closure given by all its elements has few distinct ones.
    """
    p, levels = tower.p, range(j, tower.n)
    sums = {tuple([sum(rows[s]) % p for s in levels]) for rows in portraits}
    return Subspace.span(p, tower.n - j, sums).rank


def module_invariants(tower: Tower, j: int, u: Subspace) -> Subspace:
    """The socle coordinates of u: the combinations of the level diagonals that lie in u.

    For an invariant u (not checked).  The level sums kill the diagonals for
    j >= 1 (a constant level slice sums to p^j * c = 0), so the socle is
    coordinatized by diagonal multipliers: a combination of the level
    diagonals lies in u iff the same combination of their residuals modulo
    u vanishes, read off u's kept echelon.
    """
    p, m, blocks = tower.p, tower.n - j, tower.p**j
    lay = layout(p, u.dim)
    shift = blocks * lay.width
    level = lay.ones & (1 << shift) - 1  # the diagonal of the level-j slice
    residuals = [u.echelon.residual(level << s * shift) for s in range(m)]
    return Subspace.from_packed(p, m, kernel_packed(p, u.dim, residuals))


def generates_uniserial(tower: Tower, j: int, coords: Sequence[int]) -> bool:
    """Does the level-j tail vector generate a uniserial submodule of full length p^j?

    Exactly when some level slice of the vector has a nonzero block sum and
    the module it spins has rank p^j.  Projecting onto that level's summand
    is onto, since the slice lies outside the summand's one maximal
    submodule, the augmentation subspace; so the rank is at least p^j, and
    equal exactly when the projection is injective.
    """
    p, blocks = tower.p, tower.p**j
    if not any(sum(coords[k : k + blocks]) % p for k in range(0, len(coords), blocks)):
        return False
    return spin(p, len(coords), [coords], tail_movers(tower, j)).rank == blocks


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
