"""Module theory of the abelianized tail subgroups.

At level j the abelianized tail splits as a direct sum of n-j copies of the
natural block-permutation module F_p^(p^j) of the height-j prefix group,
one copy per digit level j..n-1.  Each copy is uniserial: its invariant
subspaces form a single chain of length p^j, the spans of Kaloujnine's
digit monomials of weight below a bound (see ``partition``).  Four
functions answer the questions the complement engine asks about an
invariant subspace U of this module:

- ``level_heights`` reads U off its seeds when each seed lies in one level
  slice: U is then the direct sum over the levels s of the chain term
  spanned by the monomials of weight at most H_s, the largest Kaloujnine
  weight in the binomial expansion of a level-s seed.  The expansion is
  forward differences, one digit at a time, with no elimination;
- ``rank_mod_augmentation`` gives U's rank modulo the augmentation
  subspace, read off the seeds: the level sums are unchanged by every
  prefix shift, so they span the same space on U as on its seeds;
- ``module_invariants`` gives U's *socle coordinates*: the fixed vectors
  of U are combinations of the per-level diagonal vectors, and reading
  off the diagonal multipliers drops U's socle into F_p^(n-j).  U is a
  *direct summand* exactly when the two ranks agree.  Every nonzero term
  holds its level's diagonal, so when the heights are known the socle is
  spanned by the unit vectors of the levels that carry a seed, and this
  is needed only for a seed that touches several levels;
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

import functools
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


@functools.cache
def _difference_steps(p: int, j: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The digit reversal of the p**j blocks, and the forward-difference steps on a reversed slice.

    Lane x of a reversed slice is block rev[x]: digit i of the block, digit
    0 most significant, is the base-p digit of x at place p**i, so a
    monomial's lane is its weight.  The differences in digit i are p - 1
    steps (d, mask): the k-th subtracts the slice moved d bits up, one
    digit-i step, on the lanes whose digit i is at least k.
    """
    rev = [0]
    for _ in range(j):
        rev = [t + p * r for t in range(p) for r in rev]
    width = layout(p, p**j).width
    steps = []
    for i in range(j):
        d = p**i * width  # one digit-i step, in bits
        runs = ((1 << p**j * width) - 1) // ((1 << p * d) - 1)  # lane 0 of each run of p digit-i values
        steps += [(d, ((1 << p * d) - (1 << k * d)) * runs) for k in range(1, p)]
    return tuple(rev), tuple(steps)


def level_heights(tower: Tower, j: int, seeds: Iterable[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """Each level's Kaloujnine height H_s, or None when some seed is nonzero on two levels.

    A seed's level-s slice, as a function f of the block digits, expands as
    sum c_a * C(d_0, a_0) * ... * C(d_{j-1}, a_{j-1}); its height is the
    largest weight sum(a_i * p**i) with c_a != 0.  The binomials of weight
    at most H span the same space as the monomials do, so the module the
    level-s seeds spin is the chain term of dimension H_s + 1, with H_s the
    largest of their heights (-1 where no seed lies).  The top coefficient
    is the block sum, so H_s = p**j - 1 exactly when a level-s seed has a
    nonzero block sum.  A seed on several levels can spin a module that is
    not the sum of its levels' terms (a diagonal on two levels spins one
    line, not two), so there no heights are given.
    """
    p, blocks = tower.p, tower.p**j
    lay, (rev, steps) = layout(p, blocks), _difference_steps(p, j)
    heights = [-1] * (tower.n - j)
    for seed in seeds:
        slices = [(s, f) for s, k in enumerate(range(0, len(seed), blocks)) if any(f := seed[k : k + blocks])]
        if len(slices) > 1:
            return None
        for s, f in slices:
            f = lay.pack(tuple(map(f.__getitem__, rev)))
            for d, mask in steps:
                f = lay.sub(f, 1, f << d & mask)
            heights[s] = max(heights[s], (f.bit_length() - 1) // lay.width)
    return tuple(heights)


def rank_mod_augmentation(tower: Tower, j: int, seeds: Iterable[Sequence[int]]) -> int:
    """The rank modulo the augmentation subspace of the module the seeds spin.

    The augmentation is the kernel of the level sums, which map the quotient
    by it isomorphically onto F_p^(n-j).  Every prefix shift permutes each
    level slice, so the level sums of the spun module are spanned by the
    seeds' own.  Equal sums are spanned once.
    """
    p, blocks = tower.p, tower.p**j
    sums = {tuple([sum(seed[k : k + blocks]) % p for k in range(0, len(seed), blocks)]) for seed in seeds}
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
