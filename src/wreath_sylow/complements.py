"""Decide and construct complements of normal subgroups of the tower.

Input is a list of tower elements; the subgroup under discussion is their
normal closure N.  With j the depth of the generators (the largest tail
level containing them all), N contains the commutator subgroup K of the
level-j tail, and N/K is the submodule of the abelianized tail spun from
the generators' tail images under the prefix block action.  When every
tail image lies in one digit level's slice, that submodule is fixed by the
levels' Kaloujnine heights (``uniserial.level_heights``), and nothing is
spun: its rank is the sum of the heights plus one per level, its socle
coordinates are the levels that carry a seed, and its basis is built only
when the certificate or a scale comparison reads it.  That reduces every
question about N to small exact linear algebra:

- membership: x in N iff x fixes all j-prefixes and its tail image lies in
  the spun subspace;
- order: |N| = |K| * |N/K|, all tracked as exponents of p;
- complement existence: N has a complement iff N/K is a direct summand of
  the abelianized tail and the socle of N/K is not strictly below the span
  of the diagonals above level j.  When a complement exists the engine
  returns one of two explicit shapes and both are invariant under the
  scaling group:

  * co_shift style: the first j shift generators together with the
    co-shifts at the chosen levels Z (their prefix conjugates generate an
    elementary abelian normal-in-C factor whose tail image is the summand
    complement);
  * prefix_tower style: the shift generators 0..j, a copy of the height
    j+1 tower.

verify_complement certifies from scratch the generators that a positive
decision returned, blind to its shape: the first j must equal the prefix
shifts, and the rest are the tail part, each of which must move only the
first j-prefix block.  It checks the order equation, trivial intersection
(via ranks of the tail part's prefix conjugates' tail images, their order,
and commutation), and the scaling identities.  The conjugates are not
built: the level-j tail is the direct product of p**j height-(n-j) towers,
a prefix shift moves the blocks rigidly, so a tail generator's conjugates
are its block-0 piece on each block.  Each distinct piece is decomposed
once, and its local image is its rows' sums mod p.  A generator's cycle
text (``cycle_text``) and scale check (``scale_invariant``) are functions
of its value, memoized by it, so each generator a decision returns is
printed and checked once per process, whichever decision returns it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterable, Iterator, Optional

from .linalg import Subspace, layout, spin
from .perm import Perm, conjugate, format_cycles
from .tower import (
    NotInTower,
    Tower,
    co_shift_gen,
    decompose,
    portrait_depth,
    portrait_tail_image,
    scale_gens,
    scale_invariant,
    shift_gen,
    shift_gens,
    tail_movers,
)
from .uniserial import (
    STYLE_CO_SHIFT,
    level_heights,
    levels_from_socle,
    module_invariants,
    rank_mod_augmentation,
)

REASON_NOT_SUMMAND = "not_direct_summand"
REASON_SOCLE_GAP = "socle_gap"


@dataclass(frozen=True)
class NormalClosure:
    """A normal subgroup presented by generators of its normal closure.

    seeds are the generators' distinct tail images at depth j, and heights
    their levels' Kaloujnine heights, None when a seed touches several
    levels.  The image, its rank and its socle coordinates are read when
    first asked for: from the heights when there are any, with no spin;
    otherwise the image is the seeds' spin and the socle is read off its
    echelon.  order_exponent is log_p |N|; the tail commutator subgroup
    accounts for tail_commutator_exponent(tower, j) of it and the image's
    rank for the rest.  rank_mod_augmentation is the image's, read off the
    seeds' level sums.
    """

    tower: Tower
    gens: tuple[Perm, ...]
    j: int
    seeds: frozenset[tuple[int, ...]]
    heights: Optional[tuple[int, ...]]
    rank_mod_augmentation: int

    @cached_property
    def image(self) -> Subspace:
        """The spun image; for full heights the identity rows on the seeded levels' slices."""
        tw, j, heights = self.tower, self.j, self.heights
        p, blocks = tw.p, tw.p**j
        dim = (tw.n - j) * blocks
        if heights is not None and all(h in (-1, blocks - 1) for h in heights):
            width = layout(p, dim).width
            rows = (s * blocks + b for s, h in enumerate(heights) if h >= 0 for b in range(blocks))
            return Subspace.from_packed(p, dim, (1 << k * width for k in rows))
        return spin(p, dim, self.seeds, tail_movers(tw, j))

    @property
    def rank(self) -> int:
        if self.heights is None:
            return self.image.rank
        return sum(h + 1 for h in self.heights)

    @property
    def order_exponent(self) -> int:
        return tail_commutator_exponent(self.tower, self.j) + self.rank

    @cached_property
    def socle(self) -> Subspace:
        """The socle coordinates: with heights, the unit vectors of the levels that carry a seed."""
        tw, j, m = self.tower, self.j, self.tower.n - self.j
        if self.heights is None:
            return module_invariants(tw, j, self.image)
        width = layout(tw.p, m).width
        units = (1 << s * width for s, h in enumerate(self.heights) if h >= 0)
        return Subspace.from_packed(tw.p, m, units)


def tail_commutator_exponent(tower: Tower, j: int) -> int:
    """log_p of the commutator subgroup of the level-j tail."""
    p, n = tower.p, tower.n
    return p**j * tower.order_exponent(n - j) - (n - j) * p**j


def closure_handle(tower: Tower, gens: Iterable[Perm]) -> NormalClosure:
    gens = tuple(gens)
    portraits = [decompose(g, tower.p) for g in gens]
    j = portrait_depth(tower, portraits)
    seeds = frozenset(portrait_tail_image(tower, j, rows) for rows in portraits)
    heights, mod_aug = level_heights(tower, j, seeds), rank_mod_augmentation(tower, j, seeds)
    return NormalClosure(tower, gens, j, seeds, heights, mod_aug)


@dataclass(frozen=True)
class Decision:
    """Outcome of the complement decision, with construction data."""

    has_complement: bool
    style: Optional[str] = None
    levels: tuple[int, ...] = ()
    gens: tuple[Perm, ...] = ()
    reason: Optional[str] = None
    data: dict = field(default_factory=dict)


def decide(handle: NormalClosure) -> Decision:
    """Three-way decision: a complement of one of the two shapes, or none.

    The trivial subgroup (depth n) gets the whole tower as its complement,
    in co_shift shape with an empty level set; the whole tower flows
    through the general path and gets the trivial complement the same way.
    The image is invariant by construction, so it is not checked again.
    """
    tw, j = handle.tower, handle.j
    if j == tw.n:
        return Decision(True, STYLE_CO_SHIFT, (), shift_gens(tw))
    mod_aug, soc = handle.rank_mod_augmentation, handle.socle
    if mod_aug != soc.rank:
        return Decision(
            False,
            reason=REASON_NOT_SUMMAND,
            data={
                "rank_mod_augmentation": mod_aug,
                "socle_rank": soc.rank,
                "image_rank": handle.rank,
            },
        )
    choice = levels_from_socle(tw, j, soc)
    if choice is None:
        return Decision(
            False,
            reason=REASON_SOCLE_GAP,
            data={"socle_coordinates": [list(r) for r in soc.rows]},
        )
    gens = tuple(shift_gen(tw, i) for i in range(j))
    if choice.style == STYLE_CO_SHIFT:
        gens += tuple(co_shift_gen(tw, i) for i in choice.levels)
    else:
        gens += (shift_gen(tw, j),)
    return Decision(True, choice.style, choice.levels, gens)


def complement_order_exponent(handle: NormalClosure, decision: Decision) -> int:
    """log_p of the complement's order: a height-j tower and p**j conjugates per later generator."""
    tw, j = handle.tower, handle.j
    return tw.order_exponent(j) + (len(decision.gens) - j) * tw.p**j


@dataclass(frozen=True)
class Certificate:
    """Results of the three complement checks; all must hold for a sound run."""

    checks: dict
    numbers: dict

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def verify_complement(handle: NormalClosure, decision: Decision) -> Certificate:
    """Certify the complement that a positive decision's gens generate.

    (i) order equation |C| * |N| = |tower| in exponents; (ii) trivial
    intersection: gens[:j] are the first j shift generators, and the prefix
    conjugates of the tail part gens[j:] have independent tail images (so
    the tail part maps isomorphically into the abelianized tail) meeting
    the closure image in 0, and they commute pairwise with order p (so the
    tail part is the expected elementary abelian group); (iii) invariance:
    conjugating any complement generator by any scale generator gives back
    the generator or its r-th power: eta * g equals g * eta or g**r * eta
    (``scale_invariant``, memoized by value, so a generator is checked by
    products once per process; at p = 2 nothing is checked or hashed).

    The conjugates in (ii) are never built.  The prefix part is compared
    with the shifts once.  Each tail generator must move the first
    j-prefix block only (``tail_part_in_tail``), and the prefix generators
    move the blocks rigidly, so its conjugates are its block-0 piece on
    each block.  A conjugate has the order of the element conjugated; its
    tail image is the piece's local image in that block's columns;
    conjugates on distinct blocks commute, and on a common block they
    commute exactly when their pieces do.  A wrong prefix part, or a tail
    part that moves other blocks or leaves the tail, fails (ii) except for
    the order check.
    """
    if not decision.has_complement:
        raise ValueError("nothing to verify for a negative decision")
    tw, j = handle.tower, handle.j
    checks: dict = {}
    numbers: dict = {}

    c_exp = complement_order_exponent(handle, decision)
    checks["order_equation"] = (
        c_exp + handle.order_exponent == tw.order_exponent()
    )
    numbers["complement_exponent"] = c_exp
    numbers["closure_exponent"] = handle.order_exponent
    numbers["tower_exponent"] = tw.order_exponent()

    # the engine's prefix part is the shifts' own objects, so the comparison stops early on each
    tail_gens = decision.gens[j:]
    prefix_ok = decision.gens[:j] == tuple(shift_gen(tw, i) for i in range(j))

    # tail part of the complement: conjugates of the generators beyond the prefix
    expected_rank = len(tail_gens) * tw.p**j
    part = _conjugate_images(tw, j, tail_gens) if prefix_ok else None
    tail_ok = part is not None
    images, abelian = part if tail_ok else ((), False)
    checks["tail_part_in_tail"] = tail_ok
    checks["tail_part_order_p"] = all(g.order() == tw.p for g in tail_gens)
    checks["tail_part_abelian"] = abelian
    span = Subspace.from_packed(tw.p, (tw.n - j) * tw.p**j, images)
    checks["tail_part_rank"] = tail_ok and span.rank == expected_rank
    # dim(A + B) = dim A + dim B exactly when A meets B in 0; a zero span meets anything so
    checks["meets_closure_trivially"] = tail_ok and (
        not span.rank or span.sum_with(handle.image).rank == span.rank + handle.rank
    )
    numbers["tail_part_rank"] = span.rank

    checks["scale_invariance"] = tw.p == 2 or all(scale_invariant(tw, g) for g in decision.gens)
    return Certificate(checks, numbers)


def _conjugate_images(
    tw: Tower, j: int, tail_gens: tuple[Perm, ...]
) -> Optional[tuple[Iterator[int], bool]]:
    """Packed tail images of the tail part's prefix conjugates, and whether they commute.

    The prefix part has been checked to be the first j shifts.  Every tail
    generator must fix the points outside j-prefix block 0 and act on that
    block as an element of its height-(n-j) tower.  prefix_rep(j, b) carries
    block 0 rigidly onto block b, so the conjugates of such a generator, in
    ``block_conjugates`` order, are its block-0 piece on each block b; they
    are all of its prefix-group conjugates.  None when a tail generator is
    not of that form.
    """
    p, blocks, size = tw.p, tw.p**j, tw.p ** (tw.n - j)
    rest = tuple(range(size, tw.degree))
    if any(g.images[size:] != rest for g in tail_gens):
        return None
    pieces = [g.images[:size] for g in tail_gens]
    width = layout(p, (tw.n - j) * blocks).width
    packed = {}  # piece -> the packed tail image of its block-0 copy
    for piece in set(pieces):
        try:
            rows = decompose(Perm._raw(piece), p)
        except NotInTower:
            return None
        # the piece's local image: level s is the sum of its row s
        packed[piece] = sum(sum(row) % p << s * blocks * width for s, row in enumerate(rows))
    # copies on distinct blocks commute; on a common block they act by their pieces
    distinct = list(packed)
    abelian = all(
        tuple(a[t] for t in b) == tuple(b[t] for t in a)
        for k, a in enumerate(distinct)
        for b in distinct[k + 1 :]
    )
    # made one at a time as the span takes them: the copy on block b is column b
    images = (packed[piece] << b * width for piece in pieces for b in range(blocks))
    return images, abelian


def scale_orbit(handle: NormalClosure) -> list[tuple[int, NormalClosure, bool]]:
    """Conjugate the closure by each scale generator.

    Returns (k, conjugated handle, equal to the original) per digit level;
    the closure need not be invariant even when its complement is.
    """
    tw = handle.tower
    out = []
    for k, eta in enumerate(scale_gens(tw)):
        conj_handle = closure_handle(tw, [conjugate(g, eta) for g in handle.gens])
        same = conj_handle.j == handle.j and conj_handle.image == handle.image
        out.append((k, conj_handle, same))
    return out


@cache
def cycle_text(g: Perm) -> str:
    """format_cycles of g, memoized by value."""
    return format_cycles(g)


def decision_json(handle: NormalClosure, decision: Decision) -> dict:
    """The decide report in its stable wire shape."""
    tw = handle.tower
    out = {
        "schema": 1,
        "p": tw.p,
        "n": tw.n,
        "r": tw.r,
        "depth": handle.j,
        "verdict": "HasComplement" if decision.has_complement else "NoComplement",
        "case": decision.style,
        "Z": list(decision.levels),
        "reason": decision.reason,
        "complement_generators": list(map(cycle_text, decision.gens)),
        "orders": {
            "N": handle.order_exponent,
            "C": None,
            "Pn": tw.order_exponent(),
        },
        "checks": {},
    }
    if decision.has_complement:
        cert = verify_complement(handle, decision)
        out["orders"]["C"] = cert.numbers["complement_exponent"]
        out["checks"] = dict(cert.checks)
    else:
        out["checks"] = {"witness": decision.data}
    return out
