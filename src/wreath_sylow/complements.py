"""Decide and construct complements of normal subgroups of the tower.

Input is a list of tower elements; the subgroup under discussion is their
normal closure N.  With j the depth of the generators (the largest tail
level containing them all), N contains the commutator subgroup K of the
level-j tail, and N/K is the submodule of the abelianized tail spun from
the generators' tail images under the prefix block action.  That reduces
every question about N to small exact linear algebra:

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

verify_complement certifies a positive answer from scratch: the order
equation, trivial intersection (via ranks of the tail part's prefix
conjugates' tail images, their order, and commutation where they meet),
and the scaling identities.  The conjugates are not built: the level-j tail
is the direct product of p**j height-(n-j) towers, a prefix shift moves the
blocks rigidly, so a conjugate of a tail generator is the generator's block
pieces moved to other blocks.  Each distinct piece is decomposed once, in
the height-(n-j) tower.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .linalg import Subspace, spin
from .perm import Perm, conjugate, format_cycles
from .tower import (
    NotInTail,
    NotInTower,
    Tower,
    block_pieces,
    block_transport,
    co_shift_gen,
    decompose,
    portrait_depth,
    portrait_tail_image,
    scale_gens,
    shift_gen,
    shift_gens,
    tail_coordinate_perms,
    tail_image,
)
from .uniserial import STYLE_CO_SHIFT, levels_from_socle, module_invariants

REASON_NOT_SUMMAND = "not_direct_summand"
REASON_SOCLE_GAP = "socle_gap"


@dataclass(frozen=True)
class NormalClosure:
    """A normal subgroup presented by generators of its normal closure.

    order_exponent is log_p |N|; the tail commutator subgroup accounts for
    tail_commutator_exponent(tower, j) of it and the spun image for the rest.
    """

    tower: Tower
    gens: tuple[Perm, ...]
    j: int
    image: Subspace
    order_exponent: int


def tail_commutator_exponent(tower: Tower, j: int) -> int:
    """log_p of the commutator subgroup of the level-j tail."""
    p, n = tower.p, tower.n
    return p**j * tower.order_exponent(n - j) - (n - j) * p**j


def closure_handle(tower: Tower, gens: Iterable[Perm]) -> NormalClosure:
    gens = tuple(gens)
    portraits = [decompose(g, tower.p) for g in gens]
    j = portrait_depth(tower, portraits)
    dim = (tower.n - j) * tower.p**j
    seeds = [portrait_tail_image(tower, j, rows).coords for rows in portraits]
    image = spin(tower.p, dim, seeds, tail_coordinate_perms(tower, j))
    return NormalClosure(
        tower, gens, j, image, tail_commutator_exponent(tower, j) + image.rank
    )


def member(handle: NormalClosure, x: Perm) -> bool:
    """Membership in the normal closure."""
    try:
        v = tail_image(handle.tower, handle.j, x)
    except NotInTail:
        return False
    return handle.image.contains(v.coords)


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
        return Decision(True, STYLE_CO_SHIFT, (), tuple(shift_gens(tw)))
    mod_aug, soc = module_invariants(tw, j, handle.image)
    if mod_aug != soc.rank:
        return Decision(
            False,
            reason=REASON_NOT_SUMMAND,
            data={
                "rank_mod_augmentation": mod_aug,
                "socle_rank": soc.rank,
                "image_rank": handle.image.rank,
            },
        )
    choice = levels_from_socle(tw, j, soc)
    if choice is None:
        return Decision(
            False,
            reason=REASON_SOCLE_GAP,
            data={"socle_coordinates": [list(r) for r in soc.rows]},
        )
    if choice.style == STYLE_CO_SHIFT:
        gens = [shift_gen(tw, i) for i in range(j)]
        gens += [co_shift_gen(tw, i) for i in choice.levels]
    else:
        gens = [shift_gen(tw, i) for i in range(j + 1)]
    return Decision(True, choice.style, choice.levels, tuple(gens))


def complement_order_exponent(handle: NormalClosure, decision: Decision) -> int:
    """log_p of the constructed complement's order."""
    tw, j = handle.tower, handle.j
    if decision.style == STYLE_CO_SHIFT:
        return tw.order_exponent(j) + len(decision.levels) * tw.p**j
    return tw.order_exponent(j + 1)


@dataclass(frozen=True)
class Certificate:
    """Results of the three complement checks; all must hold for a sound run."""

    checks: dict
    numbers: dict

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def verify_complement(handle: NormalClosure, decision: Decision) -> Certificate:
    """Certify a positive decision.

    (i) order equation |C| * |N| = |tower| in exponents; (ii) trivial
    intersection: the prefix conjugates of the tail part of C have
    independent tail images (so the tail part maps isomorphically into the
    abelianized tail) meeting the closure image in 0, and they commute
    pairwise with order p (so the tail part is the expected elementary
    abelian group); (iii) invariance: conjugating any complement generator
    by any scale generator gives back the generator or its r-th power.

    The conjugates in (ii) are never built.  A tail generator is read as
    its block pieces, and each prefix shift is checked once to move blocks
    rigidly, so a conjugate is the same pieces on the blocks that the
    prefix representative's block map gives.  A conjugate has the order of
    the element conjugated; its tail image is its pieces' local images in
    those columns; and two conjugates commute exactly when the pieces they
    put on a common block do.  A tail part off the tail fails (ii) except
    for the order check.
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

    # tail part of the complement: conjugates of the generators beyond the prefix
    if decision.style == STYLE_CO_SHIFT:
        tail_gens = [co_shift_gen(tw, i) for i in decision.levels]
    else:
        tail_gens = [shift_gen(tw, j)]
    expected_rank = len(tail_gens) * tw.p**j
    part = _conjugate_images(tw, j, tail_gens)
    tail_ok = part is not None
    images, abelian = part if tail_ok else ([], False)
    checks["tail_part_in_tail"] = tail_ok
    checks["tail_part_order_p"] = all(g.order() == tw.p for g in tail_gens)
    checks["tail_part_abelian"] = abelian
    span = Subspace.span(tw.p, (tw.n - j) * tw.p**j, images)
    checks["tail_part_rank"] = tail_ok and span.rank == expected_rank
    # dim(A + B) = dim A + dim B exactly when A meets B in 0
    checks["meets_closure_trivially"] = tail_ok and (
        span.sum_with(handle.image).rank == span.rank + handle.image.rank
    )
    numbers["tail_part_rank"] = span.rank

    # conjugating by an identity scale generator (every one at p = 2) gives g back
    etas = [eta for eta in scale_gens(tw) if not eta.is_identity]
    ok = True
    for eta in etas:
        for g in decision.gens:
            cg = conjugate(g, eta)
            if cg != g and cg != g**tw.r:
                ok = False
    checks["scale_invariance"] = ok
    return Certificate(checks, numbers)


def _conjugate_images(
    tw: Tower, j: int, tail_gens: list[Perm]
) -> Optional[tuple[Iterator[list[int]], bool]]:
    """Tail images of the tail generators' prefix conjugates, and whether they commute.

    The conjugates come in ``block_conjugates`` order, read off the block
    pieces.  None when a generator is off the tail, or when a prefix shift
    does not move the blocks rigidly.
    """
    p, blocks = tw.p, tw.p**j
    transports = [block_transport(tw, j, shift_gen(tw, i)) for i in range(j)]
    if None in transports:
        return None
    try:
        pieces = [block_pieces(tw, j, g) for g in tail_gens]
    except NotInTail:
        return None
    local_images = {}
    for piece in {piece for ps in pieces for piece in ps.values()}:
        try:
            rows = decompose(Perm._raw(piece), p)
        except NotInTower:
            return None
        local_images[piece] = portrait_tail_image(Tower(p, tw.n - j, tw.r), 0, rows).coords

    # landings(c)[b] is where prefix_rep(j, b) takes block c: the rep applies
    # shift i to the power of digit i of b, the last digit first
    powers = []
    for bm in transports:
        pw = [tuple(range(blocks))]
        for _ in range(1, p):
            pw.append(tuple(bm[t] for t in pw[-1]))
        powers.append(pw)

    def landings(c: int) -> list[int]:
        out = [c]
        for pw in reversed(powers):
            out = [m[y] for m in pw for y in out]
        return out

    lands = [{c: landings(c) for c in ps} for ps in pieces]
    landed: dict = {}  # piece -> the blocks some conjugate puts it on
    for ps, ls in zip(pieces, lands):
        for c, piece in ps.items():
            landed.setdefault(piece, set()).update(ls[c])
    # both conjugates fix every block; on a shared one they act by their pieces
    distinct = list(landed)
    abelian = all(
        tuple(a[t] for t in b) == tuple(b[t] for t in a)
        for k, a in enumerate(distinct)
        for b in distinct[k + 1 :]
        if not landed[a].isdisjoint(landed[b])
    )

    def image(ps: dict, ls: dict, b: int) -> list[int]:
        v = [0] * ((tw.n - j) * blocks)
        for c, piece in ps.items():
            for s, x in enumerate(local_images[piece]):
                v[s * blocks + ls[c][b]] = x
        return v

    # made one at a time as the span takes them: p**j vectors of length dim
    images = (image(ps, ls, b) for ps, ls in zip(pieces, lands) for b in range(blocks))
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
        "complement_generators": [format_cycles(g) for g in decision.gens],
        "orders": {
            "N": handle.order_exponent,
            "C": None,
            "Pn": tw.order_exponent(),
        },
        "checks": {},
    }
    if decision.has_complement:
        cert = verify_complement(handle, decision)
        out["orders"]["C"] = complement_order_exponent(handle, decision)
        out["checks"] = dict(cert.checks)
    else:
        out["checks"] = {"witness": decision.data}
    return out
