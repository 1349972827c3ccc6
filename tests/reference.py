"""Slow reference implementations that the tests compare the engine against.

``verify_complement_all_conjugates`` is the certificate before it read tail
generators as block pieces: it builds every prefix conjugate of the tail
part at full degree, takes each one's tail image, and multiplies the pairs
whose supports meet.

``complements_by_extension`` is the oracle's complement search before it
lifted the group's generators over the cosets of N: it tries every element
outside N and the current subgroup as the next generator, with a memo of
the subgroups already reached.
"""

from wreath_sylow import complements
from wreath_sylow.complements import Certificate, complement_order_exponent
from wreath_sylow.linalg import Subspace
from wreath_sylow.oracle import SEARCH_CAP, CapExceeded, GroupSet, _check_size, element_order
from wreath_sylow.perm import Perm, conjugate
from wreath_sylow.tower import NotInTail, NotInTower, block_conjugates, scale_gens, tail_image
from wreath_sylow.uniserial import STYLE_CO_SHIFT


def verify_complement_all_conjugates(handle, decision) -> Certificate:
    """The checks and numbers of ``verify_complement``, from all p**j conjugates.

    The tail generators are looked up on ``complements`` at call time, so a
    test that forges them there forges them here too.
    """
    if not decision.has_complement:
        raise ValueError("nothing to verify for a negative decision")
    tw, j = handle.tower, handle.j
    checks: dict = {}
    numbers: dict = {}

    c_exp = complement_order_exponent(handle, decision)
    checks["order_equation"] = c_exp + handle.order_exponent == tw.order_exponent()
    numbers["complement_exponent"] = c_exp
    numbers["closure_exponent"] = handle.order_exponent
    numbers["tower_exponent"] = tw.order_exponent()

    if decision.style == STYLE_CO_SHIFT:
        tail_gens = [complements.co_shift_gen(tw, i) for i in decision.levels]
    else:
        tail_gens = [complements.shift_gen(tw, j)]
    expected_rank = len(tail_gens) * tw.p**j
    conjs: list[Perm] = []
    for g in tail_gens:
        conjs.extend(block_conjugates(tw, j, g))
    try:
        images = [tail_image(tw, j, d).coords for d in conjs]
    except (NotInTail, NotInTower):
        images = None
    tail_ok = images is not None
    checks["tail_part_in_tail"] = tail_ok
    checks["tail_part_order_p"] = all(d.order() == tw.p for d in conjs)
    moved = [{a for a, y in enumerate(d.images) if a != y} for d in conjs]
    checks["tail_part_abelian"] = all(
        a * b == b * a
        for k, a in enumerate(conjs)
        for b, mb in zip(conjs[k + 1 :], moved[k + 1 :])
        if not moved[k].isdisjoint(mb)
    )
    span = Subspace.span(tw.p, (tw.n - j) * tw.p**j, images or [])
    checks["tail_part_rank"] = tail_ok and span.rank == expected_rank
    checks["meets_closure_trivially"] = tail_ok and (
        span.sum_with(handle.image).rank == span.rank + handle.image.rank
    )
    numbers["tail_part_rank"] = span.rank

    ok = True
    for eta in scale_gens(tw):
        for g in decision.gens:
            cg = conjugate(g, eta)
            if cg != g and cg != g**tw.r:
                ok = False
    checks["scale_invariance"] = ok
    return Certificate(checks, numbers)


def complements_by_extension(
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
