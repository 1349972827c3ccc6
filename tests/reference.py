"""Slow reference implementations that the tests compare the engine against.

Dense linear algebra (``fixed_subspace``, ``augmentation_subspace``,
``intersect``) for the invariants that ``uniserial`` reads off in closed
form; ``walk``, the breadth-first element walk that the oracle's closures
used before they grew by right cosets, one element per move and read;
brute-force groups (``is_normal_under``, which conjugates every member
by every generator, ``normal_closure``, ``derived_subgroup_from_gens``,
``center``, and ``bfs_order`` and ``normal_closure_order``, which count the
3^13 elements at p = 3, n = 3 by walking packed images); ``member``, and
``random_tail``, a random element of the level-j tail.

``verify_complement_all_conjugates`` is the certificate before it read
each tail generator as one local piece: it builds every prefix conjugate
of the tail part at full degree, takes each one's tail image, and
multiplies the pairs whose supports meet.  It is compared only on tail
parts that move block 0 alone: for one spread over several blocks, its
p**j conjugates per generator are not the count the order equation
assumes, and it can pass a group of the wrong order.
``co_shift_by_conjugates`` is the co-shift as the product of conjugates
that defines it, which ``tower.co_shift_gen`` builds from the digits
instead.

``level_sums`` is the per-level block sum on a coordinate tuple, and
``rank_mod_augmentation_by_rows`` the rank of the level sums of a
subspace's basis rows, which ``uniserial.rank_mod_augmentation`` reads off
the generators' portraits instead.  ``generates_uniserial_by_summands`` is
``uniserial.generates_uniserial`` as one spin per summand: the vector cut
down to each level outside the augmentation must spin the same rank.

``ListEchelon`` and ``permute`` are the list-row F_p kernel before rows
were packed into ints: ``span_rows``, ``left_kernel_rows`` and ``spin_rows``
give the canonical basis tuples that ``linalg`` must match.  ``left_kernel``
is ``linalg.kernel_packed`` on tuple rows, for the dense solves above.
``tail_coordinate_perms`` is the prefix shifts' action on tail coordinates,
read off the height-j tower's shifts, and ``mover`` scans a coordinate
permutation into spin's (mask, shift) movers lane by lane: together they
are the generic build that ``tower.tail_movers`` writes from the digits.

``spun_handle`` is a closure handle with its Kaloujnine heights dropped,
so its image is the seeds' spin and its socle is ``module_invariants`` read
off that spin's echelon: the path every closure took before the heights
decided the one-level ones.  ``random_slice_of_height`` is a level slice
whose height is known by construction.

``block_transport`` reads the block map of a rigid block mover off every
point, the check the certificate made of its prefix part before it compared
that part with the shifts; ``commutator`` is the group commutator.

``decompose_by_fibers`` is ``tower.decompose`` before it checked each level
by gathers of cached tables: it walks every fiber of every level in Python.

``complements_by_extension`` is the oracle's complement search before it
lifted the group's generators over the cosets of N: it tries every element
outside N and the current subgroup as the next generator, with a memo of
the subgroups already reached.  ``abelian_subgroups_by_scan`` is the
abelian-subgroup search before it read centralizers off int masks: it
tests every element against the current gens and closes each join anew.
Both close subgroups with ``walk_closure``, an element walk over the index
columns, so they share no closure kernel with the searches they check.
"""

import bisect
from dataclasses import replace
from operator import methodcaller
from typing import Iterable, Optional, Sequence

from wreath_sylow import oracle
from wreath_sylow.complements import Certificate, complement_order_exponent
from wreath_sylow.linalg import Matrix, Subspace, kernel_packed, layout, spin
from wreath_sylow.oracle import CapExceeded, GroupSet, _check_size, element_order
from wreath_sylow.partition import monomial
from wreath_sylow.perm import Perm, conjugate
from wreath_sylow.tower import (
    NotInTail,
    NotInTower,
    Tower,
    block_conjugates,
    random_element,
    scale_gens,
    shift_gen,
    shift_gens,
    tail_image,
    tail_movers,
    tower,
)


class ListEchelon:
    """Mutable reduced-row-echelon accumulator on list rows, one coordinate at a time."""

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def residual(self, v: Sequence[int]) -> list[int]:
        p = self.p
        w = [x % p for x in v]
        for row, piv in zip(self.rows, self.pivots):
            c = w[piv]
            if c:
                for k in range(piv, self.width):
                    w[k] = (w[k] - c * row[k]) % p
        return w

    def insert(self, v: Sequence[int]) -> bool:
        """Reduce v and add it to the basis; False if v was already in the span."""
        p = self.p
        w = self.residual(v)
        piv = next((k for k, x in enumerate(w) if x), None)
        if piv is None:
            return False
        if w[piv] != 1:
            inv = pow(w[piv], -1, p)
            w = [x * inv % p for x in w]
        # clear the new pivot column from the existing rows, keep pivot order
        for row in self.rows:
            c = row[piv]
            if c:
                for k in range(piv, self.width):
                    row[k] = (row[k] - c * w[k]) % p
        at = bisect.bisect(self.pivots, piv)
        self.rows.insert(at, w)
        self.pivots.insert(at, piv)
        return True

    def contains(self, v: Sequence[int]) -> bool:
        return not any(self.residual(v))

    def take_rows(self) -> Matrix:
        return tuple(tuple(r) for r in self.rows)


def span_rows(p: int, dim: int, vectors: Iterable[Sequence[int]]) -> Matrix:
    ech = ListEchelon(p, dim)
    for v in vectors:
        ech.insert(v)
    return ech.take_rows()


def left_kernel_rows(rows: Sequence[Sequence[int]], p: int, width: int) -> list[tuple[int, ...]]:
    """Augmented elimination: combinations that reduce the data part to zero."""
    n = len(rows)
    ech = ListEchelon(p, width + n)
    kernel = []
    for i, row in enumerate(rows):
        aug = list(row) + [0] * n
        aug[width + i] = 1
        w = ech.residual(aug)
        if not any(w[:width]):
            kernel.append(tuple(w[width:]))
        else:
            ech.insert(w)
    return kernel


def left_kernel(rows: Sequence[Sequence[int]], p: int, width: int) -> list[tuple[int, ...]]:
    """Basis of the combinations c with sum c_i * rows[i] = 0 (see kernel_packed)."""
    lay = layout(p, width)
    combos = kernel_packed(p, width, [lay.pack(r) for r in rows])
    return [layout(p, len(rows)).unpack(c) for c in combos]


def permute(v: Sequence[int], point_map: Sequence[int]) -> tuple[int, ...]:
    """v with coordinate k moved to point_map[k]; apply_map of perm_action_matrix in O(dim)."""
    out = [0] * len(v)
    for k, t in enumerate(point_map):
        out[t] = v[k]
    return tuple(out)


def tail_coordinate_perms(tw: Tower, j: int) -> list[tuple[int, ...]]:
    """The first j shift generators as permutations of tail-vector coordinates.

    Entry k is the coordinate that basis vector k moves to, the convention
    of ``linalg.perm_action_matrix``.  A prefix shift moves the blocks
    rigidly, so it moves every level's slice by its block map.  The j-prefix
    blocks are the points of the height-j tower, and shift_gen(i) moves them
    as that tower's shift_gen(i) moves its points.
    """
    if j == 0:  # no prefix shifts, and no tower of height 0
        return []
    top = tower(tw.p, j)
    blocks = top.degree
    maps = (shift_gen(top, i).images for i in range(j))
    return [tuple(s * blocks + t for s in range(tw.n - j) for t in bm) for bm in maps]


def mover(p: int, q: Sequence[int]) -> list[tuple[int, int]]:
    """(mask, displacement in bits) per distinct displacement q[k] - k of a permutation, packed at p."""
    width, masks, k = layout(p, len(q)).width, {}, 0
    while k < len(q):
        d, start = q[k] - k, k
        while k < len(q) and q[k] - k == d:
            k += 1
        run = ((1 << (k - start) * width) - 1) << start * width
        masks[d] = masks.get(d, 0) | run
    return [(mask, d * width) for d, mask in masks.items()]


def spin_rows(p: int, dim: int, seeds: Iterable[Sequence[int]], perms: Sequence[Sequence[int]]) -> Matrix:
    """Worklist closure of the seeds under the coordinate permutations, on list rows."""
    ech = ListEchelon(p, dim)
    queue = []
    for v in seeds:
        if ech.insert(v):
            queue.append(tuple(x % p for x in v))
    while queue:
        v = queue.pop()
        for q in perms:
            w = permute(v, q)
            if ech.insert(w):
                queue.append(w)
    return ech.take_rows()


def level_sums(coords: Sequence[int], p: int, blocks: int) -> tuple[int, ...]:
    """Per-level block sums of a tail vector: the map killing the augmentation subspace."""
    return tuple(sum(coords[k : k + blocks]) % p for k in range(0, len(coords), blocks))


def rank_mod_augmentation_by_rows(u: Subspace, blocks: int) -> int:
    """The rank of u modulo the augmentation, as the rank of its basis rows' level sums."""
    return Subspace.span(u.p, u.dim // blocks, [level_sums(r, u.p, blocks) for r in u.rows]).rank


def generates_uniserial_by_summands(tw: Tower, j: int, coords: Sequence[int]) -> bool:
    """Some summand s has a nonzero block sum, and the vector cut down to s spins the rank it does."""
    p, dim, blocks = tw.p, len(coords), tw.p**j
    movers = tail_movers(tw, j)
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


def member(handle, x: Perm) -> bool:
    """Membership in the normal closure: x keeps the j-blocks and its tail image is in the spun image."""
    try:
        v = tail_image(handle.tower, handle.j, x)
    except NotInTail:
        return False
    return handle.image.contains(v)


def spun_handle(handle):
    """The handle with no heights: the image is spun and the socle read by ``module_invariants``."""
    return replace(handle, heights=None)


def random_slice_of_height(p: int, j: int, h: int, rng) -> tuple[int, ...]:
    """A random level slice of Kaloujnine height h: the weight-h monomial plus a few lighter ones."""
    f = [0] * p**j
    for w in [h] + rng.sample(range(h), min(h, 3)):
        c = rng.randrange(1, p)
        f = [(a + c * b) % p for a, b in zip(f, monomial(p, j, w))]
    return tuple(f)


def commutator(a: Perm, b: Perm) -> Perm:
    """a * b * a**-1 * b**-1."""
    return (a * b) * (b * a).inverse()


def decompose_by_fibers(x: Perm, p: int) -> tuple[tuple[int, ...], ...]:
    """Wreath coordinates of x as rows, one fiber at a time; NotInTower names the first bad block."""
    images = x.images
    rows = []
    while len(images) > 1:
        d = len(images)
        if d % p:
            raise ValueError(f"degree {d} is not a power of {p}")
        shifts, induced = [], []
        for b in range(0, d, p):
            target, c = divmod(images[b], p)
            for y in range(1, p):
                img = images[b + y]
                if img // p != target:
                    raise NotInTower("fiber not preserved", d, b // p)
                if img % p != (y + c) % p:
                    raise NotInTower("fiber action is not a translation", d, b // p)
            shifts.append(c)
            induced.append(target)
        rows.append(tuple(shifts))
        images = induced
    return tuple(reversed(rows))


def block_transport(tower: Tower, j: int, g: Perm) -> Optional[tuple[int, ...]]:
    """The block map of g if g moves each j-prefix block rigidly; else None.

    Rigidly means onto a block with every point's offset in its block kept,
    as a prefix shift does: it changes only a digit before j.
    """
    size = tower.p ** (tower.n - j)
    out = []
    for b in range(0, tower.degree, size):
        t = g.images[b]
        if t % size or g.images[b : b + size] != tuple(range(t, t + size)):
            return None
        out.append(t // size)
    return tuple(out)


def co_shift_by_conjugates(tw, i: int) -> Perm:
    """The co-shift by its definition: the product of the nonidentity
    shift_gen(i-1)-power conjugates of shift_gen(i)."""
    si, prev = shift_gen(tw, i), shift_gen(tw, i - 1)
    out = Perm.identity(tw.degree)
    for s in range(1, tw.p):
        out = out * conjugate(si, prev**s)
    return out


def random_tail(tw, j: int, rng) -> Perm:
    """A random element of the level-j tail: one random height-(n-j) element per block."""
    local = tower(tw.p, tw.n - j)
    size = tw.p ** (tw.n - j)
    images = []
    for b in range(tw.p**j):
        loc = random_element(local, rng)
        images.extend(b * size + loc.images[y] for y in range(size))
    return Perm(images)


def fixed_subspace(p: int, dim: int, actions: Sequence[Matrix]) -> Subspace:
    """Common fixed vectors: the intersection of the kernels of (action - 1)."""
    if not actions:
        return Subspace.full(p, dim)
    stacked = []
    for k in range(dim):
        row: list[int] = []
        for mat in actions:
            row.extend((m - (1 if c == k else 0)) % p for c, m in enumerate(mat[k]))
        stacked.append(row)
    combos = left_kernel(stacked, p, dim * len(actions))
    return Subspace.span(p, dim, combos)


def augmentation_subspace(p: int, dim: int, actions: Sequence[Matrix]) -> Subspace:
    """Span of (action - 1) applied to the ambient basis, over all actions."""
    vecs = []
    for mat in actions:
        for k in range(dim):
            row = list(mat[k])
            row[k] = (row[k] - 1) % p
            vecs.append(row)
    return Subspace.span(p, dim, vecs)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """The meet of two subspaces of one ambient space, via the left kernel of the stacked bases."""
    a._check_compatible(b)
    vecs = []
    for c in left_kernel(a.rows + b.rows, a.p, a.dim):
        v = [0] * a.dim
        for coef, row in zip(c[: a.rank], a.rows):
            if coef:
                for k in range(a.dim):
                    v[k] = (v[k] + coef * row[k]) % a.p
        vecs.append(v)
    return Subspace.span(a.p, a.dim, vecs)


def walk(start, moves, cap: int, what: str = "closure") -> set:
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


def is_normal_under(sub: GroupSet, ambient_gens: Sequence) -> bool:
    """Every conjugate a * x * a**-1 of a member by an ambient generator is a member."""
    conj = [(a, a.inverse()) for a in ambient_gens]
    return all(a * x * a_inv in sub.elements for x in sub.elements for a, a_inv in conj)


def normal_closure(gens: Sequence, ambient_gens: Sequence, cap: int = oracle.BFS_CAP, identity=None) -> GroupSet:
    """Smallest subgroup containing gens and closed under ambient conjugation.

    Single walk whose moves are right multiplication by the given generators
    and conjugation by the ambient generators; both stay inside the normal
    closure, and every product of conjugates is reachable by inducting on
    its length.
    """
    e = oracle._identity_of(tuple(gens) + tuple(ambient_gens), identity)
    moves = [lambda x, g=g: x * g for g in gens]
    moves += [lambda x, a=a, ai=a.inverse(): a * x * ai for a in ambient_gens]
    seen = walk([e], moves, cap, "normal closure")
    return GroupSet(frozenset(seen), tuple(gens), e)


def derived_subgroup_from_gens(gens: Sequence, cap: int = oracle.BFS_CAP) -> GroupSet:
    """Commutator subgroup of <gens>: the normal closure of the generator commutators."""
    comms = []
    for a in gens:
        for b in gens:
            comms.append(a * b * a.inverse() * b.inverse())
    return normal_closure(comms, gens, cap=cap, identity=oracle._identity_of(gens, None))


def center(group: GroupSet) -> GroupSet:
    elems = [
        x
        for x in group.sorted_elements()
        if all(x * g == g * x for g in group.gens)
    ]
    return GroupSet(frozenset(elems), tuple(elems), group.identity)


def _translation_tables(gens: Sequence[Perm]) -> list[bytes]:
    return [bytes(g.images) + bytes(range(g.degree, 256)) for g in gens]


def bfs_order(gens: Sequence[Perm], cap: int = 2**21) -> int:
    """Order of the closure, counting only; packs images to keep memory flat."""
    if not gens:
        return 1
    moves = [methodcaller("translate", t) for t in _translation_tables(gens)]
    return len(walk([bytes(range(gens[0].degree))], moves, cap))


def normal_closure_order(gens: Sequence[Perm], ambient_gens: Sequence[Perm], cap: int = 2**21) -> int:
    """Order of the normal closure, counting only (packed images, flat memory)."""
    if not gens:
        return 1
    moves = [methodcaller("translate", t) for t in _translation_tables(gens)]
    moves += [
        lambda x, t=t, ai=a.inverse().images: bytes(map(x.translate(t).__getitem__, ai))
        for a, t in zip(ambient_gens, _translation_tables(ambient_gens))
    ]
    return len(walk([bytes(range(gens[0].degree))], moves, cap, "normal closure"))


def verify_complement_all_conjugates(handle, decision) -> Certificate:
    """The checks and numbers of ``verify_complement``, from all p**j conjugates.

    It reads the decision's generators as the certificate does: gens[:j]
    must equal the first j shift generators, and gens[j:] is the tail part.
    It does not require the tail part to move block 0 only, so it agrees
    with the certificate only on tail parts that do.
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

    tail_gens = decision.gens[j:]
    expected_rank = len(tail_gens) * tw.p**j
    conjs: list[Perm] = []
    for g in tail_gens:
        conjs.extend(block_conjugates(tw, j, g))
    try:
        images = [tail_image(tw, j, d) for d in conjs]
    except (NotInTail, NotInTower):
        images = None
    tail_ok = images is not None and decision.gens[:j] == shift_gens(tw)[:j]
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


def walk_closure(ix, start, gens, cap: int) -> set[int]:
    """Numbers of the closure of start under the index columns of gens, one element at a time."""
    return walk(start, ix.columns(gens), cap)


def complements_by_extension(
    group: GroupSet,
    normal: GroupSet,
    find_all: bool = True,
) -> list[GroupSet]:
    """All subgroups C with C meet N trivial and |C| * |N| = |G|.

    Backtracking over generator extensions with canonical-set memoization;
    with find_all=False, stops at the first complement.
    """
    _check_size(group)
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
                grown = walk_closure(ix, current, gens + (g,), target)
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


def abelian_subgroups_by_scan(group: GroupSet) -> list[GroupSet]:
    """Every abelian subgroup, by order and then by elements, with gens as found.

    Depth-first: each element outside the current subgroup that commutes
    with its gens is closed into a join, and new joins are grown further.
    """
    _check_size(group)
    ix = group._index
    found = {1 << ix.e: ({ix.e}, ())}  # mask -> (members, gens)

    def extend(current: set, mask: int, gens: tuple):
        for g in range(len(ix.elems)):
            if mask >> g & 1:
                continue
            col = ix.col(g)
            if any(ix.col(h)[g] != col[h] for h in gens):
                continue
            grown = walk_closure(ix, current, (g,), group.order)
            grown_mask = ix.mask(grown)
            if grown_mask in found:
                continue
            found[grown_mask] = (grown, gens + (g,))
            extend(grown, grown_mask, gens + (g,))

    extend({ix.e}, 1 << ix.e, ())
    return ix.sorted_subgroups(found.values())
