"""The Sylow p-subgroup of Sym(p^n) as an iterated wreath tower.

A point ``0 <= a < p**n`` is identified with its base-p digit string
``(d_0, ..., d_{n-1})`` via ``a = sum(d_i * p**(n-1-i))``; ``d_0`` is the
most significant digit.  The tower group is generated by the *shift*
generators: ``shift_gen(i)`` adds 1 to digit i exactly on the points whose
digits 0..i-1 all vanish.  It is the full Sylow p-subgroup of the symmetric
group on p**n points, of order ``p**((p**n - 1) // (p - 1))``.

The structural layers computed here are used by the complement engine:

- the *tail filtration*: the level-j tail is the subgroup fixing the
  first j digits of every point, i.e. acting only inside the p**j blocks
  of points sharing a j-digit prefix (the tail subgroups are normal and
  descend from the whole group at j=0 to the trivial group at j=n).  A
  prefix shift carries blocks onto blocks rigidly, so the prefix conjugates
  of an x that moves one block only are the same local piece moved to other
  blocks.  The block maps are the height-j tower's shifts, and they rotate
  lanes of the tail vectors, read off the digits (``tail_movers``);
- the *portrait* of an element: its wreath coordinates as one flat table,
  row d holding the digit-d translation on each of the p**d d-prefixes;
  ``decompose`` finds it exactly for the tower's elements, and everything
  below is read off it, one decomposition per element;
- the *depth* of elements: the first digit with a nonzero row, since an
  element fixes the first j digits exactly when its rows 0..j-1 vanish;
- images in the abelianized tail: ``portrait_tail_image(tower, j, rows)``
  is the coordinate tuple on which the complement criteria are checked.
  It is level-major: entry s * p**j + b, the abelianization of the local
  action at digit j+s on j-prefix block b, is the sum mod p of the slice
  of row j+s in block b, and each level's slice of p**j entries is one
  summand of the natural block-permutation module.  ``in_tail`` and
  ``tail_image`` state the tail and its image on a permutation; only the
  tests call them.

The digits give the other closed forms too: shifts, co-shifts and partition
generators are *level elements*, which add a function of the k-prefix block
to digit k (``level_element``); prefix conjugates are built one digit at a
time (``block_conjugates``), and the chain of each level module is spanned
by monomials in the block digits (Kaloujnine; see ``partition``).

The *scale* generators ``scale_gen(i)`` multiply digit i by ``tower.r``, the
smallest primitive root mod p (every primitive root gives the same group);
they normalize the tower and generate a Hall p'-subgroup of its normalizer
of order ``(p-1)**n``.  The *co-shift* ``co_shift_gen(i)``, the product of the
nonidentity ``shift_gen(i-1)``-power conjugates of ``shift_gen(i)``, adds 1 to
digit i on the i-prefix blocks 1..p-1: where digits 0..i-2 vanish and i-1 does not.

Tables that depend only on the tower are built once, each in O(degree)
words, and every per-point pass over them is a C-level gather
(``operator.itemgetter``) or slice: ``decompose`` reads its step, prefix
and digit tables per (p, degree), and each generator is built once per
(tower, level) by its cached builder, so ``shift_gens``, ``scale_gens``
and ``co_shift_gens`` are tuples of the same objects and a caller that
needs one level builds that level only.  A fact of a generator is a
function of its value and is kept the same way: ``scale_invariant`` is
memoized by (tower, permutation), so an equal copy reads the same entry.
``tail_movers`` needs no table: each prefix shift's packed-row movers are
three masks written from the digits, in microseconds.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass, field
from itertools import cycle, repeat
from operator import add, floordiv, itemgetter, mod
from typing import Iterable, Optional, Sequence

from .linalg import Matrix, layout, perm_action_matrix
from .perm import Perm, conjugate


# Largest degree p**n a Tower accepts, so oversized input is refused before
# any permutation is built.  At the cap, deciding s12 * s13 at (2, 14) spins
# packed 8192-wide rows (an echelon of 8192**2 bits); each doubling of the
# degree doubles the point-by-point permutation work and quadruples the echelon.
DEGREE_CAP = 2**14


class NotInTower(ValueError):
    """Raised when a permutation is not an element of the wreath tower."""

    def __init__(self, msg: str, degree: int, block: int):
        super().__init__(f"{msg} (degree {degree}, block {block})")
        self.degree = degree
        self.block = block


class NotInTail(ValueError):
    """Raised when a permutation moves points across j-prefix blocks."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def smallest_primitive_root(p: int) -> int:
    """The least r whose powers give every unit mod the prime p: r = 1 only at p = 2."""
    return next(r for r in range(1, p) if len({pow(r, k, p) for k in range(1, p)}) == p - 1)


@dataclass(frozen=True)
class Tower:
    """The tower of prime p and height n; r is derived from p (see scale_gen)."""

    p: int
    n: int
    r: int = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n = {self.n} must be >= 1")
        # before the prime test, and with no huge power: 2**15 > DEGREE_CAP
        if self.p ** min(self.n, DEGREE_CAP.bit_length()) > DEGREE_CAP:
            raise ValueError(f"degree {self.p}**{self.n} exceeds the degree cap {DEGREE_CAP}")
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        object.__setattr__(self, "r", smallest_primitive_root(self.p))

    @property
    def degree(self) -> int:
        return self.p**self.n

    def order_exponent(self, m: Optional[int] = None) -> int:
        """log_p of the tower order at height m (default: this tower's height)."""
        if m is None:
            m = self.n
        return (self.p**m - 1) // (self.p - 1)


def level_element(tower: Tower, k: int, vec: Sequence[int]) -> Perm:
    """Add vec[b] to digit k on k-prefix block b, rotating it by vec[b] * p**(n-1-k); fix the rest."""
    p, n = tower.p, tower.n
    if not 0 <= k <= n - 1:
        raise ValueError(f"level {k} out of range 0..{n - 1}")
    if len(vec) > p**k:
        raise ValueError(f"{len(vec)} entries for {p**k} blocks at level {k}")
    step = p ** (n - 1 - k)  # weight of digit k
    size = step * p
    images: list[int] = []
    for b, c in enumerate(vec):
        lo = b * size
        mid = lo + c % p * step
        images += range(mid, lo + size)
        images += range(lo, mid)
    images += range(len(images), tower.degree)
    return Perm._raw(tuple(images))


@functools.cache
def shift_gen(tower: Tower, i: int) -> Perm:
    """Add 1 to digit i on the points whose digits 0..i-1 all vanish: block 0's level element."""
    return level_element(tower, i, (1,))


@functools.cache
def scale_gen(tower: Tower, i: int) -> Perm:
    """Multiply digit i by tower.r, the smallest primitive root mod p (1 at p = 2)."""
    if not 0 <= i <= tower.n - 1:
        raise ValueError(f"level {i} out of range 0..{tower.n - 1}")
    p, n, r = tower.p, tower.n, tower.r
    step = p ** (n - 1 - i)  # weight of digit i
    moves: list[int] = []  # the displacement of each point, periodic in p * step
    for d in range(p):
        moves += [(r * d % p - d) * step] * step
    return Perm._raw(tuple(map(add, range(tower.degree), cycle(moves))))


@functools.cache
def co_shift_gen(tower: Tower, i: int) -> Perm:
    """Add 1 to digit i on the i-prefix blocks 1..p-1; defined for 1 <= i <= n-1."""
    if not 1 <= i <= tower.n - 1:
        raise ValueError(f"level {i} out of range 1..{tower.n - 1}")
    return level_element(tower, i, (0,) + (1,) * (tower.p - 1))


def shift_gens(tower: Tower) -> tuple[Perm, ...]:
    return tuple(shift_gen(tower, i) for i in range(tower.n))


def scale_gens(tower: Tower) -> tuple[Perm, ...]:
    return tuple(scale_gen(tower, i) for i in range(tower.n))


def co_shift_gens(tower: Tower) -> tuple[Perm, ...]:
    """co_shift_gens(tower)[i - 1] is co_shift_gen(tower, i)."""
    return tuple(co_shift_gen(tower, i) for i in range(1, tower.n))


@functools.cache
def scale_invariant(tower: Tower, g: Perm) -> bool:
    """Whether eta * g is g * eta or g**r * eta for every scale generator eta.

    This is the complement certificate's invariance check, one generator at
    a time, memoized by value: an equal copy of g reads the same entry.  At
    p = 2 every scale generator is the identity and the check holds.
    """
    return all((eg := eta * g) == g * eta or eg == g**tower.r * eta for eta in scale_gens(tower))


def prefix_rep(tower: Tower, j: int, block: int) -> Perm:
    """A shift word sending the zero j-prefix to the given block.

    The word shift_0^b0 * ... * shift_{j-1}^b_{j-1} (rightmost factor first)
    maps the all-zero prefix to (b0, ..., b_{j-1}), the digits of ``block``.
    """
    if not 0 <= j <= tower.n:
        raise ValueError(f"prefix length {j} out of range")
    if not 0 <= block < tower.p**j:
        raise ValueError(f"block {block} out of range for prefix length {j}")
    out = Perm.identity(tower.degree)
    for i in range(j):
        b_i = block // tower.p ** (j - 1 - i) % tower.p
        out = out * shift_gen(tower, i) ** b_i
    return out


def block_conjugates(tower: Tower, j: int, x: Perm) -> list[Perm]:
    """Conjugates of x by the p**j prefix representatives, in block order.

    prefix_rep(j, b) is one shift power per digit, so conjugate by digit j-1
    first and put each new, more significant digit outermost.
    """
    if not 0 <= j <= tower.n:
        raise ValueError(f"prefix length {j} out of range")
    out = [x]
    for i in reversed(range(j)):
        powers = [shift_gen(tower, i) ** c for c in range(tower.p)]
        out = [conjugate(y, g) for g in powers for y in out]
    return out


def base_translations(tower: Tower) -> list[Perm]:
    """The p**(n-1) disjoint p-cycles generating the bottom abelian layer.

    These are the conjugates of the top shift generator, indexed by the
    (n-1)-digit prefix of their support; they commute pairwise and their
    normal closure is the elementary abelian base group of the tower.
    """
    return block_conjugates(tower, tower.n - 1, shift_gen(tower, tower.n - 1))


def in_tail(tower: Tower, j: int, x: Perm) -> bool:
    """True iff x fixes the first j digits of every point."""
    if not 0 <= j <= tower.n:
        raise ValueError(f"tail level {j} out of range 0..{tower.n}")
    if x.degree != tower.degree:
        raise ValueError(f"degree mismatch: {x.degree} vs {tower.degree}")
    size = tower.p ** (tower.n - j)
    return all(y // size == a // size for a, y in enumerate(x.images))


@functools.cache
def _fiber_tables(p: int, degree: int) -> tuple[array, array, tuple]:
    """decompose's tables: step[a] = a - a % p + (a + 1) % p, a // p and a % p.

    step rotates each fiber of p points by one.  No entry depends on the
    level, so a level of degree d reads the first d; the arrays hold one
    machine word per point, whatever p is.
    """
    points = range(degree)
    step = array("I", map(add, points, cycle((1,) * (p - 1) + (1 - p,))))
    return step, array("I", map(floordiv, points, repeat(p))), tuple(map(mod, points, repeat(p)))


def decompose(x: Perm, p: int) -> tuple[tuple[int, ...], ...]:
    """Wreath coordinates of x as rows; raises NotInTower if there are none.

    Row d holds the digit-d translation on each of the p**d d-prefixes.  The
    rows are read from the last digit up: each fiber of p points sharing a
    prefix must map onto one fiber by a translation, and the induced map on
    prefixes is decomposed in turn.  This succeeds exactly on the tower.

    A map sends fibers to fibers by translations exactly when it commutes
    with the rotation ``step`` of every fiber, so each level is checked by
    one gather of the cached ``step`` table and p - 1 slice comparisons;
    the fiber heads' images, gathered from the cached ``prefix`` and
    ``digit`` tables, give the induced map and the row.  Only an input that
    fails a level is walked fiber by fiber, to name its first bad block.
    """
    images = x.images
    d = len(images)
    step, prefix, digit = _fiber_tables(p, d)
    rows = []
    while d > 1:
        if d % p:
            raise ValueError(f"degree {d} is not a power of {p}")
        stepped = itemgetter(*images)(step)  # step(x(a)), to equal x(step(a))
        for y in range(1, p):
            if images[y::p] != stepped[y - 1 :: p]:
                _raise_bad_fiber(images, p)
        if d == p:  # one fiber: an itemgetter of one head returns no tuple
            rows.append((digit[images[0]],))
            break
        heads = itemgetter(*images[::p])
        rows.append(heads(digit))
        images = heads(prefix)
        d //= p
    rows.reverse()
    return tuple(rows)


def _raise_bad_fiber(images: Sequence[int], p: int):
    """Raise NotInTower naming the first fiber that is not translated onto a fiber."""
    d = len(images)
    for b in range(0, d, p):
        target, c = divmod(images[b], p)
        for y in range(1, p):
            img = images[b + y]
            if img // p != target:
                raise NotInTower("fiber not preserved", d, b // p)
            if img % p != (y + c) % p:
                raise NotInTower("fiber action is not a translation", d, b // p)
    raise AssertionError("every fiber is translated onto a fiber")


def reconstruct(rows: Sequence[Sequence[int]], p: int) -> Perm:
    """Inverse of decompose."""
    images = [0]
    for row in rows:
        if len(row) != len(images):
            raise ValueError("row length disagrees with the number of prefixes")
        images = [t * p + (y + c) % p for t, c in zip(images, row) for y in range(p)]
    return Perm._raw(tuple(images))


def random_element(tower: Tower, rng) -> Perm:
    """Uniformly random tower element from random rows, the last digit's drawn first."""
    p = tower.p
    rows = [tuple(rng.randrange(p) for _ in range(p**d)) for d in reversed(range(tower.n))]
    return reconstruct(rows[::-1], p)


def tail_image(tower: Tower, j: int, x: Perm) -> tuple[int, ...]:
    """Coordinates of x in the abelianized level-j tail (level-major, see above).

    Requires x to be a tower element fixing all j-prefixes: NotInTail is
    raised first, then NotInTower.
    """
    if not in_tail(tower, j, x):
        raise NotInTail(f"moves a block (level {j})")
    return portrait_tail_image(tower, j, decompose(x, tower.p))


def portrait_tail_image(tower: Tower, j: int, rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The tail image read off the rows of an element of the level-j tail.

    Coordinate (s, b), the local abelianization at level s, is the sum mod p
    of the digit-(j+s) translations in block b: p**s adjacent row entries.
    """
    p = tower.p
    return tuple(
        sum(rows[j + s][b * p**s : (b + 1) * p**s]) % p for s in range(tower.n - j) for b in range(p**j)
    )


def tail_movers(tw: Tower, j: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The first j shift generators as the (mask, shift in bits) movers ``linalg.spin`` takes.

    Shift i moves the j-prefix blocks as the height-j tower's shift moves
    its points, so with step = p**(j-1-i) it moves lanes [0, (p-1)*step) of
    every level slice up by step, lanes [(p-1)*step, p*step) down by
    (p-1)*step, and fixes the rest.  Each nonempty mask is one slice's,
    copied to all n-j slices by one multiplication.
    """
    p, m, blocks = tw.p, tw.n - j, tw.p**j
    width = layout(p, m * blocks).width
    slices = ((1 << m * blocks * width) - 1) // ((1 << blocks * width) - 1)  # 1 in each slice's lane 0
    out = []
    for i in range(j):
        step = p ** (j - 1 - i) * width  # in bits
        up, low = (1 << (p - 1) * step) - 1, (1 << p * step) - 1
        movers = ((up, step), (low ^ up, (1 - p) * step), ((1 << blocks * width) - 1 ^ low, 0))
        out.append(tuple((mask * slices, d) for mask, d in movers if mask * slices))
    return tuple(out)


def point_action_matrices(tower: Tower) -> list[Matrix]:
    """The shift generators as permutation matrices: the natural module F_p^(p^n)."""
    return [perm_action_matrix(g.images, tower.p) for g in shift_gens(tower)]


def depth(tower: Tower, gens: Iterable[Perm]) -> int:
    """Largest j with every generator in the level-j tail; n for no/identity gens.

    Tail subgroups are normal, so the normal closure of the generators has
    the same depth.  Raises NotInTower if a generator is off the tower.
    """
    return portrait_depth(tower, [decompose(g, tower.p) for g in gens])


def portrait_depth(tower: Tower, portraits: Iterable[Sequence[Sequence[int]]]) -> int:
    """The first digit with a nonzero row in any of the portraits; n if none.

    An element fixes the first j digits of every point exactly when its
    rows 0..j-1 vanish, so this is the depth of the elements.
    """
    j = tower.n
    for rows in portraits:
        if len(rows) != tower.n:
            raise ValueError(f"degree mismatch: {tower.p ** len(rows)} vs {tower.degree}")
        j = next((d for d in range(j) if any(rows[d])), j)
    return j


def rotation_subgroup_gens(tower: Tower) -> list[Perm]:
    """p = 2 only: one order-4 rotation per dihedral block of the level n-2 tail.

    The conjugates of shift_gen(n-2) * shift_gen(n-1) under the first n-2
    shift generators; they generate the homocyclic abelian subgroup
    (C_4)^(2^(n-2)), which is characteristic in the tower.
    """
    if tower.p != 2:
        raise ValueError("rotation subgroup is defined for p = 2 only")
    if tower.n < 2:
        raise ValueError("needs height >= 2")
    rot = shift_gen(tower, tower.n - 2) * shift_gen(tower, tower.n - 1)
    return block_conjugates(tower, tower.n - 2, rot)


tower = functools.cache(Tower)  # the cached constructor: one Tower per (p, n)
