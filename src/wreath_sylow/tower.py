"""The Sylow p-subgroup of Sym(p^n) as an iterated wreath tower.

A point ``0 <= a < p**n`` is identified with its base-p digit string
``(d_0, ..., d_{n-1})`` via ``a = sum(d_i * p**(n-1-i))``; ``d_0`` is the
most significant digit.  The tower group is generated by the *shift*
generators: ``shift_gen(i)`` adds 1 to digit i exactly on the points whose
digits 0..i-1 all vanish.  It is the full Sylow p-subgroup of the symmetric
group on p**n points, of order ``p**((p**n - 1) // (p - 1))``.

The structural layers computed here are used by the complement engine:

- the *tail filtration*: ``in_tail(tower, j, x)`` holds when x fixes the
  first j digits of every point, i.e. x acts only inside the p**j blocks
  of points sharing a j-digit prefix (the tail subgroups are normal and
  descend from the whole group at j=0 to the trivial group at j=n).  Such
  an x is read as its *block pieces* (``block_pieces``), one local image
  tuple per block it moves, and a prefix shift carries blocks onto blocks
  rigidly (``block_transport``), so its conjugates only move the pieces.
  The same block map gives the prefix shifts' coordinate permutations of
  the tail vectors (``tail_coordinate_perms``);
- the *portrait* of an element: its wreath coordinates as one flat table,
  row d holding the digit-d translation on each of the p**d d-prefixes;
  ``decompose`` finds it exactly for the tower's elements, and everything
  below is read off it, one decomposition per element;
- the *depth* of elements: the first digit with a nonzero row, since an
  element fixes the first j digits exactly when its rows 0..j-1 vanish;
- images in the abelianized tail: ``tail_image(tower, j, x)`` records, for
  each j-prefix block, the abelianization of the local action, giving the
  vector on which the complement criteria are checked.  Coordinate (s, b)
  is the sum mod p of the slice of row j+s that lies in block b.

The digits give the other closed forms too: prefix conjugates are built
one digit at a time (``block_conjugates``), and the chain of each level
module is spanned by monomials in the block digits (Kaloujnine; see
``partition``).

The *scale* generators ``scale_gen(i)`` multiply digit i by a fixed
primitive root r; they normalize the tower and generate a Hall p'-subgroup
of its normalizer of order ``(p-1)**n``.  The *co-shift* ``co_shift_gen(i)``
is the product of the nonidentity ``shift_gen(i-1)``-power conjugates of
``shift_gen(i)``: it adds 1 to digit i exactly where digits 0..i-2 vanish
and digit i-1 does not.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .linalg import Matrix, perm_action_matrix
from .perm import Perm, conjugate


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


def _unit_order(r: int, p: int) -> int:
    """Multiplicative order of r mod p; 0 when p divides r."""
    x, k = r % p, 1
    if x == 0:
        return 0
    while x != 1:
        x = x * r % p
        k += 1
    return k


def smallest_primitive_root(p: int) -> int:
    if p == 2:
        return 1
    for r in range(2, p):
        if _unit_order(r, p) == p - 1:
            return r
    raise ValueError(f"{p} is not prime")


@dataclass(frozen=True)
class Tower:
    """Parameters of the tower: prime p, height n, unit r scaling the digits."""

    p: int
    n: int
    r: int = 0  # 0 means "use the smallest primitive root mod p"

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.n < 1:
            raise ValueError(f"n = {self.n} must be >= 1")
        if self.r == 0:
            object.__setattr__(self, "r", smallest_primitive_root(self.p))
        if self.p == 2:
            if self.r % 2 != 1:
                raise ValueError("r must be 1 for p = 2")
            object.__setattr__(self, "r", 1)
        elif _unit_order(self.r, self.p) != self.p - 1:
            raise ValueError(f"r = {self.r} does not generate the units mod {self.p}")

    @property
    def degree(self) -> int:
        return self.p**self.n

    def order_exponent(self, m: Optional[int] = None) -> int:
        """log_p of the tower order at height m (default: this tower's height)."""
        if m is None:
            m = self.n
        return (self.p**m - 1) // (self.p - 1)

    def digits(self, a: int) -> tuple[int, ...]:
        return tuple(a // self.p ** (self.n - 1 - i) % self.p for i in range(self.n))

    def point(self, digits: Sequence[int]) -> int:
        a = 0
        for d in digits:
            a = a * self.p + d % self.p
        return a


def shift_gen(tower: Tower, i: int) -> Perm:
    """Add 1 to digit i on the points whose digits 0..i-1 all vanish."""
    if not 0 <= i <= tower.n - 1:
        raise ValueError(f"level {i} out of range 0..{tower.n - 1}")
    p, n = tower.p, tower.n
    step = p ** (n - 1 - i)  # weight of digit i
    span = step * p  # one full block of digit-i values
    images = list(range(tower.degree))
    # points with zero 0..i-1 prefix form the initial run of length span
    for a in range(span):
        images[a] = (a + step) % span
    return Perm(images)


def scale_gen(tower: Tower, i: int) -> Perm:
    """Multiply digit i by the unit r, fixing every other digit."""
    if not 0 <= i <= tower.n - 1:
        raise ValueError(f"level {i} out of range 0..{tower.n - 1}")
    p, n, r = tower.p, tower.n, tower.r
    step = p ** (n - 1 - i)
    images = []
    for a in range(tower.degree):
        d = a // step % p
        images.append(a + (r * d % p - d) * step)
    return Perm(images)


def co_shift_gen(tower: Tower, i: int) -> Perm:
    """Product of the nonidentity shift_gen(i-1)-power conjugates of shift_gen(i).

    Equals the identity on digit-(i-1) = 0 blocks and a digit-i increment on
    the rest of the zero 0..i-2 prefix region; defined for 1 <= i <= n-1.
    """
    if not 1 <= i <= tower.n - 1:
        raise ValueError(f"level {i} out of range 1..{tower.n - 1}")
    si, prev = shift_gen(tower, i), shift_gen(tower, i - 1)
    out = Perm.identity(tower.degree)
    for s in range(1, tower.p):
        out = out * conjugate(si, prev**s)
    return out


def shift_gens(tower: Tower) -> list[Perm]:
    return [shift_gen(tower, i) for i in range(tower.n)]


def scale_gens(tower: Tower) -> list[Perm]:
    return [scale_gen(tower, i) for i in range(tower.n)]


def co_shift_gens(tower: Tower) -> list[Perm]:
    return [co_shift_gen(tower, i) for i in range(1, tower.n)]


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


def decompose(x: Perm, p: int) -> tuple[tuple[int, ...], ...]:
    """Wreath coordinates of x as rows; raises NotInTower if there are none.

    Row d holds the digit-d translation on each of the p**d d-prefixes.  The
    rows are read from the last digit up: each fiber of p points sharing a
    prefix must map onto one fiber by a translation, and the induced map on
    prefixes is decomposed in turn.  This succeeds exactly on the tower.
    """
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


def abelianization(tower: Tower, x: Perm) -> tuple[int, ...]:
    """Image of x in the elementary abelian quotient of the tower.

    Coordinate i is the total digit-i translation amount: the shift
    generators map to the standard basis.  Raises NotInTower off the tower.
    """
    return tail_image(tower, 0, x).coords


@dataclass(frozen=True)
class TailVector:
    """A vector in the abelianized level-j tail subgroup.

    The tail subgroup at level j is the direct product of p**j copies of the
    height n-j tower, one per j-prefix block; modulo its commutator subgroup
    it is an F_p-space of dimension (n-j) * p**j.  Coordinates are stored
    level-major: entry (s * p**j + b) is the digit-(j+s) translation total of
    the local action on block b.  Each level-s slice is one summand of the
    natural block-permutation module, and the diagonal vectors (a constant
    slice in one level) span the fixed subspace under prefix permutations.
    """

    p: int
    n: int
    j: int
    coords: tuple[int, ...]

    @property
    def levels(self) -> int:
        return self.n - self.j

    @property
    def blocks(self) -> int:
        return self.p**self.j

    @property
    def dim(self) -> int:
        return self.levels * self.blocks

    def summand(self, s: int) -> tuple[int, ...]:
        """The slice of coordinates at local level s (global digit j+s)."""
        return self.coords[s * self.blocks : (s + 1) * self.blocks]

    def with_only_summand(self, s: int) -> "TailVector":
        coords = [0] * self.dim
        coords[s * self.blocks : (s + 1) * self.blocks] = self.summand(s)
        return TailVector(self.p, self.n, self.j, tuple(coords))


def tail_image(tower: Tower, j: int, x: Perm) -> TailVector:
    """Image of x in the abelianized level-j tail.

    Requires x to be a tower element fixing all j-prefixes: NotInTail is
    raised first, naming the first block moved, then NotInTower.
    """
    p, n = tower.p, tower.n
    if not 0 <= j <= n:
        raise ValueError(f"tail level {j} out of range")
    if x.degree != tower.degree:
        raise ValueError(f"degree mismatch: {x.degree} vs {tower.degree}")
    size = p ** (n - j)
    for a, y in enumerate(x.images):
        if y // size != a // size:
            raise NotInTail(f"moves block {a // size} (level {j})")
    return portrait_tail_image(tower, j, decompose(x, p))


def portrait_tail_image(tower: Tower, j: int, rows: Sequence[Sequence[int]]) -> TailVector:
    """The tail image read off the rows of an element of the level-j tail.

    Coordinate (s, b), the local abelianization at level s, is the sum mod p
    of the digit-(j+s) translations in block b: p**s adjacent row entries.
    """
    p, n = tower.p, tower.n
    coords = tuple(
        sum(rows[j + s][b * p**s : (b + 1) * p**s]) % p for s in range(n - j) for b in range(p**j)
    )
    return TailVector(p, n, j, coords)


def block_transport(tower: Tower, j: int, g: Perm) -> Optional[tuple[int, ...]]:
    """The block map of g if g moves each j-prefix block rigidly; else None.

    Rigidly means onto a block with every point's offset in its block kept,
    as a prefix shift does: it changes only a digit before j.  Conjugating
    by such a g then moves a tail element's pieces (see block_pieces) to
    the image blocks unchanged.
    """
    size = tower.p ** (tower.n - j)
    out = []
    for b in range(0, tower.degree, size):
        t = g.images[b]
        if t % size or g.images[b : b + size] != tuple(range(t, t + size)):
            return None
        out.append(t // size)
    return tuple(out)


def block_pieces(tower: Tower, j: int, x: Perm) -> dict[int, tuple[int, ...]]:
    """The local image tuple of x on each j-prefix block that it moves.

    Raises NotInTail if x moves a point out of its block.  The level-j tail
    is the direct product of the blocks' height-(n-j) towers: x is in it
    exactly when it keeps its blocks and each piece lies in that tower.
    """
    if not in_tail(tower, j, x):
        raise NotInTail(f"moves a block (level {j})")
    size = tower.p ** (tower.n - j)
    out = {}
    for c in range(tower.p**j):
        base = c * size
        block = x.images[base : base + size]
        if block != tuple(range(base, base + size)):
            out[c] = tuple(y - base for y in block)
    return out


def tail_coordinate_perms(tower: Tower, j: int) -> list[tuple[int, ...]]:
    """The first j shift generators as permutations of tail-vector coordinates.

    Entry k is the coordinate that basis vector k moves to, the convention
    of ``linalg.perm_action_matrix``.  A prefix shift moves the blocks
    rigidly, so it moves every level's slice by its block map.
    """
    out = []
    for i in range(j):
        bm = block_transport(tower, j, shift_gen(tower, i))
        out.append(tuple(s * len(bm) + t for s in range(tower.n - j) for t in bm))
    return out


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


@functools.lru_cache(maxsize=None)
def _cached_tower(p: int, n: int, r: int) -> Tower:
    return Tower(p, n, r)


def tower(p: int, n: int, r: int = 0) -> Tower:
    """Cached Tower constructor."""
    return _cached_tower(p, n, r)
