"""Exact linear algebra over the prime field F_p, on packed rows.

A vector of F_p^dim is packed into one Python int: coordinate k sits in
lane k, bits k*W .. k*W + W-1.  At p = 2 a lane is one bit and adding rows
is XOR, the packed rows of M4RI (Albrecht, Bard and Hart, ACM TOMS 37(1),
2010).  At odd p the lane width W is derived from p, wide enough that a
lane holds 2p - 1 (a reduced entry plus p minus another), and a sum is
reduced lanewise by a biased compare and a subtract (``Layout.reduce``), as
in the packed small-field rows of Boothby and Bradshaw (arXiv:0901.1413),
with stdlib ints as the words.  Dimensions reach a few thousand (8192 at
p = 2, n = 14 for a depth-12 closure whose generator moves both of its
levels; a closure whose generators each move one level is not spun, see
``uniserial.level_heights``).

Subspaces keep their basis in fully reduced row echelon form with pivots
in increasing lane order, so two subspaces are equal iff their packed
bases are equal.  A row's pivot coefficient is 1 and every other row is 0
in its lane, so a residual reads the coefficients off the pivot lanes of
the vector and touches only the rows whose pivots it hits.  A subspace
keeps the echelon that built it (in spin, from_packed or sum_with) for its
residuals, and a sum inserts into a copy, never into a kept one.  The
canonical tuple rows are unpacked only when a caller reads them.

The engine acts only by coordinate permutations, which spin takes as
movers: one (mask, shift in bits) pair per distinct displacement of a
lane, written from the digits by ``tower.tail_movers``.  Dense maps
(tuples of rows, row k the image of basis vector k) appear only in
apply_map, perm_action_matrix and lower_central_series, the generic chain
that the acceptance suite compares the closed forms against; the generic
fixed and augmentation solves live with the test references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterable, Sequence

Matrix = tuple[tuple[int, ...], ...]


class Layout:
    """The packing of F_p^dim into ints: lane width, lane masks and lanewise reduction."""

    def __init__(self, p: int, dim: int):
        self.p = p
        self.dim = dim
        # one bit at p = 2; else whole hex digits holding 2p - 1 below the top bit
        self.width = 1 if p == 2 else -(-(p.bit_length() + 1) // 4) * 4
        self.lane = (1 << self.width) - 1
        self.ones = ((1 << self.width * dim) - 1) // self.lane  # 1 in every lane
        # (x + bias) has the top lane bit set exactly where x >= p, for x < 2p
        self.bias = ((1 << self.width - 1) - p) * self.ones
        self.p_lanes = p * self.ones

    def pack(self, v: Sequence[int]) -> int:
        """The packed form of v, entries reduced mod p."""
        if len(v) != self.dim:
            raise ValueError(f"vector length {len(v)} != ambient dim {self.dim}")
        if not v:
            return 0
        p = self.p
        if p == 2:
            return int(bytes(x & 1 for x in reversed(v)).translate(_BITS_OUT), 2)
        digits = self.width // 4
        return int("".join(format(x % p, f"0{digits}x") for x in reversed(v)), 16)

    def unpack(self, x: int) -> tuple[int, ...]:
        if not self.dim:
            return ()
        if self.p == 2:
            return tuple(format(x, f"0{self.dim}b").encode().translate(_BITS_IN)[::-1])
        digits = self.width // 4
        s = format(x, f"0{self.dim * digits}x")
        return tuple(int(s[k - digits : k], 16) for k in range(len(s), 0, -digits))

    def reduce(self, x: int) -> int:
        """x with every lane taken mod p; each lane of x must be below 2p."""
        return x - (((x + self.bias) >> self.width - 1) & self.ones) * self.p

    def times(self, x: int, c: int) -> int:
        """c * x lanewise mod p, for 0 < c < p, by doubling."""
        out = 0
        while True:
            if c & 1:
                out = self.reduce(out + x) if out else x
            c >>= 1
            if not c:
                return out
            x = self.reduce(x + x)

    def sub(self, w: int, c: int, x: int) -> int:
        """w - c * x lanewise mod p, for 0 < c < p."""
        if self.p == 2:
            return w ^ x
        return self.reduce(w + self.p_lanes - (x if c == 1 else self.times(x, c)))


_BITS_OUT = bytes.maketrans(b"\x00\x01", b"01")
_BITS_IN = bytes.maketrans(b"01", b"\x00\x01")


@cache
def layout(p: int, dim: int) -> Layout:
    return Layout(p, dim)


class _Echelon:
    """Mutable fully reduced row echelon form of packed rows."""

    def __init__(self, lay: Layout):
        self.lay = lay
        self.rows: dict[int, int] = {}  # pivot lane -> row, 1 there and 0 in every other pivot lane
        self.pivots = 0  # full lane masks at the pivot lanes
        self.support = 0  # the OR of the rows as inserted: every lane a row may be nonzero in

    def residual(self, w: int) -> int:
        """The reduced w minus its combination of the rows on w's pivot lanes."""
        rows, m = self.rows, w & self.pivots
        if self.lay.p == 2:
            while m:
                low = m & -m
                w ^= rows[low.bit_length() - 1]
                m ^= low
            return w
        lay = self.lay
        width, lane = lay.width, lay.lane
        while m:
            at = ((m & -m).bit_length() - 1) // width * width
            c = (m >> at) & lane
            w = lay.sub(w, c, rows[at // width])
            m ^= c << at
        return w

    def insert(self, w: int) -> bool:
        """Reduce the packed w and add it to the basis; False if w was already in the span."""
        w = self.residual(w)
        if not w:
            return False
        lay = self.lay
        width, lane = lay.width, lay.lane
        k = ((w & -w).bit_length() - 1) // width
        c = (w >> k * width) & lane
        if c != 1:
            w = lay.times(w, pow(c, -1, lay.p))
        # clear the new pivot lane from the rows, if any row has it
        if self.support >> k * width & lane:
            rows = self.rows
            for piv, row in rows.items():
                c = (row >> k * width) & lane
                if c:
                    rows[piv] = lay.sub(row, c, w)
        self.rows[k] = w
        self.pivots |= lane << k * width
        self.support |= w
        return True

    def take_rows(self) -> tuple[int, ...]:
        """The basis rows in pivot order."""
        return tuple(self.rows[k] for k in sorted(self.rows))


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_p^dim with its canonical reduced-echelon basis, packed (see Layout)."""

    p: int
    dim: int
    packed: tuple[int, ...]
    echelon: _Echelon = field(compare=False, repr=False)  # the one that built it; never inserted into

    @classmethod
    def _of(cls, ech: _Echelon) -> "Subspace":
        return cls(ech.lay.p, ech.lay.dim, ech.take_rows(), ech)

    @classmethod
    def span(cls, p: int, dim: int, vectors: Iterable[Sequence[int]]) -> "Subspace":
        return cls.from_packed(p, dim, map(layout(p, dim).pack, vectors))

    @classmethod
    def from_packed(cls, p: int, dim: int, vectors: Iterable[int]) -> "Subspace":
        """The span of packed vectors, each lane already reduced mod p."""
        ech = _Echelon(layout(p, dim))
        for w in vectors:
            ech.insert(w)
        return cls._of(ech)

    @classmethod
    def full(cls, p: int, dim: int) -> "Subspace":
        """F_p^dim, whose canonical basis is the identity rows."""
        width = layout(p, dim).width
        return cls.from_packed(p, dim, (1 << k * width for k in range(dim)))

    @cached_property
    def rows(self) -> Matrix:
        """The basis as canonical tuples."""
        return tuple(map(layout(self.p, self.dim).unpack, self.packed))

    @property
    def rank(self) -> int:
        return len(self.packed)

    def contains(self, v: Sequence[int]) -> bool:
        return not self.echelon.residual(layout(self.p, self.dim).pack(v))

    def _ech(self) -> _Echelon:
        """A copy of the kept echelon, which insert may extend."""
        kept = self.echelon
        ech = _Echelon(kept.lay)
        ech.rows, ech.pivots, ech.support = dict(kept.rows), kept.pivots, kept.support
        return ech

    def _check_compatible(self, other: "Subspace"):
        if (self.p, self.dim) != (other.p, other.dim):
            raise ValueError(
                f"ambient mismatch: F_{self.p}^{self.dim} vs F_{other.p}^{other.dim}"
            )

    def sum_with(self, other: "Subspace") -> "Subspace":
        """Start from the larger basis, already reduced, and insert the smaller one."""
        self._check_compatible(other)
        big, small = (self, other) if self.rank >= other.rank else (other, self)
        if not small.packed:
            return big
        ech = big._ech()
        for w in small.packed:
            ech.insert(w)
        return Subspace._of(ech)


def apply_map(matrix: Matrix, v: Sequence[int], p: int) -> tuple[int, ...]:
    """Image of v under the map whose row k is the image of basis vector k."""
    dim = len(matrix[0]) if matrix else len(v)
    out = [0] * dim
    for c, row in zip(v, matrix):
        if c % p:
            for k, m in enumerate(row):
                if m:
                    out[k] = (out[k] + c * m) % p
    return tuple(out)


def perm_action_matrix(point_map: Sequence[int], p: int) -> Matrix:
    """The permutation matrix sending basis vector k to basis vector point_map[k]."""
    dim = len(point_map)
    rows = []
    for k in range(dim):
        row = [0] * dim
        row[point_map[k]] = 1
        rows.append(tuple(row))
    return tuple(rows)


def kernel_packed(p: int, width: int, rows: Sequence[int]) -> list[int]:
    """Packed combinations c (lane i for rows[i]) with sum c_i * rows[i] = 0.

    Standard augmented elimination: each packed row of F_p^width gets lane
    width + i set as bookkeeping; combinations that reduce the data lanes to
    zero surface as residuals living in the augmentation lanes.
    """
    lay = layout(p, width + len(rows))
    start = lay.width * width
    ech = _Echelon(lay)
    kernel = []
    for i, row in enumerate(rows):
        w = ech.residual(row | 1 << start + i * lay.width)
        if w >> start << start == w:
            kernel.append(w >> start)
        else:
            ech.insert(w)
    return kernel


def spin(
    p: int, dim: int, seeds: Iterable[Sequence[int]], movers: Sequence[Sequence[tuple[int, int]]]
) -> Subspace:
    """Smallest subspace containing the seeds and closed under every permutation.

    Each coordinate permutation comes as its movers: (mask, d) pairs, the
    lanes in mask moving d bits up (down for d < 0), such as
    ``tower.tail_movers`` writes.  Worklist closure: each newly added basis
    vector is pushed through every permutation until nothing new appears.
    """
    lay = layout(p, dim)
    ech = _Echelon(lay)
    queue = [w for w in map(lay.pack, seeds) if ech.insert(w)]
    while queue:
        v = queue.pop()
        for mover in movers:
            w = 0
            for mask, d in mover:
                w |= (v & mask) << d if d >= 0 else (v & mask) >> -d
            if ech.insert(w):
                queue.append(w)
    return Subspace._of(ech)


def lower_central_series(start: Subspace, actions: Sequence[Matrix]) -> list[Subspace]:
    """The chain start = M_1 >= M_2 >= ... with M_{r+1} spanned by (g-1)M_r.

    Iterates until the zero subspace and returns the whole chain including
    both ends.  Raises if a step fails to descend strictly (the chain of a
    finite p-group action always does).
    """
    chain = [start]
    cur = start
    while cur.rank:
        vecs = []
        for v in cur.rows:
            for mat in actions:
                w = apply_map(mat, v, cur.p)
                vecs.append(tuple((a - b) % cur.p for a, b in zip(w, v)))
        nxt = Subspace.span(cur.p, cur.dim, vecs)
        if nxt.rank >= cur.rank:
            raise RuntimeError("commutator chain failed to descend strictly")
        chain.append(nxt)
        cur = nxt
    return chain
