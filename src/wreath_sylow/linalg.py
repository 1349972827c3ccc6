"""Exact linear algebra over the prime field F_p.

Vectors are int tuples.  Subspaces are kept in reduced row echelon form
with pivots in increasing column order, so two subspaces are equal iff
their basis tuples are equal; a subspace finds its pivots once, on first
use.  Dimensions reach a few hundred (256 in the deepest benchmark cases,
2048 for a depth-11 closure at p = 2, n = 12), with no sparsity or bit
packing.

The engine acts only by coordinate permutations (entry k of a permutation
is where basis vector k moves), which spin applies in O(dim).  Dense maps
(tuples of rows, row k the image of basis vector k) appear only in the
generic reference helpers apply_map, perm_action_matrix, fixed_subspace,
augmentation_subspace and lower_central_series, which tests compare against.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

Matrix = tuple[tuple[int, ...], ...]


class _Echelon:
    """Mutable reduced-row-echelon accumulator."""

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
        """The basis as canonical tuples, emptying the accumulator.

        Each list row is dropped as its tuple is made, so the two copies of a
        dim x dim basis never coexist.
        """
        rows, out = self.rows, []
        rows.reverse()
        while rows:
            out.append(tuple(rows.pop()))
        self.pivots = []
        return tuple(out)


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_p^dim with canonical reduced-echelon basis rows."""

    p: int
    dim: int
    rows: Matrix

    @classmethod
    def span(cls, p: int, dim: int, vectors: Iterable[Sequence[int]]) -> "Subspace":
        ech = _Echelon(p, dim)
        for v in vectors:
            if len(v) != dim:
                raise ValueError(f"vector length {len(v)} != ambient dim {dim}")
            ech.insert(v)
        return cls(p, dim, ech.take_rows())

    @classmethod
    def zero(cls, p: int, dim: int) -> "Subspace":
        return cls(p, dim, ())

    @classmethod
    def full(cls, p: int, dim: int) -> "Subspace":
        return cls.span(p, dim, identity_matrix(dim))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, v: Sequence[int]) -> bool:
        if len(v) != self.dim:
            raise ValueError(f"vector length {len(v)} != ambient dim {self.dim}")
        return self._view().contains(v)

    @cached_property
    def _pivots(self) -> tuple[int, ...]:
        return tuple(next(k for k, x in enumerate(r) if x) for r in self.rows)

    def _view(self) -> _Echelon:
        """An echelon on the basis tuples and pivots themselves: for residuals, not insert."""
        ech = _Echelon(self.p, self.dim)
        ech.rows = list(self.rows)
        ech.pivots = self._pivots
        return ech

    def _ech(self) -> _Echelon:
        """An echelon on a copy of the basis, which insert may extend."""
        ech = self._view()
        ech.rows = [list(r) for r in self.rows]
        ech.pivots = list(self._pivots)
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
        if not small.rows:
            return big
        ech = big._ech()
        for r in small.rows:
            ech.insert(r)
        return Subspace(self.p, self.dim, ech.take_rows())

    def intersect(self, other: "Subspace") -> "Subspace":
        """Via the left kernel of the stacked bases."""
        self._check_compatible(other)
        stacked = self.rows + other.rows
        combos = left_kernel(stacked, self.p, self.dim)
        vecs = []
        for c in combos:
            v = [0] * self.dim
            for coef, row in zip(c[: self.rank], self.rows):
                if coef:
                    for k in range(self.dim):
                        v[k] = (v[k] + coef * row[k]) % self.p
            vecs.append(v)
        return Subspace.span(self.p, self.dim, vecs)

    def is_subspace_of(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        ech = other._view()
        return all(ech.contains(r) for r in self.rows)

    def to_json(self) -> dict:
        return {"p": self.p, "dim": self.dim, "basis": [list(r) for r in self.rows]}


def identity_matrix(dim: int) -> Matrix:
    return tuple(tuple(1 if k == i else 0 for k in range(dim)) for i in range(dim))


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


def left_kernel(rows: Sequence[Sequence[int]], p: int, width: int) -> list[tuple[int, ...]]:
    """Basis of the combinations c with sum c_i * rows[i] = 0.

    Standard augmented elimination: echelonize rows augmented with identity
    bookkeeping; combinations that reduce the data part to zero surface as
    rows pivoting inside the augmentation.
    """
    n = len(rows)
    ech = _Echelon(p, width + n)
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


def permute(v: Sequence[int], point_map: Sequence[int]) -> tuple[int, ...]:
    """v with coordinate k moved to point_map[k]; apply_map of perm_action_matrix in O(dim)."""
    out = [0] * len(v)
    for k, t in enumerate(point_map):
        out[t] = v[k]
    return tuple(out)


def spin(
    p: int, dim: int, seeds: Iterable[Sequence[int]], perms: Sequence[Sequence[int]]
) -> Subspace:
    """Smallest subspace containing the seeds and closed under every permutation.

    Worklist closure: each newly added basis vector is pushed through every
    coordinate permutation (see permute) until nothing new appears.
    """
    ech = _Echelon(p, dim)
    queue = []
    for v in seeds:
        if len(v) != dim:
            raise ValueError(f"seed length {len(v)} != ambient dim {dim}")
        if ech.insert(v):
            queue.append(tuple(x % p for x in v))
    while queue:
        v = queue.pop()
        for q in perms:
            w = permute(v, q)
            if ech.insert(w):
                queue.append(w)
    return Subspace(p, dim, ech.take_rows())


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
