"""Exact permutations of {0, ..., degree-1} with cycle-notation I/O.

Conventions used throughout the package:

- composition: ``(a * b)(x) = a(b(x))``, the right factor acts first;
- conjugation: ``conjugate(x, g) = g * x * g**-1``; with the composition
  rule above, conjugating a cycle relabels its points through ``g``.

Permutations are stored as full image tables (degree <= a few hundred in
every intended use), so all operations are exact and allocation-cheap.
"""

from __future__ import annotations

import math
import re
from typing import Iterable


class Perm:
    """A permutation as the image tuple ``images[x] == image of x``."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection on 0..{len(images) - 1}: {images!r}")
        self.images = images

    @classmethod
    def _raw(cls, images: tuple) -> "Perm":
        # fast path: caller guarantees images is already a valid bijection tuple
        self = object.__new__(cls)
        self.images = images
        return self

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls._raw(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return all(i == x for x, i in enumerate(self.images))

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Perm") -> "Perm":
        if len(self.images) != len(other.images):
            raise ValueError(
                f"degree mismatch: {len(self.images)} vs {len(other.images)}"
            )
        img = self.images
        return Perm._raw(tuple(img[y] for y in other.images))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return Perm._raw(tuple(inv))

    def __pow__(self, k: int) -> "Perm":
        if k < 0:
            return self.inverse() ** (-k)
        result = Perm.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()), 1)

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles of length >= 2, sorted by least moved point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            y = self.images[start]
            while y != start:
                cyc.append(y)
                seen[y] = True
                y = self.images[y]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm({format_cycles(self)!r}, degree={self.degree})"

    def to_json(self) -> dict:
        return {"degree": self.degree, "images": list(self.images)}

    @classmethod
    def from_json(cls, obj: dict) -> "Perm":
        perm = cls(obj["images"])
        if perm.degree != obj["degree"]:
            raise ValueError("degree field disagrees with images length")
        return perm


def conjugate(x: Perm, g: Perm) -> Perm:
    """g * x * g**-1, i.e. x with its points relabelled through g."""
    if x.degree != g.degree:
        raise ValueError(f"degree mismatch: {x.degree} vs {g.degree}")
    gi = g.images
    out = [0] * len(gi)
    for i, xi in enumerate(x.images):
        out[gi[i]] = gi[xi]
    return Perm._raw(tuple(out))


def commutator(a: Perm, b: Perm) -> Perm:
    """a * b * a**-1 * b**-1."""
    return (a * b) * (b * a).inverse()


_CYCLES_RE = re.compile(r"(?:\(\s*\d+(?:[\s,]+\d+)*\s*\))+")


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse disjoint-cycle notation like ``"(0 1 2)(4 5)"``; ``"()"`` is the identity."""
    s = text.strip()
    if s == "()":
        return Perm.identity(degree)
    if not _CYCLES_RE.fullmatch(s):
        raise ValueError(f"malformed cycle notation: {text!r}")
    images = list(range(degree))
    used: set[int] = set()
    for group in re.findall(r"\(([^()]*)\)", s):
        pts = [int(tok) for tok in re.split(r"[\s,]+", group.strip())]
        for pt in pts:
            if pt >= degree:
                raise ValueError(f"point {pt} out of range for degree {degree}")
            if pt in used:
                raise ValueError(f"repeated point {pt} in {text!r}")
            used.add(pt)
        for i, pt in enumerate(pts):
            images[pt] = pts[(i + 1) % len(pts)]
    return Perm(images)


def format_cycles(a: Perm) -> str:
    """Inverse of parse_cycles: fixed points omitted, identity printed as "()"."""
    cycles = a.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(pt) for pt in cyc) + ")" for cyc in cycles)

