"""Partition subgroups: products of terms of the per-level module chains.

Level k of the tower carries an elementary abelian subgroup generated by
the p**k prefix conjugates of shift_gen(k); as a module for the height-k
prefix group it is the natural block-permutation module F_p^(p^k), and its
invariant subspaces form a single descending chain of length p**k (the
module is uniserial).  A partition subgroup is a product of one chain
member per level, recorded by the index tuple (i_0, ..., i_{n-1}) with
0 <= i_k <= p**k; index i_k = p**k means the level is absent.

The chain is spanned by monomials (Kaloujnine, Ann. Sci. ENS 65, 1948):
give d_0^a_0 * ... * d_{k-1}^a_{k-1}, a function of a block's digits (most
significant first, 0^0 = 1), the weight sum(a_i * p**i).  The prefix group
adds to digit i a function of digits 0..i-1, so it maps each monomial to
itself plus monomials of smaller weight.  Those of weight below p**k - r
span an invariant subspace of codimension r: by uniseriality, term r.  The
p**k monomials are a basis of all functions of the digits, so each term's
monomials are already a basis of it, and partition_generators maps them to
tower elements with no elimination: a chain vector is an exponent per
level-k block, and ``tower.level_element`` adds it to digit k.  To decide
a normal spec, ``module_generators`` takes only each term's top monomial.

Closed forms implemented here (cross-checked against the complement engine
and the brute-force oracle in the test suite): with j the depth (smallest
level whose term is nontrivial), the subgroup is normal iff i_k <= p**j
for every k >= j, and a normal one has a complement iff i_j = 0 and every
i_k is 0 or p**j.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .perm import Perm
from .tower import Tower, level_element


@dataclass(frozen=True)
class PartitionSpec:
    """Chain indices of a partition subgroup, one per digit level."""

    p: int
    n: int
    indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) != self.n:
            raise ValueError(f"need {self.n} indices, got {len(self.indices)}")
        for k, i in enumerate(self.indices):
            if not 0 <= i <= self.p**k:
                raise ValueError(f"index {i} at level {k} out of range 0..{self.p**k}")

    @property
    def depth(self) -> int:
        """Smallest level with a nontrivial term; n if every term is trivial."""
        for k, i in enumerate(self.indices):
            if i < self.p**k:
                return k
        return self.n


def monomial(p: int, k: int, w: int) -> tuple[int, ...]:
    """The vector of the weight-w monomial on the p**k level-k blocks.

    The Kronecker product, block digit 0 (most significant) first, of the
    rows d**a for the base-p digits a of w.
    """
    vec = [1]
    for i in range(k):
        row = [d ** (w // p**i % p) % p for d in range(p)]
        vec = [x * y % p for x in vec for y in row]
    return tuple(vec)


def chain_term_basis(tw: Tower, k: int, r: int) -> list[tuple[int, ...]]:
    """A basis of term r of the level-k module chain: the monomials of weight below p**k - r."""
    if not 0 <= k <= tw.n - 1:
        raise ValueError(f"level {k} out of range")
    dim = tw.p**k
    if not 0 <= r <= dim:
        raise ValueError(f"chain index {r} out of range 0..{dim}")
    return [monomial(tw.p, k, w) for w in range(dim - r)]


def partition_generators(tw: Tower, spec: PartitionSpec) -> list[Perm]:
    """Tower elements generating the partition subgroup of the spec."""
    if (spec.p, spec.n) != (tw.p, tw.n):
        raise ValueError("spec does not match the tower")
    return [
        level_element(tw, k, vec)
        for k, i in enumerate(spec.indices)
        for vec in chain_term_basis(tw, k, i)
    ]


def module_generators(tw: Tower, spec: PartitionSpec) -> list[Perm]:
    """One level element per present level k: its term's top monomial, of weight p**k - i_k - 1.

    Each level module is uniserial, so the top monomial generates the term as a
    module, and for a normal spec the engine's handle is the whole subgroup's.
    """
    if (spec.p, spec.n) != (tw.p, tw.n):
        raise ValueError("spec does not match the tower")
    p = tw.p
    return [
        level_element(tw, k, monomial(p, k, p**k - i - 1))
        for k, i in enumerate(spec.indices)
        if i < p**k
    ]


def partition_is_normal(spec: PartitionSpec) -> bool:
    """Normal in the tower iff i_k <= p**depth for every level k >= depth."""
    j = spec.depth
    return all(spec.indices[k] <= spec.p**j for k in range(j, spec.n))


def partition_has_complement(spec: PartitionSpec) -> bool:
    """Closed form for normal specs: i_depth = 0 and each i_k in {0, p**depth}."""
    if not partition_is_normal(spec):
        raise ValueError("complement criterion applies to normal specs only")
    j = spec.depth
    return j == spec.n or (
        spec.indices[j] == 0 and all(spec.indices[k] in (0, spec.p**j) for k in range(j, spec.n))
    )


def tail_commutator_spec(p: int, n: int, j: int) -> PartitionSpec:
    """The spec of the commutator subgroup of the level-j tail.

    Levels up to j absent, levels above j cut at chain index p**j.
    """
    indices = [p**k for k in range(j + 1)] + [p**j] * (n - j - 1)
    return PartitionSpec(p, n, tuple(indices))


def all_normal_specs(p: int, n: int) -> list[PartitionSpec]:
    """Every normal partition spec at the given parameters."""
    ranges = [range(p**k + 1) for k in range(n)]
    specs = (PartitionSpec(p, n, indices) for indices in itertools.product(*ranges))
    return [spec for spec in specs if partition_is_normal(spec)]
