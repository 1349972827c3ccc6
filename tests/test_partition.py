import itertools
import random

import pytest

import wreath_sylow as ws
from reference import derived_subgroup_from_gens, member
from wreath_sylow import oracle
from wreath_sylow.linalg import Subspace, lower_central_series
from wreath_sylow.partition import (
    PartitionSpec,
    all_normal_specs,
    chain_term_basis,
    module_generators,
    monomial,
    partition_generators,
    partition_has_complement,
    partition_is_normal,
    tail_commutator_spec,
)
from wreath_sylow.perm import Perm, conjugate
from wreath_sylow.tower import level_element, point_action_matrices, prefix_rep
from wreath_sylow.uniserial import STYLE_CO_SHIFT

T33 = ws.tower(3, 3)


def test_spec_validation():
    with pytest.raises(ValueError):
        PartitionSpec(3, 3, (0, 0))
    with pytest.raises(ValueError):
        PartitionSpec(3, 3, (0, 4, 0))
    assert PartitionSpec(3, 3, (1, 3, 9)).depth == 3
    assert PartitionSpec(3, 3, (1, 2, 9)).depth == 1
    assert PartitionSpec(3, 3, (0, 0, 0)).depth == 0


def _chain(tw, k):
    # every term of the level-k chain, spanned from its monomial basis
    return [Subspace.span(tw.p, tw.p**k, chain_term_basis(tw, k, r)) for r in range(tw.p**k + 1)]


def test_level_chain_shapes():
    chain0 = _chain(T33, 0)
    assert [c.rank for c in chain0] == [1, 0]
    for k in (1, 2):
        chain = _chain(T33, k)
        assert len(chain) == 3**k + 1
        assert [c.rank for c in chain] == list(range(3**k, -1, -1))
        assert chain[-1].rank == 0
        # the monomials are independent: each basis is as long as its term's rank
        assert [len(chain_term_basis(T33, k, r)) for r in range(3**k + 1)] == [c.rank for c in chain]
    with pytest.raises(ValueError):
        chain_term_basis(T33, 1, 4)


def test_level_chain_matches_lower_central_series():
    # the monomial chain is the dense commutator chain of the natural module
    for p, n in [(2, 6), (3, 4), (5, 3), (7, 2)]:
        tw = ws.tower(p, n)
        for k in range(1, n):
            reference = lower_central_series(
                Subspace.full(p, p**k), point_action_matrices(ws.tower(p, k))
            )
            assert _chain(tw, k) == reference, (p, n, k)


def test_level_element_is_the_product_of_block_conjugates():
    rng = random.Random(29)
    for p, n in [(2, 4), (3, 3), (5, 2)]:
        tw = ws.tower(p, n)
        for k in range(n):
            sk = ws.shift_gen(tw, k)
            for _ in range(4):
                vec = [rng.randrange(-p, 2 * p) for _ in range(p**k)]
                expected = Perm.identity(tw.degree)
                for b, e in enumerate(vec):
                    expected = expected * conjugate(sk, prefix_rep(tw, k, b)) ** (e % p)
                assert level_element(tw, k, vec) == expected, (p, n, k, vec)
            # a shorter vector leaves the blocks past its end fixed
            m = (p**k + 1) // 2
            expected = Perm.identity(tw.degree)
            for b, e in enumerate(vec[:m]):
                expected = expected * conjugate(sk, prefix_rep(tw, k, b)) ** (e % p)
            assert level_element(tw, k, vec[:m]) == expected, (p, n, k, m)


def test_level_element_round_trip():
    # an exponent vector maps to the product of block translations
    el = level_element(T33, 2, (1, 0, 0, 0, 2, 0, 0, 0, 0))
    assert ws.format_cycles(el) == "(0 1 2)(12 14 13)"
    v = ws.tail_image(T33, 2, el)
    assert v == (1, 0, 0, 0, 2, 0, 0, 0, 0)


def test_partition_generators_full_spec_generates_tower():
    # enumerable heights: the all-zero spec generates the whole tower
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        tw = ws.tower(p, n)
        spec = PartitionSpec(p, n, tuple(0 for _ in range(n)))
        gens = partition_generators(tw, spec)
        assert oracle.bfs_closure(gens).order == p ** tw.order_exponent()
    # at (3,3) check through the closure handle: depth 0, full image, and
    # every shift generator is a member
    gens = partition_generators(T33, PartitionSpec(3, 3, (0, 0, 0)))
    handle = ws.closure_handle(T33, gens)
    assert handle.j == 0
    assert handle.order_exponent == T33.order_exponent()
    assert all(member(handle, g) for g in ws.shift_gens(T33))


def test_partition_generators_tail_spec():
    # levels 2 only: the spec of the level-2 tail subgroup
    spec = PartitionSpec(3, 3, (1, 3, 0))
    gens = partition_generators(T33, spec)
    assert all(ws.in_tail(T33, 2, g) for g in gens)
    assert oracle.bfs_closure(gens).order == 3**9


def test_normality_criterion_examples():
    assert partition_is_normal(PartitionSpec(3, 3, (0, 0, 0)))
    assert partition_is_normal(PartitionSpec(3, 3, (1, 3, 0)))
    assert not partition_is_normal(PartitionSpec(3, 3, (1, 0, 9)))
    assert partition_is_normal(PartitionSpec(3, 3, (1, 3, 9)))


def test_normality_against_oracle_conjugation():
    # the closed form agrees with conjugating generators in the tower; the
    # generators generate, so their conjugation-closedness decides normality
    checked = 0
    for indices in itertools.product(range(2), range(4), range(10)):
        spec = PartitionSpec(3, 3, indices)
        exponent = sum(3**k - i for k, i in enumerate(indices))
        if exponent > 7:
            continue
        gens = partition_generators(T33, spec)
        if not gens:
            continue
        sub = oracle.bfs_closure(gens, cap=3**8)
        conj_closed = all(
            ws.conjugate(x, g) in sub.elements
            for x in sub.gens
            for g in ws.shift_gens(T33)
        )
        assert partition_is_normal(spec) == conj_closed, spec
        checked += 1
    # the depth-1 spec with a full bottom layer demanded is among them
    assert not partition_is_normal(PartitionSpec(3, 3, (1, 0, 9)))
    assert checked > 30


def test_complement_criterion_examples():
    # the level-(j+1) tail always splits
    assert partition_has_complement(PartitionSpec(3, 3, (1, 0, 0)))
    # a nonzero index at the depth level never does
    assert not partition_has_complement(PartitionSpec(3, 3, (1, 1, 0)))
    # an inner chain term strictly between 0 and p^depth never does
    assert not partition_has_complement(PartitionSpec(3, 3, (1, 0, 1)))
    assert not partition_has_complement(PartitionSpec(3, 3, (1, 0, 2)))
    # full cuts at p^depth do: here depth 0 with both upper levels cut at 1
    assert partition_has_complement(PartitionSpec(3, 3, (0, 1, 1)))
    # the trivial subgroup splits
    assert partition_has_complement(PartitionSpec(3, 3, (1, 3, 9)))
    with pytest.raises(ValueError):
        partition_has_complement(PartitionSpec(3, 3, (1, 0, 9)))


def test_tail_commutator_specs_match_derived_subgroups(enumerated):
    # the commutator subgroup of each tail level is a partition subgroup
    for (p, n), data in enumerated.items():
        tw, group = data["tower"], data["group"]
        for j in range(n):
            tail_elems = [x for x in group.elements if ws.in_tail(tw, j, x)]
            tail_set = oracle.GroupSet(
                frozenset(tail_elems), tuple(tail_elems), group.identity
            )
            derived = oracle.derived_subgroup(tail_set)
            spec = tail_commutator_spec(p, n, j)
            gens = partition_generators(tw, spec)
            part = oracle.bfs_closure(gens) if gens else oracle.bfs_closure([group.identity])
            assert part.elements == derived.elements, (p, n, j)


def test_tail_commutator_spec_at_3_3():
    # level-1 tail of the height-3 tower: commutator subgroup of order 3^6
    tw = T33
    spec = tail_commutator_spec(3, 3, 1)
    gens = partition_generators(tw, spec)
    part = oracle.bfs_closure(gens)
    assert part.order == 3**6
    tail_gens = []
    for i in (1, 2):
        tail_gens.extend(
            ws.conjugate(ws.shift_gen(tw, i), ws.shift_gen(tw, 0) ** s)
            for s in range(3)
        )
    derived = derived_subgroup_from_gens(tail_gens, cap=3**7)
    assert derived.elements == part.elements


def test_engine_crosscheck_all_normal_specs():
    # closed form versus the decision engine, every normal spec
    for p, n in [(3, 3), (2, 3), (2, 4)]:
        tw = ws.tower(p, n)
        for spec in all_normal_specs(p, n):
            gens = partition_generators(tw, spec)
            handle = ws.closure_handle(tw, gens)
            decision = ws.decide(handle)
            assert decision.has_complement == partition_has_complement(spec), spec
            if decision.has_complement:
                assert ws.verify_complement(handle, decision).passed, spec


def test_module_generators_give_the_handle_of_all_generators():
    # one top monomial per present level spins to each level's term, so the
    # handle (depth, image, order) is that of every monomial of every term
    count = 0
    for p, n in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)]:
        tw = ws.tower(p, n)
        for spec in all_normal_specs(p, n):
            gens = module_generators(tw, spec)
            assert len(gens) == sum(i < p**k for k, i in enumerate(spec.indices))
            few = ws.closure_handle(tw, gens)
            full = ws.closure_handle(tw, partition_generators(tw, spec))
            assert (few.j, few.image, few.order_exponent) == (full.j, full.image, full.order_exponent), spec
            count += 1
    assert count == 384


def test_engine_levels_match_spec_indices():
    # complemented specs of depth j fall in the co-shift case with the
    # chosen levels exactly the levels cut at p^j
    for p, n in [(3, 3), (2, 4)]:
        tw = ws.tower(p, n)
        for spec in all_normal_specs(p, n):
            if not partition_has_complement(spec):
                continue
            j = spec.depth
            if j >= n:
                continue
            handle = ws.closure_handle(tw, partition_generators(tw, spec))
            decision = ws.decide(handle)
            expected = tuple(
                k for k in range(j, n) if spec.indices[k] == p**j
            )
            if decision.style == STYLE_CO_SHIFT:
                assert decision.levels == expected, spec


def test_common_complement_with_partition_subgroup(enumerated):
    # a complemented closure shares its complement with the partition
    # subgroup built from the chosen levels
    for (p, n), data in enumerated.items():
        tw, group = data["tower"], data["group"]
        for sub in data["normals"]:
            handle = ws.closure_handle(tw, sub.sorted_elements())
            decision = ws.decide(handle)
            if not decision.has_complement or decision.style != STYLE_CO_SHIFT:
                continue
            j = handle.j
            if j >= n:
                continue
            indices = [p**k for k in range(j)] + [
                p**j if k in decision.levels else 0 for k in range(j, n)
            ]
            spec = PartitionSpec(p, n, tuple(indices))
            part = oracle.bfs_closure(
                partition_generators(tw, spec) or [group.identity]
            )
            comp = oracle.bfs_closure(list(decision.gens) or [group.identity])
            assert part.order * comp.order == group.order
            assert len(part.elements & comp.elements) == 1


def test_scale_generators_act_diagonally_on_monomial_level_elements():
    # a level element whose block vector is an ordinary monomial: conjugating it
    # by any scale generator multiplies its tail image, at every depth it lies
    # in, by a nonzero scalar, so every chain term is scale invariant
    cases = 0
    for p, n in [(3, 3), (5, 3), (3, 4), (7, 2)]:
        tw = ws.tower(p, n)
        for k in range(n):
            for w in range(p**k):
                x = level_element(tw, k, monomial(p, k, w))
                for eta in ws.scale_gens(tw):
                    y = conjugate(x, eta)
                    for j in range(k + 1):
                        v, u = ws.tail_image(tw, j, x), ws.tail_image(tw, j, y)
                        assert any(u == tuple(c * a % p for a in v) for c in range(1, p)), (p, n, k, w, j)
                        cases += 1
    assert cases == 102 + 258 + 568 + 30
