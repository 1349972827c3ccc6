import random

import pytest
from hypothesis import given, settings, strategies as st

import wreath_sylow as ws
from reference import (
    ListEchelon,
    augmentation_subspace,
    fixed_subspace,
    intersect,
    left_kernel,
    left_kernel_rows,
    mover,
    span_rows,
    spin_rows,
    tail_coordinate_perms,
)
from wreath_sylow.linalg import (
    Layout,
    Subspace,
    apply_map,
    lower_central_series,
    perm_action_matrix,
    spin,
)
from wreath_sylow.tower import DEGREE_CAP, is_prime, point_action_matrices


def spin_perms(p, dim, seeds, perms):
    """spin, with the coordinate permutations given as tuples."""
    return spin(p, dim, seeds, [mover(p, q) for q in perms])


def test_span_trivials():
    assert Subspace.span(3, 4, []).rank == 0
    v = (1, 2, 0, 1)
    double = tuple(2 * x % 3 for x in v)
    assert Subspace.span(3, 4, [v, double]).rank == 1
    identity = [tuple(int(k == i) for k in range(4)) for i in range(4)]
    assert Subspace.span(3, 4, identity) == Subspace.full(3, 4)


def test_canonical_equality():
    a = Subspace.span(5, 3, [(1, 2, 3), (0, 1, 4)])
    # the same space from scrambled combinations: 2*v1, v1 + v2, 3*v2
    b = Subspace.span(5, 3, [(2, 4, 1), (1, 3, 2), (0, 3, 2)])
    assert a == b
    assert a.rows == b.rows


def test_contains():
    u = Subspace.span(3, 3, [(1, 1, 0), (0, 0, 1)])
    assert u.contains((2, 2, 1))
    assert not u.contains((1, 0, 0))
    with pytest.raises(ValueError):
        u.contains((1, 0))


def test_lattice_examples():
    u = Subspace.span(3, 3, [(1, 0, 0), (0, 1, 0)])
    zero = Subspace.span(3, 3, [])
    assert intersect(u, u) == u
    assert intersect(u, zero) == zero
    assert u.sum_with(zero) == u


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=40)
def test_modular_dimension_law(seed):
    import random

    rng = random.Random(seed)
    p, dim = rng.choice([(2, 5), (3, 4), (5, 3)])
    mk = lambda: [
        tuple(rng.randrange(p) for _ in range(dim)) for _ in range(rng.randrange(4))
    ]
    u = Subspace.span(p, dim, mk())
    v = Subspace.span(p, dim, mk())
    s, i = u.sum_with(v), intersect(u, v)
    # the sum grows the larger basis; it is the canonical span either way round
    assert s == v.sum_with(u) == Subspace.span(p, dim, u.rows + v.rows)
    assert s.rank + i.rank == u.rank + v.rank
    assert all(u.contains(r) and v.contains(r) for r in i.rows)
    assert all(s.contains(r) for r in u.rows + v.rows)
    # the sums inserted into copies: each side still holds only its own span
    assert all(u.contains(r) for r in v.rows) == (s.rank == u.rank)
    assert all(v.contains(r) for r in u.rows) == (s.rank == v.rank)


def test_left_kernel_counts():
    rows = [(1, 0, 1), (0, 1, 1), (1, 1, 2)]
    combos = left_kernel(rows, 3, 3)
    assert len(combos) == 1
    c = combos[0]
    out = [sum(ci * r[k] for ci, r in zip(c, rows)) % 3 for k in range(3)]
    assert out == [0, 0, 0]


def test_spin_orbit_of_basis_vector():
    # a 3-cycle on coordinates spans the full space from one basis vector
    assert spin_perms(3, 3, [(1, 0, 0)], [(1, 2, 0)]).rank == 3


def test_spin_no_actions_is_span():
    seeds = [(1, 2, 0), (0, 1, 1)]
    assert spin_perms(3, 3, seeds, []) == Subspace.span(3, 3, seeds)


def test_spin_fixes_diagonal():
    assert spin_perms(3, 3, [(1, 1, 1)], [(1, 2, 0)]).rank == 1


def test_spin_result_is_invariant():
    import random

    rng = random.Random(1)
    for _ in range(20):
        p = rng.choice([2, 3])
        dim = rng.randrange(2, 6)
        perm = list(range(dim))
        rng.shuffle(perm)
        mats = [perm_action_matrix(tuple(perm), p)]
        seeds = [tuple(rng.randrange(p) for _ in range(dim))]
        u = spin_perms(p, dim, seeds, [tuple(perm)])
        for row in u.rows:
            assert u.contains(apply_map(mats[0], row, p))


def test_fixed_subspace_no_actions():
    assert fixed_subspace(3, 4, []) == Subspace.full(3, 4)


def test_fixed_inside_eigenspace():
    mat = perm_action_matrix((1, 0, 2, 3), 2)
    fix = fixed_subspace(2, 4, [mat])
    for row in fix.rows:
        assert apply_map(mat, row, 2) == row


def test_regular_orbit_fixed_space_is_one_dimensional():
    mat = perm_action_matrix((1, 2, 3, 4, 0), 5)
    assert fixed_subspace(5, 5, [mat]).rank == 1


def test_augmentation_no_actions():
    assert augmentation_subspace(3, 4, []).rank == 0


def test_natural_module_dimensions():
    # block-permutation module of the level-j tail: fixed has one dimension
    # per digit level, augmentation one hyperplane per level
    for p, n, j in [(3, 3, 1), (3, 3, 2), (2, 4, 2), (2, 3, 1)]:
        tw = ws.tower(p, n)
        dim = (n - j) * p**j
        actions = [perm_action_matrix(q, p) for q in tail_coordinate_perms(tw, j)]
        fix = fixed_subspace(p, dim, actions)
        aug = augmentation_subspace(p, dim, actions)
        assert fix.rank == n - j
        assert aug.rank == (n - j) * (p**j - 1)
        if j >= 1:
            assert all(aug.contains(r) for r in fix.rows)


def test_lower_central_series_trivial_start():
    zero = Subspace.span(3, 4, [])
    assert lower_central_series(zero, []) == [zero]


def test_lower_central_series_uniserial_natural_module():
    # the natural module of the full tower is uniserial: p^n codim-1 steps
    for p, n in [(2, 2), (2, 3), (3, 2)]:
        tw = ws.tower(p, n)
        chain = lower_central_series(Subspace.full(p, tw.degree), point_action_matrices(tw))
        assert len(chain) == tw.degree + 1
        assert [c.rank for c in chain] == list(range(tw.degree, -1, -1))


def test_doubling_preserves_uniseriality():
    # two wreathed copies: the big module's second commutator step is the
    # doubled small step, so uniseriality propagates one level up (p = 2)
    small = ws.tower(2, 2)
    big = ws.tower(2, 3)
    chain_small = lower_central_series(Subspace.full(2, 4), point_action_matrices(small))
    chain_big = lower_central_series(Subspace.full(2, 8), point_action_matrices(big))
    doubled = Subspace.span(
        2, 8, [row + (0,) * 4 for row in chain_small[1].rows]
        + [(0,) * 4 + row for row in chain_small[1].rows]
    )
    assert chain_big[2] == doubled


def test_lane_width_holds_every_prime_under_the_degree_cap():
    # at odd p a lane must hold 2p - 1 (a reduced entry plus p minus another)
    # without spilling into its neighbours, for every p a height-1 tower
    # admits; p = 2 adds by XOR and never reduces
    for p in filter(is_prime, range(3, DEGREE_CAP + 1)):
        lay = Layout(p, 5)
        lanes = (2 * p - 1, 0, 2 * p - 2, p, p - 1)
        x = sum(v << k * lay.width for k, v in enumerate(lanes))
        assert lay.unpack(lay.reduce(x)) == (p - 1, 0, p - 2, 0, p - 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 131])
def test_packed_kernel_matches_list_reference(p):
    """span, contains, sum_with, left_kernel and spin against the list-row kernel.

    Entries run outside 0..p-1, negative ones included, and some vectors are
    combinations of earlier ones so that spans drop rank; the permutations
    are random, not prefix shifts.
    """
    rng = random.Random(p)

    def vectors(dim, count):
        out = []
        for _ in range(count):
            if len(out) >= 2 and rng.random() < 0.3:
                a, b = rng.sample(out, 2)
                ca, cb = rng.randrange(-p, 2 * p), rng.randrange(-p, 2 * p)
                out.append(tuple(ca * x + cb * y for x, y in zip(a, b)))
            else:
                out.append(tuple(rng.randrange(-2 * p, 2 * p) if rng.random() < 0.5 else 0 for _ in range(dim)))
        return out

    for _ in range(30):
        dim = rng.choice([1, 2, 3, 5, 8, 13, 70])
        us, vs = vectors(dim, rng.randrange(dim + 2)), vectors(dim, rng.randrange(4))
        u, v = Subspace.span(p, dim, us), Subspace.span(p, dim, vs)
        assert u.rows == span_rows(p, dim, us)
        assert u.sum_with(v).rows == v.sum_with(u).rows == span_rows(p, dim, u.rows + v.rows)
        ref = ListEchelon(p, dim)
        for w in us:
            ref.insert(w)
        for w in vectors(dim, 6) + us:
            assert u.contains(w) == ref.contains(w)
        assert left_kernel(us, p, dim) == left_kernel_rows(us, p, dim)
        perms = []
        for _ in range(rng.randrange(3)):
            q = list(range(dim))
            rng.shuffle(q)
            perms.append(tuple(q))
        seeds = vectors(dim, rng.randrange(1, 3))
        assert spin_perms(p, dim, seeds, perms).rows == spin_rows(p, dim, seeds, perms)
