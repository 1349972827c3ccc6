import random

import pytest
from hypothesis import given, settings, strategies as st

import wreath_sylow as ws
from reference import (
    bfs_order,
    block_transport,
    co_shift_by_conjugates,
    commutator,
    decompose_by_fibers,
    is_normal_under,
    mover,
    permute,
    random_tail,
    tail_coordinate_perms,
)
from wreath_sylow import oracle
from wreath_sylow.perm import Perm, conjugate, format_cycles, parse_cycles
from wreath_sylow.tower import (
    DEGREE_CAP,
    NotInTail,
    NotInTower,
    block_conjugates,
    level_element,
    point_action_matrices,
    prefix_rep,
    random_element,
    rotation_subgroup_gens,
    tail_movers,
)

T33 = ws.tower(3, 3)


def towers_strategy():
    return st.sampled_from([ws.tower(2, 2), ws.tower(2, 3), ws.tower(3, 2), ws.tower(3, 3), ws.tower(5, 2)])


def test_tower_validation():
    with pytest.raises(ValueError):
        ws.tower(4, 2)
    with pytest.raises(ValueError):
        ws.tower(3, 0)
    with pytest.raises(TypeError):
        ws.Tower(5, 2, 4)  # r is derived from p, not passed
    assert ws.tower(3, 1).r == 2
    assert ws.tower(5, 1).r == 2
    assert ws.tower(7, 1).r == 3
    assert ws.tower(2, 3).r == 1
    # the degree cap admits (2, 14) and refuses a bigger degree or a huge n at once
    assert ws.tower(2, 14).degree == DEGREE_CAP
    for p, n in [(2, 15), (3, 9), (7, 5), (2, 10**12)]:
        with pytest.raises(ValueError, match="exceeds the degree cap"):
            ws.Tower(p, n)


def test_scale_group_is_independent_of_the_primitive_root():
    # every primitive root scales the digits into the same group, so the
    # tower fixes r as the smallest one
    for p in (3, 5, 7):
        tw = ws.tower(p, 2)
        expected = oracle.bfs_closure(ws.scale_gens(tw)).elements
        roots = [g for g in range(1, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1]
        for g in roots:
            maps = []
            for step in (p, 1):  # the weights of digits 0 and 1
                digits = [a // step % p for a in range(p**2)]
                maps.append(Perm([a + (g * d % p - d) * step for a, d in enumerate(digits)]))
            assert oracle.bfs_closure(maps).elements == expected, (p, g)


def test_shift_gens_printed_cycles():
    s0, s1, s2 = ws.shift_gens(T33)
    assert format_cycles(s0) == (
        "(0 9 18)(1 10 19)(2 11 20)(3 12 21)(4 13 22)"
        "(5 14 23)(6 15 24)(7 16 25)(8 17 26)"
    )
    assert format_cycles(s1) == "(0 3 6)(1 4 7)(2 5 8)"
    assert format_cycles(s2) == "(0 1 2)"


def test_scale_gens_printed_cycles():
    e0, e1, e2 = ws.scale_gens(T33)
    assert format_cycles(e0) == (
        "(9 18)(10 19)(11 20)(12 21)(13 22)(14 23)(15 24)(16 25)(17 26)"
    )
    # from the defining formula: fixes digit 0, doubles digit 1
    assert format_cycles(e1) == "(3 6)(4 7)(5 8)(12 15)(13 16)(14 17)(21 24)(22 25)(23 26)"
    assert format_cycles(e2) == (
        "(1 2)(4 5)(7 8)(10 11)(13 14)(16 17)(19 20)(22 23)(25 26)"
    )
    for e in (e0, e1, e2):
        assert e ** (T33.p - 1) == Perm.identity(27)


def test_co_shift_printed_cycles():
    r1 = ws.co_shift_gen(T33, 1)
    r2 = ws.co_shift_gen(T33, 2)
    assert format_cycles(r1) == (
        "(9 12 15)(10 13 16)(11 14 17)(18 21 24)(19 22 25)(20 23 26)"
    )
    assert format_cycles(r2) == "(3 4 5)(6 7 8)"
    assert r1**3 == r2**3 == Perm.identity(27)
    with pytest.raises(ValueError):
        ws.co_shift_gen(T33, 0)


def test_co_shift_is_the_product_of_conjugates():
    for p, n in [(2, 5), (3, 4), (5, 3), (7, 3)]:
        tw = ws.tower(p, n)
        for i in range(1, n):
            assert ws.co_shift_gen(tw, i) == co_shift_by_conjugates(tw, i), (p, n, i)


def test_level_element_rejects_bad_input():
    assert level_element(T33, 0, (1,)) == ws.shift_gen(T33, 0)
    assert level_element(T33, 1, ()) == Perm.identity(27)
    for k, vec in [(-1, (1,)), (3, (1,)), (1, (1, 1, 1, 1))]:
        with pytest.raises(ValueError):
            level_element(T33, k, vec)


def test_base_translations_are_the_nine_cycles():
    expected = [
        "(0 1 2)", "(3 4 5)", "(6 7 8)",
        "(9 10 11)", "(12 13 14)", "(15 16 17)",
        "(18 19 20)", "(21 22 23)", "(24 25 26)",
    ]
    assert [format_cycles(g) for g in ws.base_translations(T33)] == expected


def test_base_translations_commute_pairwise():
    for tw in (ws.tower(2, 3), T33):
        gens = ws.base_translations(tw)
        assert all(a * b == b * a for a in gens for b in gens)


def test_tower_orders_via_bfs():
    # Sylow order of the symmetric group on p^n points
    for p, n in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (5, 2)]:
        tw = ws.tower(p, n)
        assert bfs_order(ws.shift_gens(tw)) == p ** tw.order_exponent()


def test_tower_order_3_3_counted():
    # 3^13 elements; counted with the packed breadth-first walk
    assert bfs_order(ws.shift_gens(T33)) == 3**13


def test_scale_shift_identities():
    # scaling digit k conjugates shift k to its r-th power and fixes the others
    for tw in (T33, ws.tower(3, 4), ws.tower(5, 2), ws.tower(2, 3)):
        shifts, scales = ws.shift_gens(tw), ws.scale_gens(tw)
        for k, eta in enumerate(scales):
            for i, sig in enumerate(shifts):
                expected = sig**tw.r if k == i else sig
                assert conjugate(sig, eta) == expected


def test_scale_co_shift_identities():
    for tw in (T33, ws.tower(3, 4), ws.tower(5, 2)):
        scales = ws.scale_gens(tw)
        for i in range(1, tw.n):
            rho = ws.co_shift_gen(tw, i)
            for k, eta in enumerate(scales):
                expected = rho**tw.r if k == i else rho
                assert conjugate(rho, eta) == expected


def test_co_shift_conjugates_commute_across_levels():
    # prefix conjugates at any two levels above j commute
    for tw, j in [(T33, 0), (T33, 1), (ws.tower(2, 3), 1)]:
        families = []
        for i in range(j + 1, tw.n):
            families.extend(block_conjugates(tw, j, ws.co_shift_gen(tw, i)))
        assert all(a * b == b * a for a in families for b in families)


def test_in_tail_examples():
    s0, s1, s2 = ws.shift_gens(T33)
    assert ws.in_tail(T33, 2, s2)
    assert not ws.in_tail(T33, 2, s1)
    assert ws.in_tail(T33, 0, s0)
    assert ws.in_tail(T33, 0, ws.scale_gen(T33, 0))
    assert ws.in_tail(T33, 1, ws.co_shift_gen(T33, 1))


def test_commutator_of_adjacent_shifts_drops_a_level():
    s0, s1, s2 = ws.shift_gens(T33)
    assert ws.in_tail(T33, 2, commutator(s1, s2))


def test_decompose_top_shift():
    rows = ws.decompose(ws.shift_gen(T33, 2), 3)
    assert rows[2] == (1,) + (0,) * 8
    assert ws.reconstruct(rows[:2], 3) == Perm.identity(9)


def test_decompose_rejects_non_members():
    with pytest.raises(NotInTower):
        ws.decompose(parse_cycles("(0 1)", 9), 3)
    with pytest.raises(NotInTower):
        ws.decompose(ws.scale_gen(T33, 0), 3)
    with pytest.raises(NotInTower):
        ws.decompose(ws.scale_gen(ws.tower(3, 2), 1), 3)


# every size of the three benchmark workloads, the deep end at p = 2, and the widest p
DECOMPOSE_SIZES = [
    (2, 2), (2, 3), (3, 2), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2),
    (2, 7), (2, 8), (2, 9), (3, 5), (3, 6), (5, 4), (7, 3), (2, 12), (127, 2),
]


def _outcome(decomposer, x, p):
    """The rows, or the type and full message of the ValueError raised."""
    try:
        return decomposer(x, p)
    except ValueError as exc:
        return type(exc), str(exc)


def test_decompose_matches_the_fiber_loop_on_tower_elements():
    rng = random.Random(17)
    for p, n in DECOMPOSE_SIZES:
        tw = ws.tower(p, n)
        for x in [random_element(tw, rng) for _ in range(3)] + [Perm.identity(tw.degree)]:
            assert ws.decompose(x, p) == decompose_by_fibers(x, p), (p, n)


def _lift(tw, k, sigma):
    """sigma, a permutation of the p**k k-prefixes, moving whole blocks of points."""
    m = tw.p ** (tw.n - k)
    return Perm([sigma[a // m] * m + a % m for a in range(tw.degree)])


def test_decompose_names_the_same_bad_block_as_the_fiber_loop():
    # at each level p**k: a transposition of two fibers' first points (when
    # there are two fibers) and a swap inside one fiber (p > 2: at p = 2
    # every fiber map is a translation), lifted to the whole degree, then
    # multiplied by tower elements on either side
    rng = random.Random(18)
    for p, n in DECOMPOSE_SIZES:
        tw = ws.tower(p, n)
        for k in range(1, n + 1):
            fibers = p ** (k - 1)
            b = rng.randrange(fibers)
            bad = []
            if fibers > 1:
                c = b + 1 if b + 1 < fibers else b - 1
                bad.append((f"fiber not preserved (degree {p**k}, block {min(b, c)})", b * p, c * p))
            if p > 2:
                bad.append((f"fiber action is not a translation (degree {p**k}, block {b})", b * p, b * p + 1))
            for message, u, v in bad:
                sigma = list(range(p**k))
                sigma[u], sigma[v] = v, u
                x = _lift(tw, k, sigma)
                assert _outcome(ws.decompose, x, p) == (NotInTower, message)
                for y in (random_element(tw, rng) * x, x * random_element(tw, rng)):
                    got = _outcome(ws.decompose, y, p)
                    assert got[0] is NotInTower
                    assert got == _outcome(decompose_by_fibers, y, p), (p, n, k, message)


def test_decompose_refuses_a_degree_that_is_not_a_power_alike():
    for p, x in [
        (2, Perm.identity(12)),
        (3, Perm.identity(6)),
        (2, Perm.identity(5)),
        (5, Perm.identity(3)),
        (2, parse_cycles("(0 2)", 12)),  # off the tower at degree 12, before degree 3 is reached
        (3, parse_cycles("(0 1)", 18)),
    ]:
        got = _outcome(ws.decompose, x, p)
        assert got == _outcome(decompose_by_fibers, x, p), (p, x)
    assert _outcome(ws.decompose, Perm.identity(12), 2) == (ValueError, "degree 3 is not a power of 2")


def test_portrait_round_trip_on_words():
    rng = random.Random(7)
    for tw in (ws.tower(2, 3), T33, ws.tower(5, 2)):
        gens = ws.shift_gens(tw)
        for _ in range(20):
            g = Perm.identity(tw.degree)
            for _ in range(rng.randrange(1, 8)):
                g = g * rng.choice(gens)
            port = ws.decompose(g, tw.p)
            assert ws.reconstruct(port, tw.p) == g


@given(towers_strategy(), st.integers())
@settings(max_examples=40, deadline=None)
def test_random_elements_land_in_tower(tw, seed):
    g = random_element(tw, random.Random(seed))
    assert ws.reconstruct(ws.decompose(g, tw.p), tw.p) == g


def test_random_element_is_fixed_by_the_seed():
    # rows are drawn last digit first; seeded inputs elsewhere rely on this order
    rng = random.Random(2)
    assert format_cycles(random_element(ws.tower(2, 3), rng)) == "(0 4 2 6 1 5 3 7)"
    assert format_cycles(random_element(ws.tower(3, 2), rng)) == "(0 2 1)(6 8 7)"


def test_abelianization_of_generators():
    for i, sig in enumerate(ws.shift_gens(T33)):
        expected = tuple(1 if k == i else 0 for k in range(3))
        assert ws.tail_image(T33, 0, sig) == expected
    for i in (1, 2):
        rho = ws.co_shift_gen(T33, i)
        expected = tuple(-1 % 3 if k == i else 0 for k in range(3))
        assert ws.tail_image(T33, 0, rho) == expected
    s0, s1, _ = ws.shift_gens(T33)
    assert ws.tail_image(T33, 0, commutator(s0, s1)) == (0, 0, 0)


def test_tail_image_top_shift():
    v = ws.tail_image(T33, 1, ws.shift_gen(T33, 2))
    assert v[:3] == (0, 0, 0)
    assert v[3:] == (1, 0, 0)


def test_tail_image_of_diagonal_product():
    s0, s1, _ = ws.shift_gens(T33)
    gamma = s1 * conjugate(s1, s0) * conjugate(s1, s0 * s0)
    v = ws.tail_image(T33, 1, gamma)
    assert v[:3] == (1, 1, 1)
    assert v[3:] == (0, 0, 0)


def test_tail_image_kills_tail_commutators():
    rng = random.Random(3)
    tw = T33
    j = 1
    for _ in range(10):
        t1, t2 = (random_element(ws.tower(3, 2), rng) for _ in range(2))
        # plant the height-2 elements inside distinct blocks scaled up to degree 27
        x = _embed_in_block(tw, j, 0, t1) * _embed_in_block(tw, j, 1, t2)
        y = _embed_in_block(tw, j, 0, t2) * _embed_in_block(tw, j, 2, t1)
        comm = commutator(x, y)
        assert ws.in_tail(tw, j, comm)
        assert not any(ws.tail_image(tw, j, comm))


def _embed_in_block(tw, j, b, local):
    size = tw.p ** (tw.n - j)
    images = list(range(tw.degree))
    for y in range(size):
        images[b * size + y] = b * size + local.images[y]
    return Perm(images)


def test_tail_image_rejects_block_movers():
    with pytest.raises(NotInTail):
        ws.tail_image(T33, 1, ws.shift_gen(T33, 0))


def test_tail_action_equivariance():
    rng = random.Random(11)
    for tw, j in [(T33, 1), (ws.tower(2, 3), 1), (ws.tower(3, 4), 2)]:
        perms = tail_coordinate_perms(tw, j)
        for _ in range(10):
            x = random_tail(tw, j, rng)
            i = rng.randrange(j)
            lhs = ws.tail_image(tw, j, conjugate(x, ws.shift_gen(tw, i)))
            rhs = permute(ws.tail_image(tw, j, x), perms[i])
            assert lhs == rhs


def _abelianization_reference(local, p):
    # total translation per digit, read row by row off the portrait
    return tuple(sum(row) % p for row in ws.decompose(local, p))


def test_tail_image_matches_per_block_abelianization():
    rng = random.Random(17)
    for p, n in [(2, 4), (3, 3), (5, 2)]:
        tw = ws.tower(p, n)
        for j in range(n):
            size = p ** (n - j)
            local_tw = ws.tower(p, n - j)
            for _ in range(4):
                x = random_tail(tw, j, rng)
                v = ws.tail_image(tw, j, x)
                for b in range(p**j):
                    local = Perm(x.images[a] - b * size for a in range(b * size, (b + 1) * size))
                    expected = _abelianization_reference(local, p)
                    assert ws.tail_image(local_tw, 0, local) == expected
                    assert tuple(v[s * p**j + b] for s in range(n - j)) == expected


def test_block_conjugates_are_prefix_rep_conjugates():
    rng = random.Random(23)
    for p, n in [(2, 4), (3, 3), (5, 2)]:
        tw = ws.tower(p, n)
        for j in range(n + 1):
            for x in (ws.shift_gen(tw, n - 1), random_element(tw, rng)):
                expected = [conjugate(x, prefix_rep(tw, j, b)) for b in range(p**j)]
                assert block_conjugates(tw, j, x) == expected, (p, n, j)


def test_tail_image_is_a_homomorphism():
    rng = random.Random(5)
    tw, j = T33, 1
    for _ in range(10):
        x = random_tail(tw, j, rng)
        y = random_tail(tw, j, rng)
        vx, vy, vxy = (ws.tail_image(tw, j, z) for z in (x, y, x * y))
        assert vxy == tuple((a + b) % 3 for a, b in zip(vx, vy))


def test_tail_action_fixes_diagonal():
    gamma = (1, 1, 1, 0, 0, 0)
    for q in tail_coordinate_perms(T33, 1):
        assert permute(gamma, q) == gamma


def test_block_transport_of_prefix_shifts():
    # a prefix shift moves blocks rigidly, and the prefix group acts on the
    # j-blocks as the height-j tower; a shift at or below level j keeps
    # every block but moves points inside one
    for p, n in [(2, 4), (3, 3), (5, 2)]:
        tw = ws.tower(p, n)
        for j in range(n + 1):
            for i in range(n):
                g = ws.shift_gen(tw, i)
                expected = ws.shift_gen(ws.tower(p, j), i).images if i < j else None
                assert block_transport(tw, j, g) == expected, (p, n, j, i)
    assert block_transport(T33, 1, parse_cycles("(0 9)(1 10)(2 11)", 27)) is None


def test_depth_examples():
    s0, s1, s2 = ws.shift_gens(T33)
    gamma = s1 * conjugate(s1, s0) * conjugate(s1, s0 * s0)
    assert ws.depth(T33, [gamma * s2]) == 1
    assert ws.depth(T33, [s0]) == 0
    assert ws.depth(T33, []) == 3
    assert ws.depth(T33, [Perm.identity(27)]) == 3
    with pytest.raises(NotInTower):
        ws.depth(T33, [parse_cycles("(0 1)", 27)])


def test_rotation_subgroup():
    t2 = ws.tower(2, 2)
    gens2 = rotation_subgroup_gens(t2)
    assert len(gens2) == 1 and gens2[0].order() == 4
    t3 = ws.tower(2, 3)
    gens3 = rotation_subgroup_gens(t3)
    assert len(gens3) == 2
    sub = oracle.bfs_closure(gens3)
    assert sub.order == 16
    assert all(g.order() == 4 for g in gens3)
    assert all(a * b == b * a for a in sub.elements for b in sub.elements)
    assert is_normal_under(sub, ws.shift_gens(t3))
    with pytest.raises(ValueError):
        rotation_subgroup_gens(T33)


def test_prefix_rep_hits_blocks():
    for j in (1, 2):
        for b in range(3**j):
            pi = prefix_rep(T33, j, b)
            assert pi(0) // 3 ** (3 - j) == b


def test_point_action_matrices_shape():
    mats = point_action_matrices(ws.tower(2, 2))
    assert len(mats) == 2
    assert len(mats[0]) == 4


def test_prefix_block_maps_are_the_block_transports_of_full_shifts():
    # read off the height-j tower, the coordinate perms move each level's
    # slice by the maps that block_transport reads off the full-degree shifts
    for p, n in [(2, 6), (3, 4), (5, 3)]:
        tw = ws.tower(p, n)
        for j in range(n + 1):
            maps = [block_transport(tw, j, ws.shift_gen(tw, i)) for i in range(j)]
            expected = [tuple(s * p**j + t for s in range(n - j) for t in bm) for bm in maps]
            assert tail_coordinate_perms(tw, j) == expected, (p, n, j)


def test_tail_coordinate_perms_level0():
    assert tail_coordinate_perms(T33, 0) == []


def test_generator_families_are_one_tuple_per_tower():
    # shift_gens, scale_gens and co_shift_gens are built once per tower: each
    # call returns the same tuple, equal to a fresh build, which callers slice;
    # the co-shifts start at level 1
    for p, n in [(2, 4), (5, 3), (3, 1)]:
        tw = ws.tower(p, n)
        for family, gen, first in [
            (ws.shift_gens, ws.shift_gen, 0),
            (ws.scale_gens, ws.scale_gen, 0),
            (ws.co_shift_gens, ws.co_shift_gen, 1),
        ]:
            got = family(tw)
            assert isinstance(got, tuple)
            assert got == tuple(gen(tw, i) for i in range(first, n))
            assert family(tw) is got


def test_tail_movers_match_the_scanned_coordinate_perms():
    # the closed-form movers equal the reference scan of the height-j
    # tower's shift maps, at every (p, n, j) up to the degree cap
    cases = 0
    for p in (2, 3, 5, 7, 11, 13, 127):
        n = 1
        while p**n <= DEGREE_CAP:
            tw = ws.tower(p, n)
            for j in range(n + 1):
                expected = tuple(tuple(mover(p, q)) for q in tail_coordinate_perms(tw, j))
                assert tail_movers(tw, j) == expected, (p, n, j)
                cases += 1
            n += 1
    assert cases == 232
