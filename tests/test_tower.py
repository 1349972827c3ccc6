import random

import pytest
from hypothesis import given, settings, strategies as st

import wreath_sylow as ws
from wreath_sylow import oracle
from wreath_sylow.linalg import permute
from wreath_sylow.perm import Perm, conjugate, format_cycles, parse_cycles
from wreath_sylow.tower import (
    NotInTail,
    NotInTower,
    block_conjugates,
    block_pieces,
    block_transport,
    point_action_matrices,
    prefix_rep,
    random_element,
    rotation_subgroup_gens,
    tail_coordinate_perms,
)

T33 = ws.tower(3, 3)


def towers_strategy():
    return st.sampled_from([ws.tower(2, 2), ws.tower(2, 3), ws.tower(3, 2), ws.tower(3, 3), ws.tower(5, 2)])


def test_tower_validation():
    with pytest.raises(ValueError):
        ws.tower(4, 2)
    with pytest.raises(ValueError):
        ws.tower(3, 0)
    with pytest.raises(ValueError):
        ws.Tower(5, 2, 4)  # 4 has order 2 in the units mod 5
    assert ws.tower(3, 1).r == 2
    assert ws.tower(5, 1).r == 2
    assert ws.tower(7, 1).r == 3
    assert ws.tower(2, 3).r == 1


def test_tower_rejects_unit_divisible_by_p():
    # r = 0 mod p has no multiplicative order; this used to loop forever
    for p, r in [(3, 3), (5, 5), (5, 10), (7, -7)]:
        with pytest.raises(ValueError, match="does not generate"):
            ws.Tower(p, 2, r)


def test_digits_round_trip():
    assert T33.digits(15) == (1, 2, 0)
    assert T33.point((1, 2, 0)) == 15
    for a in range(27):
        assert T33.point(T33.digits(a)) == a


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
        assert (e ** (T33.p - 1)).is_identity


def test_co_shift_printed_cycles():
    r1 = ws.co_shift_gen(T33, 1)
    r2 = ws.co_shift_gen(T33, 2)
    assert format_cycles(r1) == (
        "(9 12 15)(10 13 16)(11 14 17)(18 21 24)(19 22 25)(20 23 26)"
    )
    assert format_cycles(r2) == "(3 4 5)(6 7 8)"
    assert (r1**3).is_identity and (r2**3).is_identity
    with pytest.raises(ValueError):
        ws.co_shift_gen(T33, 0)


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
        assert oracle.bfs_order(ws.shift_gens(tw)) == p ** tw.order_exponent()


def test_tower_order_3_3_counted():
    # 3^13 elements; counted with the packed breadth-first walk
    assert oracle.bfs_order(ws.shift_gens(T33)) == 3**13


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
    assert ws.in_tail(T33, 2, ws.commutator(s1, s2))


def test_decompose_top_shift():
    rows = ws.decompose(ws.shift_gen(T33, 2), 3)
    assert rows[2] == (1,) + (0,) * 8
    assert ws.reconstruct(rows[:2], 3).is_identity


def test_decompose_rejects_non_members():
    with pytest.raises(NotInTower):
        ws.decompose(parse_cycles("(0 1)", 9), 3)
    with pytest.raises(NotInTower):
        ws.decompose(ws.scale_gen(T33, 0), 3)
    with pytest.raises(NotInTower):
        ws.decompose(ws.scale_gen(ws.tower(3, 2), 1), 3)


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
        assert ws.abelianization(T33, sig) == expected
    for i in (1, 2):
        rho = ws.co_shift_gen(T33, i)
        expected = tuple(-1 % 3 if k == i else 0 for k in range(3))
        assert ws.abelianization(T33, rho) == expected
    s0, s1, _ = ws.shift_gens(T33)
    assert ws.abelianization(T33, ws.commutator(s0, s1)) == (0, 0, 0)


def test_tail_image_top_shift():
    v = ws.tail_image(T33, 1, ws.shift_gen(T33, 2))
    assert v.summand(0) == (0, 0, 0)
    assert v.summand(1) == (1, 0, 0)


def test_tail_image_of_diagonal_product():
    s0, s1, _ = ws.shift_gens(T33)
    gamma = s1 * conjugate(s1, s0) * conjugate(s1, s0 * s0)
    v = ws.tail_image(T33, 1, gamma)
    assert v.summand(0) == (1, 1, 1)
    assert v.summand(1) == (0, 0, 0)


def test_tail_image_kills_tail_commutators():
    rng = random.Random(3)
    tw = T33
    j = 1
    for _ in range(10):
        t1, t2 = (random_element(ws.tower(3, 2), rng) for _ in range(2))
        # plant the height-2 elements inside distinct blocks scaled up to degree 27
        x = _embed_in_block(tw, j, 0, t1) * _embed_in_block(tw, j, 1, t2)
        y = _embed_in_block(tw, j, 0, t2) * _embed_in_block(tw, j, 2, t1)
        comm = ws.commutator(x, y)
        assert ws.in_tail(tw, j, comm)
        assert not any(ws.tail_image(tw, j, comm).coords)


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
            x = _random_tail_element(tw, j, rng)
            i = rng.randrange(j)
            lhs = ws.tail_image(tw, j, conjugate(x, ws.shift_gen(tw, i)))
            rhs = permute(ws.tail_image(tw, j, x).coords, perms[i])
            assert lhs.coords == rhs


def _random_tail_element(tw, j, rng):
    local_tw = ws.tower(tw.p, tw.n - j)
    out = Perm.identity(tw.degree)
    for b in range(tw.p**j):
        out = out * _embed_in_block(tw, j, b, random_element(local_tw, rng))
    return out


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
                x = _random_tail_element(tw, j, rng)
                v = ws.tail_image(tw, j, x)
                for b in range(p**j):
                    local = Perm(x.images[a] - b * size for a in range(b * size, (b + 1) * size))
                    expected = _abelianization_reference(local, p)
                    assert ws.abelianization(local_tw, local) == expected
                    assert tuple(v.summand(s)[b] for s in range(n - j)) == expected


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
        x = _random_tail_element(tw, j, rng)
        y = _random_tail_element(tw, j, rng)
        vx, vy, vxy = (ws.tail_image(tw, j, z) for z in (x, y, x * y))
        assert vxy.coords == tuple((a + b) % 3 for a, b in zip(vx.coords, vy.coords))


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


def test_block_pieces_rebuild_the_element():
    rng = random.Random(8)
    for p, n in [(2, 4), (3, 3), (5, 2)]:
        tw = ws.tower(p, n)
        for j in range(n):
            x = _random_tail_element(tw, j, rng)
            size = p ** (n - j)
            pieces = block_pieces(tw, j, x)
            images = list(range(tw.degree))
            for c, local in pieces.items():
                assert local != tuple(range(size))
                images[c * size : (c + 1) * size] = [c * size + y for y in local]
            assert tuple(images) == x.images
    assert block_pieces(T33, 1, ws.shift_gen(T33, 2)) == {0: (1, 2, 0, 3, 4, 5, 6, 7, 8)}
    with pytest.raises(NotInTail):
        block_pieces(T33, 1, ws.shift_gen(T33, 0))


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
    assert oracle.is_normal_under(sub, ws.shift_gens(t3))
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


def test_tail_coordinate_perms_level0():
    assert tail_coordinate_perms(T33, 0) == []
