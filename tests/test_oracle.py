import pytest

import wreath_sylow as ws
from wreath_sylow.oracle import (
    CapExceeded,
    GroupSet,
    all_abelian_subgroups,
    all_normal_subgroups,
    bfs_closure,
    bfs_order,
    center,
    centralizer_in_sym,
    commutator_chain,
    derived_subgroup,
    rotation_series_length,
    derived_subgroup_from_gens,
    element_order,
    exhaustive_complements,
    has_complement,
    is_normal_under,
    max_abelian_stats,
    normal_closure,
)
from wreath_sylow.perm import Perm, parse_cycles
from wreath_sylow.tower import rotation_subgroup_gens


def test_bfs_closure_examples():
    t22 = ws.tower(2, 2)
    assert bfs_closure(ws.shift_gens(t22)).order == 8
    assert bfs_closure([], identity=Perm.identity(4)).order == 1
    assert bfs_closure(ws.shift_gens(ws.tower(2, 3))).order == 128


def test_bfs_cap():
    with pytest.raises(CapExceeded):
        bfs_closure(ws.shift_gens(ws.tower(3, 2)), cap=10)
    with pytest.raises(CapExceeded):
        bfs_order(ws.shift_gens(ws.tower(3, 2)), cap=10)


def test_element_order():
    e = Perm.identity(4)
    assert element_order(e, e) == 1
    assert element_order(parse_cycles("(0 1 2 3)", 4), e) == 4


def test_normal_closure_of_top_shift_is_base_layer():
    for p, n in [(2, 2), (2, 3), (3, 2)]:
        tw = ws.tower(p, n)
        ncl = normal_closure([ws.shift_gen(tw, n - 1)], ws.shift_gens(tw))
        assert ncl.order == p ** (p ** (n - 1))
        base = bfs_closure(ws.base_translations(tw))
        assert ncl.elements == base.elements


def test_derived_subgroup_dihedral():
    t22 = ws.tower(2, 2)
    group = bfs_closure(ws.shift_gens(t22))
    assert derived_subgroup(group).order == 2
    from_gens = derived_subgroup_from_gens(ws.shift_gens(t22))
    assert from_gens.elements == derived_subgroup(group).elements


def test_derived_subgroup_sizes():
    # index of the derived subgroup is p^n: one dimension per digit level
    for p, n in [(2, 3), (3, 2)]:
        tw = ws.tower(p, n)
        group = bfs_closure(ws.shift_gens(tw))
        assert derived_subgroup(group).order == group.order // p**n


def test_center_is_diagonal_line():
    for p, n in [(2, 2), (2, 3), (3, 2)]:
        tw = ws.tower(p, n)
        group = bfs_closure(ws.shift_gens(tw))
        assert center(group).order == p


def test_center_of_abelian_group_is_everything():
    base = bfs_closure(ws.base_translations(ws.tower(3, 2)))
    assert center(base).elements == base.elements


def test_center_of_3_3_via_base_fixed_space():
    # the centralizer of the base layer in the full symmetric group is the
    # base layer itself, so the center lives inside it as the fixed line
    from wreath_sylow.linalg import fixed_subspace, perm_action_matrix
    from wreath_sylow.partition import vector_to_element

    tw = ws.tower(3, 3)
    # the prefix group acts on the 2-blocks as the height-2 tower
    mats = [perm_action_matrix(g.images, 3) for g in ws.shift_gens(ws.tower(3, 2))]
    fix = fixed_subspace(3, 9, mats)
    assert fix.rank == 1
    z = vector_to_element(tw, 2, fix.rows[0])
    assert all(z * g == g * z for g in ws.shift_gens(tw))
    assert element_order(z, Perm.identity(27)) == 3


def test_all_normal_subgroups_dihedral():
    group = bfs_closure(ws.shift_gens(ws.tower(2, 2)))
    normals = all_normal_subgroups(group)
    assert [s.order for s in normals] == [1, 2, 4, 4, 4, 8]
    assert all(is_normal_under(s, group.gens) for s in normals)


def test_all_normal_subgroups_are_normal(enumerated):
    for (p, n), data in enumerated.items():
        for sub in data["normals"]:
            assert is_normal_under(sub, data["group"].gens)


def test_tail_commutator_inside_every_normal_subgroup(enumerated):
    # a normal subgroup of depth j contains the commutator subgroup of the
    # level-j tail
    for (p, n), data in enumerated.items():
        tw, group = data["tower"], data["group"]
        commutators = {}  # depth -> commutator subgroup of the level-j tail
        for sub in data["normals"]:
            if sub.order == 1:
                continue
            j = ws.depth(tw, sub.sorted_elements())
            if j not in commutators:
                tail = [x for x in group.elements if ws.in_tail(tw, j, x)]
                tail_set = GroupSet(frozenset(tail), tuple(tail), group.identity)
                commutators[j] = derived_subgroup(tail_set)
            assert commutators[j].elements <= sub.elements, (p, n, sub.order, j)


def test_depth_drop_propagates(enumerated):
    # once the tail chain intersection drops strictly, it drops at every
    # later level
    for (p, n), data in enumerated.items():
        tw = data["tower"]
        for sub in data["normals"]:
            sizes = [
                sum(1 for x in sub.elements if ws.in_tail(tw, j, x))
                for j in range(n + 1)
            ]
            drops = [k for k in range(n) if sizes[k + 1] < sizes[k]]
            if drops:
                assert drops == list(range(drops[0], n)), (p, n, sizes)


def test_base_commuting_involutions_lie_in_derived(enumerated):
    # an element of the level-1 tail with order p commuting with something
    # outside the tail lands in the derived subgroup
    for p, n in [(2, 3), (3, 2)]:
        data = enumerated[(p, n)]
        tw, group = data["tower"], data["group"]
        derived = derived_subgroup(group)
        tail1 = [x for x in group.elements if ws.in_tail(tw, 1, x)]
        outside = [x for x in group.elements if not ws.in_tail(tw, 1, x)]
        e = group.identity
        for y in tail1:
            if y == e or element_order(y, e) != p:
                continue
            if any(x * y == y * x for x in outside):
                assert y in derived.elements, (p, n, y)


def test_abelian_normal_subgroups(enumerated):
    # odd p: the base layer is the unique largest abelian normal subgroup;
    # p = 2 at height 3: exactly three normal subgroups of maximal abelian
    # order, including the base layer and the rotation subgroup
    data = enumerated[(3, 2)]
    tw, group = data["tower"], data["group"]
    abelian_normals = [
        s
        for s in data["normals"]
        if all(a * b == b * a for a in s.elements for b in s.elements)
    ]
    maximal = [
        s
        for s in abelian_normals
        if not any(s.elements < t.elements for t in abelian_normals)
    ]
    base = bfs_closure(ws.base_translations(tw))
    assert len(maximal) == 1 and maximal[0].elements == base.elements

    data = enumerated[(2, 3)]
    tw, group = data["tower"], data["group"]
    big_abelian_normals = [
        s
        for s in data["normals"]
        if s.order == 16
        and all(a * b == b * a for a in s.elements for b in s.elements)
    ]
    assert len(big_abelian_normals) == 3
    base = bfs_closure(ws.base_translations(tw))
    rotation = bfs_closure(rotation_subgroup_gens(tw))
    found = {s.elements for s in big_abelian_normals}
    assert base.elements in found
    assert rotation.elements in found


def test_abelian_normal_subgroups_live_low(enumerated):
    # every abelian normal subgroup fixes the first n-2 digit levels
    data = enumerated[(2, 3)]
    tw = data["tower"]
    for s in data["normals"]:
        if all(a * b == b * a for a in s.elements for b in s.elements):
            assert all(ws.in_tail(tw, tw.n - 2, x) for x in s.elements)


def test_exhaustive_complements_edge_cases():
    group = bfs_closure(ws.shift_gens(ws.tower(2, 2)))
    assert exhaustive_complements(group, group) == [
        GroupSet(frozenset([group.identity]), (), group.identity)
    ]
    trivial = GroupSet(frozenset([group.identity]), (), group.identity)
    assert exhaustive_complements(group, trivial) == [group]


def test_exhaustive_complements_of_base_layer():
    # complements of the base layer are spanned by order-p elements outside it
    tw = ws.tower(3, 2)
    group = bfs_closure(ws.shift_gens(tw))
    base = bfs_closure(ws.base_translations(tw))
    comps = exhaustive_complements(group, base)
    e = group.identity
    outside3 = [
        x
        for x in group.elements
        if x not in base.elements and element_order(x, e) == 3
    ]
    assert len(comps) == len(outside3) // 2
    for c in comps:
        assert c.order == 3
        gen = next(x for x in c.elements if x != e)
        assert gen in outside3
    assert has_complement(group, base)


def test_commutator_chain_of_rotation_subgroup():
    # the rotation subgroup descends to the identity in 2^(n-1) index-2 steps
    for n, expect in [(2, 2), (3, 4)]:
        tw = ws.tower(2, n)
        group = bfs_closure(ws.shift_gens(tw))
        rot = bfs_closure(rotation_subgroup_gens(tw))
        assert rot.order == 2**expect
        chain = commutator_chain(group, rot)
        assert len(chain) == expect + 1
        for a, b in zip(chain, chain[1:]):
            assert a.order == 2 * b.order
        assert rotation_series_length(tw) == expect


def _commutator_subgroup_by_products(group, sub):
    # [G, B] straight from Perm products, as a plain closure of the commutators
    comms = {g * b * g.inverse() * b.inverse() for g in group.elements for b in sub.elements}
    return bfs_closure(sorted(comms), identity=group.identity)


def test_indexed_commutators_match_perm_products():
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        tw = ws.tower(p, n)
        group = bfs_closure(ws.shift_gens(tw))
        assert derived_subgroup(group) == _commutator_subgroup_by_products(group, group)
        tail = bfs_closure([x for x in group.sorted_elements() if ws.in_tail(tw, 1, x)])
        chain = commutator_chain(group, tail)
        for a, b in zip(chain, chain[1:]):
            assert b == _commutator_subgroup_by_products(group, a)


def test_centralizer_scans():
    # degree 4: the base layer of the height-2 tower centralizes only itself
    t22 = ws.tower(2, 2)
    base = bfs_closure(ws.base_translations(t22))
    cz = centralizer_in_sym(ws.base_translations(t22), 4)
    assert cz.elements == base.elements
    # an abelian group sits inside its own centralizer
    assert base.elements <= cz.elements
    with pytest.raises(CapExceeded):
        centralizer_in_sym(ws.base_translations(ws.tower(2, 4)), 16)


def test_max_abelian_stats_small():
    t22 = ws.tower(2, 2)
    group = bfs_closure(ws.shift_gens(t22))
    assert max_abelian_stats(group, 2) == (2, 3)


def test_all_abelian_subgroups_of_order():
    group = bfs_closure(ws.shift_gens(ws.tower(2, 2)))
    found = [sub for sub in all_abelian_subgroups(group) if sub.order == 4]
    assert len(found) == 3
