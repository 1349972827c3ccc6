import hashlib

import pytest

import wreath_sylow as ws
from wreath_sylow import oracle
from wreath_sylow.oracle import (
    CapExceeded,
    GroupSet,
    all_abelian_subgroups,
    all_normal_subgroups,
    bfs_closure,
    centralizer_in_sym,
    commutator_chain,
    derived_subgroup,
    element_order,
    exhaustive_complements,
    has_complement,
    max_abelian_stats,
)
from reference import (
    abelian_subgroups_by_scan,
    bfs_order,
    center,
    complements_by_extension,
    derived_subgroup_from_gens,
    fixed_subspace,
    is_normal_under,
    normal_closure,
    walk,
)
from wreath_sylow.gallery import Mod9Elem, QCUnit
from wreath_sylow.perm import Perm, parse_cycles
from wreath_sylow.tower import rotation_subgroup_gens


def test_bfs_closure_examples():
    t22 = ws.tower(2, 2)
    assert bfs_closure(ws.shift_gens(t22)).order == 8
    assert bfs_closure([], identity=Perm.identity(4)).order == 1
    assert bfs_closure(ws.shift_gens(ws.tower(2, 3))).order == 128


def test_bfs_cap(monkeypatch):
    monkeypatch.setattr(oracle, "BFS_CAP", 10)
    with pytest.raises(CapExceeded):
        bfs_closure(ws.shift_gens(ws.tower(3, 2)))
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
    from wreath_sylow.linalg import perm_action_matrix
    from wreath_sylow.tower import level_element

    tw = ws.tower(3, 3)
    # the prefix group acts on the 2-blocks as the height-2 tower
    mats = [perm_action_matrix(g.images, 3) for g in ws.shift_gens(ws.tower(3, 2))]
    fix = fixed_subspace(3, 9, mats)
    assert fix.rank == 1
    z = level_element(tw, 2, fix.rows[0])
    assert all(z * g == g * z for g in ws.shift_gens(tw))
    assert element_order(z, Perm.identity(27)) == 3


def test_all_normal_subgroups_dihedral():
    group = bfs_closure(ws.shift_gens(ws.tower(2, 2)))
    normals = all_normal_subgroups(group)
    assert [s.order for s in normals] == [1, 2, 4, 4, 4, 8]
    assert all(is_normal_under(s, group.gens) for s in normals)


def _subgroups_digest(subgroups):
    rows = [([x.images for x in s.sorted_elements()], [g.images for g in s.gens]) for s in subgroups]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_all_normal_subgroups_are_pinned(enumerated):
    # sha256 of the (sorted elements, gens) list: skipping joins already closed
    # must leave the subgroups and the gens each one was first reached with
    pinned = {
        (2, 3): "7f10db8760095a50ac3b37b384b63930de7da5a1401c217c47db6b234fbe0c8f",
        (3, 2): "20af10a684e2155297e3fc5fa1b6dafff0817c46250d22191c9d1cdd77b37832",
    }
    for key, digest in pinned.items():
        assert _subgroups_digest(enumerated[key]["normals"]) == digest, key


def test_all_abelian_subgroups_are_pinned(enumerated):
    # sha256 of the (sorted elements, gens) list: trying only candidates above
    # the last generator must leave the subgroups and their recorded gens
    pinned = {
        (2, 2): "19f8375d3a4b5f61caef1439f3b736e5302030844d5dd43e47a994481b85c478",
        (3, 2): "1bf8cb8a8fa858cc06c2b5fc9ff1c55bf02b62699008e5ddbdff19bc8b0a0972",
        (2, 3): "9826558e11b57a92417780c006f7adf2982cc480101a5eeaf3b61fc852a4e9bc",
    }
    for key, digest in pinned.items():
        assert _subgroups_digest(all_abelian_subgroups(enumerated[key]["group"])) == digest, key


def test_abelian_search_skips_candidates_below_the_last_generator(enumerated, monkeypatch):
    # 1,400 closures when every candidate is tried; 1,166 above the last generator
    calls = _record_closures(monkeypatch)
    assert len(all_abelian_subgroups(enumerated[(2, 3)]["group"])) == 323
    assert len(calls) <= 1200


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


def _gallery_pairs():
    # the (group, normal) pairs of the two gallery reports, from their element classes
    one = QCUnit(0, 0, 0)
    i, j, x = QCUnit(0, 1, 0), QCUnit(0, 2, 0), QCUnit(0, 0, 1)
    yield bfs_closure([i, j, x], identity=one), bfs_closure([i, j], identity=one)
    e, t = Mod9Elem(0, 0, 0), Mod9Elem(0, 0, 1)
    group = bfs_closure([Mod9Elem(1, 0, 0), Mod9Elem(0, 1, 0), t], identity=e)
    plane = [Mod9Elem(v1, v2, 0) for v1 in (0, 3, 6) for v2 in range(9)]
    yield group, bfs_closure(plane + [t], identity=e)


def test_coset_lift_search_matches_extension_search(enumerated):
    cases = [(d["group"], sub) for d in enumerated.values() for sub in d["normals"]]
    cases += _gallery_pairs()
    assert len(cases) == 44
    for group, normal in cases:
        expected = complements_by_extension(group, normal)
        listed = exhaustive_complements(group, normal)
        assert [c.elements for c in listed] == [c.elements for c in expected]
        assert has_complement(group, normal) == bool(expected)


def test_complement_lists_are_pinned(enumerated):
    # sha256 of each pair's (sorted elements, lifts) list, over the 44 pairs
    # above: pruning trial lifts must leave every complement, its lifts and
    # their order as they were
    cases = [(d["group"], sub) for d in enumerated.values() for sub in d["normals"]]
    cases += _gallery_pairs()
    assert len(cases) == 44
    rows = [[(c.sorted_elements(), c.gens) for c in exhaustive_complements(*case)] for case in cases]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "5ee6efb1e2f1a947bff8ed82775304e1339b802e7c39a558c16f903d981f73cf"


def _record_closures(monkeypatch) -> list:
    # (start, number of moves, cap) of each _closure call
    calls = []
    closure = oracle._closure

    def recorded(start, moves, cap):
        calls.append((set(start), len(moves), cap))
        return closure(start, moves, cap)

    monkeypatch.setattr(oracle, "_closure", recorded)
    return calls


def test_complement_search_skips_lifts_of_the_wrong_order(enumerated, monkeypatch):
    # a complement's lift of g has the order of gN in G/N, so every other
    # trial lift is skipped before any closure is built; and whether the
    # gens generate the group is closed from {e} once per group, not once
    # per search.  Fresh GroupSets give cold indexes
    fresh = [GroupSet(d["group"].elements, d["group"].gens, d["group"].identity) for d in enumerated.values()]
    pairs = [(group, sub) for group, d in zip(fresh, enumerated.values()) for sub in d["normals"]]
    assert len(pairs) == 42
    calls = _record_closures(monkeypatch)

    def generation_checks():
        # closures of all the gens from {e} within the group's order
        return sum(
            (start, moves, cap) == ({group._index.e}, len(group.gens), group.order)
            for start, moves, cap in calls
            for group in fresh
        )

    verdicts = [has_complement(group, sub) for group, sub in pairs]
    assert len(calls) <= 1500
    assert generation_checks() == len(fresh)
    calls.clear()
    assert [has_complement(group, sub) for group, sub in pairs] == verdicts
    assert generation_checks() == 0


def test_complement_search_rejects_non_normal_subgroup():
    tw = ws.tower(2, 2)
    group = bfs_closure(ws.shift_gens(tw))
    sub = bfs_closure([ws.shift_gen(tw, 1)])
    for search in (exhaustive_complements, has_complement):
        with pytest.raises(ValueError, match="not normal"):
            search(group, sub)


def test_complement_search_rejects_subgroup_outside_the_group(enumerated):
    # N is normalized by G's gens, but its elements are not G's: refused before any lookup
    tw = ws.tower(2, 3)
    group = bfs_closure([ws.shift_gen(tw, 0)])
    normal = next(s for s in enumerated[(2, 3)]["normals"] if s.order == 2)
    assert is_normal_under(normal, group.gens)
    assert not normal.elements <= group.elements
    for search in (exhaustive_complements, has_complement):
        with pytest.raises(ValueError, match="not contained in the group"):
            search(group, normal)


def test_index_normality_matches_conjugation(enumerated):
    # every abelian subgroup, most of them not normal
    for key in [(2, 3), (3, 2)]:
        group = enumerated[key]["group"]
        ix = group._index
        gens = [ix.pos[g] for g in group.gens]
        subgroups = all_abelian_subgroups(group)
        verdicts = [
            ix.is_normal(sorted(ix.pos[x] for x in sub.elements), gens) for sub in subgroups
        ]
        assert verdicts == [is_normal_under(sub, group.gens) for sub in subgroups]
        assert any(verdicts) and not all(verdicts)
        for sub, normal in zip(subgroups, verdicts):
            if not normal:
                with pytest.raises(ValueError, match="not normal"):
                    has_complement(group, sub)


def _count_products(monkeypatch, cls) -> list:
    counter = [0]
    times = cls.__mul__

    def counted(a, b):
        counter[0] += 1
        return times(a, b)

    monkeypatch.setattr(cls, "__mul__", counted)
    return counter


def test_mod9_complement_search_builds_no_column_per_lift(monkeypatch):
    # the lifts are read by products: one column per gen and one per gen inverse
    group, normal = list(_gallery_pairs())[1]
    products = _count_products(monkeypatch, Mod9Elem)
    assert len(exhaustive_complements(group, normal)) == 54
    built = sum(c is not None for c in group._index._cols)
    assert built == 2 * len(group.gens) == 6
    assert products[0] < 2000


def _closures_agree(ix, start, gens, cap):
    moves = ix.columns(gens)
    walked = walk(start, moves, cap)
    assert oracle._closure(start, moves, cap) == walked
    return walked


def test_coset_closure_matches_element_walk(enumerated):
    for data in enumerated.values():
        group = data["group"]
        ix = group._index
        members = [sorted(ix.pos[x] for x in sub.elements) for sub in data["normals"]]
        # the atoms of the normal-subgroup search: conjugacy classes, each closed alone
        classes = {
            tuple(sorted({ix.pos[g * x * g.inverse()] for g in group.elements}))
            for x in group.elements
        }
        for orbit in classes:
            _closures_agree(ix, [ix.e], orbit, group.order)
            for normal in members:
                _closures_agree(ix, normal, orbit, group.order)
    # every step of the abelian-subgroup search at (2,3): a subgroup and a centralizing g
    group = enumerated[(2, 3)]["group"]
    ix = group._index
    steps = 0
    for sub in all_abelian_subgroups(group):
        members = [ix.pos[x] for x in sub.elements]
        for g in set(range(len(ix.elems))) - set(members):
            if all(ix.col(h)[g] == ix.col(g)[h] for h in members):
                _closures_agree(ix, members, [g], group.order)
                steps += 1
    assert steps == 4389
    # the gallery groups: each element alone and joined to the normal subgroup
    for group, normal in _gallery_pairs():
        ix = group._index
        in_normal = [ix.pos[x] for x in normal.elements]
        for k in range(len(ix.elems)):
            _closures_agree(ix, [ix.e], [k], group.order)
            _closures_agree(ix, in_normal, [k], group.order)
        gens = [ix.pos[g] for g in group.gens]
        assert len(_closures_agree(ix, [ix.e], gens, group.order)) == group.order


def test_coset_closure_cap_boundary(enumerated):
    # a closure of exactly cap elements passes, one larger raises as the walk does
    group = enumerated[(2, 3)]["group"]
    ix = group._index
    gens = [ix.pos[g] for g in group.gens]
    for sub in enumerated[(2, 3)]["normals"][:-1]:  # all but the group itself
        start = [ix.pos[x] for x in sub.elements]
        moves = ix.columns(gens)
        assert len(oracle._closure(start, moves, group.order)) == group.order
        messages = []
        for kernel in (oracle._closure, walk):
            with pytest.raises(CapExceeded) as raised:
                kernel(start, moves, group.order - 1)
            messages.append(str(raised.value))
        assert messages == [f"closure exceeds cap {group.order - 1}"] * 2


def _generator_sets(enumerated):
    # (gens, identity): the shift generators, the gallery groups and their normal
    # subgroups, and the gens of every normal subgroup at (2,3)
    for data in enumerated.values():
        group = data["group"]
        yield group.gens, group.identity
    for pair in _gallery_pairs():
        for group in pair:
            yield group.gens, group.identity
    for sub in enumerated[(2, 3)]["normals"]:
        yield sub.gens, sub.identity


def test_bfs_closure_matches_element_walk(enumerated, monkeypatch):
    # the same elements; a BFS_CAP of exactly |G| passes, and |G| - 1 raises the walk's message
    sets = list(_generator_sets(enumerated))
    assert len(sets) == 3 + 4 + 28
    bound = oracle.BFS_CAP
    for gens, e in sets:
        moves = [lambda x, g=g: x * g for g in gens]
        walked = walk([e], moves, bound)
        monkeypatch.setattr(oracle, "BFS_CAP", len(walked))
        assert bfs_closure(gens, identity=e).elements == walked
        if len(walked) == 1:
            continue
        cap = len(walked) - 1
        monkeypatch.setattr(oracle, "BFS_CAP", cap)
        messages = []
        for closure in (lambda: bfs_closure(gens, identity=e), lambda: walk([e], moves, cap)):
            with pytest.raises(CapExceeded) as raised:
                closure()
            messages.append(str(raised.value))
        assert messages == [f"closure exceeds cap {cap}"] * 2


def test_index_orbits_are_conjugacy_classes(enumerated):
    groups = [data["group"] for data in enumerated.values()]
    groups += [group for group, _ in _gallery_pairs()]
    for group in groups:
        ix = group._index
        conj = ix.conjugations([ix.pos[g] for g in group.gens])
        for k, x in enumerate(ix.elems):
            cls = {ix.pos[g * x * g.inverse()] for g in group.elements}
            assert oracle._closure([k], conj, group.order) == cls


def test_all_normal_subgroups_makes_no_product_on_a_warm_index(enumerated, monkeypatch):
    group = enumerated[(2, 3)]["group"]
    expected = all_normal_subgroups(group)
    products = _count_products(monkeypatch, Perm)
    assert all_normal_subgroups(group) == expected
    assert products == [0]


def test_bfs_closure_products_by_cosets(monkeypatch):
    # one product per element added and one per generator read of each coset
    gens = ws.shift_gens(ws.tower(2, 3))
    products = _count_products(monkeypatch, Perm)
    group = bfs_closure(gens)
    assert group.order == 128
    assert products[0] <= 2 * group.order


def test_complement_search_rejects_gens_that_do_not_generate():
    # a normal closure's gens need not generate it; the lifts would then run out
    shifts = ws.shift_gens(ws.tower(2, 2))
    group = normal_closure([shifts[1]], shifts)
    assert group.order == 4 and len(group.gens) == 1
    trivial = GroupSet(frozenset([group.identity]), (), group.identity)
    for search in (exhaustive_complements, has_complement):
        with pytest.raises(ValueError, match="do not generate"):
            search(group, trivial)


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


def test_centralizer_mask_search_matches_the_scan(enumerated):
    # same subgroups, same gens, same order as testing every element at every step
    groups = [d["group"] for d in enumerated.values()]
    groups += [group for group, _ in _gallery_pairs()]
    for group in groups:
        assert all_abelian_subgroups(group) == abelian_subgroups_by_scan(group)


def test_all_abelian_subgroups_of_order():
    group = bfs_closure(ws.shift_gens(ws.tower(2, 2)))
    found = [sub for sub in all_abelian_subgroups(group) if sub.order == 4]
    assert len(found) == 3
