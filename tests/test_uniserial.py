import itertools
import random
from collections import Counter

import wreath_sylow as ws
from wreath_sylow.linalg import (
    Subspace,
    augmentation_subspace,
    fixed_subspace,
    perm_action_matrix,
    permute,
    spin,
)
from wreath_sylow.perm import conjugate
from wreath_sylow.tower import TailVector, random_element, tail_coordinate_perms
from wreath_sylow.uniserial import (
    STYLE_CO_SHIFT,
    STYLE_PREFIX,
    LevelChoice,
    generates_uniserial,
    level_sums,
    levels_from_socle,
    module_invariants,
)

T33 = ws.tower(3, 3)
T34 = ws.tower(3, 4)


def gamma_shift2_vector():
    s0, s1, s2 = ws.shift_gens(T33)
    gamma = s1 * conjugate(s1, s0) * conjugate(s1, s0 * s0)
    return ws.tail_image(T33, 1, gamma * s2)


def closure_image(tw, j, v):
    return spin(tw.p, v.dim, [v.coords], tail_coordinate_perms(tw, j))


def is_summand(tw, j, u):
    mod_aug, soc = module_invariants(tw, j, u)
    return mod_aug == soc.rank


def choose(tw, j, u):
    return levels_from_socle(tw, j, module_invariants(tw, j, u)[1])


def example_11_1_vector():
    # summands (1,0,...,0) and (0,0,0,-1,1,0,0,0,0) in the level-2 tail at height 4
    coords = [0] * 18
    coords[0] = 1
    coords[12] = 2
    coords[13] = 1
    return TailVector(3, 4, 2, tuple(coords))


def test_level_sums_kills_augmentation():
    v = gamma_shift2_vector()
    assert level_sums(v) == (0, 1)
    # differences of block-permuted vectors always sum to zero per level
    moved = permute(v.coords, tail_coordinate_perms(T33, 1)[0])
    diff = TailVector(3, 3, 1, tuple((a - b) % 3 for a, b in zip(moved, v.coords)))
    assert level_sums(diff) == (0, 0)


def test_level_sums_of_diagonal_vanish_above_level_zero():
    diag = TailVector(3, 3, 1, (1, 1, 1, 0, 0, 0))
    assert level_sums(diag) == (0, 0)


def test_socle_coordinates_full_module():
    full = Subspace.full(3, 6)
    assert module_invariants(T33, 1, full) == (2, Subspace.full(3, 2))


def test_socle_coordinates_zero():
    assert module_invariants(T33, 1, Subspace.zero(3, 6))[1].rank == 0


def test_socle_coordinates_gamma_closure():
    # the single fixed line of the spun module is the level-2 diagonal
    nbar = closure_image(T33, 1, gamma_shift2_vector())
    assert nbar.rank == 3
    soc = module_invariants(T33, 1, nbar)[1]
    assert soc == Subspace.span(3, 2, [(0, 1)])


def test_is_direct_summand_full_and_gamma():
    assert is_summand(T33, 1, Subspace.full(3, 6))
    assert is_summand(T33, 1, closure_image(T33, 1, gamma_shift2_vector()))


def test_is_direct_summand_rejects_11_6_image():
    v = example_11_1_vector()
    nbar = closure_image(T34, 2, v)
    assert not is_summand(T34, 2, nbar)


def test_generates_uniserial_gamma_case():
    assert generates_uniserial(T33, gamma_shift2_vector())


def test_generates_uniserial_rejects_11_1_vector():
    v = example_11_1_vector()
    # the projection condition fails at the summand outside the augmentation
    assert sum(v.summand(0)) % 3 != 0
    assert sum(v.summand(1)) % 3 == 0
    full = spin(3, 18, [v.coords], tail_coordinate_perms(T34, 2)).rank
    alone = spin(3, 18, [v.with_only_summand(0).coords], tail_coordinate_perms(T34, 2)).rank
    assert alone < full
    assert not generates_uniserial(T34, v)


def test_generates_uniserial_zero():
    assert not generates_uniserial(T33, TailVector(3, 3, 1, (0,) * 6))


def test_generates_uniserial_spin_has_full_length():
    # a passing vector spans p^j dimensions
    rng = random.Random(2)
    hits = 0
    for _ in range(40):
        coords = tuple(rng.randrange(3) for _ in range(6))
        v = TailVector(3, 3, 1, coords)
        if generates_uniserial(T33, v):
            hits += 1
            assert closure_image(T33, 1, v).rank == 3
    assert hits > 0


def test_choose_levels_full_module():
    choice = choose(T33, 1, Subspace.full(3, 6))
    assert choice.style == STYLE_CO_SHIFT and choice.levels == ()


def test_choose_levels_shift0_closure():
    nbar = Subspace.span(3, 3, [(1, 0, 0)])
    choice = choose(T33, 0, nbar)
    assert choice.style == STYLE_CO_SHIFT and choice.levels == (1, 2)


def test_choose_levels_gamma_case_takes_prefix_style():
    nbar = closure_image(T33, 1, gamma_shift2_vector())
    choice = choose(T33, 1, nbar)
    assert choice.style == STYLE_PREFIX and choice.levels == (1,)


def test_choose_levels_socle_gap():
    # at height 4 the same closure misses the level-3 diagonal: no choice works
    s0, s1, s2 = (ws.shift_gen(T34, i) for i in range(3))
    gamma = s1 * conjugate(s1, s0) * conjugate(s1, s0 * s0)
    v = ws.tail_image(T34, 1, gamma * s2)
    nbar = closure_image(T34, 1, v)
    assert is_summand(T34, 1, nbar)
    assert choose(T34, 1, nbar) is None


def test_choose_levels_diagonal_pair():
    # socle line through both coordinates: only the level-2 summand complements
    nbar_plus = spin(
        3, 6, [(1, 0, 0, 1, 0, 0)], tail_coordinate_perms(T33, 1)
    )
    choice = choose(T33, 1, nbar_plus)
    assert choice.style == STYLE_CO_SHIFT and choice.levels == (2,)


def test_choose_levels_takes_lexicographically_smallest():
    # at depth 0 every subspace is invariant; here {1, 3} and {2, 3} both
    # complement but the smaller set wins
    u = Subspace.span(3, 4, [(1, 0, 0, 0), (0, 1, 1, 0)])
    choice = choose(T34, 0, u)
    assert choice.style == STYLE_CO_SHIFT and choice.levels == (1, 3)


def test_summand_subspace_complements_choice():
    rng = random.Random(9)
    for tw, j in [(T33, 0), (T33, 1), (ws.tower(2, 3), 1), (T34, 2)]:
        dim = (tw.n - j) * tw.p**j
        perms = tail_coordinate_perms(tw, j)
        for _ in range(25):
            seeds = [
                ws.tail_image(tw, j, _random_tail(tw, j, rng)).coords
                for _ in range(rng.randrange(1, 3))
            ]
            u = spin(tw.p, dim, seeds, perms)
            if not is_summand(tw, j, u):
                continue
            choice = choose(tw, j, u)
            if choice is None:
                continue
            # the chosen unit coordinates complement the socle coordinates
            soc = module_invariants(tw, j, u)[1]
            m = tw.n - j
            units = Subspace.span(
                tw.p, m,
                [[1 if k == lvl - j else 0 for k in range(m)] for lvl in choice.levels],
            )
            assert units.intersect(soc).rank == 0
            assert units.sum_with(soc).rank == m
            if choice.style != STYLE_CO_SHIFT:
                continue
            # the full summands at the chosen levels complement u
            blocks = tw.p**j
            mz = Subspace.span(tw.p, dim, [
                [1 if k == (lvl - j) * blocks + b else 0 for k in range(dim)]
                for lvl in choice.levels
                for b in range(blocks)
            ])
            assert mz.intersect(u).rank == 0
            assert mz.sum_with(u).rank == dim


def _random_tail(tw, j, rng):
    from wreath_sylow.perm import Perm

    local = ws.tower(tw.p, tw.n - j)
    size = tw.p ** (tw.n - j)
    images = []
    for b in range(tw.p**j):
        loc = random_element(local, rng)
        images.extend(b * size + loc.images[y] for y in range(size))
    return Perm(images)


def _dense_tail_matrices(tw, j):
    """The 0/1 matrices of the first j shift generators on tail coordinates.

    Reference copy of the dense construction the engine used before it
    acted by coordinate permutations: row k is the image of basis vector k.
    The prefix group acts on the j-blocks as the height-j tower.
    """
    blocks = tw.p**j
    dim = (tw.n - j) * blocks
    mats = []
    for i in range(j):
        bm = ws.shift_gen(ws.tower(tw.p, j), i).images
        rows = []
        for k in range(dim):
            s, b = divmod(k, blocks)
            row = [0] * dim
            row[s * blocks + bm[b]] = 1
            rows.append(tuple(row))
        mats.append(tuple(rows))
    return mats


def _reference_levels(tw, j, soc):
    """levels_from_socle by search: the first complementing Z in lexicographic order."""
    m = tw.n - j

    def units(ts):
        return Subspace.span(tw.p, m, [[1 if k == t else 0 for k in range(m)] for t in ts])

    for z in itertools.combinations(range(1, m), m - soc.rank):
        e_z = units(z)
        if e_z.intersect(soc).rank == 0 and e_z.sum_with(soc).rank == m:
            return LevelChoice(tuple(j + t for t in z), STYLE_CO_SHIFT)
    if soc == units(range(1, m)):
        return LevelChoice((j,), STYLE_PREFIX)
    return None


def test_closed_forms_match_generic_reference():
    # random closures at every depth; the invariants computed in closed form
    # must equal the generic fixed/augmentation solves over dense matrices
    rng = random.Random(1)
    kinds = Counter()
    for p, n in [(2, 3), (2, 4), (3, 3), (3, 4), (5, 2)]:
        tw = ws.tower(p, n)
        for j in range(n):
            m, blocks = n - j, p**j
            dim = m * blocks
            perms = tail_coordinate_perms(tw, j)
            mats = [perm_action_matrix(q, p) for q in perms]
            assert mats == _dense_tail_matrices(tw, j)
            fix = fixed_subspace(p, dim, mats)
            aug = augmentation_subspace(p, dim, mats)
            for _ in range(10):
                seeds = [
                    ws.tail_image(tw, j, _random_tail(tw, j, rng)).coords
                    for _ in range(rng.randrange(1, 3))
                ]
                u = spin(p, dim, seeds, perms)
                fixed_part = u.intersect(fix)
                mod_aug = u.sum_with(aug).rank - aug.rank
                closed_mod_aug, closed_soc = module_invariants(tw, j, u)
                assert (closed_mod_aug, closed_soc.rank) == (mod_aug, fixed_part.rank)
                soc = Subspace.span(p, m, [row[::blocks] for row in fixed_part.rows])
                assert closed_soc == soc
                choice = levels_from_socle(tw, j, closed_soc)
                assert choice == _reference_levels(tw, j, soc)
                if mod_aug != fixed_part.rank:
                    kinds[ws.REASON_NOT_SUMMAND] += 1
                else:
                    kinds[ws.REASON_SOCLE_GAP if choice is None else choice.style] += 1
    assert set(kinds) == {
        STYLE_CO_SHIFT, STYLE_PREFIX, ws.REASON_NOT_SUMMAND, ws.REASON_SOCLE_GAP
    }
