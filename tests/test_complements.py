import functools
import importlib
import itertools
import operator
import random
from dataclasses import replace

import pytest

import wreath_sylow as ws
from reference import (
    commutator,
    member,
    normal_closure,
    normal_closure_order,
    random_slice_of_height,
    random_tail,
    spun_handle,
    verify_complement_all_conjugates,
)
from wreath_sylow import complements, oracle
from wreath_sylow.complements import (
    REASON_NOT_SUMMAND,
    REASON_SOCLE_GAP,
    Decision,
    complement_order_exponent,
    decision_json,
    tail_commutator_exponent,
)
from wreath_sylow.linalg import _Echelon
from wreath_sylow.partition import PartitionSpec, module_generators
from wreath_sylow.perm import Perm, conjugate, format_cycles, parse_cycles
from wreath_sylow.tower import block_conjugates, level_element, prefix_rep, random_element, scale_invariant
from wreath_sylow.uniserial import STYLE_CO_SHIFT, STYLE_PREFIX

T33 = ws.tower(3, 3)
T34 = ws.tower(3, 4)


def gamma(tw):
    s0, s1 = ws.shift_gen(tw, 0), ws.shift_gen(tw, 1)
    return s1 * conjugate(s1, s0) * conjugate(s1, s0 * s0)


def test_closure_handle_shift0():
    handle = ws.closure_handle(T33, [ws.shift_gen(T33, 0)])
    assert handle.j == 0
    assert handle.image.rows == ((1, 0, 0),)
    # tail commutator accounts for 3^10, the image for one more power of 3
    assert tail_commutator_exponent(T33, 0) == 10
    assert handle.order_exponent == 11


def test_closure_handle_empty():
    handle = ws.closure_handle(T33, [])
    assert handle.j == 3
    assert handle.order_exponent == 0


def test_closure_handle_gamma_shift2():
    handle = ws.closure_handle(T33, [gamma(T33) * ws.shift_gen(T33, 2)])
    assert handle.j == 1
    assert handle.image.rank == 3
    # |K| = (3^4)^3 / 3^6 = 3^6, so |N| = 3^9
    assert handle.order_exponent == 9


def test_closure_order_matches_oracle_at_3_11():
    # 3^11 elements, counted by the packed normal-closure walk
    count = normal_closure_order(
        [ws.shift_gen(T33, 0)], ws.shift_gens(T33)
    )
    assert count == 3**11


def test_member_examples():
    handle = ws.closure_handle(T33, [gamma(T33) * ws.shift_gen(T33, 2)])
    for g in handle.gens:
        assert member(handle, g)
    assert not member(handle, ws.shift_gen(T33, 0))
    # commutators of tail elements always belong
    rng = random.Random(0)
    for _ in range(5):
        x, y = (random_tail(T33, 1, rng) for _ in range(2))
        assert member(handle, commutator(x, y))


def test_decide_shift0_gets_co_shift_complement():
    handle = ws.closure_handle(T33, [ws.shift_gen(T33, 0)])
    decision = ws.decide(handle)
    assert decision.has_complement
    assert decision.style == STYLE_CO_SHIFT
    assert decision.levels == (1, 2)
    assert [ws.format_cycles(g) for g in decision.gens] == [
        "(9 12 15)(10 13 16)(11 14 17)(18 21 24)(19 22 25)(20 23 26)",
        "(3 4 5)(6 7 8)",
    ]
    assert complement_order_exponent(handle, decision) == 2
    cert = ws.verify_complement(handle, decision)
    assert cert.passed
    assert cert.numbers["tail_part_rank"] == 2


def test_decide_gamma_gets_prefix_complement():
    handle = ws.closure_handle(T33, [gamma(T33) * ws.shift_gen(T33, 2)])
    decision = ws.decide(handle)
    assert decision.has_complement
    assert decision.style == STYLE_PREFIX
    assert decision.gens == (ws.shift_gen(T33, 0), ws.shift_gen(T33, 1))
    assert complement_order_exponent(handle, decision) == 4
    assert ws.verify_complement(handle, decision).passed


def test_decide_socle_gap_at_height_4():
    handle = ws.closure_handle(T34, [gamma(T34) * ws.shift_gen(T34, 2)])
    decision = ws.decide(handle)
    assert not decision.has_complement
    assert decision.reason == REASON_SOCLE_GAP


def test_decide_not_summand():
    s1, s2, s3 = (ws.shift_gen(T34, i) for i in (1, 2, 3))
    s0 = ws.shift_gen(T34, 0)
    delta = s2 * conjugate(s3.inverse() * conjugate(s3, s1), s0)
    handle = ws.closure_handle(T34, [delta])
    assert handle.j == 2
    decision = ws.decide(handle)
    assert not decision.has_complement
    assert decision.reason == REASON_NOT_SUMMAND


def test_decide_trivial_and_full():
    trivial = ws.closure_handle(T33, [])
    decision = ws.decide(trivial)
    assert decision.has_complement and decision.gens == tuple(ws.shift_gens(T33))
    assert ws.verify_complement(trivial, decision).passed

    full = ws.closure_handle(T33, ws.shift_gens(T33))
    decision = ws.decide(full)
    assert decision.has_complement and decision.gens == ()
    assert decision.levels == ()
    assert complement_order_exponent(full, decision) == 0
    assert ws.verify_complement(full, decision).passed


def test_verify_rejects_complement_meeting_the_closure():
    # s0 generates the closure's level-0 image, so it cannot be a complement
    s0 = ws.shift_gen(T33, 0)
    handle = ws.closure_handle(T33, [s0])
    forged = Decision(True, STYLE_PREFIX, (0,), (s0,))
    cert = ws.verify_complement(handle, forged)
    assert cert.checks["meets_closure_trivially"] is False
    assert not cert.passed


def test_verify_rejects_noncommuting_tail_part():
    # s1 and s2 both move block 0 only, and they do not commute there
    s1, s2 = ws.shift_gen(T33, 1), ws.shift_gen(T33, 2)
    assert s1 * s2 != s2 * s1
    handle = ws.closure_handle(T33, [s1])
    decision = ws.decide(handle)
    assert decision.style == STYLE_CO_SHIFT and decision.levels == (2,)
    cert = ws.verify_complement(handle, replace(decision, gens=decision.gens[:1] + (s1, s2)))
    assert cert.checks["tail_part_in_tail"] is True
    assert cert.checks["tail_part_abelian"] is False
    assert not cert.passed


def test_verify_rejects_tail_part_off_the_tail():
    # s0 moves the level-1 blocks; the scale map stays in them but is off the
    # tower.  Either way the certificate fails its checks, and does not raise.
    handle = ws.closure_handle(T33, [ws.shift_gen(T33, 1)])
    decision = ws.decide(handle)
    assert decision.style == STYLE_CO_SHIFT and decision.levels == (2,)
    keys = list(ws.verify_complement(handle, decision).checks)
    for forged in (ws.shift_gen(T33, 0), ws.scale_gen(T33, 2)):
        forged_decision = replace(decision, gens=decision.gens[:1] + (forged,))
        cert = ws.verify_complement(handle, forged_decision)
        assert list(cert.checks) == keys
        assert cert.checks["tail_part_in_tail"] is False
        assert cert.checks["tail_part_rank"] is False
        assert cert.checks["meets_closure_trivially"] is False
        assert not cert.passed
        assert decision_json(handle, forged_decision)["checks"] == cert.checks


def test_verify_reads_the_decision_generators():
    # style and levels are genuine, the gens are not: the certificate judges
    # the generators the decision carries, not the ones its shape names
    s0 = ws.shift_gen(T33, 0)
    r2 = ws.co_shift_gen(T33, 2)
    handle = ws.closure_handle(T33, [ws.shift_gen(T33, 1)])
    decision = ws.decide(handle)
    assert decision.levels == (2,) and decision.gens == (s0, r2)
    real = ws.verify_complement(handle, decision)
    assert real.passed
    keys = list(real.checks)
    # a tail part off the tail, a prefix part that is not s0, and no prefix part
    for gens in [(s0, s0), (s0**2, r2), (r2,)]:
        forged = replace(decision, gens=gens)
        cert = ws.verify_complement(handle, forged)
        assert list(cert.checks) == keys
        assert cert.checks["tail_part_in_tail"] is False, gens
        assert not cert.passed, gens
        assert not verify_complement_all_conjugates(handle, forged).passed, gens


def test_closure_handle_decomposes_each_generator_once(monkeypatch):
    calls = []

    tower_module = importlib.import_module("wreath_sylow.tower")  # ws.tower is the constructor

    def counted(x, p, real=tower_module.decompose):
        calls.append(x)
        return real(x, p)

    # both names, so a decomposition through a tower helper is counted too
    monkeypatch.setattr(complements, "decompose", counted)
    monkeypatch.setattr(tower_module, "decompose", counted)
    rng = random.Random(31)
    for tw in (T33, T34, ws.tower(2, 4)):
        gens = [random_element(tw, rng), gamma(tw) * ws.shift_gen(tw, 2), ws.shift_gen(tw, tw.n - 1)]
        calls.clear()
        ws.closure_handle(tw, gens)
        assert calls == gens


def test_decide_reuses_the_spun_echelon(monkeypatch):
    # the socle reads the closure's own echelon and the rank modulo the augmentation
    # the generators, so no image row is inserted again.  s9 moves one level:
    # 512 rows, at most 2 inserts.  s8 * s9 moves two levels, so its closure is
    # spun: 256 rows, at most 2 inserts for the socle's kernel of the 2 level
    # diagonals and 1 for the level choice
    tw = ws.tower(2, 10)
    inserts = [0]
    insert = _Echelon.insert

    def counted(ech, w):
        inserts[0] += 1
        return insert(ech, w)

    for gen, rank, bound in [
        (ws.shift_gen(tw, 9), 512, 2),
        (ws.shift_gen(tw, 8) * ws.shift_gen(tw, 9), 256, 3),
    ]:
        handle = ws.closure_handle(tw, [gen])
        assert handle.image.rank == rank
        inserts[0] = 0
        monkeypatch.setattr(_Echelon, "insert", counted)
        assert ws.decide(handle).has_complement
        monkeypatch.setattr(_Echelon, "insert", insert)
        assert inserts[0] <= bound, (rank, inserts[0])
    assert ws.closure_handle(tw, [ws.shift_gen(tw, 8) * ws.shift_gen(tw, 9)]).heights is None


def test_verify_rejects_negative_decision():
    handle = ws.closure_handle(T34, [gamma(T34) * ws.shift_gen(T34, 2)])
    with pytest.raises(ValueError):
        ws.verify_complement(handle, ws.decide(handle))


def test_scale_orbit_moves_gamma_closure():
    # scaling digit 1 or 2 rescales exactly one of the coupled parts, which
    # changes the closure; scaling digit 0 permutes the conjugates only
    handle = ws.closure_handle(T33, [gamma(T33) * ws.shift_gen(T33, 2)])
    orbit = ws.scale_orbit(handle)
    assert [same for _, _, same in orbit] == [True, False, False]
    # a closure generated by shift powers is fixed by every scaling map
    handle0 = ws.closure_handle(T33, [ws.shift_gen(T33, 0)])
    assert all(same for _, _, same in ws.scale_orbit(handle0))


def test_scale_invariant_complement_as_subgroups():
    # conjugating the complement generators by any scaling map regenerates
    # the same subgroup, checked on full element sets
    handle = ws.closure_handle(T33, [gamma(T33) * ws.shift_gen(T33, 2)])
    decision = ws.decide(handle)
    comp = oracle.bfs_closure(list(decision.gens))
    for eta in ws.scale_gens(T33):
        conj = oracle.bfs_closure([conjugate(g, eta) for g in decision.gens])
        assert conj.elements == comp.elements


def test_depth_propagation_on_closures():
    # once the intersection with the tail chain drops strictly, it keeps dropping
    rng = random.Random(4)
    for p, n in [(2, 3), (3, 2), (2, 2)]:
        tw = ws.tower(p, n)
        group = oracle.bfs_closure(ws.shift_gens(tw))
        for _ in range(6):
            gens = [random_element(tw, rng) for _ in range(rng.randrange(1, 3))]
            closure = normal_closure(gens, ws.shift_gens(tw))
            sizes = []
            for j in range(n + 1):
                sizes.append(sum(1 for x in closure.elements if ws.in_tail(tw, j, x)))
            drops = [k for k in range(n) if sizes[k + 1] < sizes[k]]
            if drops:
                assert drops == list(range(drops[0], n))


def test_randomized_soundness_all_sizes():
    rng = random.Random(20240809)
    for p, n in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]:
        tw = ws.tower(p, n)
        decided = 0
        for _ in range(12):
            gens = [random_element(tw, rng) for _ in range(rng.randrange(1, 4))]
            handle = ws.closure_handle(tw, gens)
            decision = ws.decide(handle)
            if decision.has_complement:
                decided += 1
                cert = ws.verify_complement(handle, decision)
                assert cert.passed, (p, n, cert.checks)
        # with identity generators possible, at least the trivial cases decide
        assert decided >= 1


def test_order_exponent_against_enumeration(enumerated):
    for (p, n), data in enumerated.items():
        tw = data["tower"]
        for sub in data["normals"]:
            handle = ws.closure_handle(tw, sub.sorted_elements())
            assert p**handle.order_exponent == sub.order


def test_engine_complement_is_an_oracle_complement(enumerated, oracle_verdicts):
    # the engine's complement, as a set of elements, is one the exhaustive
    # search lists; each listed complement is re-checked from its elements
    positives = 0
    for key, rows in oracle_verdicts["rows"].items():
        group = enumerated[key]["group"]
        e = group.identity
        for row in rows:
            decision, sub = row["decision"], row["sub"]
            if not decision.has_complement:
                continue
            positives += 1
            listed = oracle.exhaustive_complements(group, sub)
            engine = oracle.bfs_closure(list(decision.gens), identity=e)
            assert engine.elements in {c.elements for c in listed}, (key, sub.order)
            for c in listed:
                assert all(x * y in c.elements for x in c.elements for y in c.elements)
                assert c.order * sub.order == group.order
                assert c.elements & sub.elements == {e}
    assert positives == 30


def test_member_agrees_with_enumeration(enumerated):
    data = enumerated[(2, 3)]
    tw, group = data["tower"], data["group"]
    rng = random.Random(1)
    subs = [s for s in data["normals"] if 1 < s.order < group.order]
    for sub in rng.sample(subs, min(4, len(subs))):
        handle = ws.closure_handle(tw, sub.sorted_elements())
        for x in rng.sample(group.sorted_elements(), 40):
            assert member(handle, x) == (x in sub.elements)


def test_decision_json_shape():
    handle = ws.closure_handle(T33, [ws.shift_gen(T33, 0)])
    report = decision_json(handle, ws.decide(handle))
    assert report["schema"] == 1
    assert report["verdict"] == "HasComplement"
    assert report["Z"] == [1, 2]
    assert report["orders"] == {"N": 11, "C": 2, "Pn": 13}
    assert all(report["checks"].values())

    bad = ws.closure_handle(T34, [gamma(T34) * ws.shift_gen(T34, 2)])
    report = decision_json(bad, ws.decide(bad))
    assert report["verdict"] == "NoComplement"
    assert report["reason"] == REASON_SOCLE_GAP
    assert report["orders"]["C"] is None


# -- the block-piece certificate against the all-conjugates reference --------

KINDS = {STYLE_CO_SHIFT, STYLE_PREFIX, REASON_NOT_SUMMAND, REASON_SOCLE_GAP}
DIFFERENTIAL_SIZES = [(2, 4), (2, 5), (3, 3), (3, 4), (5, 2), (5, 3)]


def _unit(tw, j, k, b):
    """shift_gen(k) moved to block b: tail image the unit vector (k - j, b)."""
    return conjugate(ws.shift_gen(tw, k), prefix_rep(tw, j, b))


def _diagonal(tw, j, k):
    """Product of the block conjugates of shift_gen(k): the level-(k - j) diagonal."""
    out = Perm.identity(tw.degree)
    for x in block_conjugates(tw, j, ws.shift_gen(tw, k)):
        out = out * x
    return out


def _shaped_gens(tw, j, kind, rng):
    """Generators of depth j whose tail images give the verdict kind.

    Every nonzero submodule of a level contains its diagonal, and a vector
    with a nonzero block sum spans the whole level; the shapes follow.
    """
    p, m = tw.p, tw.n - j
    unit = lambda: rng.randrange(1, p)  # noqa: E731
    block = lambda: rng.randrange(p**j)  # noqa: E731
    if kind == STYLE_CO_SHIFT:
        levels = [t for t in range(m) if t == 0 or rng.random() < 0.5]
        return [_unit(tw, j, j + t, block()) ** unit() for t in levels]
    if kind == REASON_NOT_SUMMAND:
        if m >= 2 and rng.random() < 0.5:
            t = rng.randrange(1, m)
            return [_diagonal(tw, j, j) ** unit() * _diagonal(tw, j, j + t) ** unit()]
        b1 = block()
        b2 = (b1 + rng.randrange(1, p**j)) % p**j
        return [_unit(tw, j, j, b1) * _unit(tw, j, j, b2).inverse()]
    s = rng.randrange(1, m)
    head = _diagonal(tw, j, j) ** unit() * _unit(tw, j, j + s, block()) ** unit()
    others = [t for t in range(1, m) if t != s]
    if kind == REASON_SOCLE_GAP:
        others = rng.sample(others, rng.randrange(m - 2))
    return [head] + [_unit(tw, j, j + t, block()) ** unit() for t in others]


def _feasible_kinds(n, j):
    m = n - j
    kinds = [STYLE_CO_SHIFT]
    if j >= 1:
        kinds.append(REASON_NOT_SUMMAND)
        kinds += [STYLE_PREFIX] if m >= 2 else []
        kinds += [REASON_SOCLE_GAP] if m >= 3 else []
    return kinds


def test_block_piece_certificate_matches_all_conjugates():
    rng = random.Random(7)
    seen = set()
    positives = 0
    for p, n in DIFFERENTIAL_SIZES:
        tw = ws.tower(p, n)
        samples = [([], STYLE_CO_SHIFT), ([random_element(tw, rng)], None)]
        for j in range(n):
            for kind in _feasible_kinds(n, j):
                samples += [(_shaped_gens(tw, j, kind, rng), kind) for _ in range(3)]
        for gens, kind in samples:
            handle = ws.closure_handle(tw, gens)
            decision = ws.decide(handle)
            got = decision.style if decision.has_complement else decision.reason
            assert kind in (None, got), (p, n, handle.j, kind, got)
            seen.add(got)
            if not decision.has_complement:
                continue
            positives += 1
            cert = ws.verify_complement(handle, decision)
            ref = verify_complement_all_conjugates(handle, decision)
            assert cert.passed, (p, n, handle.j, cert.checks)
            assert (cert.checks, cert.numbers) == (ref.checks, ref.numbers), (p, n, handle.j)
    assert seen == KINDS
    assert positives >= 90


def _forgeries(tw, j):
    """Tail parts for a depth-j handle: (label, element)."""
    s = ws.shift_gens(tw)
    out = [
        ("spread, commuting", _unit(tw, j, tw.n - 1, 0) * _unit(tw, j, tw.n - 1, 1)),
        ("spread, not commuting", s[j] * _unit(tw, j, j + 1, 1)),
        ("order p^2", s[j] * s[j + 1]),
        ("off the tail", s[0]),
    ]
    if tw.p > 2:  # the scaling maps are the identity at p = 2
        out.append(("off the tower", ws.scale_gen(tw, tw.n - 1)))
    return out


def test_forged_tail_parts_match_all_conjugates():
    for tw, j in [(T33, 1), (T34, 1), (T34, 2), (ws.tower(2, 4), 1), (ws.tower(2, 4), 2), (ws.tower(5, 3), 1)]:
        handle = ws.closure_handle(tw, [ws.shift_gen(tw, j)])
        decision = ws.decide(handle)
        assert decision.style == STYLE_CO_SHIFT and decision.levels == tuple(range(j + 1, tw.n))
        for label, forged in _forgeries(tw, j):
            if label == "order p^2":
                assert forged.order() == tw.p**2
            # forge the first tail generator only; the others stay genuine
            forged_decision = replace(decision, gens=decision.gens[:j] + (forged,) + decision.gens[j + 1 :])
            cert = ws.verify_complement(handle, forged_decision)
            key = (tw.p, tw.n, j, label)
            if label.startswith("spread"):
                # it moves a block other than block 0, so the order equation's
                # count of its conjugates does not hold; the reference misses this
                assert cert.checks["tail_part_in_tail"] is False, key
                assert not cert.passed, key
                continue
            ref = verify_complement_all_conjugates(handle, forged_decision)
            if ref.checks["tail_part_in_tail"]:
                assert (cert.checks, cert.numbers) == (ref.checks, ref.numbers), key
            else:
                assert not cert.passed, key
                assert list(cert.checks) == list(ref.checks), key
                assert all(cert.checks[k] is False for k, ok in ref.checks.items() if not ok), key
                assert cert.checks["tail_part_abelian"] is False, key


def _s2_handle_at_2_4():
    """(2,4) with N the closure of s2: depth 2, |N| = 2^8, complement order 2^7."""
    tw = ws.tower(2, 4)
    handle = ws.closure_handle(tw, [ws.shift_gen(tw, 2)])
    decision = ws.decide(handle)
    assert (handle.j, handle.order_exponent) == (2, 8)
    assert decision.style == STYLE_CO_SHIFT and len(decision.gens) == 3
    return handle, decision


def test_verify_rejects_tail_generator_spread_over_blocks():
    # the tail generator moves blocks 1 and 3, whose pieces commute, and the
    # all-conjugates reference passes it; yet s0, s1 and it generate 2^9
    # elements, not the 2^7 of the order equation
    handle, decision = _s2_handle_at_2_4()
    forged = replace(decision, gens=decision.gens[:2] + (parse_cycles("(4 5)(12 13)(14 15)", 16),))
    assert oracle.bfs_closure(forged.gens).order == 2**9
    assert verify_complement_all_conjugates(handle, forged).passed
    cert = ws.verify_complement(handle, forged)
    assert cert.numbers["complement_exponent"] == 7
    assert cert.checks["tail_part_in_tail"] is False
    assert not cert.passed


def test_certified_forgeries_have_the_counted_order():
    # every tail generator made of two elements of tower(2, 2) on two of the
    # four blocks: whatever the certificate passes generates 2^(15 - 8) elements
    handle, decision = _s2_handle_at_2_4()
    local = oracle.bfs_closure(ws.shift_gens(ws.tower(2, 2))).sorted_elements()
    assert len(local) == 8
    passed = set()
    for b1, b2 in itertools.combinations(range(4), 2):
        for x, y in itertools.product(local, repeat=2):
            images = list(range(16))
            for b, z in ((b1, x), (b2, y)):
                images[4 * b : 4 * b + 4] = [4 * b + t for t in z.images]
            forged = replace(decision, gens=decision.gens[:2] + (Perm(images),))
            if ws.verify_complement(handle, forged).passed:
                assert oracle.bfs_closure(forged.gens).order == 2**7, (b1, b2, x, y)
                passed.add(forged.gens[2])
    # the identity on the second block leaves two block-0 tail generators
    assert len(passed) == 2 and decision.gens[2] in passed


def test_verify_complement_builds_no_conjugates(monkeypatch):
    tower_module = importlib.import_module("wreath_sylow.tower")
    calls = {"block_conjugates": 0, "tail_image": 0, "decompose": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        wrapper = counting(name, getattr(tower_module, name))
        for module in (tower_module, complements):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    rng = random.Random(3)
    for tw in (T34, ws.tower(2, 5), ws.tower(5, 3)):
        for j in range(tw.n - 1):
            styles = [STYLE_CO_SHIFT] + ([STYLE_PREFIX] if j else [])
            for style in styles:
                handle = ws.closure_handle(tw, _shaped_gens(tw, j, style, rng))
                decision = ws.decide(handle)
                assert decision.style == style
                tail_gens = decision.gens[j:]
                size = tw.p ** (tw.n - j)
                pieces = {
                    tuple(y - c for y in g.images[c : c + size])
                    for g in tail_gens
                    for c in range(0, tw.degree, size)
                } - {tuple(range(size))}
                for name in calls:
                    calls[name] = 0
                assert ws.verify_complement(handle, decision).passed
                assert calls["block_conjugates"] == calls["tail_image"] == 0
                assert calls["decompose"] <= len(pieces), (tw, j, calls)


def test_verify_rejects_a_tail_generator_the_scale_group_moves():
    # At j = 1 the tail generator g = (digit-2 shift on 2-prefixes 0 and 1)
    # moves block 0 only, so every check but the scale check passes.  The
    # scale generator of digit 1 carries 2-prefix 1 to 2-prefix r, so it
    # conjugates g to neither g nor g**r.
    for p in (3, 5, 7):
        tw = ws.tower(p, 3)
        s1, s2 = ws.shift_gen(tw, 1), ws.shift_gen(tw, 2)
        g = s2 * conjugate(s2, s1)
        handle = ws.closure_handle(tw, [s1])
        decision = ws.decide(handle)
        assert handle.j == 1 and decision.has_complement
        forged = replace(decision, gens=decision.gens[:1] + (g,))
        cert = ws.verify_complement(handle, forged)
        assert cert.checks["scale_invariance"] is False, p
        assert [key for key, ok in cert.checks.items() if not ok] == ["scale_invariance"], p
        assert verify_complement_all_conjugates(handle, forged).checks == cert.checks, p
        assert decision_json(handle, forged)["checks"]["scale_invariance"] is False
        # g commutes with the other scale generators, and conjugating by the one of
        # digit 2 gives g**r: only digit 1's breaks the invariance
        e0, e1, e2 = ws.scale_gens(tw)
        assert conjugate(g, e0) == g and conjugate(g, e2) == g**tw.r
        assert conjugate(g, e1) not in (g, g**tw.r)


def _level_gen(tw, j, s, h, rng):
    """A level-(j+s) element whose depth-j tail image is a height-h slice on level s alone.

    The slice's entry for j-block b sits on the first of the block's p**s
    (j+s)-blocks.
    """
    vec = [0] * tw.p ** (j + s)
    vec[:: tw.p**s] = random_slice_of_height(tw.p, j, h, rng)
    return level_element(tw, j + s, vec)


def test_one_level_closures_decide_as_the_spun_reference():
    # each generator moves one level, so the heights decide; the spun path,
    # with the socle read off the spin's echelon, must give the same decision,
    # report and image.  A generator on two levels leaves no heights.
    rng = random.Random(28)
    kinds = set()
    for p, n in [(2, 5), (3, 4), (5, 3), (7, 2), (127, 2)]:
        tw = ws.tower(p, n)
        for j in range(n):
            m, blocks = n - j, p**j
            height = lambda: blocks - 1 if rng.random() < 0.5 else rng.randrange(blocks)  # noqa: E731
            for _ in range(4):
                levels = [0] + [rng.randrange(m) for _ in range(rng.randrange(3))]
                gens = [_level_gen(tw, j, s, height(), rng) for s in levels]
                handle = ws.closure_handle(tw, gens)
                assert handle.j == j and handle.heights is not None
                spun = spun_handle(handle)
                decision, expected = ws.decide(handle), ws.decide(spun)
                assert decision == expected, (p, n, j)
                assert decision_json(handle, decision) == decision_json(spun, expected), (p, n, j)
                assert handle.rank == spun.rank and handle.image == spun.image
                kinds.add(decision.style or decision.reason)
            if m >= 2:
                two = _level_gen(tw, j, 0, 0, rng) * _level_gen(tw, j, m - 1, 0, rng)
                assert ws.closure_handle(tw, [two]).heights is None
    assert kinds == {STYLE_CO_SHIFT, REASON_NOT_SUMMAND}


def _count_spins(monkeypatch) -> list:
    counter = [0]
    real = complements.spin

    def counted(*args):
        counter[0] += 1
        return real(*args)

    monkeypatch.setattr(complements, "spin", counted)
    return counter


def test_one_level_closures_make_no_spin(monkeypatch):
    spins = _count_spins(monkeypatch)
    tw = ws.tower(2, 14)
    handle = ws.closure_handle(tw, [ws.shift_gen(tw, 13)])
    assert decision_json(handle, ws.decide(handle))["verdict"] == "HasComplement"
    assert spins == [0]
    # depth n - 1 at (5,6): a partition with one level present, not at full height
    tw = ws.tower(5, 6)
    handle = ws.closure_handle(tw, module_generators(tw, PartitionSpec(5, 6, (1, 5, 25, 125, 625, 1))))
    assert decision_json(handle, ws.decide(handle))["reason"] == REASON_NOT_SUMMAND
    assert spins == [0]
    # the prefix shape's first generator moves two levels: one spin
    handle = ws.closure_handle(T34, _shaped_gens(T34, 1, STYLE_PREFIX, random.Random(5)))
    assert decision_json(handle, ws.decide(handle))["case"] == STYLE_PREFIX
    assert spins == [1]


def _record_operands(monkeypatch, name) -> list:
    """The arguments of every call of Perm.<name> from now on."""
    calls = []
    real = getattr(Perm, name)

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(Perm, name, recorded)
    return calls


def _reads(calls, g) -> bool:
    return any(x is g for args in calls for x in args)


def _clear_generator_memos():
    complements.cycle_text.cache_clear()
    scale_invariant.cache_clear()


def test_a_second_report_prints_and_checks_no_prefix_generator(monkeypatch):
    # a generator's cycle text and scale check are memoized by value, so the
    # first report on a closure reads every generator (the scale check by
    # products, at odd p) and the second makes no product: its only cycle
    # walk is the tail part's order check.  At (5,3) the closure of s2 has
    # the prefix alone as its complement; the other two have tail parts
    _clear_generator_memos()
    cycles = _record_operands(monkeypatch, "cycles")
    products = _record_operands(monkeypatch, "__mul__")
    t53, t73 = ws.tower(5, 3), ws.tower(7, 3)
    cases = [
        (t53, [ws.shift_gen(t53, 2)], ()),
        (T34, _shaped_gens(T34, 2, STYLE_PREFIX, random.Random(2)), (STYLE_PREFIX,)),
        (t73, [ws.shift_gen(t73, 1)], (STYLE_CO_SHIFT, (2,))),
    ]
    for tw, gens, shape in cases:
        handle = ws.closure_handle(tw, gens)
        decision = ws.decide(handle)
        assert (decision.style, decision.levels)[: len(shape)] == shape
        cycles.clear()
        products.clear()
        first = decision_json(handle, decision)
        assert all(first["checks"].values())
        assert all(_reads(cycles, g) and _reads(products, g) for g in decision.gens), tw
        cycles.clear()
        products.clear()
        assert decision_json(handle, decision) == first
        prefix, tail = decision.gens[: handle.j], decision.gens[handle.j :]
        assert prefix == ws.shift_gens(tw)[: handle.j]
        assert products == [], tw
        assert [args for args in cycles] == [(g,) for g in tail], tw


def _products_check(tw, gens) -> bool:
    """The certificate's scale check as products on every generator."""
    return all(
        (eg := eta * g) == g * eta or eg == g**tw.r * eta
        for eta in (ws.scale_gens(tw) if tw.p > 2 else ())
        for g in gens
    )


def test_cached_prefix_facts_match_the_products_and_the_reference(monkeypatch):
    # every positive decision at four sizes: the texts are each generator's
    # format_cycles, the checks are the all-conjugates reference's.  The
    # facts are memoized by value: an equal copy of s0 reads the memo and
    # gets identical checks, while s0**2 and a missing prefix, with the
    # memo cleared, are checked by their own products, with the result the
    # products give
    _clear_generator_memos()
    products = _record_operands(monkeypatch, "__mul__")
    rng = random.Random(29)
    positives = forged_count = 0
    for p, n in [(2, 5), (3, 4), (5, 3), (7, 2)]:
        tw = ws.tower(p, n)
        samples = [[]] + [
            _shaped_gens(tw, j, kind, rng)
            for j in range(n)
            for kind in (STYLE_CO_SHIFT, STYLE_PREFIX)
            if kind in _feasible_kinds(n, j)
            for _ in range(2)
        ]
        for gens in samples:
            handle = ws.closure_handle(tw, gens)
            decision = ws.decide(handle)
            assert decision.has_complement
            positives += 1
            j = handle.j
            report = decision_json(handle, decision)
            assert report["complement_generators"] == [format_cycles(g) for g in decision.gens]
            cert = ws.verify_complement(handle, decision)
            ref = verify_complement_all_conjugates(handle, decision)
            assert cert.passed, (p, n, j)
            assert (cert.checks, cert.numbers) == (ref.checks, ref.numbers), (p, n, j)
            assert report["checks"] == cert.checks
            if j == 0:
                continue
            s0, rest = decision.gens[0], decision.gens[1:]
            copy = Perm(s0.images)
            assert copy == s0 and copy is not s0
            for label, head in [("copy", (copy,) + rest), ("square", (s0**2,) + rest), ("none", rest[j - 1 :])]:
                forged = replace(decision, gens=head)
                if label != "copy":
                    scale_invariant.cache_clear()
                products.clear()
                forged_cert = ws.verify_complement(handle, forged)
                key = (p, n, j, label)
                if label == "copy":
                    assert products == [], key
                    assert forged_cert.checks == cert.checks
                else:
                    if p > 2:
                        assert all(_reads(products, g) for g in forged.gens), key
                    assert forged_cert.checks["tail_part_in_tail"] is False
                    assert not forged_cert.passed
                got = forged_cert.checks["scale_invariance"]
                assert got == _products_check(tw, forged.gens), key
                assert got == verify_complement_all_conjugates(handle, forged).checks["scale_invariance"], key
                texts = list(map(complements.cycle_text, forged.gens))
                assert texts == [format_cycles(g) for g in forged.gens]
                forged_count += 1
    assert positives >= 40 and forged_count >= 90


def test_one_shot_calls_build_only_the_generators_they_use(monkeypatch):
    # each generator is cached per (tower, level) by its builder, so deciding
    # s4 at (2,6), whose complement takes the co-shift at level 5 (Z = (5,)),
    # builds that co-shift and no other, beside the parsed s4 and the prefix
    # shifts s0..s3; parsing r3
    # builds one co-shift and e2 one scale generator.  At p = 2 the scale
    # check is not asked, so nothing enters its memo
    for builder in (ws.shift_gen, ws.scale_gen, ws.co_shift_gen):
        builder.cache_clear()
    scale_invariant.cache_clear()
    tower_module = importlib.import_module("wreath_sylow.tower")  # ws.tower is the constructor
    built = []
    real = tower_module.level_element

    def recorded(tw, k, vec):
        built.append((tw.p, tw.n, k, tuple(vec)))
        return real(tw, k, vec)

    monkeypatch.setattr(tower_module, "level_element", recorded)
    tw = ws.tower(2, 6)
    handle = ws.closure_handle(tw, [ws.parse_word(tw, "s4")])
    decision = ws.decide(handle)
    assert decision.levels == (5,)
    assert all(decision_json(handle, decision)["checks"].values())
    assert sorted(built) == [(2, 6, k, (1,)) for k in range(5)] + [(2, 6, 5, (0, 1))]
    assert scale_invariant.cache_info().currsize == 0
    built.clear()
    t34 = ws.tower(3, 4)
    assert ws.parse_word(t34, "r3") == level_element(t34, 3, (0, 1, 1))
    assert built == [(3, 4, 3, (0, 1, 1))]
    assert ws.parse_word(t34, "e2") is ws.scale_gen(t34, 2)
    assert ws.scale_gen.cache_info().currsize == 1


def test_metamorphic_relations_of_the_closure():
    # the closure is a function of the normal subgroup, not of its
    # generators: conjugating every generator by one tower element, or
    # replacing (g1, g2) by (g1 * g2, g2), presents the same subgroup.  At
    # odd p each scale generator is an automorphism of the tower, so the
    # closure it conjugates to has the same depth, order and verdict.  The
    # certificate passes on every conjugated closure's complement.  Tietze
    # moves keep the subgroup too: g -> g^k with p not dividing k (g has
    # p-power order, so g^k generates <g>), and appending the product of the
    # generators, which keeps the heights wherever the closure reads them.
    # A random tower element added to the generators can only enlarge the
    # subgroup: the depth never rises, the order never falls
    rng, extra_rng = random.Random(30), random.Random(32)  # the second keeps rng's samples
    closures = rewritten = 0
    for p, n in [(2, 4), (2, 6), (3, 3), (3, 4), (5, 3), (2, 8), (3, 5), (7, 3)]:
        tw = ws.tower(p, n)
        shapes = [(j, kind) for j in range(n) for kind in _feasible_kinds(n, j) for _ in range(2)]
        for j, kind in shapes:
            gens = _shaped_gens(tw, j, kind, rng)
            handle = ws.closure_handle(tw, gens)
            decision = ws.decide(handle)
            verdict = (decision.has_complement, decision.reason, decision.style, decision.levels)
            key = (p, n, j, kind)
            x = random_element(tw, rng)
            moved = ws.closure_handle(tw, [conjugate(g, x) for g in gens])
            facts = (handle.j, handle.image, handle.order_exponent, handle.heights)
            assert (moved.j, moved.image, moved.order_exponent, moved.heights) == facts, key
            g1, g2, *others = gens if len(gens) >= 2 else [gens[0], conjugate(gens[0], x)]
            merged = ws.closure_handle(tw, [g1 * g2, g2, *others])
            assert (merged.j, merged.image) == (handle.j, handle.image), key
            i = extra_rng.randrange(len(gens))
            k = extra_rng.choice([m for m in range(2, 2 * p + 1) if m % p])
            powered = [*gens[:i], gens[i] ** k, *gens[i + 1 :]]
            product = functools.reduce(operator.mul, gens)
            other = ws.closure_handle(tw, powered)
            assert (other.j, other.image, other.order_exponent, other.heights) == facts, key
            other = ws.closure_handle(tw, [*gens, product])
            assert (other.j, other.image, other.order_exponent) == facts[:3], key
            # the product's tail image may touch several levels, and then no heights are read
            assert other.heights in (handle.heights, None), key
            wider = ws.closure_handle(tw, [*gens, random_element(tw, extra_rng)])
            assert wider.j <= handle.j and wider.order_exponent >= handle.order_exponent, key
            rewritten += 3
            etas = ws.scale_gens(tw) if p > 2 else ()
            scaled = [ws.closure_handle(tw, [conjugate(g, eta) for g in gens]) for eta in etas]
            for other in [moved, *scaled]:
                got = ws.decide(other)
                assert (other.j, other.order_exponent) == (handle.j, handle.order_exponent), key
                assert (got.has_complement, got.reason, got.style, got.levels) == verdict, key
                assert not got.has_complement or ws.verify_complement(other, got).passed, key
                closures += 1
    assert closures == 520 and rewritten == 576
