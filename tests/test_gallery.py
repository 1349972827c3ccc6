import itertools
import random

import pytest

from wreath_sylow.gallery import (
    Mod9Elem,
    QCUnit,
    _A_POWERS,
    _QC_ONE,
    _is_automorphism,
    _mod9_alpha,
    _qc_phi,
    _report,
    gallery_mod9,
    gallery_quaternion_central,
)
from wreath_sylow.oracle import bfs_closure


def test_quaternion_unit_relations():
    i, j, k = QCUnit(0, 1, 0), QCUnit(0, 2, 0), QCUnit(0, 3, 0)
    minus_one = QCUnit(1, 0, 0)
    assert i * i == minus_one
    assert i * j == k
    assert j * i == QCUnit(1, 3, 0)
    x = QCUnit(0, 0, 1)
    assert x * x == minus_one
    assert all(x * u == u * x for u in (i, j, k))


def test_qc_inverse():
    for sign in (0, 1):
        for axis in range(4):
            for w in (0, 1):
                u = QCUnit(sign, axis, w)
                assert u * u.inverse() == QCUnit(0, 0, 0)


def test_phi_cycles_the_axes():
    i, j, k = QCUnit(0, 1, 0), QCUnit(0, 2, 0), QCUnit(0, 3, 0)
    assert _qc_phi(i) == j and _qc_phi(j) == k and _qc_phi(k) == i
    x = QCUnit(0, 0, 1)
    assert _qc_phi(x) == x


def test_gallery_quaternion_central_report():
    report = gallery_quaternion_central()
    assert report["group_order"] == 16
    assert report["normal_order"] == 8
    assert report["normal_is_normal"] and report["normal_invariant"]
    assert report["automorphism_ok"]
    assert report["complement_count"] == 6
    assert report["orbit_type"] == [3, 3]
    assert report["invariant_complements"] == 0
    assert not report["maschke_property_holds"]


def test_mod9_matrix_has_order_three():
    def times_a(m):
        a = ((1, -3), (1, -2))
        return tuple(tuple(sum(a[r][k] * m[k][c] for k in range(2)) % 9 for c in range(2)) for r in range(2))

    # the table holds A**0, A**1, A**2 mod 9, and A**3 is the identity again
    assert _A_POWERS[0] == ((1, 0), (0, 1))
    assert [times_a(m) for m in _A_POWERS] == [*_A_POWERS[1:], _A_POWERS[0]]
    assert _A_POWERS[1] != ((1, 0), (0, 1))


def test_mod9_inverse_and_order():
    e = Mod9Elem(0, 0, 0)
    for v1 in range(0, 9, 2):
        for v2 in range(0, 9, 3):
            for t in range(3):
                g = Mod9Elem(v1, v2, t)
                assert g * g.inverse() == e
    # every twist-1 element has order 3
    for v1 in range(9):
        for v2 in range(9):
            g = Mod9Elem(v1, v2, 1)
            assert g * g * g == e


def test_mod9_derived_subgroup_is_the_plane():
    from wreath_sylow.oracle import derived_subgroup

    e = Mod9Elem(0, 0, 0)
    group = bfs_closure(
        [Mod9Elem(1, 0, 0), Mod9Elem(0, 1, 0), Mod9Elem(0, 0, 1)], cap=300, identity=e
    )
    assert group.order == 243
    derived = derived_subgroup(group)
    plane = {Mod9Elem(v1, v2, 0) for v1 in (0, 3, 6) for v2 in range(9)}
    assert derived.elements == frozenset(plane)


def test_mod9_normal_subgroup_from_three_generators():
    # (3, 0), (0, 1) and x generate what the 27-point plane and x generate
    e, x = Mod9Elem(0, 0, 0), Mod9Elem(0, 0, 1)
    plane = [Mod9Elem(v1, v2, 0) for v1 in (0, 3, 6) for v2 in range(9)]
    three = bfs_closure([Mod9Elem(3, 0, 0), Mod9Elem(0, 1, 0), x], cap=300, identity=e)
    assert three.elements == bfs_closure(plane + [x], cap=300, identity=e).elements
    assert three.order == 81


def test_gallery_mod9_products_per_call(monkeypatch):
    products = 0
    times = Mod9Elem.__mul__

    def counted(a, b):
        nonlocal products
        products += 1
        return times(a, b)

    monkeypatch.setattr(Mod9Elem, "__mul__", counted)
    for calls in (1, 2):
        assert gallery_mod9()["complement_count"] == 54
        assert products <= 4500 * calls


def test_gallery_mod9_report():
    report = gallery_mod9()
    assert report["group_order"] == 243
    assert report["normal_order"] == 81
    assert report["normal_is_normal"] and report["normal_invariant"]
    assert report["automorphism_ok"]
    assert report["twist_elements_order3"]
    assert report["complement_count"] == 54
    assert report["alpha_permutes_complements"]
    assert report["invariant_complements"] == 0
    assert not report["maschke_property_holds"]


def test_alpha_is_an_involution():
    g = Mod9Elem(4, 7, 2)
    assert _mod9_alpha(_mod9_alpha(g)) == g


def test_is_automorphism_rejects_a_non_homomorphic_bijection():
    e = Mod9Elem(0, 0, 0)
    group = bfs_closure(
        [Mod9Elem(1, 0, 0), Mod9Elem(0, 1, 0), Mod9Elem(0, 0, 1)], cap=300, identity=e
    )
    a, b = Mod9Elem(1, 0, 0), Mod9Elem(2, 0, 0)
    swap = {a: b, b: a}
    assert _is_automorphism(group, _mod9_alpha)
    assert not _is_automorphism(group, lambda g: swap.get(g, g))


def test_gallery_elements_compare_as_their_field_tuples():
    # equality, hashing and ordering are the field tuple's, so set iteration
    # and sorting, and with them both reports, follow the fields
    for cls, ranges in ((QCUnit, (2, 4, 2)), (Mod9Elem, (9, 9, 3))):
        fields = list(itertools.product(*map(range, ranges)))
        random.Random(0).shuffle(fields)
        elems = [cls(*f) for f in fields]
        assert [tuple(x) for x in sorted(elems)] == sorted(fields)
        assert [hash(x) for x in elems] == [hash(f) for f in fields]
        assert all(x == cls(*f) and x == f for x, f in zip(elems, fields))
        assert len(set(elems)) == len(fields)


def test_report_refuses_a_non_normal_subgroup():
    # normal_is_normal is true in every report: the complement search checks
    # normality first and raises on a subgroup that fails it
    i, j, x = QCUnit(0, 1, 0), QCUnit(0, 2, 0), QCUnit(0, 0, 1)
    group = bfs_closure([i, j, x], identity=_QC_ONE)
    sub = bfs_closure([x * i], identity=_QC_ONE)  # j conjugates x*i to -x*i
    assert sub.order == 2
    with pytest.raises(ValueError, match="not normal"):
        _report(group, sub, _qc_phi)
