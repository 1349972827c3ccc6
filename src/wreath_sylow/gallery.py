"""Two small groups on which coprime actions leave no invariant complement.

Both reports are computed from scratch with the brute-force machinery: the
group is enumerated, the distinguished normal subgroup checked, all of its
complements found by exhaustive search, and the automorphism, tabulated
once on the group, read as a permutation of the complement list.

- quaternion central product: the order 16 central product of the
  quaternion group with a cyclic group of order 4 (one shared central
  involution).  The order 3 automorphism cycling i -> j -> k -> i fixes the
  quaternion normal subgroup, which has exactly six complements falling
  into two 3-cycles, none fixed.

- mod9 affine group: (Z/9 x Z/9) twisted by an order 3 matrix, order 3^5.
  Negation of the translation part is an order 2 automorphism fixing a
  normal subgroup of order 3^4 whose 54 complements it pairs off freely.

The elements of both groups are named tuples of their coordinates, so a
product is one ``tuple.__new__``; equality, hashing and ordering are those
of the field tuple.  An element therefore equals the plain tuple with the
same fields, which no group here mixes in.
"""

from __future__ import annotations

from typing import NamedTuple

from .oracle import GroupSet, bfs_closure, exhaustive_complements

# the report keys that check the construction; maschke_property_holds: false
# is the finding, not a failure
SELF_CHECKS = (
    "normal_is_normal",
    "normal_invariant",
    "automorphism_ok",
    "twist_elements_order3",  # mod9 only
    "alpha_permutes_complements",  # mod9 only
)

# axis multiplication for units 1, i, j, k: (axis, axis) -> (sign, axis)
_QMUL = {
    (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
    (1, 0): (0, 1), (2, 0): (0, 2), (3, 0): (0, 3),
    (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
    (1, 2): (0, 3), (2, 3): (0, 1), (3, 1): (0, 2),
    (2, 1): (1, 3), (3, 2): (1, 1), (1, 3): (1, 2),
}


class QCUnit(NamedTuple):
    """sign * axis * x^w with axis in {1, i, j, k} and the central x, x^2 = -1."""

    sign: int  # 0 for +, 1 for -
    axis: int  # 0..3 for 1, i, j, k
    w: int  # 0 or 1

    def __mul__(self, other: "QCUnit") -> "QCUnit":
        s, axis = _QMUL[(self.axis, other.axis)]
        sign = (self.sign + other.sign + s + (self.w & other.w)) % 2
        return QCUnit(sign, axis, self.w ^ other.w)

    def inverse(self) -> "QCUnit":
        x = self
        while x * self != _QC_ONE:
            x = x * self
        return x


_QC_ONE = QCUnit(0, 0, 0)


def _qc_phi(u: QCUnit) -> QCUnit:
    """The order 3 automorphism i -> j -> k -> i, fixing x."""
    return QCUnit(u.sign, u.axis if u.axis == 0 else u.axis % 3 + 1, u.w)


# the twist matrix A = ((1, -3), (1, -2)) has order 3 mod 9: entry t is A**t
_A_POWERS = (((1, 0), (0, 1)), ((1, 6), (1, 7)), ((7, 3), (8, 1)))


class Mod9Elem(NamedTuple):
    """(v, t): translation v in (Z/9)^2 and twist t in Z/3 acting by the matrix."""

    v1: int
    v2: int
    t: int

    def __mul__(self, other: "Mod9Elem") -> "Mod9Elem":
        m = _A_POWERS[self.t % 3]
        w1 = (self.v1 + m[0][0] * other.v1 + m[0][1] * other.v2) % 9
        w2 = (self.v2 + m[1][0] * other.v1 + m[1][1] * other.v2) % 9
        return Mod9Elem(w1, w2, (self.t + other.t) % 3)

    def inverse(self) -> "Mod9Elem":
        m = _A_POWERS[-self.t % 3]
        return Mod9Elem(
            (-(m[0][0] * self.v1 + m[0][1] * self.v2)) % 9,
            (-(m[1][0] * self.v1 + m[1][1] * self.v2)) % 9,
            (-self.t) % 3,
        )


def _mod9_alpha(g: Mod9Elem) -> Mod9Elem:
    """The order 2 automorphism negating the translation part."""
    return Mod9Elem((-g.v1) % 9, (-g.v2) % 9, g.t)


def _is_automorphism(group: GroupSet, f) -> bool:
    # each b is a positive word in the gens: f(ag) = f(a)f(g) gives f(ab) = f(a)f(b)
    elems = group.elements
    if {f(x) for x in elems} != elems:
        return False
    return all(f(a * g) == f(a) * f(g) for a in elems for g in group.gens)


def _orbit_type(action: list) -> list[int]:
    """The action's cycle lengths, longest first; an image off the list (None) is a ValueError."""
    if None in action:
        raise ValueError("the automorphism does not permute the complements")
    lengths, seen = [], set()
    for start in range(len(action)):
        k, cur = 0, start
        while cur not in seen:
            seen.add(cur)
            cur, k = action[cur], k + 1
        if k:
            lengths.append(k)
    return sorted(lengths, reverse=True)


def _report(group: GroupSet, normal: GroupSet, f) -> tuple[list, dict]:
    """f's action on the normal subgroup's complements, and the keys both reports share.

    f is called once per element.  Entry k of the action is the number of f(C_k), or None.
    ``exhaustive_complements`` raises ValueError on a subgroup that is not normal.
    """
    complements = exhaustive_complements(group, normal)
    image = dict(zip(group.elements, map(f, group.elements))).__getitem__
    number = {c.elements: k for k, c in enumerate(complements)}
    action = [number.get(frozenset(map(image, c.elements))) for c in complements]
    invariant = sum(k == to for k, to in enumerate(action))
    return action, {
        "group_order": group.order,
        "normal_order": normal.order,
        "normal_is_normal": True,  # exhaustive_complements refuses a non-normal one
        "normal_invariant": frozenset(map(image, normal.elements)) == normal.elements,
        "automorphism_ok": _is_automorphism(group, image),
        "complement_count": len(complements),
        "invariant_complements": invariant,
        "maschke_property_holds": bool(invariant),
    }


def gallery_quaternion_central() -> dict:
    """Report on the order 16 central product and its order 3 automorphism."""
    i, j, x = QCUnit(0, 1, 0), QCUnit(0, 2, 0), QCUnit(0, 0, 1)
    group = bfs_closure([i, j, x], identity=_QC_ONE)
    normal = bfs_closure([i, j], identity=_QC_ONE)
    action, report = _report(group, normal, _qc_phi)
    phi_cubed = all(_qc_phi(_qc_phi(_qc_phi(g))) == g for g in group.elements)
    report["automorphism_ok"] = report["automorphism_ok"] and phi_cubed
    report["orbit_type"] = _orbit_type(action)
    return report


def gallery_mod9() -> dict:
    """Report on the order 3^5 affine group and its negation automorphism."""
    e, x = Mod9Elem(0, 0, 0), Mod9Elem(0, 0, 1)
    group = bfs_closure([Mod9Elem(1, 0, 0), Mod9Elem(0, 1, 0), x], identity=e)
    # the derived subgroup is the v1 = 0 mod 3 translation plane, generated by (3, 0) and (0, 1)
    normal = bfs_closure([Mod9Elem(3, 0, 0), Mod9Elem(0, 1, 0), x], identity=e)
    action, report = _report(group, normal, _mod9_alpha)
    twists = [Mod9Elem(v1, v2, 1) for v1 in range(9) for v2 in range(9)]
    report["twist_elements_order3"] = all(t * t * t == e for t in twists)
    report["alpha_permutes_complements"] = None not in action
    return report
