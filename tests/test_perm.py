import pytest
from hypothesis import given, settings, strategies as st

from reference import commutator
from wreath_sylow.perm import (
    Perm,
    conjugate,
    format_cycles,
    parse_cycles,
)


perms = st.integers(min_value=1, max_value=12).flatmap(
    lambda d: st.permutations(list(range(d))).map(Perm)
)


def same_degree_perms(count):
    return st.integers(min_value=1, max_value=10).flatmap(
        lambda d: st.tuples(
            *[st.permutations(list(range(d))).map(Perm) for _ in range(count)]
        )
    )


def test_identity_compose():
    g = parse_cycles("(0 3 6)(1 4 7)(2 5 8)", 27)
    assert Perm.identity(27) * g == g
    assert g * g.inverse() == Perm.identity(27)


def test_square_of_shift1_printed_form():
    # frozen by squaring the printed 3-cycles by hand
    s1 = parse_cycles("(0 3 6)(1 4 7)(2 5 8)", 27)
    assert format_cycles(s1 * s1) == "(0 6 3)(1 7 4)(2 8 5)"


def test_degree_mismatch_raises():
    with pytest.raises(ValueError, match="degree mismatch"):
        Perm.identity(3) * Perm.identity(4)
    with pytest.raises(ValueError, match="degree mismatch"):
        conjugate(Perm.identity(3), Perm.identity(4))


def test_conjugation_convention_relabels_points():
    # conjugating (0 1 2) by the digit-0 shift moves its support up one block
    s0 = parse_cycles("(0 9 18)(1 10 19)(2 11 20)(3 12 21)(4 13 22)(5 14 23)(6 15 24)(7 16 25)(8 17 26)", 27)
    s2 = parse_cycles("(0 1 2)", 27)
    assert format_cycles(conjugate(s2, s0)) == "(9 10 11)"


def test_conjugation_by_word():
    s0 = parse_cycles("(0 9 18)(1 10 19)(2 11 20)(3 12 21)(4 13 22)(5 14 23)(6 15 24)(7 16 25)(8 17 26)", 27)
    s1 = parse_cycles("(0 3 6)(1 4 7)(2 5 8)", 27)
    s2 = parse_cycles("(0 1 2)", 27)
    word = (s0 * s0) * (s1 * s1)
    assert format_cycles(conjugate(s2, word)) == "(24 25 26)"
    assert conjugate(s2, Perm.identity(27)) == s2


def test_commutator_identities():
    g = parse_cycles("(0 1 2 3)", 8)
    assert commutator(g, g) == Perm.identity(8)
    # frozen by direct composition in the degree-4 dihedral group
    s0 = parse_cycles("(0 2)(1 3)", 4)
    s1 = parse_cycles("(0 1)", 4)
    assert format_cycles(commutator(s0, s1)) == "(0 1)(2 3)"


def test_order():
    assert Perm.identity(5).order() == 1
    assert parse_cycles("(0 1 2)(3 4)", 6).order() == 6


def test_parse_format_paper_cycles():
    assert format_cycles(parse_cycles("(3 4 5)(6 7 8)", 27)) == "(3 4 5)(6 7 8)"
    assert parse_cycles("()", 27) == Perm.identity(27)
    assert format_cycles(Perm.identity(9)) == "()"


def test_round_trip_full_generator_corpus():
    import wreath_sylow as ws

    tw = ws.tower(3, 3)
    corpus = [
        *ws.shift_gens(tw),
        *ws.scale_gens(tw),
        *ws.co_shift_gens(tw),
        *ws.base_translations(tw),
    ]
    for g in corpus:
        text = format_cycles(g)
        assert parse_cycles(text, 27) == g
        assert format_cycles(parse_cycles(text, 27)) == text


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_cycles("(0 1", 4)
    with pytest.raises(ValueError):
        parse_cycles("(0 1)(1 2)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(0 9)", 4)
    with pytest.raises(ValueError):
        parse_cycles("0 1 2", 4)


@given(same_degree_perms(3))
@settings(max_examples=60)
def test_compose_associative(abc):
    a, b, c = abc
    assert (a * b) * c == a * (b * c)


@given(perms)
def test_inverse_two_sided(g):
    e = Perm.identity(g.degree)
    assert g * g.inverse() == e
    assert g.inverse() * g == e


@given(same_degree_perms(3))
@settings(max_examples=60)
def test_conjugation_is_an_action(xgh):
    x, g, h = xgh
    assert conjugate(x, g * h) == conjugate(conjugate(x, h), g)


@given(same_degree_perms(2))
def test_conjugation_preserves_order(xg):
    x, g = xg
    assert conjugate(x, g).order() == x.order()


@given(perms)
def test_format_parse_round_trip(g):
    assert parse_cycles(format_cycles(g), g.degree) == g


@given(perms, st.integers(min_value=-6, max_value=6))
def test_pow_matches_iteration(g, k):
    expected = Perm.identity(g.degree)
    step = g if k >= 0 else g.inverse()
    for _ in range(abs(k)):
        expected = expected * step
    assert g**k == expected
