import pytest
from hypothesis import given, settings, strategies as st

from kummer_chern.polyring import (
    Q,
    SPoly,
    monomial_mul,
    zseries_euler_sq,
    zseries_log,
)

from oracles import (
    UPoly,
    monomial_insert,
    spoly_div,
    spoly_one,
    spoly_variable,
    upoly_exp,
    zseries_add,
    zseries_exp,
    zseries_mul,
    zseries_one,
)

rationals = st.builds(
    Q, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)
monomials = st.lists(
    st.integers(min_value=1, max_value=4), min_size=0, max_size=3
).map(lambda parts: tuple(sorted(parts, reverse=True)))
spolys = st.dictionaries(monomials, rationals, max_size=5).map(
    lambda terms: SPoly(terms)
)

s = spoly_variable


def test_monomial_helpers():
    assert monomial_mul((3, 1), (2, 2, 1)) == (3, 2, 2, 1, 1)
    assert monomial_mul((), (5,)) == (5,)
    assert monomial_insert((3, 1), 2) == (3, 2, 1)
    assert monomial_insert((), 4) == (4,)


def test_mul_merges_monomials():
    one_plus = spoly_one() + s(1)
    assert one_plus * one_plus == SPoly({(): 1, (1,): 2, (1, 1): 1})
    assert s(1) * s(2) == SPoly({(2, 1): 1})
    assert s(2).scale(3) * s(2).scale(5) == SPoly({(2, 2): 15})


def test_scalar_arithmetic_and_division():
    p = s(1) + SPoly.constant(2)
    assert p.coefficient(()) == 2
    assert (p - SPoly.constant(2)) == s(1)
    assert spoly_div(s(2).scale(6), 3) == s(2).scale(2)
    assert s(1).scale(Q(1, 2)).scale(2) == s(1)


def test_str_renders_terms_by_weight():
    assert str(SPoly()) == "0"
    assert str(SPoly.constant(Q(7))) == "7"
    assert str(SPoly.constant(Q(-3, 4))) == "-3/4"
    assert str(SPoly({(3, 3, 1): 1})) == "s3^2*s1"
    poly = SPoly({(2, 1, 1): Q(9, 2), (2,): 3, (): -1, (1, 1, 1, 1): Q(-5, 3)})
    assert str(poly) == "-1 + 3*s2 + -5/3*s1^4 + 9/2*s2*s1^2"


def test_weight_parts():
    p = SPoly({(): 7, (1,): 1, (2, 1): Q(1, 3), (4,): 2})
    assert p.off_weight_part(3) == SPoly({(): 7, (1,): 1, (4,): 2})
    assert not p.off_weight_part(4).is_zero()
    assert (s(2) * s(2)).off_weight_part(4).is_zero()


@settings(max_examples=60, deadline=None)
@given(spolys, spolys, spolys)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c


def test_upoly_exp_single_variable():
    E = UPoly([SPoly(), s(1).scale(3), SPoly()])
    expected = UPoly(
        [spoly_one(), s(1).scale(3), SPoly({(1, 1): Q(9, 2)})]
    )
    assert upoly_exp(E) == expected


def test_upoly_exp_zero_is_one():
    assert upoly_exp(UPoly.zero(3)) == UPoly.one(3)


def test_upoly_exp_two_terms():
    # exp(3 s1 u + 5 s2 u^2) to second order, frozen from the hand expansion
    E = UPoly([SPoly(), s(1).scale(3), s(2).scale(5)])
    result = upoly_exp(E)
    assert result[0].is_one()
    assert result[1] == s(1).scale(3)
    assert result[2] == SPoly({(1, 1): Q(9, 2), (2,): 5})


def test_upoly_exp_needs_zero_constant():
    with pytest.raises(ValueError):
        upoly_exp(UPoly.one(2))


def test_upoly_mul_truncates_degree():
    u1 = UPoly([SPoly(), spoly_one()])
    assert (u1 * u1)[1].is_zero()  # u^2 truncated away at degree cap 1
    wide = UPoly([SPoly(), spoly_one(), SPoly()])
    assert (wide * wide)[2].is_one()


@settings(max_examples=40, deadline=None)
@given(spolys, spolys)
def test_exp_of_sum_is_product_of_exps(a, b):
    za = UPoly([SPoly(), a, SPoly()])
    zb = UPoly([SPoly(), b, SPoly()])
    assert upoly_exp(za + zb) == upoly_exp(za) * upoly_exp(zb)


def test_zseries_log_scalar_geometric():
    H = tuple(SPoly.constant(x) for x in [1, Q(3), 0, 0])
    L = zseries_log(H)
    a = Q(3)
    assert [c.coefficient(()) for c in L] == [0, a, -(a * a) / 2, a**3 / 3]


def test_zseries_log_of_one_is_zero():
    H = zseries_one(3)
    assert all(c.is_zero() for c in zseries_log(H))


def test_zseries_log_needs_unit_constant():
    with pytest.raises(ValueError):
        zseries_log(tuple(SPoly.constant(x) for x in [2, 1]))


@settings(max_examples=40, deadline=None)
@given(st.lists(spolys, min_size=1, max_size=3))
def test_exp_log_round_trip(tail):
    H = (spoly_one(), *tail)
    assert zseries_exp(zseries_log(H)) == H
    S = (SPoly(), *tail)
    assert zseries_log(zseries_exp(S)) == S


@settings(max_examples=40, deadline=None)
@given(st.lists(spolys, min_size=1, max_size=3), st.lists(spolys, min_size=1, max_size=3))
def test_log_of_product_is_sum_of_logs(ta, tb):
    n = min(len(ta), len(tb))
    A = (spoly_one(), *ta[:n])
    B = (spoly_one(), *tb[:n])
    AB = zseries_mul(A, B)
    assert zseries_log(AB) == zseries_add(zseries_log(A), zseries_log(B))


def test_euler_square_operator():
    H = tuple(SPoly.constant(x) for x in [5, 1, 0, 1])
    out = zseries_euler_sq(H)
    assert [c.coefficient(()) for c in out] == [0, 1, 0, 9]


def test_addition_is_order_independent():
    polys = [SPoly({(j,): Q(1, j + 1)}) for j in range(1, 5)]
    forward = SPoly()
    for p in polys:
        forward = forward + p
    backward = SPoly()
    for p in reversed(polys):
        backward = backward + p
    assert forward == backward
