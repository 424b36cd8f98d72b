import fractions
import sys
import types
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from kummer_chern import polyring
from kummer_chern.polyring import (
    Q,
    SPoly,
    monomial_mul,
    zseries_euler_sq,
    zseries_log,
)

from oracles import (
    fraction_zseries_log,
    spoly_div,
    spoly_fractions,
    spoly_one,
    spoly_variable,
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


def test_mul_merges_monomials():
    one_plus = spoly_one() + s(1)
    assert one_plus * one_plus == SPoly({(): 1, (1,): 2, (1, 1): 1})
    assert s(1) * s(2) == SPoly({(2, 1): 1})
    assert s(2).scale(3) * s(2).scale(5) == SPoly({(2, 2): 15})


def test_scalar_arithmetic_and_division():
    p = s(1) + SPoly({(): 2})
    assert p.coefficient(()) == 2
    assert (p - SPoly({(): 2})) == s(1)
    assert spoly_div(s(2).scale(6), 3) == s(2).scale(2)
    assert s(1).scale(Q(1, 2)).scale(2) == s(1)
    with pytest.raises(ZeroDivisionError, match="^SPoly scaled by a zero denominator$"):
        s(1).scale(1, 0)


def test_coefficient_reads_the_subscripts_in_any_order():
    # (2, 1, 1), (1, 2, 1) and (1, 1, 2) all name s2*s1^2
    p = SPoly({(2, 1, 1): Q(-81, 2), (3,): 4})
    for mono in ((2, 1, 1), (1, 2, 1), (1, 1, 2), [1, 1, 2]):
        assert p.coefficient(mono) == Q(-81, 2), mono
    assert p.coefficient((3,)) == 4 and p.coefficient((2, 2)) == 0


def test_rationals_are_fractions_even_with_a_gmpy2_module_present(monkeypatch):
    # Q is resolved on first use; a stand-in gmpy2 with an mpq must not be it
    stand_in = types.ModuleType("gmpy2")
    stand_in.mpq = object
    monkeypatch.delitem(polyring.__dict__, "Q", raising=False)
    monkeypatch.setitem(sys.modules, "gmpy2", stand_in)
    assert type(SPoly({(1,): Q(1, 2)}).coefficient((1,))) is fractions.Fraction
    assert polyring.Q is fractions.Fraction


def test_str_renders_terms_by_weight():
    assert str(SPoly()) == "0"
    assert str(SPoly({(): Q(7)})) == "7"
    assert str(SPoly({(): Q(-3, 4)})) == "-3/4"
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


def test_zseries_exp_single_variable():
    E = (SPoly(), s(1).scale(3), SPoly())
    expected = (spoly_one(), s(1).scale(3), SPoly({(1, 1): Q(9, 2)}))
    assert zseries_exp(E) == expected


def test_zseries_exp_zero_is_one():
    assert zseries_exp((SPoly(),) * 4) == zseries_one(3)


def test_zseries_exp_two_terms():
    # exp(3 s1 u + 5 s2 u^2) to second order, frozen from the hand expansion
    E = (SPoly(), s(1).scale(3), s(2).scale(5))
    result = zseries_exp(E)
    assert result[0].is_one()
    assert result[1] == s(1).scale(3)
    assert result[2] == SPoly({(1, 1): Q(9, 2), (2,): 5})


def test_zseries_exp_needs_zero_constant():
    with pytest.raises(ValueError):
        zseries_exp(zseries_one(2))


def test_zseries_mul_truncates_order():
    u1 = (SPoly(), spoly_one())
    assert zseries_mul(u1, u1)[1].is_zero()  # u^2 truncated away at order 1
    wide = (SPoly(), spoly_one(), SPoly())
    assert zseries_mul(wide, wide)[2].is_one()


@settings(max_examples=40, deadline=None)
@given(spolys, spolys)
def test_exp_of_sum_is_product_of_exps(a, b):
    za = (SPoly(), a, SPoly())
    zb = (SPoly(), b, SPoly())
    assert zseries_exp(zseries_add(za, zb)) == zseries_mul(zseries_exp(za), zseries_exp(zb))


def test_zseries_log_scalar_geometric():
    H = tuple(SPoly({(): x}) for x in [1, Q(3), 0, 0])
    L = zseries_log(H)
    a = Q(3)
    assert [c.coefficient(()) for c in L] == [0, a, -(a * a) / 2, a**3 / 3]


def test_zseries_log_of_one_is_zero():
    H = zseries_one(3)
    assert all(c.is_zero() for c in zseries_log(H))


def test_zseries_log_needs_unit_constant():
    with pytest.raises(ValueError):
        zseries_log(tuple(SPoly({(): x}) for x in [2, 1]))


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


def test_zseries_log_on_large_coprime_denominators():
    # denominators near 2^61 that share no factor, a zero z^2 coefficient,
    # and even numerators, so L_2 = -H_1^2 / 2 loses a factor 2 to the gcd
    p, q, r = 2**61 - 1, 2**61, 3**38
    H = (
        spoly_one(),
        SPoly({(1,): Q(6, p), (2,): Q(-10, q)}),
        SPoly(),
        SPoly({(3,): Q(4, r), (2, 1): Q(p, q * r)}),
        SPoly({(): Q(1, p * r), (1, 1, 1, 1): Q(-2, 3)}),
        SPoly({(4, 1): Q(q, p), (5,): Q(-r, p * q)}),
    )
    L = zseries_log(H)
    assert L[2] == (H[1] * H[1]).scale(Q(-1, 2))
    assert zseries_exp(L) == H
    # the defining sum, sum_m (-1)^(m+1) (H - 1)^m / m, through z^5
    X = (SPoly(), *H[1:])
    power, literal = X, (SPoly(),) * 6
    for m in range(1, 6):
        literal = zseries_add(literal, tuple(c.scale(Q((-1) ** (m + 1), m)) for c in power))
        power = zseries_mul(power, X)
    assert L == literal
    S = (SPoly(), *H[1:])
    assert zseries_log(zseries_exp(S)) == S


def is_reduced(p: SPoly) -> bool:
    # integer numerators over a positive int den, sharing no factor with it
    return (
        type(p.den) is int
        and p.den > 0
        and all(type(c) is int and c for c in p.terms.values())
        and gcd(p.den, *p.terms.values()) == 1
    )


integer_spolys = st.dictionaries(
    monomials, st.integers(min_value=-9, max_value=9), max_size=4
).map(SPoly)


@settings(max_examples=60, deadline=None)
@given(st.lists(integer_spolys, min_size=1, max_size=4))
def test_zseries_log_of_an_integer_series_is_reduced_and_the_fraction_log(tail):
    H = (spoly_one(), *tail)
    L = zseries_log(H)
    assert all(map(is_reduced, L))
    assert [spoly_fractions(c) for c in L] == fraction_zseries_log(H)
    assert zseries_exp(L) == H


@settings(max_examples=60, deadline=None)
@given(spolys, spolys, rationals)
def test_arithmetic_keeps_the_reduced_form(a, b, c):
    results = [a, b, a + b, a - b, -a, a * b, a.scale(c), a.scale(7, -6), a.off_weight_part(2)]
    assert all(map(is_reduced, results))
    # a sum that cancels drops every zero numerator
    for cancelled in (a - a, a + (-a)):
        assert cancelled == SPoly() and (cancelled.terms, cancelled.den) == ({}, 1)
    for p in results:
        # the reduced form is unique: den is the lcm of the reduced
        # denominators of the coefficients, which rebuild p
        coefficients = {m: p.coefficient(m) for m in p.terms}
        assert p.den == lcm(*(int(v.denominator) for v in coefficients.values()))
        assert SPoly(coefficients) == p


def test_euler_square_operator():
    H = tuple(SPoly({(): x}) for x in [5, 1, 0, 1])
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
