from fractions import Fraction as F

import pytest

from locvol import exactnum
from locvol.exactnum import (
    PRIME_BOUND,
    TRIAL_LIMIT,
    FieldMismatch,
    QuadraticNumber,
    RadicandBudget,
    compare_cbrt_sum,
    format_decimal,
    iroot,
    nth_root_bounds,
    solve_quadratic,
    sqrt_fraction,
    squarefree_split,
)


def quad(a, b, c):
    return QuadraticNumber(F(a), F(b), c)


def test_iroot_exact_and_floor():
    assert iroot(27, 3) == 3
    assert iroot(26, 3) == 2
    assert iroot(0, 5) == 0
    assert iroot(10 ** 30, 3) == 10 ** 10
    assert iroot(10 ** 30 - 1, 3) == 10 ** 10 - 1


def test_squarefree_split():
    assert squarefree_split(20) == (2, 5)
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(49) == (7, 1)
    assert squarefree_split(360) == (6, 10)
    # past the trial-division bound D, a cofactor below D^3 is a prime, a
    # prime square or a product of two distinct primes
    p, q = 100003, 100019
    assert TRIAL_LIMIT < p < q
    assert squarefree_split(12 * p * p) == (2 * p, 3)
    assert squarefree_split(12 * p * q) == (2, 3 * p * q)
    assert squarefree_split(12 * p) == (2, 3 * p)
    with pytest.raises(RadicandBudget):
        squarefree_split(p * q * 100043)


def test_prime_cofactors_past_the_cube_bound_are_square_free():
    # past D^3 a cofactor that is a strong probable prime to the bases 2..41
    # below PRIME_BOUND is prime (Sorenson & Webster 2017)
    prime = 10000007000001223
    assert prime >= TRIAL_LIMIT ** 3
    assert squarefree_split(16 * prime) == (4, prime)
    assert squarefree_split(3 * prime) == (1, 3 * prime)
    # a square cofactor past D^3 splits by isqrt, whatever its root's factors
    assert (10 ** 8 + 7) ** 2 >= TRIAL_LIMIT ** 3
    assert squarefree_split(3 * (10 ** 8 + 7) ** 2) == (100000007, 3)
    # a product of two primes past D, the strong pseudoprimes to the bases
    # 2..23 and 2..37 (each with every factor past D), and a prime past
    # PRIME_BOUND all still refuse
    refused = [(10 ** 8 + 7) * (10 ** 8 + 37), 3825123056546413051,
               318665857834031151167461, 2 ** 89 - 1]
    assert refused[-1] >= PRIME_BOUND > refused[-2]
    for n in refused:
        with pytest.raises(RadicandBudget):
            squarefree_split(n)


def test_arithmetic_keeps_the_radicand_without_splitting(monkeypatch):
    x = quad(1, 2, 100003 * 100019)

    def refuse(n):
        raise AssertionError(f"split {n} again")

    monkeypatch.setattr(exactnum, "squarefree_split", refuse)
    y = (x * x - x) / (x + 3) + (-x) ** 3
    assert y.c == x.c and not y.is_rational


def test_normalization_folds_degenerate_radicands():
    assert quad(1, 3, 1) == quad(4, 0, 0)
    assert quad(1, 3, 0) == quad(1, 0, 0)
    assert quad(0, 1, 20) == quad(0, 2, 5)


def test_arithmetic_in_sqrt5():
    m = quad(F(3, 2), F(-1, 2), 5)  # (3 - sqrt 5)/2
    mm = quad(F(3, 2), F(1, 2), 5)
    assert m * mm == 1  # product of the quadratic's roots: c/a = 2/2... D2/L2
    assert m + mm == 3
    assert (m * m) == 3 * m - 1  # t^2 = 3t - 1 for roots of t^2 - 3t + 1
    assert (1 / m) == mm


def test_sign_and_order():
    assert quad(-9, 5, 5).sign() == 1  # -9 + 5*sqrt(5) > 0
    assert quad(-12, 5, 5).sign() == -1
    assert quad(2, -1, 4) == 0
    assert quad(0, 1, 2) > F(7, 5)
    assert quad(0, 1, 2) < F(3, 2)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        quad(0, 1, 2) + quad(0, 1, 3)


def test_pow_and_div():
    phi2 = quad(F(3, 2), F(1, 2), 5)  # (3+sqrt5)/2
    assert phi2 ** 3 == quad(9, 4, 5)
    assert (quad(9, 4, 5) / phi2) == phi2 ** 2


def test_sqrt_fraction():
    r = sqrt_fraction(F(9, 4))
    assert r.is_rational and r.as_fraction() == F(3, 2)
    s = sqrt_fraction(F(5, 4))
    assert s == quad(0, F(1, 2), 5)


def test_solve_quadratic_matches_known_roots():
    lo, hi = solve_quadratic(2, -6, 2)  # 2t^2 - 6t + 2
    assert lo == quad(F(3, 2), F(-1, 2), 5)
    assert hi == quad(F(3, 2), F(1, 2), 5)


def test_nth_root_bounds_enclose():
    lo, hi = nth_root_bounds(F(79, 24), 3, 10 ** 9)
    assert hi - lo <= F(1, 10 ** 9)
    assert lo ** 3 <= F(79, 24) <= hi ** 3


def test_compare_cbrt_sum():
    # 1 + 8 on the nose: 1^(1/3) + ... pick exact identity 8^(1/3)+27^(1/3)=5
    assert compare_cbrt_sum(8, 27, 125) == 0
    assert compare_cbrt_sum(8, 27, 124) == 1
    assert compare_cbrt_sum(8, 27, 126) == -1
    assert compare_cbrt_sum(F(1, 8), F(79, 24), 8) == -1  # the non-convexity gap
    assert compare_cbrt_sum(0, 8, 8) == 0
    assert compare_cbrt_sum(2, 2, 16) == 0  # 2*2^(1/3) = 16^(1/3)
    for u in range(5):  # perfect cubes, zeros included
        for v in range(5):
            for w in range(5):
                assert compare_cbrt_sum(u ** 3, v ** 3, w ** 3) == (u + v > w) - (u + v < w)
    assert (compare_cbrt_sum(0, 0, 2), compare_cbrt_sum(2, 0, 0),
            compare_cbrt_sum(0, 2, 3)) == (-1, 1, -1)


def test_format_decimal():
    assert format_decimal(F(79, 24)) == "3.29166666667"
    assert format_decimal(F(1, 8)) == "0.125"
    assert format_decimal(quad(-9, 5, 5)) == "2.18033988750"
    assert format_decimal(F(0)) == "0"
    # one correctly rounded division: no second rounding at 12 digits
    assert format_decimal(1 + F(15, 10 ** 12) - F(1, 10 ** 40)) == "1.00000000001"


def test_bounds_bracket_value():
    v = quad(-9, 5, 5)
    lo, hi = v.bounds(10 ** 12)
    assert lo <= hi and hi - lo <= F(1, 10 ** 12)
    assert float(v) == pytest.approx(5 * 5 ** 0.5 - 9)
