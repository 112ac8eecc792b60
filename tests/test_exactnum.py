"""Exact scalars: Gaussian rationals, radicals, rational turns."""

import math
import random
from fractions import Fraction

import pytest

import logcharts.exactnum as exactnum
from logcharts.exactnum import (GAUSSIAN_ONE, GaussianRational, NonnegRoot,
                                rational_nth_root, turn_mod1,
                                unit_from_turn_exact, unit_from_turn_float)
from oracles import nonneg_root_normal_form_by_every_integer


def test_gaussian_arithmetic_matches_complex():
    a = GaussianRational(Fraction(1), Fraction(2))
    b = GaussianRational(Fraction(3), Fraction(-1))
    assert (a * b).to_complex() == (1 + 2j) * (3 - 1j)
    assert (a + b).to_complex() == (1 + 2j) + (3 - 1j)
    assert (a / b * b) == a
    assert a ** 3 == a * a * a
    assert a ** 0 == GAUSSIAN_ONE
    assert a ** -2 == GAUSSIAN_ONE / (a * a)
    assert a.abs2() == Fraction(5)
    zero = GaussianRational(Fraction(0))
    for base in (a, b, zero):
        power = GAUSSIAN_ONE
        for e in range(13):
            assert base ** e == power, (base, e)
            power = power * base
    with pytest.raises(ZeroDivisionError):
        zero ** -1
    # 2.5 was read as 2, so (1 + i) ** 2.5 was 2i
    for e in (2.5, 2.0, True):
        with pytest.raises(ValueError, match=f"exponent {e!r} is not an int"):
            GaussianRational(1, 1) ** e


def test_gaussian_power_squares_only_up_to_its_last_bit(monkeypatch):
    calls = []
    real_mul = GaussianRational.__mul__

    def counting_mul(x, y):
        calls.append(1)
        return real_mul(x, y)

    monkeypatch.setattr(GaussianRational, "__mul__", counting_mul)
    a = GaussianRational(Fraction(1), Fraction(2))
    for e, muls in ((0, 0), (1, 0), (2, 1), (3, 2), (5, 3), (8, 3)):
        calls.clear()
        a ** e
        assert len(calls) == muls, e


def test_gaussian_zero_division():
    with pytest.raises(ZeroDivisionError):
        GAUSSIAN_ONE / GaussianRational(Fraction(0))


def test_rational_nth_root():
    assert rational_nth_root(Fraction(27, 8), 3) == Fraction(3, 2)
    assert rational_nth_root(Fraction(2), 2) is None
    assert rational_nth_root(Fraction(0), 5) == 0
    assert rational_nth_root(Fraction(10 ** 30), 2) == 10 ** 15
    with pytest.raises(ValueError, match="negative radicand"):
        rational_nth_root(Fraction(-8), 3)


def test_nth_roots_beyond_float_range():
    assert rational_nth_root(Fraction(7 ** 1000), 5) == 7 ** 200
    assert rational_nth_root(Fraction(10 ** 400), 2) == 10 ** 200
    assert rational_nth_root(Fraction(10 ** 400 + 1), 2) is None
    assert rational_nth_root(Fraction(3 ** 600, 2 ** 900), 300) == Fraction(9, 8)
    assert NonnegRoot(10 ** 400, 2) == NonnegRoot(10 ** 200)
    assert NonnegRoot(Fraction(10 ** 401), 2).degree == 2


def test_integer_nth_root_is_the_floor():
    from logcharts.exactnum import _int_nth_root
    for x in list(range(200)) + [2 ** 64 - 1, 2 ** 64, 3 ** 200 - 1, 3 ** 200, 10 ** 400 + 7]:
        for n in (1, 2, 3, 5, 8, 64, 1000):
            root = _int_nth_root(x, n)
            assert root ** n <= x < (root + 1) ** n, (x, n)



def test_nonneg_root_normalization():
    assert NonnegRoot(Fraction(8), 3).as_rational() == 2
    assert NonnegRoot(Fraction(4, 9), 2) == NonnegRoot.of(Fraction(2, 3))
    assert not NonnegRoot(Fraction(2), 2).is_rational()
    assert NonnegRoot(Fraction(2), 2) == NonnegRoot(Fraction(4), 4)
    assert NonnegRoot(Fraction(0), 7).is_zero()
    with pytest.raises(ValueError, match=r"2\^\(1/2\) is irrational"):
        NonnegRoot(Fraction(2), 2).as_rational()
    # 2.7 was read as 2, so 2^(1/2.7) was 2^(1/2)
    for degree in (2.7, 2.0, True, "2"):
        with pytest.raises(ValueError, match=f"root degree {degree!r} is not an int"):
            NonnegRoot(Fraction(2), degree)


def test_nonneg_root_normal_form_matches_every_integer_scan():
    # seeded powers q^e under degrees that are multiples of e, squares of
    # primes and prime powers among them, plus arbitrary degrees
    rng = random.Random(11)
    for _ in range(400):
        q = Fraction(rng.randint(0, 12), rng.randint(1, 12))
        e = rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 12, 25, 27, 49])
        for degree in (e * rng.randint(1, 12), rng.randint(1, 200)):
            root = NonnegRoot(q ** e, degree)
            assert (root.base, root.degree) == nonneg_root_normal_form_by_every_integer(
                q ** e, degree), (q, e, degree)


def test_nonneg_root_tries_only_the_primes_of_its_degree(monkeypatch):
    # every power of two up to the degree was tried: 20 roots at 2^20
    calls = []

    def counting(q, n):
        calls.append(n)
        return rational_nth_root(q, n)

    monkeypatch.setattr(exactnum, "rational_nth_root", counting)
    assert NonnegRoot(Fraction(3), 2 ** 20).degree == 2 ** 20 and calls == [2]
    calls.clear()
    assert NonnegRoot(Fraction(3), 10 ** 9).degree == 10 ** 9 and calls == [2, 5]
    calls.clear()
    root = NonnegRoot(Fraction(6 ** 12), 12 * 10007)
    assert (root.base, root.degree) == (6, 10007) and calls == [2, 2, 3, 10007]


def test_nonneg_root_arithmetic():
    r2 = NonnegRoot(Fraction(2), 2)
    assert r2 * r2 == NonnegRoot.of(2)
    assert r2 ** 4 == NonnegRoot.of(4)
    assert (r2 ** -2) == NonnegRoot.of(Fraction(1, 2))
    assert r2 ** 0 == NonnegRoot.of(1)
    with pytest.raises(ZeroDivisionError, match="zero radius to a negative power"):
        NonnegRoot.of(0) ** -1
    assert NonnegRoot.of(5).root(3) == NonnegRoot(Fraction(5), 3)
    # int(0.5) is 0, so 2 ** 0.5 was 1, and root(2.5) was the square root
    for e in (0.5, 2.0, True):
        with pytest.raises(ValueError, match=f"exponent {e!r} is not an int"):
            NonnegRoot(Fraction(2)) ** e
    for n in (2.5, 2.0, True):
        with pytest.raises(ValueError, match=f"root index {n!r} is not an int"):
            NonnegRoot(Fraction(2)).root(n)
    assert abs(float(r2) - 2 ** 0.5) < 1e-12


def test_nonneg_root_hash_agrees_with_equality():
    assert NonnegRoot.of(2) == Fraction(2)
    assert len({NonnegRoot.of(2), Fraction(2), 2}) == 1
    assert hash(NonnegRoot(Fraction(9, 4), 2)) == hash(Fraction(3, 2))
    assert hash(NonnegRoot(Fraction(2), 2)) == hash(NonnegRoot(Fraction(4), 4))


def test_nonneg_root_prints_a_fraction_base_in_parentheses():
    # 25/2^(1/3) would read as 25 / 2^(1/3)
    assert str(NonnegRoot(Fraction(25, 2), 3)) == "(25/2)^(1/3)"
    assert str(NonnegRoot(Fraction(1, 3), 2)) == "(1/3)^(1/2)"
    assert str(NonnegRoot(Fraction(5), 3)) == "5^(1/3)"
    # rational values print as their Fraction, after normalization
    assert str(NonnegRoot(Fraction(9, 4), 2)) == "3/2"
    assert str(NonnegRoot.of(Fraction(1, 2))) == "1/2"
    assert str(NonnegRoot(Fraction(8), 3)) == "2"


def test_nonneg_root_reads_back_the_text_it_prints():
    # q^(1/k) and (a/b)^(1/k) up to degree 64, as str prints them; any
    # other string is a Fraction
    rng = random.Random(40)
    for _ in range(400):
        base = rng.choice([Fraction(rng.randint(0, 10 ** 6)),
                           Fraction(rng.randint(0, 999), rng.randint(1, 999))])
        root = NonnegRoot(base, rng.randint(1, 64))
        assert NonnegRoot.of(str(root)) == root, root
    assert NonnegRoot.of("14/6") == Fraction(7, 3) and NonnegRoot.of(" 0.5 ") == Fraction(1, 2)
    with pytest.raises(ValueError, match="root degree 65 is above 64"):
        NonnegRoot.of("2^(1/65)")
    for text in ("2^(1/0)", "2^(1/10000000000000)", "(-2)^(1/2)", "1/2^(1/3)", "2^(2/3)", "2^1/2"):
        with pytest.raises(ValueError):
            NonnegRoot.of(text)


def test_nonneg_root_equality_is_cross_power_equality():
    # the normal form is canonical, so comparing fields decides what raising
    # both bases to the lcm of the degrees decides
    rng = random.Random(41)
    equal = 0
    for _ in range(600):
        # a = q^(1/k) and, half the time, b another value, each raised to j / j
        roots = []
        for redraw in (True, rng.random() < 0.5):
            if redraw:
                q, k = Fraction(rng.randint(0, 6), rng.randint(1, 3)), rng.randint(1, 12)
            j = rng.randint(1, 4)
            roots.append(NonnegRoot(q ** j, k * j))
        a, b = roots
        lcm = math.lcm(a.degree, b.degree)
        assert (a == b) is (a.base ** (lcm // a.degree) == b.base ** (lcm // b.degree)), (a, b)
        equal += a == b
    assert equal >= 200, equal


def test_turns():
    assert turn_mod1(Fraction(-1, 4)) == Fraction(3, 4)
    assert turn_mod1(Fraction(9, 4)) == Fraction(1, 4)
    assert unit_from_turn_exact(Fraction(1, 2)) == GaussianRational(Fraction(-1))
    assert unit_from_turn_exact(Fraction(5, 4)) == GaussianRational(Fraction(0), Fraction(1))
    # Niven: non-quarter rational turns are not Gaussian rational
    assert unit_from_turn_exact(Fraction(1, 3)) is None
    assert abs(unit_from_turn_float(Fraction(1, 4)) - 1j) < 1e-12
