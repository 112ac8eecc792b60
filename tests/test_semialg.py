"""Binomial systems, membership, the circle-collapsing projection, samplers."""

import cmath
import collections
import random
from fractions import Fraction

import pytest

from logcharts.cli import corpus_path, load_chart
from logcharts.errors import ArityMismatch, InvalidPoint
from logcharts.exactnum import GaussianRational, NonnegRoot, turn_mod1, unit_from_turn_float
from logcharts.monoid import MonoidSpec, face_with_support, faces, validate
from logcharts.semialg import (CxPoint, KnPoint, Target, check_membership,
                               emit_equations, sample_kn_stratum,
                               sample_stratum, tau)


def a1_cone():
    return validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]],
                                    [[[1, 0, 1], [0, 2, 0]]]))


def quadrant():
    return validate(MonoidSpec.make(2, [[1, 0], [0, 1]]))


def test_emit_free_monoids_have_empty_systems():
    assert emit_equations(quadrant(), Target.COMPLEX_POINTS).equations == ()
    n1 = validate(MonoidSpec.make(1, [[1]]))
    assert emit_equations(n1, Target.COMPLEX_POINTS).equations == ()


def test_emit_a1_cone_equation_verbatim():
    system = emit_equations(a1_cone(), Target.COMPLEX_POINTS)
    assert system.variable_count == 3
    assert system.equations == (((1, 0, 1), (0, 2, 0)),)
    kn = emit_equations(a1_cone(), Target.KN_POINTS)
    assert kn.equations == system.equations and kn.target is Target.KN_POINTS


def test_check_membership_exact_examples():
    system = emit_equations(a1_cone(), Target.COMPLEX_POINTS)
    ok, res = check_membership(system, CxPoint.exact_point([1, 2, 4]))
    assert ok and res == 0.0
    ok, res = check_membership(system, CxPoint.exact_point([1, 2, 5]))
    assert not ok and res == 1.0


def test_check_membership_empty_system():
    system = emit_equations(quadrant(), Target.COMPLEX_POINTS)
    ok, res = check_membership(system, CxPoint.exact_point([123, -7]))
    assert ok and res == 0.0


def test_check_membership_arity_and_type_errors():
    system = emit_equations(a1_cone(), Target.COMPLEX_POINTS)
    with pytest.raises(ArityMismatch):
        check_membership(system, CxPoint.exact_point([1, 2]))
    with pytest.raises(InvalidPoint):
        check_membership(system, KnPoint.exact_point([(1, 0), (1, 0), (1, 0)]))


def test_check_membership_floating_tolerance():
    system = emit_equations(a1_cone(), Target.COMPLEX_POINTS)
    ok, res = check_membership(system, CxPoint.floating([1.0, 2.0, 4.0 + 1e-12]))
    assert ok and res <= 1e-9
    ok, res = check_membership(system, CxPoint.floating([1.0, 2.0, 4.1]))
    assert not ok


def test_kn_membership_exact_and_floating():
    kn = emit_equations(a1_cone(), Target.KN_POINTS)
    exact = KnPoint.exact_point([(1, Fraction(1, 3)), (2, Fraction(1, 3)),
                                 (4, Fraction(1, 3))])
    ok, res = check_membership(kn, exact)
    assert ok and res == 0.0
    floating = KnPoint.floating([(1.0, 1.0), (2.0, cmath.exp(0.7j)),
                                 (4.0, cmath.exp(1.4j))])
    ok, res = check_membership(kn, floating)
    assert ok and res < 1e-12
    bad = KnPoint.exact_point([(1, Fraction(1, 3)), (2, 0), (4, Fraction(1, 3))])
    ok, _ = check_membership(kn, bad)
    assert not ok


def test_exact_membership_is_decided_exactly_and_never_overflows():
    m = a1_cone()
    kn, cx = emit_equations(m, Target.KN_POINTS), emit_equations(m, Target.COMPLEX_POINTS)
    # 1 * (2^62 + 1) != (2^31)^2, although both sides round to the same float
    ok, res = check_membership(kn, KnPoint.exact_point([(1, 0), (2**31, 0), (2**62 + 1, 0)]))
    assert not ok and res == 1.0
    # a turn sum of 10^-400 is not 0, although it underflows to 0.0
    ok, res = check_membership(kn, KnPoint.exact_point([(1, 0), (1, 0),
                                                        (1, Fraction(1, 10**400))]))
    assert not ok and res > 0
    # sides beyond the float range report an infinite residual
    ok, res = check_membership(kn, KnPoint.exact_point([(10**400, 0), (1, 0), (1, 0)]))
    assert not ok and res == float("inf")
    ok, res = check_membership(cx, CxPoint.exact_point([10**400, 1, 1]))
    assert not ok and res == float("inf")
    # equal sides beyond the float range are decided without a conversion
    assert check_membership(kn, KnPoint.exact_point([(10**400, 0)] * 3)) == (True, 0.0)
    assert check_membership(cx, CxPoint.exact_point([10**400] * 3)) == (True, 0.0)


def test_floating_membership_fails_beyond_the_float_range():
    m = a1_cone()
    kn, cx = emit_equations(m, Target.KN_POINTS), emit_equations(m, Target.COMPLEX_POINTS)
    # a power that overflows gives an infinite residual, not an OverflowError
    assert check_membership(cx, CxPoint.floating([1e200] * 3)) == (False, float("inf"))
    assert check_membership(kn, KnPoint.floating([(1e300, 1), (1e300, 1), (2e300, 1)])) == (
        False, float("inf"))
    # both sides overflow to inf: inf - inf is NaN, which must not pass
    square = validate(MonoidSpec.make(3, [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]],
                                      [[[1, 0, 0, 1], [0, 1, 1, 0]]]))
    kn, cx = (emit_equations(square, target) for target in ("kn", "complex"))
    big = [1e200, 1e200, 1e200, 2e200]  # z0 z3 = 2e400 but z1 z2 = 1e400
    assert check_membership(kn, KnPoint.floating([(r, 1) for r in big])) == (
        False, float("inf"))
    assert check_membership(cx, CxPoint.floating(big)) == (False, float("inf"))
    # points within the float range are decided as before
    assert check_membership(kn, KnPoint.floating([(1e100, 1)] * 4))[0]
    assert check_membership(cx, CxPoint.floating([1e100, 1e100, 1e100, 1e100j]))[0] is False


def test_exact_products_stop_at_the_first_vanishing_coordinate(monkeypatch):
    # a side with a vanishing coordinate to a positive power is zero: an
    # exact point at the vertex takes no exact product at all
    square = validate(MonoidSpec.make(3, [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]],
                                      [[[1, 0, 0, 1], [0, 1, 1, 0]]]))
    kn, cx = (emit_equations(square, target) for target in ("kn", "complex"))
    products = []
    for cls in (GaussianRational, NonnegRoot):
        for name in ("__mul__", "__pow__"):
            def counting(self, other, _original=getattr(cls, name)):
                products.append(_original)
                return _original(self, other)
            monkeypatch.setattr(cls, name, counting)
    assert check_membership(cx, CxPoint.exact_point([0] * 4)) == (True, 0.0)
    assert check_membership(kn, KnPoint.exact_point([(0, 0)] * 4)) == (True, 0.0)
    assert products == []
    # on the rays and off the variety, decided as before
    assert check_membership(cx, CxPoint.exact_point([3, 0, Fraction(1, 2), 0])) == (True, 0.0)
    assert check_membership(cx, CxPoint.exact_point([0, 1, 2, 0])) == (False, 2.0)
    assert check_membership(kn, KnPoint.exact_point([(3, 0), (0, 0), (5, 0), (0, 0)])) == (
        True, 0.0)
    assert check_membership(kn, KnPoint.exact_point([(0, 0), (1, 0), (2, 0), (0, 0)])) == (
        False, 2.0)


def test_floating_products_multiply_through_a_zero():
    # z2 = z0 z1^2: a floating zero before a power beyond the float range
    # still overflows, so the floating point fails with residual inf where
    # its exact twin, whose side stops at the zero, is on the variety
    m = validate(MonoidSpec.make(2, [[1, 0], [0, 1], [1, 2]]))
    kn, cx = (emit_equations(m, target) for target in ("kn", "complex"))
    assert cx.equations == (((0, 0, 1), (1, 2, 0)),)
    assert check_membership(cx, CxPoint.floating([0, 1e200, 0])) == (False, float("inf"))
    assert check_membership(kn, KnPoint.floating([(0, 1), (1e200, 1), (0, 1)])) == (
        False, float("inf"))
    assert check_membership(cx, CxPoint.exact_point([0, 10**200, 0])) == (True, 0.0)
    assert check_membership(kn, KnPoint.exact_point([(0, 0), (10**200, 0), (0, 0)])) == (
        True, 0.0)


def test_floating_residuals_are_relative_on_radii_and_absolute_on_angles():
    square = validate(MonoidSpec.make(3, [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]],
                                      [[[1, 0, 0, 1], [0, 1, 1, 0]]]))
    kn, cx = (emit_equations(square, target) for target in ("kn", "complex"))
    # both sides are 2.1e101 up to a rounding error of 3.1e85
    big = [1e50, 3e50, 7e50, 2.1e51]
    for ok, res in (check_membership(kn, KnPoint.floating([(r, 1) for r in big])),
                    check_membership(cx, CxPoint.floating(big))):
        assert ok and res < 1e-15
    # off by 1e100 of 2.2e101
    off = big[:3] + [2.2e51]
    for ok, res in (check_membership(kn, KnPoint.floating([(r, 1) for r in off])),
                    check_membership(cx, CxPoint.floating(off))):
        assert not ok and res == pytest.approx(1 / 22)
    # below 1 the residual stays absolute, and so does every angle residual
    small = [1e-6, 1e-6, 1e-6, 2e-6]
    assert check_membership(cx, CxPoint.floating(small)) == (True, 1e-12)
    turned = KnPoint.floating([(r, 1) for r in big[:3]] + [(big[3], 1j)])
    ok, res = check_membership(kn, turned)
    assert not ok and res == pytest.approx(abs(1j - 1))


def test_floating_log_points_store_their_angles_in_turns():
    assert KnPoint.floating([(2.0, 1j)]).angle(0) == 0.25
    assert KnPoint.floating([(1.0, -3)]).angle(0) == 0.5
    assert str(KnPoint.floating([(2.0, 1j), (1.0, -3)])) == "((2, 0.25 turn), (1, 0.5 turn))"


def test_floating_points_refuse_non_finite_values():
    nan, inf = float("nan"), float("inf")
    for radius, angle in ((nan, 1), (inf, 1), (-1, 1), (1, complex(nan, 0)),
                          (1, complex(0, inf)), (1, 0)):
        with pytest.raises(InvalidPoint):
            KnPoint.floating([(radius, angle)])
    for value in (complex(nan, 0), complex(1, inf), -inf):
        with pytest.raises(InvalidPoint):
            CxPoint.floating([1, value])
    assert CxPoint.floating([0, 1j]).values == (0j, 1j)


def test_tau_quarter_turn_exact():
    p = KnPoint.exact_point([(2, Fraction(1, 4))])
    image = tau(p)
    assert image.exact
    assert image.values[0] == GaussianRational(Fraction(0), Fraction(2))


def test_tau_collapses_zero_radius():
    for turn in (0, Fraction(1, 3), Fraction(5, 8)):
        image = tau(KnPoint.exact_point([(0, turn)]))
        value = image.values[0]
        collapsed = value.is_zero() if image.exact else abs(value) == 0
        assert collapsed


def test_tau_floating_fallback_on_irrational_turns():
    p = KnPoint.exact_point([(2, Fraction(1, 3))])
    image = tau(p)
    assert not image.exact
    assert abs(image.values[0] - 2 * cmath.exp(2j * cmath.pi / 3)) < 1e-12


def test_tau_respects_equations():
    m = a1_cone()
    kn = emit_equations(m, Target.KN_POINTS)
    cx = emit_equations(m, Target.COMPLEX_POINTS)
    dense = face_with_support(m, [0, 1, 2])
    for point in sample_kn_stratum(m, dense, 8, seed=21):
        ok, res = check_membership(kn, point)
        assert ok and res == 0.0
        image = tau(point)
        ok, res = check_membership(cx, image)
        assert ok and res == 0.0  # exact samples stay exact through tau


def test_tau_round_trip_floating_within_ten_tolerances():
    m = a1_cone()
    kn = emit_equations(m, Target.KN_POINTS)
    cx = emit_equations(m, Target.COMPLEX_POINTS)
    tol = 1e-9
    point = KnPoint.floating([
        (1.5, cmath.exp(0.3j)), (3.0, cmath.exp(0.65j)), (6.0, cmath.exp(1.0j))])
    ok, res = check_membership(kn, point, tol)
    assert ok and res <= tol
    image = tau(point)
    ok, res = check_membership(cx, image, 10 * tol)
    assert ok and res <= 10 * tol


def test_sample_stratum_supports_and_membership():
    m = a1_cone()
    system = emit_equations(m, Target.COMPLEX_POINTS)
    for f in faces(m):
        for pt in sample_stratum(m, f, 4, seed=31):
            assert pt.exact
            ok, res = check_membership(system, pt)
            assert ok and res == 0.0
            for i in range(pt.arity):
                assert pt.is_zero_at(i) == (i not in f.support)


def test_sample_stratum_vertex_is_origin():
    n1 = validate(MonoidSpec.make(1, [[1]]))
    points = sample_stratum(n1, face_with_support(n1, []), 1, seed=0)
    assert len(points) == 1 and points[0].is_zero_at(0)


def test_sample_determinism():
    m = a1_cone()
    dense = face_with_support(m, [0, 1, 2])
    a = sample_stratum(m, dense, 5, seed=77)
    b = sample_stratum(m, dense, 5, seed=77)
    assert [p.values for p in a] == [p.values for p in b]
    c = sample_kn_stratum(m, dense, 5, seed=77)
    d = sample_kn_stratum(m, dense, 5, seed=77)
    assert [p.values for p in c] == [p.values for p in d]


def test_sample_kn_off_support_radius_zero_but_angles_live():
    m = a1_cone()
    f = face_with_support(m, [0])
    kn = emit_equations(m, Target.KN_POINTS)
    for point in sample_kn_stratum(m, f, 4, seed=13):
        assert point.is_zero_at(1) and point.is_zero_at(2)
        assert not point.is_zero_at(0)
        ok, res = check_membership(kn, point)
        assert ok and res == 0.0


def _floating_twin(point):
    if isinstance(point, CxPoint):
        return CxPoint.floating(point.to_complex())
    return KnPoint.floating([(float(r), unit_from_turn_float(a)) for r, a in point.values])


def _moved(point, rng):
    """The exact point with one coordinate moved: a vanishing value or
    radius made 1, any other doubled, or a log angle turned by a third."""
    i = rng.randrange(point.arity)
    values = list(point.values)
    if isinstance(point, CxPoint):
        v = values[i]
        values[i] = GaussianRational.of(1) if v.is_zero() else v * GaussianRational.of(2)
    elif rng.random() < 0.5:
        r, a = values[i]
        values[i] = (NonnegRoot.of(1) if r.is_zero() else r * NonnegRoot.of(2), a)
    else:
        r, a = values[i]
        values[i] = (r, turn_mod1(a + Fraction(1, 3)))
    return type(point)(tuple(values), True)


def test_exact_and_floating_twins_get_the_same_verdict():
    # seeded points on every face of the corpus charts and the square cone,
    # most with vanishing coordinates, and the same points moved
    square = validate(MonoidSpec.make(3, [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]],
                                      [[[1, 0, 0, 1], [0, 1, 1, 0]]]))
    charts = [validate(load_chart(corpus_path(name)).spec)
              for name in ("log_point", "affine_line", "plane_axes", "a1_cone")] + [square]
    rng = random.Random(16)
    verdicts = collections.Counter()
    for m in charts:
        dense = tuple(range(m.generator_count))
        for target, sample in ((Target.COMPLEX_POINTS, sample_stratum),
                               (Target.KN_POINTS, sample_kn_stratum)):
            system = emit_equations(m, target)
            for f in faces(m):
                for p in sample(m, f, 3, rng.randrange(10**6)):
                    assert check_membership(system, p) == (True, 0.0)
                    assert check_membership(system, _floating_twin(p))[0]
                    q = _moved(p, rng)
                    ok, res = check_membership(system, q)
                    assert (res == 0.0) == ok
                    assert check_membership(system, _floating_twin(q))[0] == ok, (p, q)
                    verdicts[target, ok, f.support != dense] += 1
    for target in Target:
        for ok in (True, False):
            assert verdicts[target, ok, True] >= 10, verdicts
