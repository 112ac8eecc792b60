"""Binomial systems, membership, the circle-collapsing projection, the
distinguished points."""

import cmath
import collections
import glob
import math
import os
import random
import time
from fractions import Fraction

import pytest

from logcharts.cli import corpus_path, load_chart
from logcharts.errors import ArityMismatch, ChartError, InvalidPoint
from logcharts.exactnum import GaussianRational, NonnegRoot, turn_mod1, unit_from_turn_float
from logcharts.fibers import torsor_check
from logcharts.monoid import MonoidSpec, face_with_support, faces, validate
from logcharts.semialg import (POWER_BITS_CAP, CxPoint, KnPoint, check_membership,
                               distinguished_point, emit_equations, tau)
from logcharts.strata import stratum_of_point

from oracles import sample_kn_stratum, sample_stratum


def a1_cone():
    return validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]],
                                    [[[1, 0, 1], [0, 2, 0]]]))


def quadrant():
    return validate(MonoidSpec.make(2, [[1, 0], [0, 1]]))


def test_emit_free_monoids_have_empty_systems():
    assert emit_equations(quadrant(), "complex").equations == ()
    n1 = validate(MonoidSpec.make(1, [[1]]))
    assert emit_equations(n1, "complex").equations == ()


def test_emit_a1_cone_equation_verbatim():
    system = emit_equations(a1_cone(), "complex")
    assert system.variable_count == 3
    assert system.equations == (((1, 0, 1), (0, 2, 0)),)
    kn = emit_equations(a1_cone(), "kn")
    assert kn.equations == system.equations and kn.target == "kn"


def test_emit_and_membership_refuse_what_they_cannot_read():
    # emit_equations("foo") raised a bare ValueError and took None and 3
    # silently; check_membership of a string raised AttributeError
    m = a1_cone()
    for target in ("foo", None, 3, "KN"):
        with pytest.raises(ChartError, match=f"target {target!r} is not 'complex' or 'kn'"):
            emit_equations(m, target)
    for point in ("x", None, (1, 2, 4), emit_equations(m, "kn")):
        with pytest.raises(InvalidPoint, match="a chart point is a KnPoint or a CxPoint"):
            check_membership(m, point)


def test_check_membership_exact_examples():
    m = a1_cone()
    ok, res = check_membership(m, CxPoint.exact_point([1, 2, 4]))
    assert ok and res == 0.0
    ok, res = check_membership(m, CxPoint.exact_point([1, 2, 5]))
    assert not ok and res == 1.0


def test_check_membership_empty_system():
    ok, res = check_membership(quadrant(), CxPoint.exact_point([123, -7]))
    assert ok and res == 0.0


def test_check_membership_arity_errors():
    m = a1_cone()
    with pytest.raises(ArityMismatch, match="point has 2 coordinates, chart has 3 generators"):
        check_membership(m, CxPoint.exact_point([1, 2]))
    with pytest.raises(ArityMismatch, match="point has 4 coordinates, chart has 3 generators"):
        check_membership(m, KnPoint.exact_point([(1, 0)] * 4))


def test_exact_points_of_other_types_are_refused():
    # a Fraction radius raised AttributeError from radius.root in the
    # Kummer fiber (no relations to evaluate) and from is_zero in the
    # membership check
    log_point = validate(MonoidSpec.make(1, [[1]]))
    bare = KnPoint(((Fraction(2), Fraction(1, 3)),))
    with pytest.raises(InvalidPoint, match="exact coordinate 0 is"):
        torsor_check(log_point, bare, 6)
    with pytest.raises(InvalidPoint, match="exact coordinate 0 is"):
        tau(bare)
    one, turn = NonnegRoot.of(1), Fraction(0)
    for values, i in ((((one, turn), (Fraction(1), turn), (one, turn)), 1),
                      (((one, turn), (one, turn), (one, 0.5)), 2)):
        with pytest.raises(InvalidPoint, match=f"exact coordinate {i} is"):
            check_membership(a1_cone(), KnPoint(values))
    with pytest.raises(InvalidPoint, match="exact coordinate 1 is 2j"):
        check_membership(a1_cone(),
                         CxPoint((GaussianRational.of(1), 2j, GaussianRational.of(4)), True))


def test_check_membership_floating_tolerance():
    m = a1_cone()
    ok, res = check_membership(m, CxPoint.floating([1.0, 2.0, 4.0 + 1e-12]))
    assert ok and res <= 1e-9
    ok, res = check_membership(m, CxPoint.floating([1.0, 2.0, 4.1]))
    assert not ok


def test_kn_membership_exact_and_floating():
    m = a1_cone()
    exact = KnPoint.exact_point([(1, Fraction(1, 3)), (2, Fraction(1, 3)),
                                 (4, Fraction(1, 3))])
    ok, res = check_membership(m, exact)
    assert ok and res == 0.0
    # the same point written as floats is read back as it
    third = cmath.exp(2j * cmath.pi / 3)
    floating = KnPoint.floating([(1.0, third), (2.0, third), (4.0, third)])
    assert floating == exact
    assert check_membership(m, floating) == (True, 0.0)
    bad = KnPoint.exact_point([(1, Fraction(1, 3)), (2, 0), (4, Fraction(1, 3))])
    ok, _ = check_membership(m, bad)
    assert not ok


def test_exact_membership_is_decided_exactly_and_never_overflows():
    m = a1_cone()
    # 1 * (2^62 + 1) != (2^31)^2, although both sides round to the same float
    ok, res = check_membership(m, KnPoint.exact_point([(1, 0), (2**31, 0), (2**62 + 1, 0)]))
    assert not ok and res == 1.0
    # a turn sum of 10^-400 is not 0, although it underflows to 0.0
    ok, res = check_membership(m, KnPoint.exact_point([(1, 0), (1, 0),
                                                        (1, Fraction(1, 10**400))]))
    assert not ok and res > 0
    # sides beyond the float range report an infinite residual
    ok, res = check_membership(m, KnPoint.exact_point([(10**400, 0), (1, 0), (1, 0)]))
    assert not ok and res == float("inf")
    ok, res = check_membership(m, CxPoint.exact_point([10**400, 1, 1]))
    assert not ok and res == float("inf")
    # equal sides beyond the float range are decided without a conversion
    assert check_membership(m, KnPoint.exact_point([(10**400, 0)] * 3)) == (True, 0.0)
    assert check_membership(m, CxPoint.exact_point([10**400] * 3)) == (True, 0.0)


def test_floating_membership_fails_beyond_the_float_range():
    m = a1_cone()
    # a power that overflows gives an infinite residual, not an OverflowError
    assert check_membership(m, CxPoint.floating([1e200] * 3)) == (False, float("inf"))
    assert check_membership(m, KnPoint.floating([(1e300, 1), (1e300, 1), (2e300, 1)])) == (
        False, float("inf"))
    # both sides overflow to inf: inf - inf is NaN, which must not pass
    square = validate(MonoidSpec.make(3, [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]],
                                      [[[1, 0, 0, 1], [0, 1, 1, 0]]]))
    m = square
    big = [1e200, 1e200, 1e200, 2e200]  # z0 z3 = 2e400 but z1 z2 = 1e400
    assert check_membership(m, KnPoint.floating([(r, 1) for r in big])) == (
        False, float("inf"))
    assert check_membership(m, CxPoint.floating(big)) == (False, float("inf"))
    # points within the float range are decided as before
    assert check_membership(m, KnPoint.floating([(1e100, 1)] * 4))[0]
    assert check_membership(m, CxPoint.floating([1e100, 1e100, 1e100, 1e100j]))[0] is False


def test_exact_products_stop_at_the_first_vanishing_coordinate(monkeypatch):
    # a side with a vanishing coordinate to a positive power is zero: an
    # exact point at the vertex takes no exact product at all
    square = validate(MonoidSpec.make(3, [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]],
                                      [[[1, 0, 0, 1], [0, 1, 1, 0]]]))
    m = square
    products = []
    for cls in (GaussianRational, NonnegRoot):
        for name in ("__mul__", "__pow__"):
            def counting(self, other, _original=getattr(cls, name)):
                products.append(_original)
                return _original(self, other)
            monkeypatch.setattr(cls, name, counting)
    assert check_membership(m, CxPoint.exact_point([0] * 4)) == (True, 0.0)
    assert check_membership(m, KnPoint.exact_point([(0, 0)] * 4)) == (True, 0.0)
    assert products == []
    # on the rays and off the variety, decided as before
    assert check_membership(m, CxPoint.exact_point([3, 0, Fraction(1, 2), 0])) == (True, 0.0)
    assert check_membership(m, CxPoint.exact_point([0, 1, 2, 0])) == (False, 2.0)
    assert check_membership(m, KnPoint.exact_point([(3, 0), (0, 0), (5, 0), (0, 0)])) == (
        True, 0.0)
    assert check_membership(m, KnPoint.exact_point([(0, 0), (1, 0), (2, 0), (0, 0)])) == (
        False, 2.0)


def test_floating_products_multiply_through_a_zero():
    # z2 = z0 z1^2: a floating zero before a power beyond the float range
    # still overflows, so the floating complex point fails with residual inf
    # where its exact twin, whose side stops at the zero, is on the
    # variety; a log point read from the same floats is exact
    m = validate(MonoidSpec.make(2, [[1, 0], [0, 1], [1, 2]]))
    assert m.relations == (((0, 0, 1), (1, 2, 0)),)
    assert check_membership(m, CxPoint.floating([0, 1e200, 0])) == (False, float("inf"))
    assert check_membership(m, KnPoint.floating([(0, 1), (1e200, 1), (0, 1)])) == (
        True, 0.0)
    assert check_membership(m, CxPoint.exact_point([0, 10**200, 0])) == (True, 0.0)
    assert check_membership(m, KnPoint.exact_point([(0, 0), (10**200, 0), (0, 0)])) == (
        True, 0.0)


def test_floating_complex_residuals_are_relative():
    square = validate(MonoidSpec.make(3, [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]],
                                      [[[1, 0, 0, 1], [0, 1, 1, 0]]]))
    m = square
    # both sides are 2.1e101 up to a rounding error of 3.1e85
    big = [1e50, 3e50, 7e50, 2.1e51]
    ok, res = check_membership(m, CxPoint.floating(big))
    assert ok and res < 1e-15
    # off by 1e100 of 2.2e101
    ok, res = check_membership(m, CxPoint.floating(big[:3] + [2.2e51]))
    assert not ok and res == pytest.approx(1 / 22)
    # below 1 the residual stays absolute
    small = [1e-6, 1e-6, 1e-6, 2e-6]
    assert check_membership(m, CxPoint.floating(small)) == (True, 1e-12)
    # radii read from the same floats are the decimals they print as, whose
    # products are equal; a log point has no tolerance, and its residual is
    # the absolute gap of the sides, or the chord of the turn sum
    assert check_membership(m, KnPoint.floating([(r, 1) for r in big])) == (True, 0.0)
    off = KnPoint.floating([(r, 1) for r in big[:3] + [2.2e51]])
    assert check_membership(m, off) == (False, 1e100)
    turned = KnPoint.floating([(r, 1) for r in big[:3]] + [(big[3], 1j)])
    ok, res = check_membership(m, turned)
    assert not ok and res == pytest.approx(abs(1j - 1))


def test_floating_log_points_store_their_angles_in_turns():
    assert KnPoint.floating([(2.0, 1j)]).values[0][1] == Fraction(1, 4)
    assert KnPoint.floating([(1.0, -3)]).values[0][1] == Fraction(1, 2)
    assert KnPoint.floating([(1.0, -1j)]).values[0][1] == Fraction(3, 4)
    assert str(KnPoint.floating([(2.0, 1j), (1.0, -3)])) == "((2, 1/4 turn), (1, 1/2 turn))"
    # the phase is read without a modulus, which overflows here
    assert KnPoint.floating([(1.0, 1.5e308 + 1.5e308j)]).values[0][1] == Fraction(1, 8)


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


def test_floating_complex_points_refuse_a_modulus_beyond_the_float_range():
    # finite parts whose modulus overflows: on N the point reached
    # algebraic_kummer_fiber and stratum_of_point, which raised OverflowError
    with pytest.raises(InvalidPoint, match="complex coordinate 1 is"):
        CxPoint.floating([1, 1.5e308 + 1.5e308j])
    assert CxPoint.floating([1.5e308, 1.5e308j]).arity == 2


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


def test_tau_refuses_a_radius_beyond_the_float_range():
    # the floating image of 10^400 at a third of a turn raised OverflowError
    with pytest.raises(InvalidPoint, match="exact coordinate 1 is beyond the float range"):
        tau(KnPoint.exact_point([(1, Fraction(1, 3)), (10 ** 400, Fraction(1, 3))]))
    # at quarter turns the image is exact, whatever the size
    assert tau(KnPoint.exact_point([(10 ** 400, Fraction(1, 4))])).values == (
        GaussianRational(0, 10 ** 400),)


def test_tau_respects_equations():
    m = a1_cone()
    dense = face_with_support(m, [0, 1, 2])
    for point in sample_kn_stratum(m, dense, 8, seed=21):
        ok, res = check_membership(m, point)
        assert ok and res == 0.0
        image = tau(point)
        ok, res = check_membership(m, image)
        assert ok and res == 0.0  # exact samples stay exact through tau


def test_tau_of_a_point_read_from_floats_is_on_the_complex_model():
    # the turns 1/10, 3/20, 1/5 are read exactly; their units are not
    # Gaussian rational, so the image is floating, within FLOAT_TOLERANCE
    m = a1_cone()
    point = KnPoint.floating([(1.5, cmath.exp(0.2j * cmath.pi)), (3.0, cmath.exp(0.3j * cmath.pi)),
                              (6.0, cmath.exp(0.4j * cmath.pi))])
    assert check_membership(m, point) == (True, 0.0)
    image = tau(point)
    ok, res = check_membership(m, image)
    assert not image.exact and ok and res <= 1e-15


def test_sample_stratum_supports_and_membership():
    m = a1_cone()
    for f in faces(m):
        for pt in sample_stratum(m, f, 4, seed=31):
            assert pt.exact
            ok, res = check_membership(m, pt)
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
    for point in sample_kn_stratum(m, f, 4, seed=13):
        assert point.is_zero_at(1) and point.is_zero_at(2)
        assert not point.is_zero_at(0)
        ok, res = check_membership(m, point)
        assert ok and res == 0.0


def test_each_stratum_holds_its_distinguished_point():
    # radius 1 and turn 0 on the face, radius 0 and turn 0 off it, on every
    # face of the bundled charts and of the cones over the 16 reflexive
    # polygons: the point lies on its own stratum, and the deck action on
    # its Kummer fibers is a torsor
    data = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
    paths = [corpus_path(name) for name in ("log_point", "affine_line", "plane_axes", "a1_cone")]
    paths += sorted(glob.glob(os.path.join(data, "reflexive_*.json")))
    assert len(paths) == 20
    checked = 0
    for path in paths:
        m = validate(load_chart(path).spec)
        for f in faces(m):
            p = distinguished_point(m, f)
            assert p == KnPoint.exact_point([(int(i in f.support), 0)
                                             for i in range(m.generator_count)])
            assert stratum_of_point(m, tau(p)).support == f.support
            assert torsor_check(m, p, 2)[0] and torsor_check(m, p, 3)[0]
            checked += 1
    assert checked == 172


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
    return CxPoint(tuple(values), True) if isinstance(point, CxPoint) else KnPoint(tuple(values))


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
        for target, sample in (("complex", sample_stratum), ("kn", sample_kn_stratum)):
            for f in faces(m):
                for p in sample(m, f, 3, rng.randrange(10**6)):
                    assert check_membership(m, p) == (True, 0.0)
                    assert check_membership(m, _floating_twin(p))[0]
                    q = _moved(p, rng)
                    ok, res = check_membership(m, q)
                    assert (res == 0.0) == ok
                    assert check_membership(m, _floating_twin(q))[0] == ok, (p, q)
                    verdicts[target, ok, f.support != dense] += 1
    for target in ("complex", "kn"):
        for ok in (True, False):
            assert verdicts[target, ok, True] >= 10, verdicts


def test_an_exact_power_beyond_the_size_cap_is_refused_before_it_is_taken():
    # z0^(10^12) = z1: 2^(10^12) would take minutes and terabits, so each
    # exact path refuses it, naming the exponent and the limit, in no time;
    # the stratum's distinguished point, at radius 1, is decided at once
    m = validate(MonoidSpec.make(1, [[1], [10 ** 12]]))
    dense = face_with_support(m, [0, 1])
    refusal = f"exponent {10 ** 12} would make a power of .* limit of {POWER_BITS_CAP}"
    start = time.perf_counter()
    for run in (lambda: check_membership(m, KnPoint.exact_point([(2, 0), (4, 0)])),
                lambda: check_membership(m, CxPoint.exact_point([GaussianRational(1, 1), 4]))):
        with pytest.raises(ChartError, match=refusal):
            run()
    assert check_membership(m, distinguished_point(m, dense)) == (True, 0.0)
    assert torsor_check(m, distinguished_point(m, dense), 2)[0]
    assert time.perf_counter() - start < 1
    # 0, 1 and the Gaussian units keep their size at any power
    assert check_membership(m, KnPoint.exact_point([(1, Fraction(1, 2)), (1, 0)])) == (True, 0.0)
    assert check_membership(m, CxPoint.exact_point([GaussianRational(0, -1), 1]))[0]
    assert check_membership(m, CxPoint.exact_point([0, 0]))[0]
    # the cap bounds the size, not the exponent: 2^(2^20) is taken, 4^(2^20) is not
    line = validate(MonoidSpec.make(1, [[1], [POWER_BITS_CAP]]))
    top = KnPoint.exact_point([(2, 0), (2 ** POWER_BITS_CAP, 0)])
    assert check_membership(line, top) == (True, 0.0)
    with pytest.raises(ChartError, match=f"exponent {POWER_BITS_CAP} would make a power"):
        check_membership(line, KnPoint.exact_point([(4, 0), (1, 0)]))


def test_a_product_of_radicals_beyond_the_size_cap_is_refused_before_it_is_formed():
    # z0 z1 z2 z3 z4 = z5 and z_i = z_(i+1) at radii of the coprime degrees
    # 64, 63, 61, 59 and 53: each power is small, but the left side's base is
    # each base to the lcm of the degrees over its own, 1.6 * 10^6 bits at
    # the fourth factor
    chain = [((0,) * i + (1, 0) + (0,) * (4 - i), (0,) * (i + 1) + (1,) + (0,) * (4 - i))
             for i in range(5)]
    m = validate(MonoidSpec.make(1, [[1]] * 5 + [[5]], [((1, 1, 1, 1, 1, 0), (0,) * 5 + (1,))]
                                 + chain[:4]))
    radii = ["2^(1/64)", "3^(1/63)", "5^(1/61)", "7^(1/59)", "11^(1/53)", "1"]
    start = time.perf_counter()
    with pytest.raises(ChartError, match=f"a product of radicals would make a base of about "
                                         f"1636032 bits, above the limit of {POWER_BITS_CAP}"):
        check_membership(m, KnPoint.exact_point([(r, 0) for r in radii]))
    assert check_membership(m, KnPoint.exact_point([("2^(1/64)", 0)] * 5
                                                   + [("32^(1/64)", 0)])) == (True, 0.0)
    # sides under the cap, of degrees 245952 and 3127, are compared without
    # raising either base to their lcm: the relation fails, and its radii's
    # gap, beyond the float range, reads inf
    sides = validate(MonoidSpec.make(1, [[1]] * 6, [((1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1))]
                                     + chain))
    point = KnPoint.exact_point([(r, 0) for r in radii])
    assert check_membership(sides, point) == (False, math.inf)
    assert time.perf_counter() - start < 1
