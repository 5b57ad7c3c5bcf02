import math
import tracemalloc

import numpy as np
import pytest

from dblab import domains as dom
from dblab.errors import AllPointsExcluded, ConfigError, Overflow
from dblab.examples import a45_truncated_space, pw_kernel_expr, pw_space
from dblab.expressions import Const, Cos, ExpCZ, FunctionExpr, Product, Sinc
from dblab.majorization import (Majorant, admissibility_check, expr_majorant,
                                mS_majorant, nabla_majorant)
from dblab.majorization import test_majorization as run_majorization
from dblab.model import InnerFunction
from dblab.space import hb_check, mean_type, nabla_values, norm_squared
from dblab.expressions import Quotient

SINC = pw_kernel_expr(1.0, 0.0)
SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

def test_grids_are_strictly_monotone():
    for d in (dom.ray(0.5, 1.0), dom.line(1.0), dom.axis(),
              dom.horizontal_ray(1.0, 2.0)):
        pts = d.points()
        assert pts.size > 50
        r = np.abs(pts) if d.kind == "ray" else pts.real
        assert np.all(np.diff(r) > 0)


def test_domain_points_stay_in_closed_upper_half_plane():
    for d in (dom.ray(0.25, 1.0), dom.line(0.5), dom.axis(),
              dom.horizontal_ray(2.0, 1.0),
              dom.union(dom.axis(rmax=100.0), dom.ray(0.5, 1.0, rmax=100.0))):
        assert np.all(d.points().imag >= 0)


def test_line_grid_contains_origin_abscissa():
    assert 0.0 + 1j in set(dom.line(1.0).points())


def test_union_rejects_overlap():
    with pytest.raises(ConfigError):
        dom.union(dom.axis(), dom.axis()).points()


def test_domain_json_round_trip():
    for d in (dom.ray(0.25, 2.0, ratio=1.03, rmax=500.0), dom.line(1.0),
              dom.union(dom.axis(rmax=64.0), dom.ray(0.5, 1.0, rmax=64.0))):
        d2 = dom.SampledDomain.from_json(d.to_json())
        assert np.array_equal(d2.points(), d.points())


# ---------------------------------------------------------------------------
# majorant builders
# ---------------------------------------------------------------------------

def test_nabla_majorant_is_constant_on_lines(pw1):
    for h in (0.5, 1.0, 2.0):
        m = nabla_majorant(pw1, dom.line(h, rmax=100.0))
        expect = math.sqrt(math.sinh(2 * h) / (2 * math.pi * h))
        vals = m.values(m.domain.points())
        assert np.allclose(vals, expect, rtol=1e-12)


def test_nabla_majorant_of_a_space_too_large_to_serialize():
    # 10,002 unnamed zeros: more than a space serializes inline; the zeros
    # lie below the axis, so the product is HB, but the default HB grid
    # overflows it
    sp = a45_truncated_space(5_002)
    sp.hb_verified = True
    m = nabla_majorant(sp, dom.ray(0.5, 1.0, rmax=100.0))
    assert m.label == "nabla[a45-trunc-5002]"
    assert np.all(m.values(np.array([1j, 0.5 + 2j])) > 0)


def test_majorant_values_have_the_bits_of_one_batch(pw1):
    # 8,193 axis points: blocks of 8,192 leave the last point alone, and
    # its kernel norm has the bits it has in the batch
    x = np.linspace(-50.0, 50.0, 8_193) + 0j
    m = Majorant("nabla", lambda z: nabla_values(pw1, z), dom.axis())
    assert np.array_equal(m.values(x).view(np.uint64), nabla_values(pw1, x).view(np.uint64))


def test_majorization_on_a_long_line_samples_the_majorant_by_blocks(pw1):
    # 184,221 points: the kernel norm of the whole sample at once lifted
    # the traced peak to about 18.6 MiB, and whole-sample |F|, |F#|, m and
    # ratio arrays to about 11.8 MiB; with the ratio built a block at a
    # time it is about 6.5 MiB
    m = nabla_majorant(pw1, dom.line(1.0, ratio=1.0001))
    tracemalloc.start()
    try:
        rep = run_majorization(Cos(), m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.z.size > 180_000 and rep.verdict == "majorized"
    assert peak < 9 * 2 ** 20


def test_overflowing_sample_is_an_overflow_not_an_infinite_ratio():
    # |cos| / |cos| is 1, but cosh overflows past y ~ 710 and inf/inf is NaN
    m = expr_majorant(Cos(), dom.ray(0.5, 1.0, rmax=1000.0))
    with pytest.raises(Overflow) as err:
        run_majorization(Cos(), m)
    pts = m.domain.points()
    with np.errstate(over="ignore"):
        first = pts[np.isinf(np.cosh(pts.imag))][0]
    assert abs(first - 725.36j) < 0.01 and f"z={first}" in str(err.value)


def test_finite_f_over_a_zero_of_the_majorant_keeps_an_infinite_ratio():
    d = dom.axis(rmax=100.0)
    m = Majorant("vanishing", lambda z: np.where(np.abs(z.real) < 1.0, 0.0, 1.0), d)
    rep = run_majorization(Const(1.0), m)
    assert rep.sup_ratio == math.inf and rep.tail_slope == math.inf
    assert rep.verdict == "not-majorized"
    assert np.array_equal(np.isinf(rep.ratio), np.abs(rep.z.real) < 1.0)


def test_nabla_majorant_on_axis(pw1):
    m = nabla_majorant(pw1, dom.axis(rmax=100.0))
    assert np.allclose(m.values(m.domain.points()), 1 / SQRT_PI, rtol=1e-9)


def test_nabla_majorant_zpi_constant_everywhere(zpi):
    for d in (dom.axis(rmax=50.0), dom.line(1.0, rmax=50.0),
              dom.ray(0.5, 1.0, rmax=50.0)):
        m = nabla_majorant(zpi, d)
        assert np.allclose(m.values(d.points()), 1 / SQRT_PI, rtol=1e-9)


def test_ms_majorant_exponential_on_axis():
    m = mS_majorant(ExpCZ(-1j), dom.axis(rmax=100.0))
    t = m.domain.points().real
    assert np.allclose(m.values(m.domain.points()), 1.0 / np.sqrt(t * t + 1.0))


def test_ms_majorant_constant_at_i():
    m = mS_majorant(Const(1.0), dom.line(1.0))
    assert abs(m.values(np.array([1j]))[0] - 0.5) < 1e-14


def test_me1_reduces_to_ms_of_structure_function():
    e1 = ExpCZ(-1j)
    d = dom.axis(rmax=100.0)
    m1 = mS_majorant(e1, d)
    t = d.points()
    assert np.allclose(m1.values(t), 1.0 / np.abs(t + 1j))


# ---------------------------------------------------------------------------
# the majorization test
# ---------------------------------------------------------------------------

def test_cos_majorized_on_line_with_exact_sup(pw1):
    h = 1.0
    m = nabla_majorant(pw1, dom.line(h, ratio=1.01, rmax=1e4))
    rep = run_majorization(Cos(), m)
    expect = math.cosh(h) / math.sqrt(math.sinh(2 * h) / (2 * math.pi * h))
    assert rep.verdict == "majorized"
    assert abs(rep.sup_ratio - expect) < 1e-6 * expect


def test_moduli_callers_never_evaluate_cos_or_exp_as_complex(monkeypatch):
    # the sampled moduli come from real parts; a silent fallback to the
    # complex values would raise here
    def refuse(self, z, ctx, error):
        raise AssertionError(f"complex {self.kind} evaluated")

    monkeypatch.setattr(Cos, "_eval", refuse)
    monkeypatch.setattr(ExpCZ, "_eval", refuse)
    h, a = 1.0, 2.5
    rep = run_majorization(Cos(), nabla_majorant(pw_space(1.0), dom.line(h)))
    nabla_h = math.sqrt(math.sinh(2 * h) / (2 * math.pi * h))
    x = rep.z.real
    assert rep.verdict == "majorized"
    assert np.allclose(rep.ratio, np.sqrt(np.cos(x) ** 2 + math.sinh(h) ** 2) / nabla_h,
                       rtol=1e-14, atol=0.0)
    z = np.linspace(-30.0, 30.0, 61) + 1j * np.geomspace(0.01, 20.0, 61)
    got = nabla_values(pw_space(a), z)
    y = z.imag
    assert np.allclose(got, np.sqrt(np.sinh(2 * a * y) / (2 * math.pi * y)), rtol=1e-12, atol=0.0)
    assert hb_check(pw_space(a))[0]
    assert abs(mean_type(ExpCZ(-1j * a), 0.5 * math.pi).value - a) < 1e-9
    # |cos| against max(|S|, |S#|)/|z + i| = cosh(h)/|z + i| grows like |x|
    assert run_majorization(Cos(), mS_majorant(ExpCZ(-1j), dom.line(h))).verdict == "not-majorized"
    # max(|e^{iz}|, |e^{-iz}|)/|cos z| = e^h/|cos z| <= e^h/sinh(h)
    rep = run_majorization(ExpCZ(1j), expr_majorant(Cos(), dom.line(h)))
    assert math.exp(h) / math.cosh(h) <= rep.sup_ratio <= math.exp(h) / math.sinh(h)
    checks = InnerFunction.exponential(a).validate()
    assert checks["contraction-margin"] > 0.0 and checks["boundary-deviation"] < 1e-15


def test_cos_not_majorized_on_vertical_ray(pw1):
    m = nabla_majorant(pw1, dom.ray(0.5, 1.0, ratio=1.02, rmax=512.0))
    rep = run_majorization(Cos(), m)
    assert rep.verdict == "not-majorized"
    assert rep.tail_slope >= 0.10
    # the measured ratio follows sqrt(pi y coth y)
    y = rep.z.imag
    envelope = np.sqrt(math.pi * y / np.tanh(y))
    normalized = rep.ratio / envelope
    assert np.max(np.abs(normalized - 1.0)) < 1e-6


def test_member_majorized_by_own_nabla_with_norm_cap(pw1):
    nrm = math.sqrt(norm_squared(pw1, SINC))
    for d in (dom.axis(ratio=1.01, rmax=1e4), dom.line(1.0, ratio=1.01, rmax=1e4),
              dom.ray(0.5, 1.0, ratio=1.02, rmax=512.0)):
        rep = run_majorization(SINC, nabla_majorant(pw1, d))
        assert rep.verdict == "majorized"
        assert rep.sup_ratio <= nrm * (1 + 1e-6)


def test_scale_invariance_of_verdicts(pw1):
    d = dom.line(1.0, ratio=1.01, rmax=1e4)
    base = nabla_majorant(pw1, d)
    for f, expected in ((Cos(), "majorized"), (SINC, "majorized")):
        for c in (1e-3, 1.0, 1e3):
            scaled = Majorant("scaled", lambda z, c=c: c * base.fn(z), d, ())
            assert run_majorization(f, scaled).verdict == expected
    ray = dom.ray(0.5, 1.0, ratio=1.02, rmax=512.0)
    rbase = nabla_majorant(pw1, ray)
    for c in (1e-3, 1.0, 1e3):
        scaled = Majorant("scaled", lambda z, c=c: c * rbase.fn(z), ray, ())
        assert run_majorization(Cos(), scaled).verdict == "not-majorized"


def test_pointwise_monotonicity(pw1):
    d = dom.line(1.0, ratio=1.01, rmax=1e4)
    m1 = nabla_majorant(pw1, d)
    m2 = Majorant("bigger", lambda z: m1.fn(z) * (2.0 + np.abs(z) ** 0.1), d, ())
    assert np.all(m2.values(d.points()) >= m1.values(d.points()))
    assert run_majorization(Cos(), m1).verdict == "majorized"
    assert run_majorization(Cos(), m2).verdict == "majorized"


def test_bounded_phase_derivative_containment():
    # elements of the smaller Paley-Wiener space stay majorized by its
    # kernel norm on the real axis (containment direction only)
    pw_half = pw_space(0.5)
    m = nabla_majorant(pw_half, dom.axis(ratio=1.01, rmax=1e4))
    for x0 in (0.0, 1.3, -2.7):
        rep = run_majorization(pw_kernel_expr(0.5, x0), m)
        assert rep.verdict == "majorized"


def test_zero_divisor_exclusion_and_error():
    d = dom.axis(rmax=100.0)
    m = expr_majorant(Product([Const(1 / math.pi), Sinc()]), d,
                      zero_divisor=[(math.pi, 1), (-math.pi, 1)])
    rep = run_majorization(SINC, m)
    assert np.all(np.abs(np.abs(rep.z.real) - math.pi) >= 1e-3)
    tiny = dom.SampledDomain("axis", rmax=2.0)
    with pytest.raises(AllPointsExcluded):
        # declared zero everywhere on the tiny grid
        bad = Majorant("zero", lambda z: np.ones(z.shape), tiny,
                       [(float(x.real), 1) for x in tiny.points()])
        run_majorization(SINC, bad)


def test_zero_function_is_trivially_majorized(pw1):
    m = nabla_majorant(pw1, dom.axis(rmax=100.0))
    rep = run_majorization(Const(0.0), m)
    assert rep.verdict == "majorized" and rep.sup_ratio == 0.0


def test_infinite_zero_divisor_is_rejected():
    d = dom.axis(rmax=100.0)
    m = Majorant("null", lambda z: np.zeros(z.shape), d, "infinite")
    with pytest.raises(AllPointsExcluded):
        run_majorization(SINC, m)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_nabla_on_axis_is_admissible(pw1):
    m = nabla_majorant(pw1, dom.axis(ratio=1.02, rmax=1e4))
    rep = admissibility_check(m, [SINC], pw1)
    assert bool(rep)


def test_vanishing_majorant_is_not_admissible(pw1):
    d = dom.axis(rmax=100.0)
    m = Majorant("null", lambda z: np.zeros(z.shape), d, "infinite")
    rep = admissibility_check(m, [SINC], pw1)
    assert not rep
    assert "zero-divisor" in rep.details


def test_me1_admissible_for_larger_space():
    pw2 = pw_space(2.0)
    m = mS_majorant(ExpCZ(-1j), dom.axis(ratio=1.02, rmax=1e4))
    rep = admissibility_check(m, [SINC], pw2)
    assert bool(rep)


def test_admissibility_needs_witnesses(pw1):
    m = nabla_majorant(pw1, dom.axis(rmax=100.0))
    with pytest.raises(ConfigError):
        admissibility_check(m, [], pw1)


def test_zero_divisor_order_estimator():
    from dblab.majorization import estimate_zero_divisor_order
    d = dom.axis(rmax=100.0)
    m_sinc = expr_majorant(Sinc(), d, zero_divisor=[(math.pi, 1)])
    assert estimate_zero_divisor_order(m_sinc, math.pi) == 1
    assert estimate_zero_divisor_order(m_sinc, 0.0) == 0
    m_sq = expr_majorant(Product([Sinc(), Sinc()]), d)
    assert estimate_zero_divisor_order(m_sq, math.pi) == 2


def test_majorized_witness_mean_type_is_controlled(pw1):
    # majorized members inherit the majorant's (zero) relative mean type
    est = mean_type(Quotient(SINC, pw1.e), math.pi / 2)
    assert est.value <= 5e-3


@pytest.mark.parametrize("f, real", [(Cos(), True), (pw_kernel_expr(2.0, 0.5), True),
                                     (ExpCZ(1j), False)], ids=["cos", "pw-kernel", "exp-iz"])
def test_majorization_report_has_the_bits_of_two_moduli_passes(f, real, pw1, monkeypatch):
    # a real F takes |F| alone; the reference takes max(|F|, |F#|) in two passes
    assert f.is_real() == real
    d = dom.line(0.75, ratio=1.002, rmax=2e3)
    majorants = (lambda: nabla_majorant(pw1, d), lambda: mS_majorant(f, d))
    got = [run_majorization(f, make()) for make in majorants]
    monkeypatch.setattr(FunctionExpr, "is_real", lambda self: False)
    ref = [run_majorization(f, make()) for make in majorants]
    for a, b in zip(got, ref):
        assert a.to_json() == b.to_json()
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.ratio.view(np.uint64), b.ratio.view(np.uint64))
