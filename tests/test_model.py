import math

import mpmath as mp
import numpy as np
import pytest

from dblab import model
from dblab.errors import (ConfigError, DegenerateInner, EnvelopeNotDecaying,
                          NegativeRealPart, Overflow)
from dblab.examples import build_a41
from dblab.expressions import Const, ExpCZ, Product, Quotient, Z, derivative
from dblab.model import (InnerFunction, cayley_q_from_theta, clark_kernel,
                         clark_kernel_diag, herglotz_extract, theorem_a60_scan,
                         theta_from_q, weak_type_test, y_limit)
from dblab.quadrature import integrate_real_line

Q_LINEAR = Product([Const(-1j), Z()])      # -iz
Q_POLE = Quotient(Const(1j), Z())          # i/z
Q_ONE = Const(1.0)


# ---------------------------------------------------------------------------
# inner functions and Cayley transforms
# ---------------------------------------------------------------------------

def test_exponential_inner_is_contractive():
    checks = InnerFunction.exponential(1.0).validate()
    assert checks["contraction-margin"] > 0
    assert checks["boundary-deviation"] < 1e-8


def test_blaschke_zeros_must_be_upper():
    with pytest.raises(ConfigError):
        InnerFunction.blaschke([-1j])


def test_cayley_plus_value():
    q = cayley_q_from_theta(InnerFunction.exponential(1.0), "plus")
    expect = (1 + math.exp(-1)) / (1 - math.exp(-1))
    assert abs(q.at(1j) - expect) < 1e-12


def test_cayley_of_zero_theta_is_one():
    q = cayley_q_from_theta(InnerFunction.constant(0.0), "plus")
    assert abs(q.at(2j) - 1.0) < 1e-15


def test_cayley_degenerate_inner():
    with pytest.raises(DegenerateInner):
        cayley_q_from_theta(InnerFunction.constant(1.0), "plus")
    with pytest.raises(DegenerateInner):
        cayley_q_from_theta(InnerFunction.constant(-1.0), "i-minus")


def test_cayley_variant_tag_is_mandatory():
    with pytest.raises(ConfigError):
        cayley_q_from_theta(InnerFunction.exponential(1.0), "default")


@pytest.mark.parametrize("variant", ["plus", "i-minus"])
def test_mobius_round_trip(variant, rng):
    th = InnerFunction.blaschke([0.5 + 1j, -1 + 0.25j])
    pts = rng.uniform(-5, 5, 100) + 1j * rng.uniform(0.1, 5, 100)
    q = cayley_q_from_theta(th, variant)
    back = theta_from_q(q, variant)
    assert np.max(np.abs(back.values(pts) - th.expr.values(pts))) < 1e-12


# ---------------------------------------------------------------------------
# Herglotz extraction
# ---------------------------------------------------------------------------

def test_herglotz_linear_term():
    h = herglotz_extract(Q_LINEAR)
    assert abs(h.p - 1.0) < 1e-9
    assert not h.point_masses
    assert h.total_mass == math.inf and not h.class_c0 and not h.class_c1


def test_herglotz_single_point_mass():
    h = herglotz_extract(Q_POLE)
    assert h.p == 0.0 and h.class_c1
    assert len(h.point_masses) == 1
    t0, w = h.point_masses[0]
    assert abs(t0) < 1e-9 and abs(w - math.pi) < 1e-9
    assert abs(h.total_mass - math.pi) < 1e-9 and h.class_c0


def test_herglotz_lebesgue_density():
    h = herglotz_extract(Q_ONE)
    assert h.p == 0.0
    assert np.allclose(h.density, 1.0, atol=1e-8)
    assert h.total_mass == math.inf


def test_herglotz_plateau_yields_no_mass_candidates(monkeypatch):
    # a flat delta*|q| profile has no strict local maximum to refine
    calls = []
    real = model._peak
    monkeypatch.setattr(model, "_peak", lambda *a: calls.append(a) or real(*a))
    assert not herglotz_extract(Const(1.0)).point_masses
    assert not calls


def _assert_masses(h, expected):
    """Every expected (t0, w0) is found, and nothing else: t0 within
    1e-9 + 4 ulp(t0), w0 within 1e-8 relative."""
    assert len(h.point_masses) == len(expected)
    for (t, w), (t0, w0) in zip(sorted(h.point_masses), sorted(expected)):
        assert abs(t - t0) <= 1e-9 + 4 * math.ulp(t0), (t, t0)
        assert abs(w - w0) <= 1e-8 * w0, (t0, w, w0)


def test_herglotz_masses_of_exponential_inner_functions():
    # q = (1 + e^{iaz}) / (1 - e^{iaz}) has mass 2 pi / a at each 2 pi k / a
    for a in (0.5, 1.0, 3.0, 7.0):
        h = herglotz_extract(cayley_q_from_theta(InnerFunction.exponential(a), "plus"))
        ks = range(-int(10 * a / (2 * math.pi)), int(10 * a / (2 * math.pi)) + 1)
        _assert_masses(h, [(2 * math.pi * k / a, 2 * math.pi / a) for k in ks])


def _blaschke_masses(zeros, c):
    """Real t in [-10, 10] with B(t) = c, as mpmath roots of
    prod(t - a) - c prod(t - conj a), each with its mass 2 pi / phi'(t),
    phi'(t) = sum 2 Im a / |t - a|^2."""
    def monic(roots):
        coeffs = [mp.mpc(1)]
        for r in roots:
            coeffs = [u - r * v for u, v in zip(coeffs + [0], [0] + coeffs)]
        return coeffs

    with mp.workdps(40):
        zs = [mp.mpc(z.real, z.imag) for z in zeros]
        p = [u - c * v for u, v in zip(monic(zs), monic([mp.conj(z) for z in zs]))]
        while p[0] == 0:
            p.pop(0)
        ts = [mp.re(r) for r in mp.polyroots(p, maxsteps=200, extraprec=100)
              if abs(mp.im(r)) < 1e-25 and abs(mp.re(r)) <= 10]
        return [(float(t), float(2 * mp.pi / mp.fsum(2 * z.imag / abs(t - z) ** 2
                                                      for z in zs)))
                for t in ts]


@pytest.mark.parametrize("zeros, sign", [([1 + 1j, -2 + 0.5j, 0.3 + 2j], 1.0),
                                         ([1j, -2 + 0.5j], -1.0)])
def test_herglotz_masses_of_blaschke_products(zeros, sign):
    # the plus-Cayley q of sign*B has its masses where B = sign
    th = InnerFunction.blaschke(zeros)
    th = InnerFunction("expr", Product([Const(sign), th.expr]))
    expected = _blaschke_masses(zeros, sign)
    assert len(expected) == 2
    _assert_masses(herglotz_extract(cayley_q_from_theta(th, "plus")), expected)


def test_herglotz_mass_near_a_million():
    # 2 pi k ~ 1e6, where a bracket cannot shrink below a few ulps of t
    with mp.workdps(30):
        t0 = float(2 * mp.pi * 159_155)
    q = cayley_q_from_theta(InnerFunction.exponential(1.0), "plus")
    h = herglotz_extract(q, density_grid=np.linspace(t0 - 1.0, t0 + 1.0, 41))
    _assert_masses(h, [(t0, 2 * math.pi)])


def test_herglotz_rejects_negative_real_part():
    with pytest.raises(NegativeRealPart):
        herglotz_extract(Product([Const(-1.0), Q_ONE]))


def test_herglotz_of_a_nan_q_is_an_overflow(erange):
    # e^{-iz} e^{iz} is inf * 0 = NaN high up the imaginary axis
    q = Product([ExpCZ(-1j), ExpCZ(1j)])
    erange()
    with pytest.raises(Overflow, match="p-fit point"):
        herglotz_extract(q)
    erange()
    assert y_limit(q) == math.inf


def test_blaschke_linear_coefficient_matches_zero_sum():
    # q = (1+Theta)/(1-Theta) grows like -iz / sum(Im z_k):
    # 1 - Theta belongs to the model space exactly when p > 0
    zeros = [1j, -2 + 0.5j]
    th = InnerFunction.blaschke(zeros)
    h = herglotz_extract(cayley_q_from_theta(th, "plus"))
    assert abs(h.p - 1.0 / 1.5) < 1e-6
    t0, w = h.point_masses[0]
    tp = derivative(th.expr, t0, 1).value
    assert abs(w - 2.0 * math.pi / abs(tp)) < 1e-5 * w


def test_exponential_inner_has_no_linear_term():
    h = herglotz_extract(cayley_q_from_theta(InnerFunction.exponential(1.0), "plus"),
                         density_grid=np.linspace(-2.0, 2.0, 81))
    assert h.p == 0.0 and h.class_c1


def test_herglotz_im_at_i():
    # q(i) = -i*i + 2i = 1 + 2i
    q = Product([Const(-1j), Z()]) + Const(2j)
    h = herglotz_extract(q)
    assert abs(h.im_at_i - 2.0) < 1e-12


# ---------------------------------------------------------------------------
# weak-type estimates
# ---------------------------------------------------------------------------

def test_weak_type_pole_against_closed_form():
    rep = weak_type_test(Q_POLE, 1.0, np.arange(1, 21) * 0.1)
    for a, m in zip(rep.a_grid, rep.measures):
        closed = 2.0 * math.sqrt(max(0.0, 1.0 / a ** 2 - 1.0))
        assert abs(m - closed) < 1e-6
    assert np.all(rep.bound_products <= rep.bound_constant * rep.y_limit + 1e-9)
    assert rep.bound_ok is not None and np.all(rep.bound_ok)


def test_weak_type_measures_nonincreasing():
    rep = weak_type_test(Q_POLE, 1.0, np.linspace(0.05, 2.0, 40))
    assert np.all(np.diff(rep.measures) <= 1e-9)


def test_weak_type_scaled_poisson_measure_decays_for_c1():
    # |q| <= 1 on the scan line, so the superlevel sets empty out and the
    # scaled Poisson measures drop to zero across the grid
    rep = weak_type_test(Q_POLE, 1.0, [0.5, 1.0, 2.0, 4.0], measure="poisson")
    assert rep.c1_trend_to_zero
    assert rep.measures[-1] == 0.0


def test_weak_type_flags_linear_growth():
    rep = weak_type_test(Q_LINEAR, 1.0, [2.0, 4.0, 8.0, 16.0, 32.0],
                         measure="poisson")
    # a * Pi tends to 2p, not 0: the report must flag the failure
    assert not rep.c1_trend_to_zero
    assert np.all(np.abs(rep.bound_products - 2.0) < 0.2)
    assert np.all(rep.unbounded)


def test_weak_type_lebesgue_rejects_growth():
    with pytest.raises(EnvelopeNotDecaying):
        weak_type_test(Q_LINEAR, 1.0, [2.0], measure="lebesgue")


def test_weak_type_constant_function_empty_superlevel():
    rep = weak_type_test(Q_ONE, 1.0, [1.5, 2.0], measure="poisson")
    assert np.all(rep.measures == 0.0)


def test_weak_type_constant_value():
    assert abs(weak_type_test(Q_POLE, 1.0, [0.5]).bound_constant
               - math.pi * math.sqrt(2) * (1 + math.e)) < 1e-12


def test_y_limit_values():
    assert abs(y_limit(Q_POLE) - 1.0) < 1e-9
    assert y_limit(Q_ONE) == math.inf


# ---------------------------------------------------------------------------
# Clark kernels
# ---------------------------------------------------------------------------

def test_clark_kernel_of_trivial_theta_is_cauchy():
    th = InnerFunction.constant(0.0)
    z = 0.4 + 0.9j
    k = clark_kernel(th, z)
    zeta = 1.2 + 0.3j
    expect = (1j / (2 * math.pi)) / (zeta - np.conj(z))
    assert abs(k.at(zeta) - expect) < 1e-14


def test_clark_kernel_diagonal_positive(rng):
    th = InnerFunction.exponential(1.0)
    zs = rng.uniform(-5, 5, 100) + 1j * rng.uniform(0.05, 4.0, 100)
    for z in zs:
        d = clark_kernel_diag(th, z)
        assert d > 0
        k = clark_kernel(th, z)
        assert abs(k.at(z) - d) < 1e-12 * (1 + d)


def test_clark_kernel_reproduces_under_hardy_inner_product(rng):
    th = InnerFunction.exponential(1.0)
    for _ in range(10):
        w = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.0))
        z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.0))
        kw, kz = clark_kernel(th, w), clark_kernel(th, z)

        def cross(t):
            tt = np.asarray(t, dtype=complex)
            return kw.values(tt) * np.conj(kz.values(tt))

        got = integrate_real_line(cross, rel_tol=1e-8).value
        assert abs(got - kw.at(z)) < 1e-5


def test_clark_unitarity_for_finite_blaschke():
    # Parseval against the point masses of the alpha = -1 Clark measure
    th = InnerFunction.blaschke([1j, -2 + 0.5j])
    neg = InnerFunction("expr", Product([Const(-1.0), th.expr]))
    h = herglotz_extract(cayley_q_from_theta(neg, "plus"),
                         density_grid=np.linspace(-30, 30, 1201))
    assert h.p == 0.0 and len(h.point_masses) == 2
    kw = clark_kernel(th, 0.3 + 0.7j)

    def sq(t):
        v = kw.values(np.asarray(t, dtype=complex))
        return (v * np.conj(v)).real

    h2 = integrate_real_line(sq, rel_tol=1e-8).value.real
    parseval = sum(wj * abs(kw.at(tj)) ** 2 for tj, wj in h.point_masses)
    assert abs(h2 - parseval) / h2 < 1e-5


# ---------------------------------------------------------------------------
# the horizontal-ray scan
# ---------------------------------------------------------------------------

def test_a60_scan_exponential_inner():
    # |1 - Theta(x+i)| >= 1 - 1/e, so the near-1 set empties beyond ~15.8
    th = InnerFunction.exponential(1.0)
    rep = theorem_a60_scan(th, 1.0, 10.0, [4.0, 16.0, 64.0, 256.0])
    ratios = [row.ratio for row in rep.rows]
    assert ratios[0] > 0.5
    assert ratios[1] == ratios[2] == ratios[3] == 0.0


def test_a60_scan_zero_threshold():
    th = InnerFunction.exponential(1.0)
    rep = theorem_a60_scan(th, 1.0, 0.0, [4.0, 32.0])
    assert all(row.measure == 0.0 for row in rep.rows)


def test_a60_scan_a41_diagnostic():
    # the series-built inner function hugs -1 on the line, so its near-1
    # sets stay small while 1 - |Theta|^2 dominates |1 + Theta|^2
    inst = build_a41(2.0, 1.0, 10_000)
    th = InnerFunction("expr", inst.extras["theta"])
    rep = theorem_a60_scan(th, 1.0, 10.0, [16.0, 64.0], f=None)
    assert all(row.ratio < 0.2 for row in rep.rows)
    xs = np.linspace(16, 128, 200)
    tv = inst.extras["theta"].values(xs + 1j)
    assert np.all(np.abs(1 + tv) ** 2 <= 1.05 * (1 - np.abs(tv) ** 2))


def test_a60_scan_residual_column():
    th = InnerFunction.exponential(1.0)
    f = Product([Const(-1.0), Const(1.0) + Product([Const(-1.0), th.expr])])
    # f = Theta - 1 makes the hypothesis residual vanish identically
    rep = theorem_a60_scan(th, 1.0, 1.0, [8.0], f=f)
    assert rep.rows[0].residual_max < 1e-10
