import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dblab.space as space_module
from dblab import domains as dom
from dblab.errors import (ConfigError, MissingZeroData, NegativeRadicand,
                          Overflow, ZeroOnAxis)
from dblab.examples import (a20_structure_function, a45_truncated_space,
                            a45_zero_sequence, pw_kernel_closed, pw_kernel_expr,
                            pw_space)
from dblab.expressions import (Affine, Const, Cos, ExpCZ, Poly, Product,
                               Quotient, Sinc, ZeroSequence, expr_from_json)
from dblab.majorization import nabla_majorant
from dblab.quadrature import integrate_real_line
from dblab.space import (DbSpace, default_hb_grid, hb_check, inner_product,
                         kernel, kernel_diagonal, mean_type, membership,
                         nabla, nabla_values, norm_squared, phase_derivative,
                         zero_sum_phase)

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Hermite-Biehler check
# ---------------------------------------------------------------------------

def test_hb_exponential(pw1):
    ok, margin = hb_check(pw1, default_hb_grid())
    assert ok and margin > 0


def test_hb_z_plus_i(zpi):
    # |z - i| < |z + i| in the upper half-plane
    ok, margin = hb_check(zpi)
    assert ok and margin > 0


def test_hb_reversed_exponential_fails():
    bad = DbSpace(ExpCZ(1j), None, 1.0, 1.0, "anti")
    ok, margin = hb_check(bad)
    assert not ok and margin < 0


def test_hb_grid_validation(pw1):
    with pytest.raises(ConfigError):
        hb_check(pw1, np.array([1.0 - 1j]))


def test_hb_check_overflow_is_an_overflow():
    # 10,002 zeros below the axis: the space is HB, but |E| and |E#|
    # overflow on the default grid
    sp = a45_truncated_space(5_002)
    with pytest.raises(Overflow, match=r"z=\(-20\+0\.1j\)"):
        hb_check(sp)
    with pytest.raises(Overflow):
        nabla_majorant(sp, dom.ray(0.5, 1.0, rmax=100.0))
    assert not sp.hb_verified


def test_even_odd_parts_are_real_on_axis(pw1, rng):
    from dblab.examples import build_a20
    t = rng.uniform(-30, 30, 60) + 0j
    for sp in (pw1, build_a20().spaces["H"]):
        av, bv = sp.a.values(t), sp.b.values(t)
        scale = 1.0 + np.abs(av) + np.abs(bv)
        assert np.all(np.abs(av.imag) <= 1e-10 * scale)
        assert np.all(np.abs(bv.imag) <= 1e-10 * scale)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_pw_kernel_at_origin(pw1):
    assert abs(kernel(pw1, 0.0, 0.0) - 1.0 / math.pi) < 1e-12


def test_pw_kernel_matches_closed_form(pw1, rng):
    w = rng.uniform(-3, 3, 25) + 1j * rng.uniform(-2, 2, 25)
    z = rng.uniform(-3, 3, 25) + 1j * rng.uniform(-2, 2, 25)
    for wi, zi in zip(w, z):
        expect = pw_kernel_closed(1.0, wi, zi)
        assert abs(kernel(pw1, wi, zi) - expect) <= 1e-10 * (1 + abs(expect))


def test_zpi_kernel_is_constant(zpi, rng):
    w = rng.uniform(-5, 5, 20) + 1j * rng.uniform(0, 3, 20)
    z = rng.uniform(-5, 5, 20) + 1j * rng.uniform(0, 3, 20)
    vals = [kernel(zpi, wi, zi) for wi, zi in zip(w, z)]
    assert np.allclose(vals, 1.0 / math.pi, rtol=1e-10, atol=1e-12)


def test_kernel_hermitian_symmetry(pw1, rng):
    w = rng.uniform(-4, 4, 100) + 1j * rng.uniform(-1, 2, 100)
    z = rng.uniform(-4, 4, 100) + 1j * rng.uniform(-1, 2, 100)
    for wi, zi in zip(w, z):
        a = kernel(pw1, wi, zi)
        b = kernel(pw1, zi, wi)
        assert abs(a - np.conj(b)) <= 1e-12 * (1 + abs(a))


def test_kernel_continuous_across_diagonal_switch(pw1):
    # the switch kicks in at |wbar - z| = 1e-6 (1 + |z|)
    w = 0.7 + 0.4j
    delta = 1e-6 * (1 + abs(w))
    for off in (0.98, 1.02):
        z = np.conj(w) + off * delta
        expect = pw_kernel_closed(1.0, w, z)
        assert abs(kernel(pw1, w, z) - expect) < 1e-8


def test_kernel_array_matches_scalar_calls(pw1, rng):
    # far points and two inside the diagonal switch, in one array
    w = 0.7 + 0.4j
    delta = 1e-6 * (1 + abs(w))
    far = rng.uniform(-4, 4, 30) + 1j * rng.uniform(-1, 2, 30)
    z = np.concatenate([far[:15], [np.conj(w) + 0.5 * delta], far[15:],
                        [np.conj(w) - 0.3j * delta]])
    for sp in (pw1, DbSpace(a20_structure_function())):
        got = kernel(sp, w, z)
        expect = np.array([kernel(sp, w, zi) for zi in z])
        assert got.shape == z.shape
        assert np.all(np.abs(got - expect) <= 1e-13 * np.abs(expect))


def test_kernel_diagonal_positive_when_hb(pw1, zpi, rng):
    pts = rng.uniform(-5, 5, 50) + 1j * rng.uniform(0.0, 3.0, 50)
    for sp in (pw1, zpi):
        for z in pts:
            assert kernel_diagonal(sp, z).real > 0


# ---------------------------------------------------------------------------
# nabla
# ---------------------------------------------------------------------------

def test_pw_nabla_on_horizontal_lines(pw1, rng):
    for h in (0.1, 0.5, 1.0, 2.0):
        expect = math.sqrt(math.sinh(2 * h) / (2 * math.pi * h))
        for x in rng.uniform(-20, 20, 10):
            assert abs(nabla(pw1, x + 1j * h) - expect) < 1e-12 * expect


def test_pw_nabla_on_axis(pw1):
    assert abs(nabla(pw1, 3.0) - 1.0 / SQRT_PI) < 1e-10


def test_zpi_nabla_constant(zpi, rng):
    zs = np.concatenate([rng.uniform(-5, 5, 10) + 1j * rng.uniform(0.01, 4, 10),
                         rng.uniform(-5, 5, 5) + 0j])
    vals = nabla_values(zpi, zs)
    assert np.allclose(vals, 1.0 / SQRT_PI, rtol=1e-9)


def test_nabla_continuity_toward_axis(pw1):
    for x in (0.0, 1.7, -4.2):
        low = nabla(pw1, x + 1e-6j)
        on = nabla(pw1, complex(x))
        assert abs(low - on) / on < 1e-4


def test_nabla_rejects_lower_half_plane(pw1):
    with pytest.raises(ConfigError):
        nabla(pw1, -1j)


@pytest.mark.parametrize("z", [0.0, 3.0, -17.25, 0.5j, 2.0 + 1e-6j, -40.0 + 3.0j])
def test_nabla_is_a_one_point_nabla_values(pw1, z):
    a20 = DbSpace(a20_structure_function(), None, 1.0, 1.0, "a20")
    for sp in (pw1, a20):
        one = nabla(sp, z)
        assert np.float64(one).view(np.int64) == nabla_values(sp, [z]).view(np.int64)[0]


def test_nabla_keeps_its_negative_radicand_messages():
    anti = DbSpace(ExpCZ(1j), None, 1.0, 1.0, "anti")
    with pytest.raises(NegativeRadicand, match=r"\|E#\| exceeds \|E\| at z=1j"):
        nabla(anti, 1j)
    with pytest.raises(NegativeRadicand, match=r"kernel-norm radicand -0\.3\d* at z=\(2\+0j\)"):
        nabla(anti, 2.0)


# ---------------------------------------------------------------------------
# phase derivative
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [1.0, 2.0])
def test_pw_phase_derivative_is_type(a):
    sp = pw_space(a)
    for t in (0.0, 0.7, -3.3):
        assert abs(phase_derivative(sp, t, "kernel") - a) < 1e-10 * a


def test_pw_phase_zero_sum_reconciles_with_kernel():
    sp = DbSpace(ExpCZ(-2j), ZeroSequence("none", np.array([], dtype=complex)),
                 1.0, 2.0, "pw2")
    assert abs(phase_derivative(sp, 1.234, "zero-sum") - 2.0) < 1e-8


def test_zpi_phase_derivative(zpi):
    for t in (0.0, 2.0, -5.0):
        expect = 1.0 / (t * t + 1.0)
        assert abs(phase_derivative(zpi, t, "kernel") - expect) < 1e-10 * expect
        assert abs(phase_derivative(zpi, t, "zero-sum") - expect) < 1e-6 * expect


def test_phase_routes_agree_on_finite_truncation():
    sp = a45_truncated_space(200)
    for t in (0.0, 0.7, 1.5, 3.0):
        k = phase_derivative(sp, t, "kernel")
        z = phase_derivative(sp, t, "zero-sum")
        assert abs(k - z) / k < 1e-6


def test_phase_zero_sum_requires_zero_data(pw1):
    with pytest.raises(MissingZeroData):
        phase_derivative(pw1, 0.0, "zero-sum")


def test_phase_kernel_flags_underflowed_modulus():
    # between the densely packed zeros |E| drops below double range
    sp = a45_truncated_space(200)
    with pytest.raises(ZeroOnAxis):
        phase_derivative(sp, 5.0, "kernel")


# the tree's truncation bound plus the rounding of both sums (a few ulps a
# term, log2 n for the summation)
TREE_TOL = space_module.TRUNCATION_BOUND + 64 * np.finfo(float).eps


@st.composite
def zero_sets(draw):
    """A zero set, real points (on the zeros' real parts, between them and
    outside their range, none at a real zero) and its real zeros."""
    kind = draw(st.sampled_from(["empty", "one", "under-leaf", "many", "a45"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "a45":
        zeros = a45_zero_sequence(draw(st.integers(2, 1500))).zeros
        zeros = np.where(rng.random(zeros.size) < 0.5, zeros, np.conj(zeros))
    else:
        n = {"empty": 0, "one": 1, "under-leaf": draw(st.integers(2, 63)),
             "many": draw(st.integers(65, 3000))}[kind]
        x = rng.uniform(-10.0, 10.0, n)
        if draw(st.booleans()):
            x = np.round(x, 1)          # shared real parts
        y = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(math.log(1e-9), math.log(10.0), n))
        y[(rng.random(n) < 0.1) & (x != 0)] = 0.0       # real zeros, none at 0
        zeros = x + 1j * y
    xs = np.sort(zeros.real)
    edge = [xs[0] - 0.5, xs[-1] + 0.5] if xs.size else [0.0]
    t = np.concatenate([zeros.real[:8], (xs[:-1] + xs[1:])[:8] / 2, edge, [-1e3, 1e3]])
    real = zeros.real[zeros.imag == 0]
    return zeros, t[~np.isin(t, real)], real


@settings(max_examples=40, deadline=None)
@given(zero_sets())
def test_zero_sum_phase_tree_matches_the_direct_sum(case):
    zeros, t, real = case
    seq = ZeroSequence("z", zeros)
    cold = zero_sum_phase(seq, t)
    assert np.array_equal(cold, zero_sum_phase(seq, t))        # the tree is cached
    assert np.array_equal(cold, zero_sum_phase(ZeroSequence("z#", np.conj(zeros)), t))
    ref = np.array([np.sum(np.abs(zeros.imag) / np.abs(x - zeros) ** 2) for x in t])
    assert np.all(np.abs(cold - ref) <= TREE_TOL * ref)
    one = zero_sum_phase(seq, t[0])
    assert type(one) is float and one == cold[0]
    if real.size:
        with pytest.raises(ZeroOnAxis):
            zero_sum_phase(seq, real[0])


@pytest.mark.parametrize("y", [0.5, -0.5, 3e-7])
def test_zero_sum_phase_at_and_inside_the_far_ratio(y):
    # one zero is a leaf with centre Re z and radius |Im z|: at |t - Re z| =
    # 4|Im z| it is summed through its moments, nearer term by term
    k = np.array([1.0, 2.0, 3.9, 4.0, 4.1, 8.0])
    t = 3.0 + np.concatenate([k, -k]) * abs(y)
    got = zero_sum_phase(ZeroSequence("one", [3.0 + 1j * y]), t)
    exact = 1.0 / (abs(y) * (((t - 3.0) / y) ** 2 + 1.0))      # t - 3 is exact
    assert np.all(np.abs(got - exact) <= TREE_TOL * exact)
    assert space_module.TRUNCATION_BOUND <= 1e-15


def test_zero_sum_phase_tree_matches_mpmath():
    zeros = a45_zero_sequence(1001).zeros
    t = np.array([zeros[5].real, 0.5 * (zeros[5].real + zeros[6].real), 0.1, 7.5, -9.0])
    got = zero_sum_phase(ZeroSequence("a45", zeros), t)
    with mpmath.workdps(40):
        for g, x in zip(got, t):
            ref = mpmath.fsum(abs(mpmath.mpf(z.imag)) / ((x - mpmath.mpf(z.real)) ** 2
                                                          + mpmath.mpf(z.imag) ** 2)
                              for z in zeros)
            assert abs(g - ref) <= TREE_TOL * ref


# ---------------------------------------------------------------------------
# inner product and the space axioms
# ---------------------------------------------------------------------------

SINC = pw_kernel_expr(1.0, 0.0)


def test_pw_norm_of_sinc(pw1):
    ip = inner_product(pw1, SINC, SINC)
    assert abs(ip.value - 1.0 / math.pi) < 1e-6 / math.pi
    assert abs(ip.value - 1.0 / math.pi) < 10 * ip.abs_error + 1e-12


def test_pw_orthogonality_of_integer_shifts(pw1):
    k_pi = pw_kernel_expr(1.0, math.pi)
    ip = inner_product(pw1, SINC, k_pi)
    assert abs(ip.value) < 1e-8


def test_norm_integral_evaluates_f_once_per_batch(pw1, monkeypatch):
    batches = []

    def counting_quadrature(fn, **kw):
        def counted(t):
            batches.append(np.size(t))
            return fn(t)
        return integrate_real_line(counted, **kw)

    monkeypatch.setattr(space_module, "integrate_real_line", counting_quadrature)
    f = pw_kernel_expr(1.0, 0.3)
    f_values, calls = f.values, []
    f.values = lambda z: calls.append(np.size(z)) or f_values(z)
    ip = inner_product(pw1, f, f)
    assert calls == batches and batches
    # a structurally equal but distinct tree gives the same bits
    g = expr_from_json(f.to_json())
    other = inner_product(pw1, f, g)
    assert (other.value, other.abs_error) == (ip.value, ip.abs_error)


def test_zero_function_has_zero_norm(pw1):
    ip = inner_product(pw1, Const(0.0), Const(0.0))
    assert ip.value == 0.0


def test_reproducing_property(pw1, zpi, rng):
    w = rng.uniform(-2, 2, 20) + 1j * rng.uniform(-1, 1.5, 20)
    for sp, kfun in ((pw1, lambda w0: _pw_kernel_at(w0)),
                     (zpi, lambda w0: Const(1.0 / math.pi))):
        for i in range(0, 20, 2):
            w0, w1 = w[i], w[i + 1]
            f = kfun(w0)
            kw1 = kfun(w1)
            got = inner_product(sp, f, kw1).value
            expect = f.at(w1)
            scale = math.sqrt(kernel_diagonal(sp, w0).real
                              * kernel_diagonal(sp, w1).real)
            assert abs(got - expect) <= 1e-6 * (abs(expect) + scale)


def _pw_kernel_at(w0: complex):
    """K(w0, .) for PW_1 as an entire expression."""
    return Product([Const(1.0 / math.pi), Affine(Sinc(), 1.0, -np.conj(w0))])


def test_sharp_is_isometric(pw1):
    f = _pw_kernel_at(0.4 + 0.9j)
    n1 = norm_squared(pw1, f)
    n2 = norm_squared(pw1, f.sharp())
    assert abs(n1 - n2) < 1e-7 * n1


def test_blaschke_division_is_isometric(pw1):
    # a member vanishing at z0, divided by its Blaschke factor, keeps its norm
    z0 = 0.8j
    k0, k1 = _pw_kernel_at(0.0), _pw_kernel_at(1.0)
    c0, c1 = k1.at(z0), -k0.at(z0)
    f = Const(c0) * k0 + Const(c1) * k1
    assert abs(f.at(z0)) < 1e-14
    g = Product([Quotient(Poly([np.conj(z0), 1.0]), Poly([-z0, 1.0])), f])
    nf, ng = norm_squared(pw1, f), norm_squared(pw1, g)
    assert abs(nf - ng) < 1e-6 * nf
    assert membership(pw1, g).verdict == "in"


def test_schwarz_bound_on_members(pw1, rng):
    zs = rng.uniform(-20, 20, 200) + 1j * np.abs(rng.uniform(-3, 3, 200))
    for f in (SINC, _pw_kernel_at(1.3)):
        nrm = math.sqrt(norm_squared(pw1, f))
        fv = np.abs(f.values(zs))
        nv = nabla_values(pw1, zs)
        assert np.all(fv <= (1 + 1e-6) * nrm * nv)


def test_kernel_norm_upper_sandwich(pw1, zpi, rng):
    # nabla(z)/|E(z)| <= (2 sqrt(pi Im z))^{-1} in the open upper half-plane
    zs = rng.uniform(-20, 20, 200) + 1j * rng.uniform(0.01, 5.0, 200)
    for sp in (pw1, zpi):
        nv = nabla_values(sp, zs)
        ev = np.abs(sp.e.values(zs))
        bound = 1.0 / (2.0 * np.sqrt(math.pi * zs.imag))
        assert np.all(nv / ev <= (1 + 1e-9) * bound)


# ---------------------------------------------------------------------------
# mean type
# ---------------------------------------------------------------------------

def test_mean_type_exponential_exact():
    for a in (0.5, 1.0, 3.0):
        est = mean_type(ExpCZ(1j * a), math.pi / 2)
        assert abs(est.value - (-a)) < 1e-6
        assert est.residual < 1e-9


def test_mean_type_ray_normalization():
    # the 1/sin(theta) normalization makes every ray report the same type
    est = mean_type(ExpCZ(2j), math.pi / 3)
    assert abs(est.value - (-2.0)) < 1e-6


def test_mean_type_cos_times_exp_is_zero():
    f = Product([Cos(), ExpCZ(1j)])
    est = mean_type(f, math.pi / 2)
    assert abs(est.value) < 1e-3


def test_mean_type_of_order_half_function_decays_with_radius():
    # an order-1/2 product has zero exponential type; the slope estimate
    # shrinks like 1/sqrt(rmax) (about 0.02 at rmax = 1e4)
    from dblab.examples import a38_gtilde_sequence
    from dblab.expressions import CanonicalProduct
    gt = CanonicalProduct(a38_gtilde_sequence(100_000))
    s_mid = mean_type(gt, math.pi / 2, np.geomspace(1.0, 1e3, 48)).value
    s_top = mean_type(gt, math.pi / 2, np.geomspace(1.0, 1e4, 48)).value
    assert 0 < s_top < 0.03
    assert s_top < s_mid


def test_mean_type_discards_dead_samples():
    from dblab.errors import AllPointsDiscarded
    with pytest.raises(AllPointsDiscarded):
        mean_type(Const(0.0), math.pi / 2)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_membership_sinc_in_pw1(pw1):
    res = membership(pw1, SINC)
    assert res.verdict == "in"
    assert abs(res.diagnostics["norm_squared"] - 1.0 / math.pi) < 1e-3


def test_membership_cos_out_of_pw1(pw1):
    res = membership(pw1, Cos())
    assert res.verdict == "out"
    assert "quadrature" in res.diagnostics


def test_membership_doubled_type_out_of_pw1(pw1):
    f = Product([Const(1.0 / math.pi), Affine(Sinc(), 2.0)])
    res = membership(pw1, f)
    assert res.verdict == "out"
    assert res.diagnostics["mt_f_over_e"]["slope"] > 0.5


def test_membership_pw2_kernel_in_pw2():
    sp = pw_space(2.0)
    f = Product([Const(1.0 / math.pi), Affine(Sinc(), 2.0)])
    assert membership(sp, f).verdict == "in"


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_space_json_keeps_the_inline_zero_limit(zpi):
    big = DbSpace(Poly([1j, 1.0]), ZeroSequence("big", -1j * np.arange(1.0, 10_002.0)),
                  0.0, 0.0, "big")
    with pytest.raises(ConfigError, match="too large"):
        big.to_json()
    back = DbSpace.from_json(zpi.to_json())
    assert np.array_equal(back.zeros.zeros, zpi.zeros.zeros)
