import math
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dblab.sampling as sampling_module
import dblab.space as space_module
from dblab import domains as dom
from dblab.defaults import DEFAULTS
from dblab.errors import (ConfigError, NegativeRadicand, NonConvergentTail, Overflow,
                          SamplingDisagreement, ZeroOnAxis)
from dblab.examples import (a20_structure_function, a45_truncated_space,
                            a45_zero_sequence, build_a20, build_a38, build_pw,
                            pw_kernel_closed, pw_kernel_expr, pw_space)
from dblab.expressions import (Affine, CanonicalProduct, Const, Cos, ExpCZ,
                               FunctionExpr, Poly, Power, Product, Quotient, Sharp,
                               Sin, Sinc, Sum, Z, ZeroSequence, expr_from_json)
from dblab.majorization import nabla_majorant
from dblab.quadrature import integrate_real_line
from dblab.space import (DbSpace, hb_check, inner_product,
                         kernel, kernel_diagonal, kernel_diagonal_values,
                         mean_type, membership,
                         nabla, nabla_values, norm_squared, phase_derivative,
                         phase_route, zero_sum_phase)

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Hermite-Biehler check
# ---------------------------------------------------------------------------

def test_hb_exponential(pw1):
    ok, margin = hb_check(pw1)
    assert ok and margin > 0


def test_hb_z_plus_i(zpi):
    # |z - i| < |z + i| in the upper half-plane
    ok, margin = hb_check(zpi)
    assert ok and margin > 0


def test_hb_reversed_exponential_fails():
    bad = DbSpace(ExpCZ(1j), None, 1.0, 1.0, "anti")
    ok, margin = hb_check(bad)
    assert not ok and margin < 0


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


@pytest.mark.parametrize("shape", [(2, 3), (0,)])
def test_kernel_diagonal_values_keeps_the_shape_of_its_points(pw1, shape, rng):
    z = rng.uniform(-5, 5, shape) + 1j * rng.uniform(0.0, 2.0, shape)
    got = kernel_diagonal_values(pw1, z)
    flat = kernel_diagonal_values(pw1, z.ravel())
    assert got.shape == shape and flat.shape == (z.size,)
    assert np.array_equal(got.view(np.uint64), flat.reshape(shape).view(np.uint64))


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


def _with_a_series_node():
    """a20's E times a canonical product over two lower half-plane zeros:
    a series node, so the diagonal kernel takes Cauchy rings."""
    pair = CanonicalProduct(ZeroSequence("lower", np.array([2.0 - 1.0j, -1.0 - 3.0j])))
    return DbSpace(Product([a20_structure_function(), pair]), None, 1.0, 1.0, "a20*pair")


@pytest.mark.parametrize("n", [129, 300])
def test_kernel_diagonal_of_a_series_e_has_the_bits_of_each_centre_alone(rng, n):
    # each centre's Cauchy ring is summed on its own; a BLAS matrix-vector
    # ring sum rounded a batch otherwise than one centre alone
    sp = _with_a_series_node()
    x = rng.uniform(-200.0, 200.0, n) + 0j
    got = kernel_diagonal_values(sp, x)
    alone = np.array([kernel_diagonal_values(sp, t)[0] for t in x])
    assert np.array_equal(got.view(np.uint64), alone.view(np.uint64))
    for t, u in zip(x[:8], x[1:9]):
        assert nabla(sp, t) == nabla_values(sp, [t, u])[0]


def _working_memory(fn):
    tracemalloc.start()
    try:
        v = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return v, peak


def test_axis_nabla_working_memory_is_one_block_of_jets():
    # jets of a whole 20,000-point batch at once took their temporaries
    # for every point; block by block they stay within one expression block
    x = np.linspace(-200.0, 200.0, 20_000) + 0j
    v, peak = _working_memory(lambda: nabla_values(pw_space(2.0), x))
    assert peak < 16 * 2 ** 20
    assert np.allclose(v, math.sqrt(2.0 / math.pi), rtol=1e-9)


def test_axis_nabla_of_a_series_e_working_memory_is_one_block_of_rings():
    # the 256,000 ring points of 4,000 centres take 4 MiB a complex array;
    # 128 centres at a time they stay within one expression block
    sp = _with_a_series_node()
    x = np.linspace(-200.0, 200.0, 4_000) + 0j
    v, peak = _working_memory(lambda: nabla_values(sp, x))
    assert peak < 8 * 2 ** 20
    # the same E with its two zeros as a polynomial: closed form, so jets
    pair = Poly([1.0, -1.0 / (2.0 - 1.0j)]).coeffs
    poly = Poly(np.convolve(pair, [1.0, -1.0 / (-1.0 - 3.0j)]))
    jets = DbSpace(Product([a20_structure_function(), poly]), None, 1.0, 1.0, "a20*poly")
    assert np.allclose(v, nabla_values(jets, x), rtol=1e-8, atol=0.0)


def _series_terms(f) -> int:
    seq = getattr(f, "seq", None)
    return (len(seq) if seq is not None else 0) + sum(_series_terms(c) for c in f._parts())


def test_e0_diagonal_evaluates_two_rings_and_two_centres_of_series_terms(monkeypatch):
    # the benchmark's hand check of the E0 diagonal, 130 evaluations of
    # the Gtilde terms a point, at n = 1000: E and E# on a ring of
    # derivative_nodes points plus the centre, E# as the space's e_sharp
    sp = build_a38(1000).spaces["H"]
    seen = []
    real = FunctionExpr.eval_array

    def spy(self, z, *args, **kwargs):
        seen.append((self, np.size(z) * _series_terms(self)))
        return real(self, z, *args, **kwargs)

    monkeypatch.setattr(FunctionExpr, "eval_array", spy)
    kernel_diagonal_values(sp, np.array([3.5, 40.0]) + 0j)
    per_centre = 2 * (DEFAULTS["derivative_nodes"] + 1) * 1000
    assert sum(count for _, count in seen) == 2 * per_centre
    assert {type(f).__name__ for f, _ in seen} == {"Product", "Sharp"}
    assert all(f is sp.e or f.child is sp.e for f, _ in seen)


def test_axis_nabla_values_that_are_not_finite_are_an_overflow():
    # (cos z / sin z) sin z e^{-iz}: the jets of cot z overflow at 1e-160
    # and carried NaN into the kernel norm of the batch without an error
    sp = DbSpace(Product([Quotient(Cos(), Sin()), Sin(), ExpCZ(-1j)]), None, 1.0, 1.0, "cot")
    with pytest.raises(Overflow, match=r"kernel norm at z=\(1e-160\+0j\)"):
        nabla_values(sp, [1e-160, 1.0])
    with pytest.raises(Overflow, match=r"kernel norm at z=\(1e-160\+0j\)"):
        nabla(sp, 1e-160)


def test_axis_nabla_of_a_closed_form_space_takes_no_ring(zpi, monkeypatch):
    # jets give E' on the axis: no expression sees a 2-D ring of points
    shapes = []
    real = FunctionExpr.eval_array

    def spy(self, z, *args, **kwargs):
        shapes.append(np.shape(z))
        return real(self, z, *args, **kwargs)

    monkeypatch.setattr(FunctionExpr, "eval_array", spy)
    x = np.linspace(-50.0, 50.0, 301) + 0j
    a20 = DbSpace(a20_structure_function(), None, 1.0, 1.0, "a20")
    for sp in (pw_space(2.0), a20, zpi):
        nabla_values(sp, x)
        nabla(sp, 1.5)
    assert all(len(shape) < 2 for shape in shapes), shapes
    # a series node keeps the rings
    nabla_values(_with_a_series_node(), x[:3])
    assert shapes[-4:] == [(3, DEFAULTS["derivative_nodes"])] * 2 + [(3,)] * 2


@pytest.mark.parametrize("a", [4.0, 10.0])
def test_pw_nabla_far_out_on_the_axis(a):
    # a Cauchy ring of radius 1e-3 (1 + |x|) about x = 1e4 aliases
    # exp(-iaz): it gave 7.3e5 for a = 4 and 2.6e19 for a = 10
    expect = math.sqrt(a / math.pi)
    for x in (1e4, -1e4, 3.7e3):
        assert abs(nabla(pw_space(a), x) - expect) <= 1e-13 * expect
    assert abs(phase_derivative(pw_space(a), 1e4) - a) <= 1e-13 * a


def test_a20_kernel_diagonal_matches_mpmath_to_1e4():
    # E = A - iB with A = cos z, B = z cos z + sin z, and
    # K(x, x) = (E E#' - E' E#)(x) / (2 pi i), E# = A + iB, in mpmath
    sp = DbSpace(a20_structure_function(), None, 1.0, 1.0, "a20")
    x = np.concatenate([np.linspace(-1e4, 1e4, 401), np.geomspace(1e-3, 1e3, 61), [0.0]])
    got = kernel_diagonal_values(sp, x + 0j)
    with mpmath.workdps(40):
        def e(z):
            return mpmath.cos(z) - 1j * (z * mpmath.cos(z) + mpmath.sin(z))

        def e_sharp(z):
            return mpmath.cos(z) + 1j * (z * mpmath.cos(z) + mpmath.sin(z))

        ref = np.array([complex((e(t) * mpmath.diff(e_sharp, t) - mpmath.diff(e, t) * e_sharp(t))
                                / (2j * mpmath.pi)) for t in map(mpmath.mpf, x)])
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


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
        assert abs(phase_derivative(sp, t) - a) < 1e-10 * a


def test_pw_phase_zero_sum_reconciles_with_kernel():
    sp = DbSpace(ExpCZ(-2j), ZeroSequence("none", np.array([], dtype=complex)),
                 1.0, 2.0, "pw2")
    assert phase_route(sp) == ("zero-sum", 2.0)
    assert abs(phase_derivative(sp, 1.234) - 2.0) < 1e-8
    assert phase_derivative(sp, 1.234) == 2.0


def test_zpi_phase_derivative(zpi):
    kernel_only = DbSpace(zpi.e, None, 0.0, 0.0, "zpi without zeros")
    for t in (0.0, 2.0, -5.0):
        expect = 1.0 / (t * t + 1.0)
        assert abs(phase_derivative(kernel_only, t) - expect) < 1e-10 * expect
        assert abs(phase_derivative(zpi, t) - expect) < 1e-6 * expect
        assert abs(phase_derivative(zpi, t) - expect) <= 4 * np.spacing(expect)


def test_phase_routes_agree_on_finite_truncation():
    sp = a45_truncated_space(200)
    kernel_only = DbSpace(sp.e, None, 0.0, 0.0, "a45-trunc-200 without zeros")
    for t in (0.0, 0.7, 1.5, 3.0):
        k = phase_derivative(kernel_only, t)
        z = phase_derivative(sp, t)
        assert abs(k - z) / k < 1e-12


def test_phase_kernel_flags_underflowed_modulus():
    # between the densely packed zeros |E| drops below double range
    sp = a45_truncated_space(200)
    with pytest.raises(ZeroOnAxis):
        phase_derivative(DbSpace(sp.e, None, 0.0, 0.0, "a45-trunc-200 without zeros"), 5.0)


def test_phase_derivative_takes_its_route_from_the_space(zpi, pw1):
    # the zero sum where the zeros are declared and E's tree shows its
    # exponential part, the kernel formula everywhere else
    seq = ZeroSequence("zi", np.array([-1j]))
    shown = [(zpi.e, 0.0), (ExpCZ(0.5 - 2j), 2.0), (Const(3.0), 0.0), (Z(), 0.0),
             (CanonicalProduct(seq), 0.0), (Power(ExpCZ(-1j), 3), 3.0),
             (Product([Poly([1j, 1.0]), Power(ExpCZ(-0.5j), 2), ExpCZ(-1j)]), 2.0)]
    for e, h in shown:
        assert phase_route(DbSpace(e, seq)) == ("zero-sum", h)
    hidden = [Sum([ExpCZ(-1j), Const(1.0)]), Quotient(Poly([1j, 1.0]), Const(2.0)),
              CanonicalProduct(ZeroSequence("g1", np.array([-1j]), 1)),
              CanonicalProduct(ZeroSequence("tail", np.array([-1j]), 0, None, 0.1j)),
              Product([ExpCZ(-1j), Sharp(ExpCZ(1j))]), Power(Cos(), 2)]
    for e in hidden:
        assert phase_route(DbSpace(e, seq)) == ("kernel", None)
    assert phase_route(pw1) == ("kernel", None)
    assert phase_route(a45_truncated_space(200))[0] == "zero-sum"


def test_phase_kernel_of_a_nan_modulus_is_an_overflow(erange):
    # e^{800t} e^{-800t} is inf * 0 = NaN on the axis; abs() of that NaN
    # raised OverflowError under a stale ERANGE
    sp = DbSpace(Product([ExpCZ(800.0), ExpCZ(-800.0)]), None, 0.0, 0.0, "nan-E")
    erange()
    with pytest.raises(Overflow, match="phase derivative at t=1.0"):
        phase_derivative(sp, 1.0)


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


def _full_size_leaves(zeros):
    """The leaves' padded rows, centres, radii and moments, over all zeros at once."""
    n = zeros.size
    rank = np.argsort(zeros.real, kind="stable")
    x, y = zeros.real[rank], np.abs(zeros.imag[rank])
    leaves = 1
    while n > space_module._LEAF * leaves:
        leaves *= 2
    bounds = np.arange(leaves + 1) * n // leaves
    lo, hi = bounds[:-1], bounds[1:]
    sizes = hi - lo
    inside = np.arange(sizes.max()) < sizes[:, None]
    xs, ys = np.full(inside.shape, np.inf), np.zeros(inside.shape)
    xs[inside], ys[inside] = x, y
    c = 0.5 * (x[lo] + x[hi - 1])
    w = np.zeros(inside.shape, dtype=complex)
    w.real[inside] = x - np.repeat(c, sizes)
    w.imag[:] = ys
    h = np.max(np.abs(w), axis=1)
    scale = np.where(h > 0, h, 1.0)
    w.real /= scale[:, None]
    w.imag /= scale[:, None]
    q = w.copy()
    moments = np.empty((space_module._ORDER - 1, c.size))
    for j in range(space_module._ORDER - 1):
        moments[j] = np.sum(q.imag, axis=1) * scale
        q *= w
    return xs, ys, c, h, moments


def test_phase_tree_built_by_chunks_has_the_bits_of_a_full_size_build(monkeypatch):
    # the benchmark's a45 set: 2e5 zeros in 4,096 leaves, four chunks of leaves
    zeros = a45_zero_sequence(100_000).zeros
    tree = space_module._PhaseTree(zeros)
    got = (tree.x, tree.y) + tuple(tree.levels[-1])
    for a, b in zip(got, _full_size_leaves(zeros)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    t = np.linspace(math.log(2.0), math.log(100_001.0), 5000)
    monkeypatch.setattr(space_module, "_CHUNK", 4 * space_module._LEAF)
    small = space_module._PhaseTree(zeros)
    assert small.phase(t).tobytes() == tree.phase(t).tobytes()


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


def test_norm_integral_evaluates_f_once_per_batch(pw1_untyped, monkeypatch):
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
    ip = inner_product(pw1_untyped, f, f)
    assert calls == batches and batches
    # a structurally equal but distinct tree gives the same bits
    g = expr_from_json(f.to_json())
    other = inner_product(pw1_untyped, f, g)
    assert (other.value, other.abs_error) == (ip.value, ip.abs_error)


# -- orthogonal sampling ----------------------------------------------------

_PW = build_pw(1.0)
PW_NORMS = {label: (f, ref) for (label, f, _), ref
            in zip(_PW.members, _PW.extras["member_norms2"])}


@settings(max_examples=30, deadline=None)
@given(st.floats(0.25, 4.0),
       st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                min_size=1, max_size=3),
       st.booleans())
def test_sampled_pw_norms_are_within_their_band_of_the_closed_form(a, terms, real):
    sp = pw_space(a)
    coeffs = [complex(c, 0.0 if real else d) for _, c, d in terms]
    xs = [x for x, _, _ in terms]
    f = Sum([Product([Const(c), pw_kernel_expr(a, x)]) for c, x in zip(coeffs, xs)])
    closed = sum(ci * np.conj(cj) * pw_kernel_closed(a, xj, xi)
                 for ci, xi in zip(coeffs, xs) for cj, xj in zip(coeffs, xs))
    ip = inner_product(sp, f, f)
    assert abs(ip.value - closed) <= ip.abs_error
    g = pw_kernel_expr(a, xs[0])
    cross = inner_product(sp, f, g)     # (F, K(x0, .)) = F(x0)
    assert abs(cross.value - f.at(xs[0])) <= cross.abs_error


@pytest.mark.parametrize("label", list(PW_NORMS))
def test_sampled_pw_member_norms_have_a_positive_band(pw1, label):
    f, ref = PW_NORMS[label]
    ip = inner_product(pw1, f, f)
    # anchors at sampling points make one angle exact: the other gives the band
    assert abs(ip.value - ref) <= ip.abs_error <= 1e-7 * ref and ip.abs_error > 0


@pytest.mark.parametrize("label", ["k[0]", "k[3.14159]", "k[1.3]", "k[0]-k[1.3]"])
def test_sampling_and_quadrature_agree_within_their_bands(pw1, pw1_untyped, label):
    f = PW_NORMS[label][0]
    sampled = inner_product(pw1, f, f)
    quad = inner_product(pw1_untyped, f, f)
    assert abs(sampled.value - quad.value) <= sampled.abs_error + quad.abs_error


def test_a20_norms_are_within_their_band():
    a20 = build_a20().spaces["H"]
    cos = inner_product(a20, Cos(), Cos())
    assert abs(cos.value - math.pi) <= cos.abs_error < 1e-6
    assert abs(norm_squared(a20, Cos()) - math.pi) <= cos.abs_error
    # PW_1 sits isometrically in the a20 space, so ||sin z/(pi z)||^2 = 1/pi;
    # mpmath confirms it from the integral of |F/E|^2 between the zeros of
    # B = z cos z + sin z (100 of them, Richardson in 1/N over 25, 50, 100)
    mp = mpmath.mp.clone()
    mp.dps = 15
    edges = [mp.mpf(0)] + [mp.findroot(lambda t: t * mp.cos(t) + mp.sin(t),
                                       (n + 0.5) * mp.pi - 1 / ((n + 0.5) * mp.pi))
                           for n in range(100)]
    pieces = [mp.quad(lambda t: (mp.sin(t) / (mp.pi * t)) ** 2
                      / (mp.cos(t) ** 2 + (t * mp.cos(t) + mp.sin(t)) ** 2), [a, b])
              for a, b in zip(edges, edges[1:])]
    s25, s50, s100 = (2 * mp.fsum(pieces[:n]) for n in (25, 50, 100))
    ref = (4 * (2 * s100 - s50) - (2 * s50 - s25)) / 3
    assert abs(ref - 1 / mp.pi) < 1e-7
    sinc = inner_product(a20, SINC, SINC)
    assert abs(sinc.value - 1.0 / math.pi) <= sinc.abs_error


def test_a20_exceptional_angle_misses_cos():
    # S_{pi/2} = A = cos lies in the a20 space: its sum misses all of cos
    a20 = build_a20().spaces["H"]
    value, spread, _ = sampling_module._sampled(a20, Cos(), Cos(), math.pi / 2, 1e-7)
    assert abs(value) < 1e-20 and spread < 1e-20
    assert abs(inner_product(a20, Cos(), Cos()).value - math.pi) < 1e-6


def test_sampled_non_members_raise(pw1):
    with pytest.raises(NonConvergentTail):
        inner_product(pw1, Cos(), Cos())
    with pytest.raises(Overflow):
        inner_product(pw1, expr_from_json({"kind": "exp", "coeff": [800, 0]}),
                      Const(1.0))
    # type 2 in PW_1: each angle sums a different function of type 1
    with pytest.raises(SamplingDisagreement):
        inner_product(pw1, Product([Const(1 / math.pi), Affine(Sinc(), 2.0)]),
                      Product([Const(1 / math.pi), Affine(Sinc(), 2.0)]))


def test_a_polynomial_phase_runs_out():
    typed = DbSpace(Poly([1j, 1.0]), None, 0.0, 1.0, "z+i typed 1")
    with pytest.raises(ConfigError, match="runs out"):
        inner_product(typed, Const(1.0), Const(1.0))
    with pytest.raises(ConfigError, match="runs out"):
        membership(typed, Const(1.0))
    # without a declared type the norm is integrated: ||1||^2 = pi
    ip = inner_product(DbSpace(Poly([1j, 1.0]), None, 0.0, 0.0, "z+i"), Const(1.0), Const(1.0))
    assert abs(ip.value - math.pi) <= ip.abs_error


@pytest.mark.parametrize("alpha", [0.0, 0.7, math.pi / 2])
@pytest.mark.parametrize("which", ["pw2.5", "a20"])
def test_sampling_points_are_one_per_pi_of_phase(alpha, which):
    sp = pw_space(2.5) if which == "pw2.5" else build_a20().spaces["H"]
    t, w = sampling_module.sampling_points(sp, alpha, 300)
    other, _ = sampling_module.sampling_points(sp, alpha + math.pi / 2, 300)
    assert t.size == 300 and np.all(np.diff(np.abs(t)) >= 0)
    ts, os = np.sort(t), np.sort(other)
    assert np.all(np.diff(ts) > 0)
    # Im(e^{i alpha} E) vanishes at each point to within 32 ulps of t,
    # and the points of alpha + pi/2 fall one between each neighbouring
    # pair: the phase of E moves by pi from one point to the next
    rot = complex(math.cos(alpha), math.sin(alpha))
    e, de = sp.e.jets(ts + 0j)
    assert np.all(np.abs((rot * e).imag) <= 7e-15 * (1 + np.abs(ts)) * np.abs((rot * de).imag))
    inner = os[(os > ts[0]) & (os < ts[-1])]
    assert np.array_equal(np.searchsorted(ts, inner), np.arange(1, ts.size))
    if alpha == 0.0:     # 0 is a root of Im E, once
        assert t[0] == 0.0 and np.count_nonzero(ts == 0.0) == 1
    assert np.array_equal(w, 1.0 / kernel_diagonal_values(sp, t).real)


def test_sampling_is_cached_with_the_bits_of_a_fresh_call():
    sp = pw_space(1.7)
    f = pw_kernel_expr(1.7, 0.4) - pw_kernel_expr(1.7, -2.2)
    cold = inner_product(sp, f, f)
    assert any(k[0] == "sampling" for k in sp._cache)
    warm = inner_product(sp, f, f)
    fresh = inner_product(pw_space(1.7), f, f)
    bits = [(r.value.real.hex(), r.value.imag.hex(), float(r.abs_error).hex())
            for r in (cold, warm, fresh)]
    assert bits[0] == bits[1] == bits[2]
    t, w = sampling_module.sampling_points(sp, 0.0, 64)
    big_t, big_w = sampling_module.sampling_points(sp, 0.0, 256)
    assert np.array_equal(big_t[:64], t) and np.array_equal(big_w[:64], w)


def test_sampling_evaluates_f_once_per_block(pw1, monkeypatch):
    asked = []
    points = sampling_module.sampling_points

    def spy(space, alpha, n):
        asked.append((alpha, n))
        return points(space, alpha, n)

    monkeypatch.setattr(sampling_module, "sampling_points", spy)
    f = pw_kernel_expr(1.0, 0.3)
    f_values, calls = f.values, []
    f.values = lambda z: calls.append(np.size(z)) or f_values(z)
    ip = inner_product(pw1, f, f)
    # each request of n points evaluates F on the points it adds, once
    prev = {}
    expected = []
    for alpha, n in asked:
        expected.append(n - prev.get(alpha, 0))
        prev[alpha] = n
    assert calls == expected and len(set(a for a, _ in asked)) >= 2
    # a structurally equal but distinct tree gives the same bits
    other = inner_product(pw1, f, expr_from_json(f.to_json()))
    assert (other.value, other.abs_error) == (ip.value, ip.abs_error)


def test_import_leaves_the_sampling_module_to_its_first_use():
    code = ("import sys, dblab, dblab.cli; from dblab.examples import pw_space, pw_kernel_expr; "
            "print('dblab.sampling' in sys.modules); k = pw_kernel_expr(1.0, 0.0); "
            "dblab.inner_product(pw_space(1.0), k, k); print('dblab.sampling' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]


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
    assert "norm_failure" in res.diagnostics


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
