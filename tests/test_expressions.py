import cmath
import dataclasses
import functools
import json
import math
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from dblab.errors import (ConfigError, Overflow, PoleHit, RadiusTooLarge,
                          TruncationBudgetExceeded)
from dblab.examples import (a38_g_sequence, a38_gtilde_sequence, a38_g_closed,
                            a41_pole_sequence)
from dblab.defaults import DEFAULTS
from dblab.expressions import (_CHUNK, _POINTS, EPS, Affine, CanonicalProduct, Const,
                               Cos, ExpCZ, FunctionExpr, PartialFractions, Poly,
                               PoleSequence, Power, Product, Quotient, Sharp,
                               Sin, Sinc, Sum, Z, ZeroSequence, _SeriesNode,
                               _Shells, csinc, derivative, evaluate,
                               expr_from_json, expr_to_json, ring_derivatives,
                               sharp)
from dblab.model import InnerFunction, cayley_q_from_theta, theta_from_q


def test_eval_exp_closed_form():
    r = evaluate(ExpCZ(-1j), 1j)
    assert abs(r.value - math.e) < 1e-12
    assert r.abs_error >= 0


def test_canonical_product_at_zero_is_one():
    g = CanonicalProduct(a38_g_sequence(1000))
    r = evaluate(g, 0.0)
    assert r.value == 1.0 + 0.0j


def test_g_matches_closed_form_at_4():
    # closed-form oracle, full shipped truncation
    g = CanonicalProduct(a38_g_sequence(1_000_000))
    r = evaluate(g, 4.0)
    oracle = complex(a38_g_closed(4.0))
    assert abs(r.value - oracle) / abs(oracle) <= 1e-8


def test_sharp_examples():
    assert abs(ExpCZ(-1j).sharp().at(1j) - math.exp(-1)) < 1e-14
    z = 0.3 + 0.2j
    assert Cos().sharp().at(z) == Cos().at(z)
    p = Poly([-(1 + 1j), 1.0]).sharp()
    assert p.at(z) == Poly([-(1 - 1j), 1.0]).at(z)


def test_sharp_matches_the_node_with_conjugated_parameters(rng):
    # F#(z) = conj(F(conj z)) is, bit for bit in value and abs_error, the
    # node rebuilt with conjugated parameters; the real axis is included
    x = rng.uniform(-50, 50, 2000)
    z = np.concatenate([x + 1j * rng.uniform(-50, 50, 2000), x + 0j])
    seq = a38_g_sequence(100_000)
    lower = ZeroSequence("a38_g#", np.conj(seq.zeros), seq.genus,
                         seq.tail_log_bound, np.conj(seq.tail_inv_sum))
    pairs = [(ExpCZ(0.3 - 1.7j), ExpCZ(0.3 + 1.7j)),
             (Poly([1j, 0.5 - 2j, -2.0]), Poly([-1j, 0.5 + 2j, -2.0])),
             (Affine(ExpCZ(0.4j), 2.0 - 0.5j, -1.3 + 0.2j),
              Affine(ExpCZ(-0.4j), 2.0 + 0.5j, -1.3 - 0.2j)),
             (CanonicalProduct(seq), CanonicalProduct(lower))]
    for f, rebuilt in pairs:
        v, e = f.sharp().eval_array(z)
        rv, rerr = rebuilt.eval_array(z)
        assert np.array_equal(v.view(np.uint64), rv.view(np.uint64)), f.kind
        assert np.array_equal(e.view(np.uint64), rerr.view(np.uint64)), f.kind
    # these nodes are their own conjugates up to the signs of zero parts
    for f in (Z(), Sin(), Cos(), Sinc(), PartialFractions(a41_pole_sequence(2.0, 1000))):
        v, e = f.sharp().eval_array(z)
        rv, rerr = f.eval_array(z)
        assert np.array_equal(v, rv) and np.array_equal(e, rerr), f.kind


def test_pole_hit_in_sharp_names_the_point_passed():
    f = Quotient(Const(1.0), Poly([-(1 + 1j), 1.0])).sharp()
    with pytest.raises(PoleHit, match=r"z=\(1-1j\) within"):
        f.at(1 - 1j)
    g = PartialFractions(PoleSequence("one", [2.0], [1.0])).sharp()
    with pytest.raises(PoleHit, match=r"z=\(2\+0j\) within"):
        g.at(2.0)


SHIPPED = [
    ExpCZ(-1j),
    Cos(),
    Sinc(),
    Poly([1j, 0.5, -2.0]),
    Sum([Cos(), Product([Const(-1j), Sum([Product([Z(), Cos()]), Sin()])])]),
    Quotient(Sin(), ExpCZ(0.3 - 0.1j)),
    Affine(Sinc(), 2.0, -1.3 + 0.2j),
    Power(Sum([Z(), Const(1j)]), 3),
]


def test_double_sharp_is_identity_on_500_points(rng):
    z = rng.uniform(-10, 10, 500) + 1j * rng.uniform(-10, 10, 500)
    for f in SHIPPED:
        v0 = f.values(z)
        v2 = f.sharp().sharp().values(z)
        assert np.all(np.abs(v2 - v0) <= 1e-12 * (1.0 + np.abs(v0)))


@st.composite
def exprs(draw, depth=2):
    c = st.complex_numbers(min_magnitude=0.0, max_magnitude=3.0,
                           allow_nan=False, allow_infinity=False)
    atoms = st.one_of(
        st.builds(Const, c),
        st.just(Z()),
        st.builds(ExpCZ, st.complex_numbers(min_magnitude=0.0, max_magnitude=0.5,
                                            allow_nan=False, allow_infinity=False)),
        st.just(Sin()), st.just(Cos()), st.just(Sinc()),
        st.builds(lambda a, b: Poly([a, b]), c, c),
    )
    if depth == 0:
        return draw(atoms)
    sub = exprs(depth=depth - 1)
    node = st.one_of(
        atoms,
        st.builds(lambda a, b: Sum([a, b]), sub, sub),
        st.builds(lambda a, b: Product([a, b]), sub, sub),
        st.builds(lambda a: Affine(a, 0.7, 0.3 - 0.1j), sub),
        st.builds(lambda a: Power(a, 2), sub),
        st.builds(lambda a: Quotient(a, ExpCZ(0.2j)), sub),
    )
    return draw(node)


@settings(max_examples=60, deadline=None)
@given(exprs(), st.complex_numbers(min_magnitude=0.0, max_magnitude=10.0,
                                   allow_nan=False, allow_infinity=False))
def test_double_sharp_property(f, z):
    v0, e0 = f.eval_array(z)
    v2, _ = f.sharp().sharp().eval_array(z)
    assert abs(v2 - v0) <= 1e-12 * (1.0 + abs(v0))
    assert e0 >= 0.0 and math.isfinite(e0)


def test_derivative_examples():
    assert abs(derivative(ExpCZ(-1j), 0.0, 1).value - (-1j)) < 1e-12
    assert abs(derivative(Poly([0, 0, 1]), 3.0, 2).value - 2.0) < 1e-10


def test_derivative_matches_central_difference_on_gtilde():
    gt = CanonicalProduct(a38_gtilde_sequence(100_000))
    d = derivative(gt, 1.0, 1).value
    h = 1e-4
    fd = (gt.at(1.0 + h) - gt.at(1.0 - h)) / (2 * h)
    assert abs(d - fd) / abs(fd) <= 1e-5


def test_derivative_order_validation():
    with pytest.raises(ConfigError):
        derivative(Cos(), 0.0, 3)


def test_derivative_of_a_nan_function_is_an_overflow(erange):
    # e^{800z} e^{-800z} is inf * 0 = NaN on the whole ring about 1
    erange()
    with pytest.raises(Overflow):
        derivative(Product([ExpCZ(800.0), ExpCZ(-800.0)]), 1.0, 1)


def test_truncation_error_monotonicity():
    # truncation-dominated regime: the estimate halves as n doubles
    errs = []
    for n in (1000, 2000, 4000, 8000, 16000):
        _, e = CanonicalProduct(a38_gtilde_sequence(n)).eval_array(2.0 + 0.5j)
        errs.append(e)
    assert all(e2 <= e1 for e1, e2 in zip(errs, errs[1:]))


def test_tail_bound_nonincreasing_in_truncation():
    bounds = [a38_g_sequence(n).tail_bound_at(2.0) for n in (1000, 2000, 4000, 8000)]
    assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_genus0_inverse_modulus_sums_stabilize():
    sums = a38_g_sequence(100_000).genus0_partial_sums(8)
    diffs = np.diff(sums)
    assert np.all(diffs >= 0)
    assert diffs[-1] < 1e-4 * sums[-1]


def test_genus1_product_stabilizes_under_truncation():
    # zeros -i k have divergent inverse-modulus sum; the genus-1 factors fix it
    def seq(n):
        return ZeroSequence("lin", -1j * np.arange(1, n + 1, dtype=float), 1)

    v1 = CanonicalProduct(seq(4000)).at(1.0 + 0.5j)
    v2 = CanonicalProduct(seq(8000)).at(1.0 + 0.5j)
    assert abs(v1 - v2) < 1e-3 * abs(v2)


def test_truncation_budget():
    g = CanonicalProduct(a38_g_sequence(2000))
    with pytest.raises(TruncationBudgetExceeded):
        evaluate(g, 1.0, max_terms=1000)


def test_pole_exclusion_radius():
    f = Quotient(Const(1.0), Poly([0.0, 1.0]))
    with pytest.raises(PoleHit):
        evaluate(f, 1e-12)
    assert abs(evaluate(f, 1e-3).value - 1e3) < 1e-6


def test_derivative_circle_through_pole():
    # 1/(w - 1e-3) about 0: the circle of radius 1e-3 puts its node 0 on the pole
    f = Quotient(Const(1.0), Poly([-1e-3, 1.0]))
    with pytest.raises(RadiusTooLarge, match="exclusion radius"):
        derivative(f, 0.0, 1)


@pytest.mark.parametrize("order", [1, 2])
def test_derivative_circle_around_pole(order):
    # 1/z at 5e-4: the circle of radius about 1e-3 encloses the pole at 0
    # and no node comes near it; the ring gave -4.6e-11 +- 9.2e-4 for
    # -4e6 (order 1) and 1e-7 +- 3.7 for 1.6e10 (order 2) without an error
    with pytest.raises(RadiusTooLarge, match="encloses a pole"):
        derivative(Quotient(Const(1.0), Z()), 5e-4, order)


def test_derivative_circle_around_a_polynomial_root():
    # cos w / ((w - 2.001)(w + i)) about 2: the root 2.001 lies inside the
    # circle of radius 3e-3, 2e-3 from its nearest node
    f = Quotient(Cos(), Poly([-2.001j, 1j - 2.001, 1.0]))
    with pytest.raises(RadiusTooLarge, match="encloses a pole"):
        derivative(f, 2.0, 1)
    # outside the circle the ring mean is f(z) and the check stays quiet
    w = 2.0 + 0.02j
    slope = derivative(f, w, 1)
    h = 1e-5
    fd = (f.at(w + h) - f.at(w - h)) / (2 * h)
    assert abs(slope.value - fd) <= 1e-6 * abs(fd)


def test_ring_derivatives_of_a_centre_alone_have_its_bits_in_a_batch(rng):
    # each centre is summed on its own: 300 centres span three blocks of 128
    f = Product([CanonicalProduct(a38_gtilde_sequence(1000)), Sharp(Sinc())])
    z = rng.uniform(-50.0, 50.0, 300) + 1j * rng.uniform(-2.0, 2.0, 300)
    d, err = ring_derivatives(f, z, 2)
    assert d.shape == err.shape == (3, 300)
    for i in (0, 127, 128, 255, 299):
        d1, e1 = ring_derivatives(f, z[i], 2)
        assert _same_bits(d1[:, 0].copy(), d[:, i].copy())
        assert _same_bits(e1[:, 0].copy(), err[:, i].copy())
        r = derivative(f, z[i], 2)
        assert (r.value, r.abs_error) == (d1[2, 0], e1[2, 0])


def test_json_round_trip_preserves_values(rng):
    z = rng.uniform(-5, 5, 64) + 1j * rng.uniform(-5, 5, 64)
    for f in SHIPPED:
        g = expr_from_json(json.loads(json.dumps(expr_to_json(f))))
        assert np.allclose(g.values(z), f.values(z), rtol=1e-13, atol=1e-13)


def test_json_sharp_node_applies_conjugation():
    d = {"kind": "sharp", "child": {"kind": "exp", "coeff": [0.0, -1.0]}}
    f = expr_from_json(d)
    assert abs(f.at(1j) - math.exp(-1)) < 1e-14


def test_json_named_sequence_round_trip():
    g = CanonicalProduct(a38_g_sequence(1000))
    g2 = expr_from_json(expr_to_json(g))
    assert g2.at(2.5) == g.at(2.5)


def test_json_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        expr_from_json({"kind": "nope"})


@pytest.mark.parametrize("spec", [
    {"kind": "sum", "children": 5},
    {"kind": "poly", "coeffs": "12"},
    {"kind": "const", "value": ["1", 0]},
    {"kind": "power", "child": {"kind": "z"}, "exponent": "2"},
    {"kind": "canonical-product", "zeros": [1, 2]},
    {"kind": "canonical-product", "zeros": {"kind": "named", "name": "a38_g", "params": {"m": 3}}},
    {"kind": "partial-fractions", "poles": {"kind": "list", "poles": ["x"], "weights": [1]}},
])
def test_json_mistyped_fields_are_config_errors(spec):
    with pytest.raises(ConfigError):
        expr_from_json(spec)


def test_csinc_series_patch_is_continuous():
    for w in (9e-5, 1.1e-4, 1e-4 + 1e-4j):
        direct = np.sin(complex(w)) / complex(w)
        assert abs(complex(csinc(w)) - direct) < 1e-13


def test_csinc_matches_mpmath_on_both_sides_of_the_series_switch():
    # the series is used below |w| = 1e-4 and sin(w)/w above; an array with
    # no small point skips the series altogether
    small = [0.0, 1e-12, 3e-5j, 9.999e-5, 7e-5 * cmath.exp(2.2j), -9.9e-5 - 1e-6j]
    large = [1.0001e-4, -1.0001e-4j, 1.5e-4 * cmath.exp(0.7j), 2e-3 - 1e-3j, 0.9 + 0.3j, 30j]
    with mpmath.workdps(40):
        def ref(w):
            m = _mpc(w)
            return complex(mpmath.sin(m) / m) if w else 1.0
        for ws in (small + large, large, small):
            got = csinc(np.array(ws))
            for g, w in zip(got, ws):
                assert abs(g - ref(w)) <= 2 * EPS * abs(ref(w)), w
        for w in small + large:
            assert abs(complex(csinc(w)) - ref(w)) <= 2 * EPS * abs(ref(w)), w


# ---------------------------------------------------------------------------
# shell-moment evaluation of long products and series against mpmath
# ---------------------------------------------------------------------------

def _mpc(z):
    return mpmath.mpc(z.real, z.imag)


def _g_ref(z):
    return mpmath.sincpi(mpmath.sqrt(_mpc(z) + 1j)) / mpmath.sincpi(mpmath.sqrt(1j))


def _gtilde_ref(z):
    # prod (1 - z/(k^2 - ik)) = Gamma(1 - i) / (Gamma(1 - a) Gamma(1 - b)),
    # a, b = (i +- sqrt(4z - 1)) / 2 the roots of k^2 - ik - z
    w = mpmath.sqrt(4 * _mpc(z) - 1)
    return (mpmath.gamma(1 - 1j) * mpmath.rgamma(1 - (1j + w) / 2)
            * mpmath.rgamma(1 - (1j - w) / 2))


def _a41_ref(z):
    w = mpmath.sqrt(_mpc(z))
    return 1 - mpmath.pi * w * mpmath.cot(mpmath.pi * w) if z else mpmath.mpf(0)


def _product_ref(seq):
    def ref(z):
        p = mpmath.mpf(1)
        for zk in seq.zeros:
            q = _mpc(z) / _mpc(zk)
            p *= (1 - q) * (mpmath.exp(q) if seq.genus else 1)
        return p
    return ref


def _fractions_ref(seq):
    def ref(z):
        z = _mpc(z)
        return sum(mu * z / (mpmath.mpf(t) * (mpmath.mpf(t) - z))
                   for t, mu in zip(seq.poles, seq.weights))
    return ref


@functools.lru_cache(maxsize=None)
def _series_case(name):
    """(node, mpmath reference, largest |z| drawn, node moduli)."""
    rng = np.random.default_rng(20261018)
    if name.startswith("a38"):
        _, which, n = name.split("-")
        builder, ref = ((a38_g_sequence, _g_ref) if which == "G"
                        else (a38_gtilde_sequence, _gtilde_ref))
        seq = builder(int(float(n)))
        return CanonicalProduct(seq), ref, 3e4, np.abs(seq.zeros)
    if name == "genus1":
        seq = ZeroSequence("lin", -1j * np.arange(1, 41, dtype=float), 1)
        return CanonicalProduct(seq), _product_ref(seq), 400.0, np.abs(seq.zeros)
    if name == "mixed":      # unsorted, moduli from 1e-2 to 1e3
        zs = np.exp(rng.uniform(math.log(1e-2), math.log(1e3), 40)
                    + 1j * rng.uniform(0, 2 * math.pi, 40))
        seq = ZeroSequence("mixed", zs, 0)
        return CanonicalProduct(seq), _product_ref(seq), 3e3, np.abs(zs)
    if name == "a41":
        seq = a41_pole_sequence(2.0, 100_000)
        return PartialFractions(seq), _a41_ref, 1e4, seq.poles[:1000]
    poles = np.concatenate([np.exp(rng.uniform(-2, 6, 20)), -np.exp(rng.uniform(-2, 6, 10))])
    seq = PoleSequence("mixed", poles, rng.uniform(0.1, 3.0, poles.size))
    return PartialFractions(seq), _fractions_ref(seq), 3e3, np.abs(poles)


SERIES_CASES = ("a38-G-1e3", "a38-G-1e6", "a38-Gtilde-1e3", "a38-Gtilde-1e6",
                "genus1", "mixed", "a41", "poles")


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SERIES_CASES),
       st.sampled_from(("random", "zero", "boundary", "beyond", "pole")),
       st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi))
@example("a38-G-1e6", "zero", 0.0, 0.0)
@example("a38-Gtilde-1e3", "boundary", 0.7, 0.0)
@example("mixed", "beyond", 0.0, 1.0)
@example("genus1", "beyond", 0.0, 2.0)
@example("poles", "beyond", 0.0, 3.0)
@example("a41", "pole", 0.3, 0.0)
@example("mixed", "pole", 0.5, 0.0)
def test_series_nodes_bound_their_error_against_mpmath(case, kind, t, angle):
    f, ref, rmax, moduli = _series_case(case)
    series = isinstance(f, PartialFractions)
    if kind == "zero":
        z = 0j
    elif kind == "boundary":      # |z| exactly a power of two, the edge of a modulus shell
        z = 2.0 ** math.floor(-3 + t * (math.log2(rmax) + 3)) * 1j ** round(2 * angle / math.pi)
    elif kind == "beyond":        # |z| beyond every zero or pole: every shell is summed term by term
        if 3.0 * moduli.max() > rmax:
            return
        z = 3.0 * moduli.max() * cmath.exp(1j * angle)
    elif kind == "pole":          # a zero or pole, just off its exact position
        z = complex(f.seq.zeros[int(t * (len(moduli) - 1))] if not series
                    else f.seq.poles[int(t * (len(moduli) - 1))]) * (1 + 1e-13)
    else:
        z = 1e-3 * (rmax / 1e-3) ** t * cmath.exp(1j * angle)
    if series and np.min(np.abs(f.seq.poles - z)) < 1e-9 * (1 + abs(z)):   # exclusion radius
        with pytest.raises(PoleHit):
            f.eval_array(z)
        return
    v, e = f.eval_array(z)
    if kind == "zero":
        assert v == (0.0 if series else 1.0)
    if not np.isfinite(v):
        assert e == math.inf
        return
    with mpmath.workdps(40):
        exact = complex(ref(z))
    assert abs(v - exact) <= e, (case, z, v, exact, e)


def test_series_nodes_are_batch_invariant():
    # each point's value is bit-identical whatever it is evaluated with
    rng = np.random.default_rng(3)
    z = rng.uniform(-3e3, 3e3, 64) + 1j * rng.uniform(-50.0, 50.0, 64)
    for case in ("a38-Gtilde-1e6", "a41"):
        f = _series_case(case)[0]
        v, e = f.eval_array(z)
        one = [f.eval_array(zi) for zi in z[::-1]][::-1]
        assert np.array_equal(v, [o[0] for o in one])
        assert np.array_equal(e, [o[1] for o in one])


def test_series_tables_built_by_concurrent_threads_give_serial_values():
    # the shell tables are built lazily on the shared sequence; eight
    # threads building them at once must leave every value as in a serial run
    rng = np.random.default_rng(5)
    z = rng.uniform(-2e4, 2e4, 8_000) + 1j * rng.uniform(0.1, 300.0, 8_000)
    chunks = np.split(z, 8)
    for make in (lambda: CanonicalProduct(a38_gtilde_sequence(200_000)),
                 lambda: PartialFractions(a41_pole_sequence(2.0, 100_000))):
        shared = make()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                parts = list(pool.map(shared.values, chunks, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(np.concatenate(parts), make().values(z))


# ---------------------------------------------------------------------------
# the value-only path against the path with error estimates
# ---------------------------------------------------------------------------

SEQUENCE_NODES = (
    CanonicalProduct(a38_g_sequence(300)),
    CanonicalProduct(ZeroSequence("pair", np.array([2.0 + 1.0j, -1.0 - 3.0j]), 1)),
    PartialFractions(a41_pole_sequence(2.0, 300)),
)


@st.composite
def any_kind(draw, depth=2, series=True, real=False):
    """Trees over all 15 node kinds, or over the 13 closed-form ones when
    ``series`` is false, with real parameters (imaginary parts 0 or -0)
    when ``real`` is true; coefficients and points are wide enough that
    values overflow to inf and NaN."""
    if real:
        c = st.builds(complex, st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0]))
    else:
        c = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
    atoms = st.one_of(
        st.builds(Const, c), st.just(Z()), st.builds(ExpCZ, c),
        st.just(Sin()), st.just(Cos()), st.just(Sinc()),
        st.builds(Poly, st.lists(c, max_size=4)),
        *([st.sampled_from(SEQUENCE_NODES)] if series else []),
    )
    if depth == 0:
        return draw(atoms)
    sub = any_kind(depth=depth - 1, series=series, real=real)
    return draw(st.one_of(
        atoms,
        st.builds(Affine, sub, c, c),
        st.builds(Sum, st.lists(sub, min_size=1, max_size=3)),
        st.builds(Product, st.lists(sub, min_size=1, max_size=3)),
        st.builds(Quotient, sub, sub),
        st.builds(Power, sub, st.integers(0, 4)),
        st.builds(Sharp, sub),
    ))


def _values_or_pole(fn):
    try:
        return fn()
    except PoleHit as exc:
        return ("pole-hit", complex(exc.z), str(exc))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(np.atleast_1d(a).view(np.uint64),
                                                 np.atleast_1d(b).view(np.uint64))


@settings(max_examples=150, deadline=None)
@given(any_kind(), st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                               allow_infinity=False),
                            min_size=1, max_size=8))
@example(Sharp(Quotient(Sum([Z(), Const(1.0)]), Affine(Poly([-(1 + 1j), 1.0]), 1.0, 0.5j))),
         [0.3, 1.0 - 1.5j])
@example(Product([ExpCZ(-3j), Sin()]), [400j, -400j, 0.0])
def test_values_equal_eval_array_values_bit_for_bit(f, z):
    z = np.array(z)
    got = _values_or_pole(lambda: f.values(z))
    ref = _values_or_pole(lambda: f.eval_array(z)[0])
    if isinstance(ref, tuple):
        assert got == ref
    else:
        assert _same_bits(got, ref)


def test_values_equal_eval_array_values_on_a_large_batch(rng):
    # above numpy's temporary-elision threshold (256 KiB), where an
    # operation written on a temporary can run in place and round differently
    z = rng.uniform(-50, 50, 40_000) + 1j * rng.uniform(-5, 5, 40_000)
    f = Sum([Product([ExpCZ(0.3 - 1.7j), Sin(), Cos(), Poly([1j, 2.0, 3.0])]),
             Sharp(Quotient(Affine(Sinc(), 2.0, 0.5j), Poly([3j, 1.0]))),
             Power(Sum([Z(), Const(1j)]), 3),
             Product(list(SEQUENCE_NODES))])
    assert _same_bits(f.values(z), f.eval_array(z)[0])


def test_values_of_a_scalar_is_a_scalar():
    f = Sharp(Sum([Product([Z(), Cos()]), Quotient(Sin(), ExpCZ(0.3 - 0.1j))]))
    z = 0.3 + 0.2j
    v, e = f.eval_array(z, error=False)
    assert e is None and np.ndim(v) == 0 and np.ndim(f.values(z)) == 0
    assert _same_bits(f.values(z), f.eval_array(z)[0])
    assert f.at(z) == complex(f.eval_array(z)[0])


def test_value_path_raises_the_same_pole_hit():
    near_root = Quotient(Const(1.0), Poly([-(1 + 1j), 1.0]))
    vanishing = Quotient(Cos(), Z())
    # (tree, pole, the point the PoleHit names): under sharp and affine
    # nodes it is still the point passed
    cases = [(near_root, 1 + 1j, 1 + 1j), (vanishing, 0.0, 0.0),
             (Sharp(near_root), 1 - 1j, 1 - 1j), (Sharp(vanishing), 0.0, 0.0),
             (Product([Const(2.0), Sharp(Affine(near_root, 1.0, 2.0))]), -1 - 1j, -1 - 1j),
             (Affine(near_root, 2.0, 1j), 0.5, 0.5),
             (Affine(Quotient(Cos(), Z()), 0.0, 0.0), 0.5 + 0.5j, 0.5 + 0.5j)]
    for f, pole, named in cases:
        z = np.array([0.5 + 0.5j, pole, 2.0])
        with pytest.raises(PoleHit) as on_values:
            f.values(z)
        with pytest.raises(PoleHit) as on_eval:
            f.eval_array(z)
        assert complex(on_values.value.z) == complex(on_eval.value.z) == named
        assert str(on_values.value) == str(on_eval.value)


def test_value_path_of_an_overflowing_exp():
    f = ExpCZ(-1j)
    z = np.array([800j, -800j, 1j])
    v = f.values(z)
    assert not np.isfinite(v[0]) and v[1] == 0 and abs(v[2] - math.e) < 1e-15
    assert _same_bits(v, f.eval_array(z)[0])


def test_value_path_keeps_the_truncation_budget(monkeypatch):
    g = CanonicalProduct(a38_g_sequence(2000))
    with pytest.raises(TruncationBudgetExceeded):
        g.eval_array(np.array([1.0]), 1000, error=False)
    monkeypatch.setitem(DEFAULTS, "max_series_terms", 1000)
    for f in (g, Sharp(g), Sum([Z(), PartialFractions(a41_pole_sequence(2.0, 2000))])):
        with pytest.raises(TruncationBudgetExceeded):
            f.values(np.array([1.0, 2.0j]))
        with pytest.raises(TruncationBudgetExceeded):
            f.at(0.5)


def test_values_and_at_enter_through_eval_array(monkeypatch):
    # the benchmark's tracer counts points on FunctionExpr.eval_array, with
    # the points as the first positional argument
    seen = []
    real = FunctionExpr.eval_array

    def spy(self, *args, **kwargs):
        seen.append((self, np.size(args[0]), kwargs))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(FunctionExpr, "eval_array", spy)
    f = Sum([Cos(), Z()])
    f.values(np.array([0.5, 1j, 2.0]))
    f.at(0.25)
    # a batch of several blocks is still one call
    f.values(np.zeros(2 * _POINTS + 1))
    assert seen == [(f, 3, {"error": False}), (f, 1, {"error": False}),
                    (f, 2 * _POINTS + 1, {"error": False})]


CONSTANT_TREES = (
    Const(1.5 - 2j), Const(complex(-0.0, -0.0)),
    Sum([Const(complex(-0.0, 0.0)), Const(complex(0.0, -0.0))]),
    Sum([Const(1.5 - 2j), Const(-0.25 + 1e-17j), Const(3j)]),
    Product([Const(0.3 + 1.1j), Const(-1.7 + 0.9j), Const(2.2 - 0.4j)]),
    Product([Const(1e200 + 1e200j), Const(1e200 - 3e199j)]),
    Quotient(Const(2j), Const(3.0 - 1.0j)),
    Quotient(Sum([Const(1.0), Const(-1.0)]), Const(complex(-0.0, 1.0))),
    Power(Const(1.1 + 0.7j), 0), Power(Const(1.1 + 0.7j), 2), Power(Const(-0.6 + 1.3j), 3),
    Affine(Const(0.5 - 0.5j), 2.0, 1j), Sharp(Const(0.5 - 0.5j)),
    Sharp(Product([Const(0.3 + 1.1j), Const(-1.7 + 0.9j)])),
    Product([Sum([Const(0.1 + 0.2j), Const(0.3)]), Power(Sharp(Const(0.7 - 0.2j)), 2)]),
    Sum([]), Product([]), Sharp(Sum([])), Sharp(Product([])),
)
EVERY_KIND = CONSTANT_TREES + (
    Z(), ExpCZ(0.3 - 1.7j), Sin(), Cos(), Sinc(), Poly([1j, 2.0, -0.0, 3.0]),
    Affine(Sinc(), 2.0, 0.5j), Sum([Z(), Const(1j)]), Product([Const(-1.0), Z(), Cos()]),
    Quotient(Sin(), Poly([3j, 1.0])), Power(Sum([Z(), Const(0.5)]), 2), Sharp(ExpCZ(1j)),
) + SEQUENCE_NODES


def _points(rng, shape):
    z = rng.uniform(-3, 3, shape) + 1j * rng.uniform(-3, 3, shape)
    z.flat[:2] = [complex(-0.0, 0.0), complex(0.0, -0.0)][:z.size]
    return z


@pytest.mark.parametrize("shape", [(), (0,), (5,), (3, 4)])
@pytest.mark.parametrize("f", EVERY_KIND, ids=lambda f: json.dumps(f.to_json())[:60])
def test_values_have_the_shape_and_bits_of_eval_array(f, shape, rng):
    z = _points(rng, shape)
    v = f.values(z)
    assert np.shape(v) == shape and np.asarray(v).dtype == np.complex128
    ev, e = f.eval_array(z)
    assert _same_bits(v, ev)
    assert np.shape(e) == shape and np.asarray(e).dtype == np.float64


def test_empty_sum_and_product_are_complex_constants():
    z = np.array([0.5, 1j])
    for empty, const in ((Sum([]), Const(0.0)), (Product([]), Const(1.0))):
        assert _same_bits(Sharp(empty).values(z), Sharp(const).values(z))
        assert _same_bits(Sharp(empty).eval_array(z)[0], Sharp(const).eval_array(z)[0])


class _Recorder(FunctionExpr):
    """Returns fresh arrays, keeps weak references to them in ``refs`` and
    notes in ``alive`` how many earlier arrays were alive when it began."""

    def __init__(self, refs, alive):
        self.refs, self.alive = refs, alive

    def _eval(self, z, ctx, error):
        self.alive.append(sum(r() is not None for r in self.refs))
        v = np.full(z.shape, 1.5 - 0.5j)
        e = np.full(z.shape, 1e-16) if error else None
        self.refs.extend(weakref.ref(a) for a in (v, e) if a is not None)
        return v, e


@pytest.mark.parametrize("error", [False, True])
@pytest.mark.parametrize("node", [Sum, Product])
def test_sum_and_product_drop_each_child_before_the_next(node, error):
    # a child's value and error held across the next child's evaluation
    # add one array each to the peak memory of every level of a tree
    refs, alive = [], []
    node([_Recorder(refs, alive) for _ in range(3)]).eval_array(np.arange(4.0), error=error)
    assert alive == [0, 0, 0] and len(refs) == (6 if error else 3)


@pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
def test_a_constant_quotient_by_zero_names_the_first_point(shape, rng):
    z = _points(rng, shape) + 1.0
    for f in (Quotient(Const(1.0), Const(0.0)), Affine(Quotient(Const(1.0), Const(0.0)), 2.0, 1.0),
              Sharp(Quotient(Const(1.0), Sum([Const(1.0), Const(-1.0)])))):
        for run in (f.values, lambda z: f.eval_array(z)[0]):
            with pytest.raises(PoleHit) as hit:
                run(z)
            assert complex(hit.value.z) == complex(z.flat[0])
    assert Quotient(Const(1.0), Const(0.0)).values(np.zeros(0)).shape == (0,)
    # a NaN image matches no point, so the PoleHit keeps the image
    with pytest.raises(PoleHit, match="nan"):
        Affine(Quotient(Const(1.0), Const(0.0)), 2.0).values(np.array([np.nan]))


# ---------------------------------------------------------------------------
# block evaluation: eval_array hands a node at most _POINTS points at a time
# ---------------------------------------------------------------------------

class _Blocks(FunctionExpr):
    """Doubles its points and keeps a copy of every array it is given."""

    def __init__(self):
        self.seen = []

    def _eval(self, z, ctx, error):
        self.seen.append(z.copy())
        return 2.0 * z, (np.abs(z) if error else None)


@pytest.mark.parametrize("shape", [(0,), (_POINTS,), (3 * _POINTS + 7,), (5, _POINTS // 2 + 3)])
def test_eval_array_tiles_the_points_in_order_in_blocks(shape, rng):
    z = _points(rng, shape)
    node = _Blocks()
    v, e = node.eval_array(z)
    assert len(node.seen) == max(1, -(-z.size // _POINTS))
    assert all(b.ndim == 1 and b.size <= _POINTS for b in node.seen)
    assert _same_bits(np.concatenate(node.seen), z.ravel())
    assert _same_bits(v, 2.0 * z) and _same_bits(e, np.abs(z))


BLOCK_SHAPES = ((_POINTS - 1,), (_POINTS,), (_POINTS + 1,), (3 * _POINTS + 7,), (3, _POINTS - 5))


def _each_block(f, z):
    """``eval_array`` on each block of the flattened points alone, joined."""
    flat = z.ravel()
    parts = [f.eval_array(flat[i:i + _POINTS]) for i in range(0, flat.size, _POINTS)]
    return tuple(np.concatenate(p).reshape(z.shape) for p in zip(*parts))


@seed(20261019)
@settings(max_examples=25, deadline=None)
@given(any_kind())
def test_a_batch_evaluates_as_its_blocks_alone(f):
    rng = np.random.default_rng(14)
    for shape in BLOCK_SHAPES:
        z = _points(rng, shape)
        got = _values_or_pole(lambda: f.eval_array(z))
        ref = _values_or_pole(lambda: _each_block(f, z))
        if isinstance(ref[0], str):
            assert got == ref
        else:
            assert _same_bits(got[0], ref[0]) and _same_bits(got[1], ref[1])


def test_a_constant_tree_fills_every_block():
    z = np.zeros((3, _POINTS - 1), dtype=complex)
    for f in CONSTANT_TREES:
        v0, e0 = f.eval_array(0.0)
        v, e = f.eval_array(z)
        assert _same_bits(v, np.full(z.shape, v0)) and _same_bits(e, np.full(z.shape, e0))
        assert _same_bits(f.values(z), v)


@pytest.mark.parametrize("shape", [(3 * _POINTS,), (3, _POINTS)])
def test_a_pole_in_the_second_block_names_the_first_pole_point(shape, rng):
    near_root = Quotient(Const(1.0), Poly([-(1 + 1j), 1.0]))
    fractions = PartialFractions(a41_pole_sequence(2.0, 300))
    # (tree, a point inside its exclusion radius)
    cases = [(near_root, 1 + 1j), (Quotient(Cos(), Z()), 0.0),
             (Sharp(Affine(near_root, 1.0, 2.0)), -1 - 1j),
             (fractions, 9.0), (Sum([Z(), Sharp(fractions)]), 16.0)]
    for f, pole in cases:
        z = _points(rng, shape) + 10.0j
        # the first pole point in the second block, a second one in the third
        z.flat[_POINTS + 5] = pole
        z.flat[2 * _POINTS + 1] = pole + 1e-11
        for run in (f.values, lambda z: f.eval_array(z)[0]):
            with pytest.raises(PoleHit) as hit:
                run(z)
            assert complex(hit.value.z) == pole


@pytest.mark.parametrize("degree", range(7))
def test_poly_values_equal_polyval_byte_for_byte(degree, rng):
    z = np.concatenate([
        rng.normal(size=200) + 1j * rng.normal(size=200),
        [0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), -2.0, 3j],
        [1e200 + 1e200j, -1e300, 1e160j, complex(1e308, -1e308)],
    ])
    for _ in range(20):
        c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        c[rng.random(degree + 1) < 0.3] = complex(-0.0, 0.0)
        c[rng.random(degree + 1) < 0.3] = complex(0.0, -0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = np.polynomial.polynomial.polyval(z, c)
        assert _same_bits(Poly(c).values(z), ref)


# ---------------------------------------------------------------------------
# moduli: |F| without the complex values
# ---------------------------------------------------------------------------

def _a41_deep(z):
    # 1 - pi w cot(pi w) ~ |z| cancels about log10(1/|z|) digits
    with mpmath.extradps(max(0, int(-mpmath.log10(abs(z)))) if z else 0):
        return +_a41_ref(z)


_SEQUENCE_REFS = {id(SEQUENCE_NODES[0]): _g_ref,
                  id(SEQUENCE_NODES[1]): _product_ref(SEQUENCE_NODES[1].seq),
                  id(SEQUENCE_NODES[2]): _a41_deep}


def _mp_value(f, z):
    """``F(z)`` in mpmath, node by node; the sequence nodes give the
    functions their truncations approximate, within their ``abs_error``."""
    k = f.kind
    if k in ("canonical-product", "partial-fractions"):
        return _SEQUENCE_REFS[id(f)](z)
    if k == "const":
        return _mpc(f.value)
    if k == "z":
        return z
    if k == "exp":
        return mpmath.exp(_mpc(f.coeff) * z)
    if k in ("sin", "cos"):
        return getattr(mpmath, k)(z)
    if k == "sinc":
        return mpmath.sin(z) / z if z else mpmath.mpf(1)
    if k == "poly":
        return mpmath.polyval([_mpc(c) for c in f.coeffs[::-1]], z)
    if k == "affine":
        return _mp_value(f.child, _mpc(f.scale) * z + _mpc(f.shift))
    if k == "sharp":
        return mpmath.conj(_mp_value(f.child, mpmath.conj(z)))
    if k == "power":
        return _mp_value(f.child, z) ** f.exponent
    if k == "quotient":
        return _mp_value(f.num, z) / _mp_value(f.den, z)
    parts = [_mp_value(c, z) for c in f.children]
    return sum(parts, mpmath.mpf(0)) if k == "sum" else mpmath.fprod(parts)


@settings(max_examples=200, deadline=None)
@given(any_kind(), st.lists(st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                               allow_infinity=False),
                            min_size=1, max_size=6))
@example(Affine(Cos(), 2.5, 0.3 - 0.1j), [9.0 + 3.0j, -7.5 - 0.2j])
@example(Power(Product([Sinc(), ExpCZ(-2.0 + 1.5j), Sharp(Sin())]), 3), [1e-5j, 4.0 - 6.0j])
@example(Quotient(Sharp(Cos()), Sum([Z(), Const(-1.0)])), [1.0, 2.0j])
@example(Product([Sin(), Sharp(Cos()), Quotient(Z(), SEQUENCE_NODES[2])]), [2.3e-240, 1.4e-95])
def test_moduli_bound_their_error_against_mpmath(f, z):
    z = np.array(z)
    got = _values_or_pole(lambda: f.moduli(z))
    ref = _values_or_pole(lambda: f.eval_array(z))
    if isinstance(ref[0], str):
        assert got == ref
        return
    v, e = ref
    assert got.dtype == np.float64 and got.shape == z.shape
    finite = np.isfinite(np.abs(v))
    with mpmath.workdps(40):
        exact = np.array([float(abs(_mp_value(f, _mpc(w)))) for w in z[finite]])
    dev = np.abs(np.abs(v[finite]) - exact)
    tol = np.maximum(e[finite], dev) + 4.0 * EPS * exact
    assert np.all(np.abs(got[finite] - exact) <= tol), (got[finite], exact, tol)


@pytest.mark.parametrize("node", [Cos(), Sin(), Product([Cos(), Sharp(Sin())]),
                                  Quotient(Affine(Cos(), 1.0, 1.0), ExpCZ(-0.5j))])
@pytest.mark.parametrize("y", [300.0, 400.0, 700.0])
def test_moduli_stay_finite_where_the_complex_modulus_is(node, y):
    # cos^2 x + sinh^2 y overflows past |y| ~ 355; the complex modulus
    # stays finite to ~710
    x = np.linspace(-20.0, 20.0, 41)
    for z in (x + 1j * y, x - 1j * y):
        ref = np.abs(node.values(z))
        got = node.moduli(z)
        assert np.array_equal(np.isfinite(got), np.isfinite(ref))
        finite = np.isfinite(ref)
        assert np.allclose(got[finite], ref[finite], rtol=8 * EPS, atol=0.0)


@pytest.mark.parametrize("shape", [(3 * _POINTS,), (3, _POINTS)])
def test_moduli_raise_what_values_raise_at_the_same_point(shape, rng, monkeypatch):
    near_root = Quotient(Const(1.0), Poly([-(1 + 1j), 1.0]))
    fractions = PartialFractions(a41_pole_sequence(2.0, 300))
    cases = [(near_root, 1 + 1j), (Quotient(Cos(), Z()), 0.0),
             (Quotient(ExpCZ(1j), Product([Sin(), Sharp(ExpCZ(0.5))])), 0.0),
             (Sharp(Affine(near_root, 1.0, 2.0)), -1 - 1j),
             (Affine(Quotient(Sinc(), Affine(Z(), 1.0, -2.0)), 2.0, 0.0), 1.0),
             (fractions, 9.0), (Sum([Z(), Sharp(fractions)]), 16.0)]
    for f, pole in cases:
        z = _points(rng, shape) + 10.0j
        z.flat[_POINTS + 5] = pole
        z.flat[2 * _POINTS + 1] = pole + 1e-11
        with pytest.raises(PoleHit) as on_values:
            f.values(z)
        with pytest.raises(PoleHit) as on_moduli:
            f.moduli(z)
        assert complex(on_moduli.value.z) == complex(on_values.value.z) == pole
        assert str(on_moduli.value) == str(on_values.value)
    g = CanonicalProduct(a38_g_sequence(2000))
    monkeypatch.setitem(DEFAULTS, "max_series_terms", 1000)
    for f in (g, Product([Cos(), Sharp(g)]), Quotient(ExpCZ(1.0), g)):
        with pytest.raises(TruncationBudgetExceeded) as on_values:
            f.values(np.array([1.0, 2.0j]))
        with pytest.raises(TruncationBudgetExceeded) as on_moduli:
            f.moduli(np.array([1.0, 2.0j]))
        assert str(on_moduli.value) == str(on_values.value)


@pytest.mark.parametrize("shape", [(), (0,), (_POINTS - 1,), (_POINTS,), (_POINTS + 1,),
                                   (3, _POINTS - 5)])
def test_moduli_tile_the_points_in_blocks_as_eval_array(shape, rng):
    z = _points(rng, shape)
    node = _Blocks()
    got = node.moduli(z)
    assert np.shape(got) == shape and np.asarray(got).dtype == np.float64
    assert len(node.seen) == max(1, -(-z.size // _POINTS))
    assert _same_bits(np.concatenate(node.seen), z.ravel())
    assert _same_bits(got, np.abs(2.0 * z))
    f = Sum([Product([Cos(), Sharp(ExpCZ(0.3 - 1.7j))]), Quotient(Sinc(), Poly([3j, 1.0]))])
    flat = z.ravel()
    parts = [f.moduli(flat[i:i + _POINTS]) for i in range(0, flat.size, _POINTS)]
    if z.size:
        assert _same_bits(f.moduli(z), np.concatenate(parts).reshape(shape))


def test_moduli_of_a_constant_tree_fill_every_block():
    z = np.zeros((3, _POINTS - 1), dtype=complex)
    for f in CONSTANT_TREES:
        m = f.moduli(z)
        assert m.shape == z.shape and _same_bits(m, np.full(z.shape, f.moduli(0.0)))


# ---------------------------------------------------------------------------
# jets: values and first derivatives of closed-form trees in one pass
# ---------------------------------------------------------------------------

def _mp_slope(f, z):
    """``F'(z)`` by ``mpmath.diff`` of ``_mp_value``.  Near 0 the step
    shrinks with ``|z|``, so that it does not reach a pole at 0, and the
    precision grows to pay for the smaller step."""
    bits = max(0, -int(mpmath.mag(z))) if z else 0
    with mpmath.extraprec(bits):
        h = mpmath.ldexp(1, -mpmath.mp.prec - 10) * min(1, abs(z) or 1)
        return mpmath.diff(lambda w: _mp_value(f, w), z, h=h)


def _trig_parts(z: complex):
    """``|sin x| cosh y + |cos x| |sinh y|`` and ``|cos x| cosh y + |sin x| |sinh y|``:
    the component moduli of ``sin z`` and ``cos z``, which bound their rounding."""
    with np.errstate(over="ignore"):
        sx, cx = abs(math.sin(z.real)), abs(math.cos(z.real))
        ch, sh = np.cosh(z.imag), abs(np.sinh(z.imag))
    return sx * ch + cx * sh, cx * ch + sx * sh


def _rounding_scales(f, z: complex):
    """``(A, S, T)`` at ``z``: the rounding of ``jets`` is at most a few
    ``EPS * A`` in the value and ``EPS * S`` in the derivative, and ``T``
    bounds ``|F''|``.  Each rule is the jet rule run on moduli, so no term
    cancels, plus the error its inputs carry: an affine image rounds its
    point by ``EPS (|scale z| + |shift|)``, which moves the value by ``S``
    and the derivative by ``T`` times that, and a quotient divides its
    inputs' errors by ``|D|`` (``z/sin z`` at ``z ~ 1e-7``: the quotient
    rule cancels about 9 digits)."""
    k = f.kind
    if k in ("affine", "sharp"):
        scale = f.scale if k == "affine" else 1.0
        w = scale * z + f.shift if k == "affine" else z.conjugate()
        a, s, t = _rounding_scales(f.child, w)
        moved = abs(scale * z) + abs(f.shift) if k == "affine" else 0.0
        return a + s * moved, abs(scale) * (s + t * moved), abs(scale) ** 2 * t
    if k in ("sum", "product"):
        a, s, t = (0.0, 0.0, 0.0) if k == "sum" else (1.0, 0.0, 0.0)
        for c in f.children:
            ca, cs, ct = _rounding_scales(c, z)
            if k == "sum":
                a, s, t = a + ca, s + cs, t + ct
            else:
                a, s, t = a * ca, s * ca + a * cs, t * ca + 2.0 * s * cs + a * ct
        return a, s, t
    if k == "quotient":
        (na, ns, nt), (da, ds, dt) = _rounding_scales(f.num, z), _rounding_scales(f.den, z)
        den = np.abs(f.den.values(z))
        a = (na + na / den * da) / den
        s = (ns + 2.0 * a * ds) / den * (1.0 + da / den)
        return a, s, (nt + 2.0 * s * ds + a * dt) / den
    if k == "power":
        n = f.exponent
        if n == 0:
            return 1.0, 0.0, 0.0
        a, s, t = _rounding_scales(f.child, z)
        a1 = a ** (n - 1)
        return n * a * a1, n * n * a1 * s, n * (n - 1) * a ** max(n - 2, 0) * s * s + n * a1 * t
    if k == "poly":
        c, r = np.abs(f.coeffs), abs(z)
        rows = [c, np.r_[c[1:] * np.arange(1, c.size), 0.0],
                np.r_[c[2:] * np.arange(2, c.size) * np.arange(1, c.size - 1), 0.0]]
        a, s, t = (float(np.polynomial.polynomial.polyval(r, q)) for q in rows)
        return (c.size + 1) * a, (c.size + 1) * s, t
    if k == "const":
        return abs(f.value), 0.0, 0.0
    if k == "z":
        return abs(z), 1.0, 0.0
    if k == "exp":
        v = abs(complex(f.values(z)))
        a = v * (2.0 + abs(f.coeff * z))
        return a, abs(f.coeff) * a, abs(f.coeff) ** 2 * v
    ts, tc = _trig_parts(z)
    if k == "sin":
        return ts, tc, ts
    if k == "cos":
        return tc, ts, tc
    r = abs(z)
    if r < 1.0:
        return 2.0, 1.0, 1.0
    a = (ts + tc) / r
    s = (tc + 2.0 * a) / r
    return a, s, a + 2.0 * s / r


@settings(max_examples=150, deadline=None)
@given(any_kind(series=False),
       st.lists(st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=4))
@example(Sinc(), [1e-5, 2e-4 + 1e-4j, 3e-3j, 0.5, 0.99 - 0.1j, 7.0])
@example(Affine(Sinc(), 2.0, -2.0), [1.0 + 1e-4j, 1.002])
@example(Quotient(Sharp(Cos()), Sum([Z(), Const(-1.0)])), [1.0, 2.0j])
@example(Power(Product([Sinc(), ExpCZ(-2.0 + 1.5j), Sharp(Sin())]), 3), [1e-5j, 4.0 - 6.0j])
@example(Quotient(Const(1.0), Poly([1.0, 1.0, 1e-320])), [1.0 + 1.0j, -1.0])
def test_jets_match_mpmath_derivatives(f, z):
    z = np.array(z)
    got = _values_or_pole(lambda: f.jets(z))
    ref = _values_or_pole(lambda: f.values(z))
    if isinstance(ref, tuple):
        assert got == ref
        return
    v, d = got
    assert _same_bits(v, ref) and d.shape == z.shape and d.dtype == np.complex128
    for w, vw, dw in zip(z, v, d):
        try:
            ring = derivative(f, w).value
        except (RadiusTooLarge, Overflow):
            continue
        with mpmath.workdps(40):
            value, exact = complex(_mp_value(f, _mpc(w))), complex(_mp_slope(f, _mpc(w)))
        if not (cmath.isfinite(exact) and cmath.isfinite(value) and cmath.isfinite(vw)):
            continue
        # no further from exact than the ring, or else no further,
        # relatively, than the value: an affine image rounds its point, and
        # F' = c F of exp(c w) inherits the value's error, which the 64 ring
        # points average down (exp(3w) at |w| ~ 15: jet and value 2.7e-15
        # off, the ring 1.4e-15)
        inherited = abs(vw - value) / abs(value) * abs(exact) if value else 0.0
        # or else within the rounding of the jet rules: a quotient rule
        # that cancels at a small denominator loses what the ring's radius
        # keeps
        with np.errstate(all="ignore"):
            rounding = 16.0 * EPS * _rounding_scales(f, complex(w))[1]
        if not math.isfinite(rounding):
            # a subexpression's derivative overflows, as cot z's does near
            # 0 in cot(z) sin(z) sinc(z), and forward mode carries inf and
            # NaN into a finite F': nothing bounds the jet there
            continue
        tol = max(abs(ring - exact), inherited, rounding) + 4.0 * EPS * abs(exact)
        assert abs(dw - exact) <= tol, (w, dw, ring, exact)


def test_jets_tile_the_points_in_blocks_and_keep_the_shape(rng):
    f = Sum([Product([Cos(), Sharp(ExpCZ(0.3 - 1.7j))]), Quotient(Sinc(), Poly([3j, 1.0])),
             Power(Affine(Z(), 2.0, 1j), 3)])
    for shape in [(), (0,), (_POINTS + 1,), (3, _POINTS - 5)]:
        z = _points(rng, shape)
        v, d = f.jets(z)
        assert np.shape(v) == np.shape(d) == shape
        assert _same_bits(v, f.values(z))
        flat = z.ravel()
        parts = [f.jets(flat[i:i + _POINTS])[1] for i in range(0, flat.size, _POINTS)]
        if z.size:
            assert _same_bits(d, np.concatenate(parts).reshape(shape))
    for c in CONSTANT_TREES:
        v, d = c.jets(np.zeros(4, dtype=complex))
        assert _same_bits(v, c.values(np.zeros(4, dtype=complex))) and not np.any(d)


@pytest.mark.parametrize("shape", [(3 * _POINTS,), (3, _POINTS)])
def test_jets_raise_what_values_raise_at_the_same_point(shape, rng):
    near_root = Quotient(Const(1.0), Poly([-(1 + 1j), 1.0]))
    cases = [(near_root, 1 + 1j), (Quotient(Cos(), Z()), 0.0),
             (Quotient(ExpCZ(1j), Product([Sin(), Sharp(ExpCZ(0.5))])), 0.0),
             (Sharp(Affine(near_root, 1.0, 2.0)), -1 - 1j),
             (Affine(Quotient(Sinc(), Affine(Z(), 1.0, -2.0)), 2.0, 0.0), 1.0)]
    for f, pole in cases:
        z = _points(rng, shape) + 10.0j
        z.flat[_POINTS + 5] = pole
        z.flat[2 * _POINTS + 1] = pole + 1e-11
        with pytest.raises(PoleHit) as on_values:
            f.values(z)
        with pytest.raises(PoleHit) as on_jets:
            f.jets(z)
        assert complex(on_jets.value.z) == complex(on_values.value.z) == pole
        assert str(on_jets.value) == str(on_values.value)


@pytest.mark.parametrize("f", SEQUENCE_NODES + (Sum([Cos(), Sharp(SEQUENCE_NODES[0])]),
                                                Quotient(Z(), Power(SEQUENCE_NODES[2], 2))))
def test_a_tree_with_a_series_node_has_no_jets(f, monkeypatch):
    # the tree is read before anything is evaluated
    def refuse(self, *args):
        raise AssertionError("evaluated")

    for cls in (Z, Cos, Sum, Quotient, Power, Sharp, CanonicalProduct, PartialFractions):
        for name in ("_eval", "_abs") + (("_jet",) if "_jet" in vars(cls) else ()):
            monkeypatch.setattr(cls, name, refuse)
    assert not f.closed_form()
    with pytest.raises(ConfigError, match="series node"):
        f.jets(np.array([0.5, 1j]))


@pytest.mark.parametrize("coeffs, roots", [
    ([1.0, 1e-320], []),
    ([1.0, 1.0, 1e-320], [-1.0]),
    ([1e-320, 1e-320], [-1.0]),
    ([0.0, 0.0, 1.0, 1.0, 1e-320], [0.0, 0.0, -1.0]),
    ([1e-320, 1.0, 1e-320], [-1e-320]),
])
def test_poly_roots_keep_the_finite_roots_of_a_subnormal_leading_coefficient(coeffs, roots):
    with np.errstate(all="raise"):
        got = Poly(coeffs).roots()
    assert np.allclose(np.sort_complex(got), np.sort_complex(np.array(roots, dtype=complex)),
                       rtol=1e-14, atol=0.0)
    # 1 + 1e-320 z^2 has its roots at +-1e160 i, inside double range
    big = Poly([1.0, 0.0, 1e-320]).roots()
    assert np.allclose(np.sort(big.imag), [-1e-320 ** -0.5, 1e-320 ** -0.5], rtol=1e-12)


def test_poly_roots_of_ordinary_coefficients_are_those_of_polyroots(rng):
    for n in range(2, 7):
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert _same_bits(Poly(c).roots(), np.polynomial.polynomial.polyroots(c))


# ---------------------------------------------------------------------------
# real trees: F# = F
# ---------------------------------------------------------------------------

def _real_spec(d: dict) -> bool:
    """Whether a tree is real, read from its JSON: no series node, and no
    parameter with a nonzero imaginary part."""
    if d["kind"] in ("canonical-product", "partial-fractions"):
        return False
    params = {"const": [d.get("value")], "exp": [d.get("coeff")], "poly": d.get("coeffs"),
              "affine": [d.get("scale"), d.get("shift")]}.get(d["kind"], [])
    parts = [d[k] for k in ("child", "num", "den") if k in d] + d.get("children", [])
    return all(p[1] == 0 for p in params) and all(_real_spec(c) for c in parts)


@settings(max_examples=150, deadline=None)
@given(any_kind(series=False, real=True),
       st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=8))
@example(Quotient(Cos(), Z()), [1j, 0.0])
@example(Quotient(Sinc(), Poly([2.0, 0.0, 1.0])), [1.0, 1.4142135623730951j])
@example(Affine(Product([Sin(), ExpCZ(-0.5)]), -2.0, 0.5), [0.0, 300j, -700j])
def test_a_real_tree_has_the_moduli_of_its_sharp_bit_for_bit(f, z):
    assert f.is_real() and f.sharp().is_real()
    z = np.array(z)
    got = _values_or_pole(lambda: f.sharp().moduli(z))
    ref = _values_or_pole(lambda: f.moduli(z))
    if isinstance(ref, tuple):
        assert got == ref
    else:
        assert _same_bits(got, ref)


@settings(max_examples=100, deadline=None)
@given(any_kind())
@example(Sharp(Const(complex(1.0, -0.0))))
@example(Affine(Cos(), 1.0, 1e-300j))
@example(Product([Cos(), SEQUENCE_NODES[2]]))
def test_is_real_holds_for_closed_form_trees_with_real_parameters_only(f):
    assert f.is_real() == _real_spec(f.to_json())
    if not f.closed_form():
        assert not f.is_real()


def test_a_subnormal_divisor_keeps_the_jets_finite():
    z = np.array([1e-310 + 1e-310j, -5e-324 - 5e-324j, 0.5 + 0.25j])
    f = Quotient(Sin(), Z())
    v, d = f.jets(z)
    assert np.array_equal(v[:2], [1.0, 1.0]) and np.all(np.abs(d[:2]) <= EPS)
    assert _same_bits(v, f.values(z))
    assert _same_bits(v[2:], np.divide(np.sin(z[2:]), z[2:]))


# ---------------------------------------------------------------------------
# series nodes: value-only sums, one sum per shared node and block, the build
# ---------------------------------------------------------------------------

# genus 0 with a tail correction, genus 1, exactly cancelled factors (the
# zeros 2 and -4 are among the points), and a partial-fraction series
VALUE_ONLY_NODES = (
    CanonicalProduct(a38_g_sequence(3000)),
    CanonicalProduct(ZeroSequence("genus1", (1.0 + 0.5j) * np.arange(1.0, 121.0) ** 1.5, 1)),
    CanonicalProduct(ZeroSequence("exact", np.array([2.0, -4.0, 3.0 - 1j, 0.5j, 40.0]), 0)),
    PartialFractions(a41_pole_sequence(2.0, 3000)),
)


def _series_points(rng, size):
    z = rng.uniform(-2e3, 2e3, size) + 1j * rng.uniform(0.5, 30.0, size)
    z[:4] = [2.0, -4.0, 0.0, 1e5 + 1j]
    return z


@pytest.mark.parametrize("size", [37, 2 * _POINTS + 301])
@pytest.mark.parametrize("f", VALUE_ONLY_NODES, ids=lambda f: f.seq.label)
def test_series_values_and_moduli_have_the_bits_of_eval_array(f, size, rng):
    z = _series_points(rng, size)
    v, e = f.eval_array(z)
    assert _same_bits(f.values(z), v) and _same_bits(f.moduli(z), np.abs(v))
    tree = Sum([Sharp(f), Product([Z(), f])])
    assert _same_bits(tree.values(z), tree.eval_array(z)[0])
    if isinstance(f, CanonicalProduct) and f.seq.label == "exact":
        assert np.array_equal(v[:2], [0.0, 0.0]) and np.all(e[:2] > 0)


@pytest.mark.parametrize("f", VALUE_ONLY_NODES, ids=lambda f: f.seq.label)
def test_series_errors_do_not_depend_on_the_tables_built_before(f, rng):
    # the value-only path grows the same scaled moment tables, to other orders
    z = _series_points(rng, 300)
    fresh = type(f)(dataclasses.replace(f.seq))
    v, e = fresh.eval_array(z)
    grown = type(f)(dataclasses.replace(f.seq))
    grown.values(np.array([0.5j, 7.0, -600.0 + 2j, 1.1e4]))
    gv, ge = grown.eval_array(z)
    assert _same_bits(gv, v) and _same_bits(ge, e)


@pytest.mark.parametrize("points", [5, 2 * _POINTS + 5])
def test_series_value_path_raises_what_eval_array_raises_at_the_same_point(points, rng):
    seq = a41_pole_sequence(2.0, 3000)
    z = _series_points(rng, points)
    z[-2:] = [seq.poles[7], seq.poles[3]]       # in the last block
    f = Sum([Z(), PartialFractions(seq)])
    raised = []
    for run in (lambda: f.eval_array(z), lambda: f.values(z), lambda: f.moduli(z)):
        with pytest.raises(PoleHit) as exc:
            run()
        raised.append((complex(exc.value.z), str(exc.value)))
    assert raised[0] == raised[1] == raised[2] and raised[0][0] in seq.poles[[3, 7]]
    for g in (f, CanonicalProduct(a38_g_sequence(3000))):
        messages = set()
        for error in (True, False):
            with pytest.raises(TruncationBudgetExceeded) as exc:
                g.eval_array(z, 2999, error=error)
            messages.add(str(exc.value))
        assert len(messages) == 1


def test_a_shared_series_node_sums_once_per_block(monkeypatch, rng):
    seq = a41_pole_sequence(2.0, 3000)
    q = PartialFractions(seq)
    theta = theta_from_q(q, "i-minus")
    twins = Quotient(Const(1j) - PartialFractions(seq), Const(1j) + PartialFractions(seq))
    # q four times: (1 + theta) and (1 - theta), each with q twice
    herglotz = cayley_q_from_theta(InnerFunction("expr", theta), "i-minus")
    z = rng.uniform(1.0, 1e3, 2 * _POINTS + 5) + 1j
    sums, held = [], []
    series, evaluate_node = _Shells.series, _SeriesNode._eval

    def count(self, w, *args):
        sums.append(w.size)
        return series(self, w, *args)

    def watch(self, w, ctx, error):
        held.append(sum(entry[0].size for entry in ctx["memo"].values()))
        return evaluate_node(self, w, ctx, error)

    monkeypatch.setattr(_Shells, "series", count)
    monkeypatch.setattr(_SeriesNode, "_eval", watch)
    for error in (True, False):
        for f in (theta, herglotz):
            sums.clear()
            f.eval_array(z, error=error)
            assert sums == [_POINTS, _POINTS, 5]
        sums.clear()
        ref = twins.eval_array(z, error=error)
        assert sums == [_POINTS, _POINTS, _POINTS, _POINTS, 5, 5]
        v, e = theta.eval_array(z, error=error)
        assert _same_bits(v, ref[0]) and (e is None or _same_bits(e, ref[1]))
    # the memo holds at most the one block being evaluated
    assert max(held) == _POINTS
    assert _same_bits(theta.moduli(z), twins.moduli(z))


def _full_size_shells(nodes, weights, order):
    """The shell split taken over all moduli at once, with each shell's
    moments to ``order``."""
    mod = np.abs(nodes)
    if np.any(mod[1:] < mod[:-1]):
        rank = np.argsort(mod, kind="stable")
        nodes, mod = nodes[rank], mod[rank]
        weights = None if weights is None else weights[rank]
    exps = np.arange(math.frexp(mod[0])[1], math.frexp(mod[-1])[1])
    edges = np.unique(np.r_[0, np.searchsorted(mod, np.ldexp(1.0, exps)), mod.size])
    moments = []
    for a, b in zip(edges[:-1], edges[1:]):
        mom, absw = np.zeros(order + 1, dtype=nodes.dtype), 0.0
        for c in range(a, b, _CHUNK):
            t = nodes[c:min(c + _CHUNK, b)]
            x = mod[a] / t
            p = np.ones(t.size, dtype=t.dtype) if weights is None else weights[c:c + t.size] / t
            absw += float(np.sum(np.abs(p)))
            for j in range(order + 1):
                mom[j] += np.sum(p)
                p *= x
        moments.append((mom, absw))
    return nodes, weights, edges[:-1], mod[edges[:-1]], moments


@pytest.mark.parametrize("case", ["sorted", "unsorted", "power-of-two"])
def test_shells_split_by_chunks_as_over_all_moduli_at_once(case, rng):
    n = 3 * _CHUNK + 17
    weights = None
    if case == "sorted":
        nodes = a38_gtilde_sequence(n).zeros
    elif case == "unsorted":
        nodes = np.exp(rng.uniform(-3.0, 12.0, n) + 1j * rng.uniform(0.0, 2 * math.pi, n))
    else:       # moduli 2^16 + i: the powers 2^17 and 2^18 open chunks 1 and 3
        nodes = (np.arange(n) + 65536.0) * np.where(np.arange(n) % 3, 1.0, -1.0)
        weights = rng.uniform(0.0, 2.0, n)
    sh = _Shells(nodes, weights)
    ref = _full_size_shells(nodes, weights, 6)
    for got, want in zip((sh.nodes, sh.weights, sh.start, sh.lo), ref):
        assert (got is None and want is None) or _same_bits(got, want)
    for k, (mom, absw) in enumerate(ref[4]):
        got = sh.moments(k, 6)
        assert _same_bits(got[0], mom) and got[1] == absw
    if case == "power-of-two":
        assert {_CHUNK, 3 * _CHUNK} <= set(sh.start.tolist())


def test_ring_derivatives_without_errors_have_the_rows_of_the_full_rule(rng):
    z = rng.uniform(-50.0, 50.0, 130) + 1j * rng.uniform(-2.0, 2.0, 130)
    for f in (Product([Poly([1j, 1.0]), Power(CanonicalProduct(a38_gtilde_sequence(1000)), 2)]),
              PartialFractions(a41_pole_sequence(2.0, 1000)), Sharp(Sinc())):
        d, err = ring_derivatives(f, z, 2)
        values_only = ring_derivatives(f, z, 2, error=False)
        assert values_only[1] is None and _same_bits(values_only[0], d)
