import cmath
import functools
import json
import math
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dblab.errors import ConfigError, PoleHit, RadiusTooLarge, TruncationBudgetExceeded
from dblab.examples import (a38_g_sequence, a38_gtilde_sequence, a38_g_closed,
                            a41_pole_sequence)
from dblab.defaults import DEFAULTS
from dblab.expressions import (EPS, Affine, CanonicalProduct, Const, Cos, ExpCZ,
                               FunctionExpr, PartialFractions, Poly,
                               PoleSequence, Power, Product, Quotient, Sharp,
                               Sin, Sinc, Sum, Z, ZeroSequence, csinc,
                               derivative, evaluate, expr_from_json,
                               expr_to_json, sharp)


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
    f = Quotient(Const(1.0), Poly([0.0, 1.0]))
    with pytest.raises(RadiusTooLarge):
        derivative(f, 0.1, 1, radius=0.1)


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
def any_kind(draw, depth=2):
    """Trees over all 15 node kinds; coefficients and points are wide
    enough that values overflow to inf and NaN."""
    c = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
    atoms = st.one_of(
        st.builds(Const, c), st.just(Z()), st.builds(ExpCZ, c),
        st.just(Sin()), st.just(Cos()), st.just(Sinc()),
        st.builds(Poly, st.lists(c, max_size=4)),
        st.sampled_from(SEQUENCE_NODES),
    )
    if depth == 0:
        return draw(atoms)
    sub = any_kind(depth=depth - 1)
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
    assert seen == [(f, 3, {"error": False}), (f, 1, {"error": False})]


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
