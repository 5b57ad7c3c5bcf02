import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import dblab.quadrature as quadrature
import dblab.space as space_module
from dblab.errors import NonConvergentTail, Overflow
from dblab.examples import build_pw, pw_space
from dblab.expressions import _POINTS, csinc, expr_from_json
from dblab.model import InnerFunction, clark_kernel
from dblab.quadrature import _gl, integrate_interval, integrate_real_line
from dblab.space import inner_product, membership


def test_gaussian():
    res = integrate_real_line(lambda t: np.exp(-t * t))
    assert abs(res.value - math.sqrt(math.pi)) < 1e-10


def test_poisson_weight():
    res = integrate_real_line(lambda t: 1.0 / (1.0 + t * t), rel_tol=1e-8)
    assert abs(res.value - math.pi) < 1e-6 * math.pi
    assert abs(res.value - math.pi) < 4 * res.error + 1e-12


def test_squared_sinc():
    res = integrate_real_line(lambda t: np.abs(csinc(t + 0j)) ** 2, rel_tol=1e-7)
    assert abs(res.value - math.pi) / math.pi < 1e-6


def test_slow_power_law_against_quad():
    # exponent -1.2 converges but needs the extrapolated tail
    f = lambda t: (1.0 + t * t) ** -0.6
    oracle = 2.0 * quad(lambda t: (1.0 + t * t) ** -0.6, 0, np.inf)[0]
    res = integrate_real_line(f, rel_tol=1e-6)
    assert abs(res.value - oracle) / oracle < 1e-4


@pytest.mark.parametrize("p", [0.5, 1.0, 1.02])
def test_divergent_envelope_raises(p):
    with pytest.raises(NonConvergentTail):
        integrate_real_line(lambda t: (1.0 + t * t) ** (-p / 2.0))


def test_oscillatory_growth_raises():
    with pytest.raises(NonConvergentTail):
        integrate_real_line(lambda t: np.cos(t) ** 2)


def test_zero_integrand():
    res = integrate_real_line(lambda t: np.zeros_like(t))
    assert res.value == 0.0 and res.error == 0.0


def test_interval_polynomial_exact():
    v, e = integrate_interval(lambda t: t ** 3 - 2 * t + 1, -1.0, 2.0, 1e-12)
    # antiderivative t^4/4 - t^2 + t on [-1, 2]
    assert abs(v - 3.75) < 1e-12


def test_interval_resolves_narrow_spike():
    eps = 1e-3
    f = lambda t: eps / (eps * eps + (t - 3.0) ** 2)
    v, e = integrate_interval(f, 0.0, 8.0, 1e-9)
    oracle = math.atan(5.0 / eps) + math.atan(3.0 / eps)
    assert abs(v - oracle) < 1e-7 * oracle


def test_complex_integrand_tail_direction():
    f = lambda t: 1.0 / (t - (0.5 + 1.0j)) ** 2
    res = integrate_real_line(f, rel_tol=1e-9)
    # exact: residue calculation gives 0 for a double pole off the axis
    assert abs(res.value) < 1e-8


# ---------------------------------------------------------------------------
# integrands evaluated in blocks
# ---------------------------------------------------------------------------

def _clark_cross(w=0.3 + 0.7j, z=-0.4 + 1.1j):
    """The cross integrand of two Clark kernels of theta = e^{iz}, multiplied
    by ``np.multiply``: an operator may reuse a large temporary in place,
    and an in-place complex multiply rounds otherwise."""
    theta = InnerFunction.exponential(1.0)
    kw, kz = clark_kernel(theta, w), clark_kernel(theta, z)

    def cross(t):
        tt = np.asarray(t, dtype=complex)
        return np.multiply(kw.values(tt), np.conj(kz.values(tt)))
    return cross


def _pw_difference():
    pw = build_pw(1.0)
    return pw.spaces["H"], next(f for label, f, _ in pw.members if label == "k[0]-k[1.3]")


def test_clark_integrand_sees_every_node_in_blocks_of_whole_panels(monkeypatch):
    cross = _clark_cross()
    calls, batches = [], []
    panel_batch = quadrature._panel_batch

    def spy(fn, lo, hi):
        batches.append((lo.copy(), hi.copy(), len(calls)))
        return panel_batch(fn, lo, hi)

    def counted(t):
        calls.append(np.array(t))
        return cross(t)

    monkeypatch.setattr(quadrature, "_panel_batch", spy)
    integrate_real_line(counted, rel_tol=1e-8)
    assert sum(c.size for c in calls) == 2_010_292
    assert max(c.size for c in calls) <= _POINTS
    # each rule's calls tile its batch: whole panels, in order, one block a call
    i = 0
    for lo, hi, first in batches:
        assert first == i
        mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for n in (15, 31):
            step = _POINTS // n
            nodes = mid[:, None] + rad[:, None] * _gl(n)[0][None, :]
            for j in range(0, lo.size, step):
                assert np.array_equal(calls[i], nodes[j:j + step].ravel())
                i += 1
    assert i == len(calls)


def _bits(res):
    if isinstance(res, tuple):
        value, error = res
        return complex(value).real.hex(), complex(value).imag.hex(), float(error).hex()
    return ([x.hex() for x in (res.value.real, res.value.imag, res.error,
                               res.tail.real, res.tail.imag)]
            + [x.hex() for s in res.octave_sums for x in (s.real, s.imag)])


def _pw_inner_product():
    space, f = _pw_difference()
    seen = []

    def spy(fn, **kwargs):
        seen.append(integrate_real_line(fn, **kwargs))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(space_module, "integrate_real_line", spy)
        inner_product(space, f, f, route="quadrature")
    return seen[0]


@pytest.mark.parametrize("run", [
    _pw_inner_product,
    lambda: integrate_real_line(lambda t: 1.0 / (1.0 + t * t), rel_tol=1e-8),
    lambda: integrate_real_line(_clark_cross(), rel_tol=1e-8),
    # 801 panels: 546 to a 15-point block, 264 to a 31-point one
    lambda: integrate_interval(np.cos, 0.0, 1200.3, 1e-12),
], ids=["pw-inner-product", "real-lorentzian", "clark-cross", "interval-801-panels"])
def test_blocks_give_the_bits_of_one_call_per_batch(monkeypatch, run):
    blocked = _bits(run())
    monkeypatch.setattr(quadrature, "_POINTS", 2 ** 30)
    assert _bits(run()) == blocked


def test_real_values_are_reduced_as_one_real_matrix_per_rule():
    # a loose tolerance keeps the 801 starting panels: the value is the
    # 31-point rule summed over them, a real (panels, 31) product
    edges = np.linspace(0.0, 1200.3, 802)
    mid, rad = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    x, w = _gl(31)
    expected = np.sum(rad * (np.cos(mid[:, None] + rad[:, None] * x[None, :]) @ w))
    value, _ = integrate_interval(np.cos, 0.0, 1200.3, 1.0)
    assert value.real.hex() == expected.hex() and value.imag == 0.0


def test_a_strided_view_gives_the_bits_of_a_contiguous_copy():
    # ``.real`` of a complex array is a strided view; its values are copied
    # into the contiguous (panels, n) matrix like any other
    def view(t):
        c = 1.0 / (t - (0.3 + 0.7j))
        return (c * np.conj(c)).real

    res = integrate_real_line(view, rel_tol=1e-8)
    assert _bits(res) == _bits(integrate_real_line(
        lambda t: np.ascontiguousarray(view(t)), rel_tol=1e-8))
    assert abs(res.value - math.pi / 0.7) <= res.error


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_clark_integral_working_memory_is_one_block_of_nodes():
    # one call per batch took 26.2 MiB at the 338,613-node octave
    cross = _clark_cross()
    assert _traced_peak(lambda: integrate_real_line(cross, rel_tol=1e-8)) < 12 * 2 ** 20


def test_pw_inner_product_working_memory_is_one_block_of_nodes():
    # one call per batch took 14.5 MiB
    space, f = _pw_difference()
    assert _traced_peak(lambda: inner_product(space, f, f, route="quadrature")) < 8 * 2 ** 20


# ---------------------------------------------------------------------------
# non-finite sums
# ---------------------------------------------------------------------------

def test_nan_beyond_a_halfwidth_raises_overflow_at_that_octave():
    def f(t):
        v = 1.0 / (1.0 + t * t)
        v[np.abs(t) > 100.0] = np.nan
        return v

    with np.errstate(invalid="ignore"), \
            pytest.raises(Overflow, match="up to halfwidth 128 .* not finite"):
        integrate_real_line(f)


def test_nan_at_an_isolated_node_is_refined_away():
    # the midpoint of the first core panel is a node of both rules, and
    # an edge of its halves
    c = 0.5 * np.sum(np.linspace(-16.0, 16.0, 23)[:2])

    def f(t):
        v = 1.0 / (1.0 + t * t)
        v[t == c] = np.nan
        return v

    with np.errstate(invalid="ignore"):
        res = integrate_real_line(f)
    assert abs(res.value - math.pi) <= res.error < 1e-6


def test_overflowing_norm_integral_raises_overflow():
    f = expr_from_json({"kind": "exp", "coeff": [800, 0]})
    with np.errstate(all="ignore"), pytest.raises(Overflow, match="halfwidth 16 "):
        membership(pw_space(1.0), f)


def test_cli_overflowing_norm_integral_is_a_computation_error(tmp_path):
    space = tmp_path / "pw1.json"
    space.write_text(json.dumps(pw_space(1.0).to_json()))
    r = subprocess.run([sys.executable, "-m", "dblab.cli", "member", "--space", str(space),
                        "--f", '{"kind":"exp","coeff":[800,0]}'],
                       capture_output=True, text=True)
    assert r.returncode == 1 and "Traceback" not in r.stderr
    assert json.loads(r.stdout)["error"]["kind"] == "overflow"
