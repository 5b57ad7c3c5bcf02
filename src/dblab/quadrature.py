"""Adaptive panel quadrature over the real line.

Strategy: composite Gauss-Legendre panels (15/31 point pairs for the
error estimate) on a core interval, then octave blocks ``[T, 2T]`` and
``[-2T, -T]`` with ``T`` doubling.  Octave sums are fed to a one-step
autoregressive fit; when the fitted decay ratio certifies a convergent
tail, the extrapolated remainder is added to the result and its
uncertainty to the error estimate.  A decay exponent at or above -1.05
for the integrand (octave-sum ratio >= 2**-0.05) raises
:class:`NonConvergentTail` instead.

Everything evaluates vectorized; panels are split where the 15/31 point
results disagree, so narrow spikes riding on a smooth background get
refined while smooth oscillatory stretches stay cheap.

Integrand contract: ``fn`` maps a 1-d array of real nodes to an array of
values of the same size and dtype on every call, and must be pointwise
(a value depends on its own node only).  It is called on consecutive slices of whole panels of
at most ``_POINTS`` nodes, in order; its values are copied into one
contiguous matrix per Gauss rule and reduced once, so neither the blocks
nor the memory layout of the values change a bit.  An integrand that
raises does so at its first failing block.  A running total or error
that is not finite raises :class:`Overflow`, naming the halfwidth
reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .defaults import DEFAULTS
from .errors import NonConvergentTail, Overflow
from .expressions import _POINTS

# refinement rounds and panel count at which an interval stops splitting
_MAX_ROUNDS = 18
_MAX_PANELS = 200_000


@lru_cache(maxsize=None)
def _gl(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@dataclass
class QuadResult:
    value: complex
    error: float
    halfwidth: float
    octave_sums: list


def _gauss(fn, mid: np.ndarray, rad: np.ndarray, n: int) -> np.ndarray:
    """n-point Gauss values of a batch of panels.  ``fn`` is called on
    whole panels, in order, at most ``_POINTS`` nodes at a time; the values
    fill one (panels, n) matrix of the first block's dtype, reduced once,
    all with numpy's overflow, NaN and division warnings off."""
    x, w = _gl(n)
    step = max(1, _POINTS // n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(0, mid.size, step):
            block = slice(i, i + step)
            pts = mid[block, None] + rad[block, None] * x[None, :]
            v = np.asarray(fn(pts.ravel())).reshape(pts.shape)
            if i == 0:
                vals = np.empty((mid.size, n), dtype=v.dtype)
            vals[block] = v
        return rad * (vals @ w)


def _panel_batch(fn, lo: np.ndarray, hi: np.ndarray):
    """15/31-point Gauss values for a batch of panels; each rule's value
    matrix is freed before the next is built."""
    mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return _gauss(fn, mid, rad, 15), _gauss(fn, mid, rad, 31)


def integrate_interval(fn, a: float, b: float, tol: float):
    """Adaptive integral of ``fn`` over [a, b]; returns (value, error).

    ``fn`` must be pointwise.  It is called on consecutive slices of whole
    panels, at most ``_POINTS`` nodes a call, and raises, if it raises, at
    its first failing block.  A non-finite value at a node is not an
    error here, since refinement may split it away; if it reaches the
    sums, :func:`integrate_real_line` raises :class:`Overflow`.
    """
    if b <= a:
        return 0.0 + 0.0j, 0.0
    n0 = max(4, int(math.ceil((b - a) / DEFAULTS["quad_panel_length"])))
    edges = np.linspace(a, b, n0 + 1)
    lo, hi = edges[:-1], edges[1:]
    i15, i31 = _panel_batch(fn, lo, hi)
    err = np.abs(i31 - i15)
    for _ in range(_MAX_ROUNDS):
        total_err = float(np.sum(err))
        if total_err <= tol or lo.size >= _MAX_PANELS:
            break
        # split the panels carrying the top 90% of the error budget
        order = np.argsort(err)[::-1]
        csum = np.cumsum(err[order])
        k = int(np.searchsorted(csum, 0.9 * total_err)) + 1
        k = min(k, 4096, lo.size)
        split, keep = order[:k], order[k:]
        mid = 0.5 * (lo[split] + hi[split])
        nlo = np.concatenate([lo[split], mid])
        nhi = np.concatenate([mid, hi[split]])
        s15, s31 = _panel_batch(fn, nlo, nhi)
        serr = np.abs(s31 - s15)
        lo = np.concatenate([lo[keep], nlo])
        hi = np.concatenate([hi[keep], nhi])
        i31 = np.concatenate([i31[keep], s31])
        err = np.concatenate([err[keep], serr])
    # deterministic reduction: sum in panel-position order
    order = np.argsort(lo, kind="stable")
    return complex(np.sum(i31[order])), float(np.sum(err[order]))


def _ar_ratio(sums: np.ndarray):
    """Least-squares one-step ratio r with S_{j+1} ~ r * S_j, plus scatter."""
    s0, s1 = sums[:-1], sums[1:]
    denom = float(np.sum(np.abs(s0) ** 2))
    if denom == 0.0:
        return 0.0 + 0.0j, 0.0
    r = complex(np.sum(s1 * np.conj(s0)) / denom)
    resid = float(np.sqrt(np.sum(np.abs(s1 - r * s0) ** 2)))
    scale = float(np.sqrt(np.sum(np.abs(s1) ** 2)))
    return r, (resid / scale if scale > 0 else 0.0)


def _check_finite(total: complex, err: float, halfwidth: float):
    """Raise :class:`Overflow` unless ``|total|`` and ``err`` are finite."""
    if not (math.isfinite(math.hypot(total.real, total.imag)) and math.isfinite(err)):
        raise Overflow(f"the integral up to halfwidth {halfwidth:g} is {total} with "
                       f"error {err}, not finite in double precision")


def integrate_real_line(fn, *, rel_tol: float | None = None) -> QuadResult:
    """Integrate ``fn`` over all of R with a certified-decay tail estimate.

    Raises :class:`NonConvergentTail` when the fitted octave decay is too
    slow (integrand envelope worse than ``1/t**1.05``), and
    :class:`Overflow` as soon as the running total or error is not finite.
    """
    rel = DEFAULTS["quad_rel_tol"] if rel_tol is None else rel_tol
    abst = DEFAULTS["quad_abs_tol"]
    t0 = DEFAULTS["quad_core_halfwidth"]
    tmax = DEFAULTS["quad_max_halfwidth"]
    fit_k = DEFAULTS["quad_fit_octaves"]
    div_slope = DEFAULTS["quad_divergence_slope"]

    def tol_now(current):
        return max(abst, rel * abs(current)) / 8.0

    total, toterr = integrate_interval(fn, -t0, t0, tol_now(1.0))
    _check_finite(total, toterr, t0)
    sums, t = [], t0
    while t < tmax:
        vp, ep = integrate_interval(fn, t, 2 * t, tol_now(total))
        _check_finite(total + vp, toterr + ep, 2 * t)
        vm, em = integrate_interval(fn, -2 * t, -t, tol_now(total))
        s = vp + vm
        total += s
        toterr += ep + em
        _check_finite(total, toterr, 2 * t)
        sums.append(s)
        t *= 2.0
        if len(sums) < fit_k:
            continue
        arr = np.array(sums[-fit_k:], dtype=complex)
        if np.all(np.abs(arr) < 1e-300):
            break
        r, scatter = _ar_ratio(arr)
        rr = abs(r)
        tail_exp = math.log2(rr) if rr > 0 else -np.inf
        tol = max(abst, rel * abs(total))
        if tail_exp >= div_slope:
            if len(sums) >= 5 and abs(s) > tol:
                raise NonConvergentTail(
                    f"octave-sum decay exponent {tail_exp:.3f} >= {div_slope} at T={t:g}")
            continue
        tail = arr[-1] * r / (1.0 - r)
        unc = abs(tail) * max(scatter / (1.0 - rr), 8.0 / t, 1e-4)
        if unc + abs(s) * 1e-12 < tol or abs(tail) < 0.25 * tol:
            total += tail
            toterr += unc
            break
    else:
        # honest fallback: tolerance unmet at max halfwidth
        if sums:
            arr = np.array(sums[-fit_k:], dtype=complex)
            r, scatter = _ar_ratio(arr)
            if abs(r) < 1.0:
                tail = arr[-1] * r / (1.0 - r)
                total += tail
                toterr += abs(tail) * max(scatter / (1.0 - abs(r)), 0.25)
            else:
                toterr += 2.0 * abs(sums[-1])
    return QuadResult(complex(total), float(toterr), float(t), [complex(s) for s in sums])
