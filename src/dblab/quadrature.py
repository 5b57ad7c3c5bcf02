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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .defaults import DEFAULTS
from .errors import NonConvergentTail

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
    tail: complex
    tail_exponent: float
    octave_sums: list


def _panel_batch(fn, lo: np.ndarray, hi: np.ndarray):
    """15/31-point Gauss values for a batch of panels, one fn call each."""
    mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
    out = []
    for n in (15, 31):
        x, w = _gl(n)
        pts = mid[:, None] + rad[:, None] * x[None, :]
        vals = np.asarray(fn(pts.ravel())).reshape(pts.shape)
        out.append(rad * (vals @ w))
    return out[0], out[1]


def integrate_interval(fn, a: float, b: float, tol: float):
    """Adaptive integral of ``fn`` over [a, b]; returns (value, error)."""
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


def integrate_real_line(fn, *, rel_tol: float | None = None) -> QuadResult:
    """Integrate ``fn`` over all of R with a certified-decay tail estimate.

    Raises :class:`NonConvergentTail` when the fitted octave decay is too
    slow (integrand envelope worse than ``1/t**1.05``).
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
    sums, t = [], t0
    tail, tail_exp = 0.0 + 0.0j, -np.inf
    while t < tmax:
        vp, ep = integrate_interval(fn, t, 2 * t, tol_now(total))
        vm, em = integrate_interval(fn, -2 * t, -t, tol_now(total))
        s = vp + vm
        total += s
        toterr += ep + em
        sums.append(s)
        t *= 2.0
        if len(sums) < fit_k:
            continue
        arr = np.array(sums[-fit_k:], dtype=complex)
        if np.all(np.abs(arr) < 1e-300):
            tail, tail_exp = 0.0 + 0.0j, -np.inf
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
            tail_exp = math.log2(abs(r)) if abs(r) > 0 else -np.inf
    return QuadResult(complex(total), float(toterr), float(t), complex(tail),
                      float(tail_exp), [complex(s) for s in sums])
