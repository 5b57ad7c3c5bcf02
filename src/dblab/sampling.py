"""Norms and inner products of H(E) by orthogonal sampling.

For real ``alpha`` let ``S = Im(e^(i alpha) E)`` on the real axis; its
zeros ``t_n`` are the points where the phase of E is ``alpha`` mod pi.
Unless ``S`` lies in H(E), which happens for at most one ``alpha`` mod
pi, the kernels ``K(t_n, .)`` are an orthogonal basis (de Branges,
*Hilbert Spaces of Entire Functions*, Theorem 22), so

    (F, G) = sum F(t_n) conj(G(t_n)) / K(t_n, t_n).

At the exceptional angle the sum misses ``|(F, S)|^2 / ||S||^2``: in the
a20 space ``alpha = pi/2`` is exceptional, since ``S = A = cos`` is a
member.  ``space.inner_product`` imports this module at its first
sampled call, so it is not compiled at ``import dblab``.
"""

from __future__ import annotations

import math

import numpy as np

from .defaults import DEFAULTS
from .errors import ConfigError, NonConvergentTail, SamplingDisagreement, require_finite
from .expressions import EvalResult, FunctionExpr
from .quadrature import _ar_ratio
from .space import DbSpace, kernel_diagonal_values

# Orthogonal sampling: grid cells per mean point spacing pi/tau in the
# bracket scan, points of the first block (blocks then double), the cap
# on the points of one angle, Newton steps per root, and the phase angles
# tried in turn (at most one angle mod pi is exceptional)
_CELLS = 8
_FIRST = 64
_MAX_POINTS = 2 ** 16
_NEWTON_STEPS = 60
_ANGLES = (0.0, math.pi / 2, math.pi / 4)
_EPS = np.finfo(float).eps


def sampling_points(space: DbSpace, alpha: float, n: int):
    """``(t, w)``: the ``n`` real points of smallest ``|t|`` where the phase
    of E is ``alpha`` mod pi, in order of ``|t|``, and their weights
    ``1 / K(t, t)``; cached on the space, keyed by ``(alpha, n)``.

    The points are the zeros of ``S(t) = Im(e^(i alpha) E(t))``.  A grid
    of ``_CELLS`` cells per ``pi / declared_exp_type`` brackets every sign
    change, and safeguarded Newton with ``S'`` from ``E.jets`` solves each
    bracket.  The grid's nodes do not depend on ``n``, so a point has the
    same bits for every ``n``.  The roots found must match the count of
    multiples of pi that the phase of E, unwrapped over the grid, passes:
    one root per pi of phase.  A phase that runs out before ``n`` points,
    or a count that does not match, raises ConfigError.
    """
    key = ("sampling", alpha, n)
    if key in space._cache:
        return space._cache[key]
    h = math.pi / (_CELLS * space.declared_exp_type)
    rot = complex(math.cos(alpha), math.sin(alpha))
    m = _CELLS * (n // 2 + 4)
    for _ in range(3):     # the expected count, then twice and four times the extent
        t = (np.arange(-m, m) + 0.5) * h
        ev = space.e.values(t.astype(complex))
        sign = np.sign((rot * ev).imag)
        cells = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        nodes = np.nonzero(sign == 0)[0]
        # phi = -arg E increases; a cell adds less than 3 pi / 2 to it
        dphi = -np.angle(ev[1:] * np.conj(ev[:-1]))
        dphi[dphi < -0.5 * math.pi] += 2.0 * math.pi
        phi0 = -math.atan2(ev[0].imag, ev[0].real) - alpha
        count = (math.floor((phi0 + float(np.sum(dphi))) / math.pi)
                 - math.floor(phi0 / math.pi))
        if cells.size + np.count_nonzero(nodes > 0) != count:
            raise ConfigError(f"sampling points at angle {alpha:g}: {cells.size + nodes.size} "
                              f"sign changes and zeros of Im(e^(i alpha) E) on |t| < {m * h:g} "
                              f"where the phase of E passes {count} multiples of pi")
        if cells.size + nodes.size >= n:
            break
        m *= 2
    else:
        raise ConfigError(f"the phase of E runs out: {cells.size + nodes.size} sampling points "
                          f"on |t| < {m * h:g} at angle {alpha:g}, fewer than the {n} "
                          f"that the declared exponential type {space.declared_exp_type:g} gives")
    roots = np.sort(np.concatenate([t[nodes], _newton(space.e, rot, t[cells], t[cells + 1],
                                                      sign[cells])]))
    if not np.all(np.diff(roots) > 0):
        raise ConfigError(f"sampling points at angle {alpha:g} are not distinct")
    roots = roots[np.argsort(np.abs(roots), kind="stable")[:n]]
    with np.errstate(divide="ignore"):
        w = 1.0 / kernel_diagonal_values(space, roots).real
    require_finite(np.isfinite(w) & (w > 0), roots, "the sampling weight 1/K(t, t) at t")
    space._cache[key] = roots, w
    return roots, w


def _newton(e: FunctionExpr, rot: complex, lo, hi, s_lo):
    """Zeros of ``Im(rot E)`` in the brackets ``(lo, hi)`` (``s_lo`` the
    sign at ``lo``): Newton steps, bisection where one leaves its bracket.
    Each point's steps depend on its own bracket only."""
    lo, hi = lo.copy(), hi.copy()
    t = 0.5 * (lo + hi)
    live = np.arange(t.size)
    for _ in range(_NEWTON_STEPS):
        if not live.size:
            break
        x = t[live]
        v, d = e.jets(x.astype(complex))
        s = (rot * v).imag
        left = np.sign(s) == s_lo[live]
        lo[live] = np.where(left, x, lo[live])
        hi[live] = np.where(left, hi[live], x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - s / (rot * d).imag
        inside = (step > lo[live]) & (step < hi[live])
        nxt = np.where(s == 0, x, np.where(inside, step, 0.5 * (lo[live] + hi[live])))
        t[live] = nxt
        tol = 4.0 * _EPS * np.abs(nxt)
        live = live[~((s == 0) | (np.abs(nxt - x) <= tol)
                      | (hi[live] - lo[live] <= tol))]
    return t


def _richardson(sums):
    """Extrapolate partial sums at ``N/8, N/4, N/2, N`` terms to ``N = inf``
    in powers of ``1/N``; returns the value and its spread against the
    extrapolation one order lower."""
    table = [list(sums)]
    for j in range(1, len(sums)):
        prev = table[-1]
        table.append([b + (b - a) / (2 ** j - 1) for a, b in zip(prev, prev[1:])])
    value = table[-1][0]
    return value, abs(value - table[-2][-1])


def _sampled(space: DbSpace, f: FunctionExpr, g: FunctionExpr, alpha: float, rel: float):
    """``sum F(t) conj G(t) / K(t, t)`` over the sampling points of angle
    ``alpha``: ``(value, spread, rounding)``.

    Blocks of points double from ``_FIRST``; F and G are evaluated once per
    block.  The value is the Richardson extrapolation of the last four
    partial sums, taken once its spread is within ``max(quad_abs_tol,
    rel |value|)``; at ``_MAX_POINTS`` the spread also carries the
    geometric tail of the last increments.  Increments that do not decay
    faster than the ``quad_divergence_slope`` rule allows (terms no faster
    than ``1/n``) raise NonConvergentTail; a term that is not finite raises
    Overflow.
    """
    abst = DEFAULTS["quad_abs_tol"]
    div_slope = DEFAULTS["quad_divergence_slope"]
    total, mass, sums = 0.0j, 0.0, []
    n_done, n = 0, _FIRST
    while True:
        t, w = sampling_points(space, alpha, n)
        tb = t[n_done:].astype(complex)
        with np.errstate(over="ignore", invalid="ignore"):
            fv = f.values(tb)
            gv = fv if g is f else g.values(tb)
            terms = fv * np.conj(gv) * w[n_done:]
        require_finite(np.isfinite(terms), t[n_done:],
                       "the sampling term F(t) conj G(t) / K(t, t) at t")
        total += complex(np.sum(terms))
        mass += float(np.sum(np.abs(terms)))
        sums.append(total)
        n_done, n = n, 2 * n
        if len(sums) < 4:
            continue
        value, spread = _richardson(sums[-4:])
        tol = max(abst, rel * abs(value))
        inc = np.diff(np.array(sums[-4:]))
        r, _ = _ar_ratio(inc)
        rr = abs(r)
        if rr > 0 and math.log2(rr) >= div_slope and abs(inc[-1]) > tol:
            raise NonConvergentTail(f"sampling increments decay exponent {math.log2(rr):.3f} "
                                    f">= {div_slope} at {n_done} points, angle {alpha:g}")
        if spread <= tol:
            break
        if n > _MAX_POINTS:
            tail = abs(inc[-1]) * rr / (1.0 - rr) if rr < 1.0 else 2.0 * abs(inc[-1])
            spread = max(spread, tail)
            break
    return value, spread, 8.0 * _EPS * mass


def sampled_inner_product(space: DbSpace, f: FunctionExpr, g: FunctionExpr,
                          rel: float) -> EvalResult:
    """``(F, G)`` from the sums at angles 0 and pi/2, or, when those two
    disagree beyond their bands and the tolerance, from the pair of them
    and pi/4 that agrees (``SamplingDisagreement`` if none does).  The
    value is the sum of the smaller Richardson spread; ``abs_error`` is the
    larger spread or the distance of the two sums, whichever is larger,
    plus the rounding term."""
    tol = DEFAULTS["quad_abs_tol"]

    def agree(a, b):
        return abs(a[0] - b[0]) <= max(a[1] + a[2] + b[1] + b[2], tol, rel * abs(a[0]))

    runs = [_sampled(space, f, g, alpha, rel) for alpha in _ANGLES[:2]]
    pairs = [(runs[0], runs[1])]
    if not agree(*pairs[0]):
        runs.append(_sampled(space, f, g, _ANGLES[2], rel))
        pairs = [p for p in ((runs[0], runs[2]), (runs[1], runs[2])) if agree(*p)]
    if not pairs:
        raise SamplingDisagreement(
            f"sampling sums at phase angles {', '.join(f'{x:g}' for x in _ANGLES)} are "
            f"{', '.join(f'{r[0]:.10g}' for r in runs)}, no two within their bands")
    a, b = min(pairs, key=lambda p: abs(p[0][0] - p[1][0]))
    best = min(a, b, key=lambda r: r[1])
    return EvalResult(complex(best[0]), max(a[1], b[1], abs(a[0] - b[0])) + max(a[2], b[2]))
