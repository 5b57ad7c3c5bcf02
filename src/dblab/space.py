"""De Branges space primitives built from a Hermite-Biehler function E.

A space is represented by its structure function ``E`` together with
optional zero data and declared growth metadata.  Everything numerical
here reduces to four primitives:

* the reproducing kernel
  ``K(w, z) = (E(z) E#(conj w) - E(conj w) E#(z)) / (2 pi i (conj w - z))``,
  with a first-order Taylor form through the removable diagonal
  singularity, whose ``E'`` comes from order-1 jets for a closed-form E
  and from Cauchy rings (``ring_derivatives``) only for an E with a
  series node,
* the kernel norm ``nabla(z) = K(z, z)**0.5`` computed off the real axis
  from the half-plane modulus difference quotient,
* the inner product ``(F, G) = int F conj(G) / |E|**2`` over the real
  line: for a closed-form E of positive declared exponential type the
  sum of ``F conj(G) / K(t, t)`` over the real points where the phase of
  E is ``alpha`` mod pi (orthogonal sampling), otherwise adaptive
  quadrature of the integral, and
* ray-wise mean-type slope fits.

Membership verdicts combine the mean-type fits with a finite norm and
may return ``undecided`` when the regression cannot separate the slope
from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .defaults import DEFAULTS
from .errors import (AllPointsDiscarded, ConfigError, NegativeRadicand,
                     NonConvergentTail, Overflow, SamplingDisagreement, ZeroOnAxis,
                     finite, require_finite)
from .expressions import (_CHUNK, _POINTS, CanonicalProduct, Const, EvalResult, ExpCZ,
                          FunctionExpr, Poly, Power, Product, Quotient, Z, ZeroSequence,
                          cached, expr_from_json, expr_to_json, ring_derivatives,
                          zero_sequence_from_spec)
from .quadrature import integrate_real_line

TWO_PI_I = 2.0j * math.pi


@dataclass
class DbSpace:
    """Hermite-Biehler structure function plus derived metadata."""

    e: FunctionExpr
    zeros: Optional[ZeroSequence] = None
    declared_order: float = 1.0
    declared_exp_type: float = 0.0
    label: str = ""
    hb_verified: bool = False
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def e_sharp(self) -> FunctionExpr:
        return self.e.sharp()

    def to_json(self) -> dict:
        zspec = None if self.zeros is None else self.zeros.to_spec()
        return {"E": expr_to_json(self.e), "zeros": zspec,
                "declared-order": self.declared_order,
                "declared-exp-type": self.declared_exp_type,
                "label": self.label}

    @classmethod
    def from_json(cls, d: dict) -> "DbSpace":
        if not isinstance(d, dict) or "E" not in d:
            raise ConfigError("space spec must be an object with an 'E' expression")
        zeros = None
        if d.get("zeros") is not None:
            zeros = zero_sequence_from_spec(d["zeros"])
        return cls(expr_from_json(d["E"]), zeros,
                   finite(d.get("declared-order", 1.0), "'declared-order'", float),
                   finite(d.get("declared-exp-type", 0.0), "'declared-exp-type'", float),
                   str(d.get("label", "")))


@dataclass(frozen=True)
class MeanTypeEstimate:
    """Ray growth-rate slope with its regression standard error."""

    value: float
    residual: float
    radii: np.ndarray


@dataclass(frozen=True)
class MembershipResult:
    verdict: str  # "in" | "out" | "undecided"
    diagnostics: dict


# ---------------------------------------------------------------------------
# Hermite-Biehler check
# ---------------------------------------------------------------------------

def hb_check(space: DbSpace):
    """True iff |E#| < |E| at every point of a 10 x 10 grid over
    [-20, 20] x i[0.1, 10]; also reports the worst margin.

    Sets ``space.hb_verified`` on success.  Raises :class:`Overflow` when
    |E| or |E#| is not finite at a grid point.
    """
    grid = (np.linspace(-20.0, 20.0, 10)[:, None]
            + 1j * np.geomspace(0.1, 10.0, 10)[None, :]).ravel()
    ev = space.e.moduli(grid)
    es = space.e_sharp.moduli(grid)
    require_finite(np.isfinite(ev) & np.isfinite(es), grid, "|E| or |E#| at z")
    margin = float(np.min(ev - es))
    ok = bool(margin > 0.0)
    if ok:
        space.hb_verified = True
    return ok, margin


# ---------------------------------------------------------------------------
# kernel and kernel norm
# ---------------------------------------------------------------------------

def kernel_diagonal(space: DbSpace, z) -> complex:
    """K(z, z) from the Taylor form (E E#' - E' E#)(z) / (2 pi i)."""
    return complex(kernel_diagonal_values(space, complex(z))[0])


def kernel_diagonal_values(space: DbSpace, zs) -> np.ndarray:
    """Vectorized diagonal kernel, of the shape of ``zs`` (at least 1-d),
    one expression block at a time whatever the batch.

    A closed-form E (see ``FunctionExpr.closed_form``) gives E, E', E# and
    E#' from ``jets``, ``_POINTS`` centres at a time.  An E with a series
    node takes E' and E#' from ``ring_derivatives``, ``_POINTS //
    derivative_nodes`` centres at a time, and E and E# from ``values``.
    Either way each centre's value has the bits it has alone.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    flat = zs.ravel()
    jets = space.e.closed_form()
    out = np.empty(flat.shape, dtype=complex)
    step = _POINTS if jets else max(1, _POINTS // DEFAULTS["derivative_nodes"])
    for i in range(0, flat.size, step):
        z = flat[i:i + step]
        if jets:
            (e0, ed), (es0, esd) = space.e.jets(z), space.e_sharp.jets(z)
        else:
            ed, esd = (ring_derivatives(g, z, error=False)[0][1]
                       for g in (space.e, space.e_sharp))
            e0, es0 = space.e.values(z), space.e_sharp.values(z)
        out[i:i + step] = (e0 * esd - ed * es0) / TWO_PI_I
    return out.reshape(zs.shape)


def kernel(space: DbSpace, w, z):
    """Reproducing kernel K(w, z); scalar or array ``z``.

    Within ``1e-6 * (1 + |z|)`` of the diagonal the removable singularity
    is evaluated by the first-order expansion at the midpoint, which keeps
    the two branches continuous to well below 1e-8.
    """
    w = complex(w)
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    u = np.conj(w) - zz
    switch = DEFAULTS["kernel_diagonal_switch"] * (1.0 + np.abs(zz))
    out = np.empty(zz.shape, dtype=complex)
    far = np.abs(u) >= switch
    with np.errstate(over="ignore", invalid="ignore"):
        if np.any(far):
            zf = zz[far]
            num = (space.e.values(zf) * space.e_sharp.at(np.conj(w))
                   - space.e.at(np.conj(w)) * space.e_sharp.values(zf))
            out[far] = num / (TWO_PI_I * u[far])
        near = ~far
        if np.any(near):
            out[near] = kernel_diagonal_values(space, 0.5 * (np.conj(w) + zz[near]))
    require_finite(np.isfinite(out), zz, f"the kernel K(w, z) at w={w}, z")
    if np.asarray(z).shape == ():
        return complex(out[0])
    return out


def nabla(space: DbSpace, z) -> float:
    """Norm of the reproducing kernel at z (z in the closed upper half-plane)."""
    return float(nabla_values(space, complex(z))[0])


def nabla_values(space: DbSpace, zs: np.ndarray) -> np.ndarray:
    """Vectorized ``nabla``; raises Overflow at the first point where it is not finite."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    out = np.empty(zs.shape, dtype=float)
    off = zs.imag > 0
    with np.errstate(over="ignore", invalid="ignore"):
        if np.any(off):
            # factor |E(z)|^2 - |E(conj z)|^2 so moduli up to ~1e300 stay in range
            zo = zs[off]
            d = space.e.moduli(zo)
            s = space.e.moduli(np.conj(zo))
            bad = d - s < -1e-12 * np.maximum(1.0, d)
            if np.any(bad):
                raise NegativeRadicand(f"|E#| exceeds |E| at z={zo[bad][0]}: not Hermite-Biehler")
            scale = 2.0 * np.sqrt(math.pi * zo.imag)
            out[off] = np.sqrt(np.maximum(d - s, 0.0)) * np.sqrt(d + s) / scale
        if np.any(~off):
            za = zs[~off]
            if np.any(za.imag < 0):
                raise ConfigError("nabla is defined on the closed upper half-plane")
            rad = kernel_diagonal_values(space, za).real
            bad = rad < -1e-12 * np.maximum(1.0, np.abs(rad))
            if np.any(bad):
                raise NegativeRadicand(f"kernel-norm radicand {rad[bad][0]} at z={za[bad][0]}")
            out[~off] = np.sqrt(np.maximum(rad, 0.0))
    require_finite(np.isfinite(out), zs, "the kernel norm at z")
    return out


# ---------------------------------------------------------------------------
# phase derivative
# ---------------------------------------------------------------------------

# The zero-sum cluster tree (see _PhaseTree): zeros per leaf at most, the
# far ratio h/|t - c|, the moment order J (moments j < J), and the
# relative truncation bound they give
_LEAF = 64
_RATIO = 0.25
_ORDER = 29
TRUNCATION_BOUND = ((1.0 + _RATIO) ** 2 * _RATIO ** (_ORDER - 1)
                    * (_ORDER - (_ORDER - 1) * _RATIO) / (1.0 - _RATIO) ** 2)
# points traversed together, and near (point, leaf) pairs summed together
_TREE_POINTS = 2 ** 8
_PAIRS = 2 ** 11


class _PhaseTree:
    """Binary cluster tree for ``sum |Im z_k| / |t - z_k|**2`` at real ``t``.

    Each summand is ``Im 1/(t - w_k)`` with ``w_k = x_k + i y_k``,
    ``y_k = |Im z_k|``: the zero reflected into the upper half-plane.  The
    ``w_k`` are sorted by real part and halved level by level (node ``i``
    of level ``l`` holds ``w[i n // 2^l : (i+1) n // 2^l]``) until every
    node holds at most ``_LEAF`` zeros.  A node has a real centre ``c``
    (the midpoint of its real parts), a radius ``h >= max |w_k - c|`` and
    the moments ``M_j = sum (w_k - c)^j`` for ``j < J``.  Where
    ``h <= |t - c|/4``, ``sum 1/(t - w_k) = sum_j M_j / (t - c)^(j+1)``, and
    as ``t - c`` is real the node's share of the phase sum is
    ``sum_j Im M_j / (t - c)^(j+1)`` exactly: only the ``Im M_j`` are kept
    (``Im M_0 = 0``), so the real parts, about 1e6 times larger on the a45
    set, never cancel against them.  A point takes the coarsest such nodes
    and sums the zeros of every other leaf term by term.

    Truncation.  With ``w_k - c = s_k e^(i a_k)``,
    ``|Im (w_k - c)^j| = s_k^j |sin(j a_k)| <= j y_k h^(j-1)``, so at
    ``r = |t - c|`` the omitted orders add at most
    ``sum y_k * sum_{j>=J} j h^(j-1) / r^(j+1)``, while the node's share is
    at least ``sum y_k / (r + h)^2`` (each ``|t - w_k| <= r + h``).  At
    ``rho = h/r <= 1/4`` their ratio is at most
    ``(1 + rho)^2 sum_{j>=J} j rho^(j-1)
    = (1 + rho)^2 rho^(J-1) (J - (J-1) rho) / (1 - rho)^2``,
    which is ``(25/9)(3J + 1)/4^J`` at ``rho = 1/4``: 3.3e-15 at ``J = 28``
    and ``TRUNCATION_BOUND`` = 8.5e-16 at ``J = 29``.  Every share is
    nonnegative, so this bounds the relative truncation error of the sum.

    A node stores ``N_j = Im M_j / h^(j-1)`` for ``j = 1..J-1``; each
    ``|N_j| <= j sum y_k`` at any scale of the zeros.  Leaves take theirs
    from their zeros, parents from their children by the binomial shift
    ``N'_j = sum_m C(j, m) (d/H)^(j-m) (h/H)^(m-1) N_m`` (``d`` the child's
    centre less the parent's, ``h`` and ``H`` the radii), one step per
    power of ``d/H`` over a whole level.  The build costs ``O(n J)``.  A
    point then costs ``O(J log n)`` where the zeros spread along the axis:
    on the a45 set at ``n = 1e5`` it visits about six nodes a level, takes
    33 clusters through their moments and sums four leaves term by term.
    Zeros that share a real part and spread up the imaginary axis are
    never far from a point between them, and are summed term by term.
    A point's value does not depend on the other points evaluated with it.
    """

    def __init__(self, zeros: np.ndarray):
        rank = np.argsort(zeros.real, kind="stable")
        n = rank.size
        depth = 0
        while n > _LEAF << depth:
            depth += 1
        self.levels = []
        if n == 0:
            return
        bounds = [np.arange(2 ** l + 1) * n // 2 ** l for l in range(depth + 1)]
        lo, hi = bounds[-1][:-1], bounds[-1][1:]
        sizes = hi - lo
        # the leaves' zeros by rows, padded with zero terms (x = inf, y = 0)
        self.x = np.full((lo.size, sizes.max()), np.inf)
        self.y = np.zeros(self.x.shape)
        c = 0.5 * (zeros.real[rank[lo]] + zeros.real[rank[hi - 1]])
        h = np.empty(lo.size)
        moments = np.empty((_ORDER - 1, lo.size))
        # _CHUNK zeros at a time: no temporary of the size of the zero set
        for a in range(0, lo.size, _CHUNK // _LEAF):
            rows = slice(a, a + _CHUNK // _LEAF)
            zs = zeros[rank[lo[rows][0]:hi[rows][-1]]]
            inside = np.arange(self.x.shape[1]) < sizes[rows, None]
            self.x[rows][inside], self.y[rows][inside] = zs.real, np.abs(zs.imag)
            w = np.zeros(inside.shape, dtype=complex)
            w.real[inside] = zs.real - np.repeat(c[rows], sizes[rows])
            w.imag[:] = self.y[rows]
            h[rows] = np.max(np.abs(w), axis=1)
            scale = np.where(h[rows] > 0, h[rows], 1.0)
            w.real /= scale[:, None]     # a complex division overflows at subnormal radii
            w.imag /= scale[:, None]
            q = w.copy()
            for j in range(_ORDER - 1):
                moments[j, rows] = np.sum(q.imag, axis=1) * scale
                q *= w
        self.levels.append((c, h, moments))
        powers = np.arange(_ORDER - 1)[:, None]
        binom = [np.array([math.comb(a + 1, k) for a in range(k, _ORDER - 1)])[:, None]
                 for k in range(_ORDER - 1)]
        for b in bounds[-2::-1]:
            lo, hi = b[:-1], b[1:]
            c_up = 0.5 * (zeros.real[rank[lo]] + zeros.real[rank[hi - 1]])
            d = c - np.repeat(c_up, 2)
            h_up = np.max((np.abs(d) + h).reshape(-1, 2), axis=1)
            scale = np.repeat(np.where(h_up > 0, h_up, 1.0), 2)
            d /= scale
            shifted = moments * (h / scale) ** powers
            acc = shifted.copy()
            dk = np.ones_like(d)
            for k in range(1, _ORDER - 1):
                dk *= d
                acc[k:] += (binom[k] * dk) * shifted[:_ORDER - 1 - k]
            c, h, moments = c_up, h_up, acc[:, 0::2] + acc[:, 1::2]
            self.levels.append((c, h, moments))
        self.levels.reverse()

    def phase(self, t: np.ndarray) -> np.ndarray:
        """``sum y_k / |t - w_k|**2`` at the real points ``t`` (1-D)."""
        out = np.zeros(t.size)
        if self.levels:
            for i in range(0, t.size, _TREE_POINTS):
                out[i:i + _TREE_POINTS] = self._phase(t[i:i + _TREE_POINTS])
        return out

    def _phase(self, t):
        m = t.size
        out = np.zeros(m)
        p, node = np.arange(m), np.zeros(m, dtype=int)
        for level, (c, h, moments) in enumerate(self.levels):
            if level:
                p, node = np.repeat(p, 2), (2 * node[:, None] + (0, 1)).ravel()
            r = t[p] - c[node]
            far = (_RATIO * np.abs(r) >= h[node]) & (r != 0)
            if far.any():
                out += np.bincount(p[far], self._far(moments[:, node[far]],
                                                     h[node[far]], r[far]), minlength=m)
            p, node = p[~far], node[~far]
        near = np.empty(p.size)
        for a in range(0, p.size, _PAIRS):
            pp, leaf = p[a:a + _PAIRS], node[a:a + _PAIRS]
            y = self.y[leaf]
            dist = np.hypot(t[pp, None] - self.x[leaf], y)
            if not dist.all():
                raise ZeroOnAxis(f"a declared zero lies on the real axis at "
                                 f"t={t[pp[np.nonzero(dist == 0)[0][0]]]}; "
                                 "phase derivative undefined there")
            with np.errstate(over="ignore"):
                near[a:a + _PAIRS] = np.sum(y / dist / dist, axis=1)
        return out + np.bincount(p, near, minlength=m)

    @staticmethod
    def _far(moments, h, r):
        """``sum_j N_j (h/r)^(j-1) / r^2`` per far (point, node) pair."""
        rho = h / r
        acc = moments[-1].copy()
        for row in moments[-2::-1]:
            acc *= rho
            acc += row
        return acc / r / r


def zero_sum_phase(seq: ZeroSequence, t, constant: float = 0.0):
    """``constant + sum |Im z_n| / |t - z_n|**2`` over the zeros of ``seq``
    at real ``t`` (vectorized; a scalar ``t`` gives a float).

    The sum runs through the cluster tree of ``_PhaseTree``, built at the
    first call and cached on ``seq``; its relative error is at most
    ``TRUNCATION_BOUND`` plus rounding.  Raises ``ZeroOnAxis`` where ``t``
    is a real zero and ``Overflow`` where the sum is not finite.
    """
    tt = np.asarray(t, dtype=float)
    flat = tt.ravel()
    tree = cached(seq, "_phase_tree", lambda: _PhaseTree(seq.zeros))
    out = float(constant) + tree.phase(flat)
    require_finite(np.isfinite(out), flat, "the zero-sum phase at t")
    return out.reshape(tt.shape) if tt.shape else float(out[0])


def _exp_phase(e: FunctionExpr) -> Optional[float]:
    """The slope of the phase of E's exponential part, exact from its tree
    (a polynomial or genus-0 product has none, ``e^(cz)`` has ``-Im c``);
    ``None`` where the tree does not show it."""
    if isinstance(e, (Const, Z, Poly)):
        return 0.0
    if isinstance(e, CanonicalProduct):
        return 0.0 if e.seq.genus == 0 and e.seq.tail_inv_sum is None else None
    if isinstance(e, ExpCZ):
        return -e.coeff.imag
    if isinstance(e, Power):
        h = _exp_phase(e.child)
        return None if h is None else e.exponent * h
    if isinstance(e, Product):
        hs = [_exp_phase(c) for c in e.children]
        return None if None in hs else math.fsum(hs)
    return None


def phase_route(space: DbSpace) -> tuple[str, Optional[float]]:
    """``("zero-sum", h)`` when the space declares its zeros and E's tree
    shows the phase slope ``h`` of its exponential part (``_exp_phase``),
    else ``("kernel", None)``: the formula ``phase_derivative`` uses."""
    h = None if space.zeros is None else _exp_phase(space.e)
    return ("kernel", None) if h is None else ("zero-sum", h)


def phase_derivative(space: DbSpace, t: float) -> float:
    """Derivative of the phase function of E at real t.

    On the ``zero-sum`` route of ``phase_route``, ``h + sum |Im z_n| /
    |t - z_n|**2`` over the declared zeros (E in the Polya class);
    otherwise ``pi K(t, t) / |E(t)|**2``, which raises ZeroOnAxis where
    |E(t)| underflows and Overflow where the ratio is not finite.
    """
    t = float(t)
    route, h = phase_route(space)
    if route == "zero-sum":
        return zero_sum_phase(space.zeros, t, h)
    # |E| may be exponentially small between near-axis zeros and the
    # K/|E|^2 ratio is still fine; only an underflow-level modulus is fatal
    e = space.e.at(t)
    e_abs = np.hypot(e.real, e.imag)
    if e_abs <= 1e-140 * (1.0 + abs(t)):
        raise ZeroOnAxis(f"E vanishes at t={t}; phase derivative undefined there")
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(math.pi * kernel_diagonal(space, t).real / e_abs ** 2)
    if not math.isfinite(value):
        raise Overflow(f"the phase derivative at t={t} is not finite in double precision")
    return value


# ---------------------------------------------------------------------------
# inner product
# ---------------------------------------------------------------------------

def inner_product(space: DbSpace, f: FunctionExpr, g: FunctionExpr,
                  rel_tol: float | None = None) -> EvalResult:
    """``(F, G)`` in H(E), with an absolute-error estimate.

    For a closed-form E of positive declared exponential type, by
    orthogonal sampling (``dblab.sampling``; de Branges, Theorem 22):
    ``sum F(t_n) conj G(t_n) / K(t_n, t_n)`` over the points ``t_n`` where
    the phase of E is ``alpha`` mod pi, in order of ``|t_n|``, with a
    Richardson tail in ``1/N``.  At most one ``alpha`` mod pi is
    exceptional: the one with ``Im(e^(i alpha) E)`` in H(E), whose sum
    misses F's part along it (on a20, ``alpha = pi/2``, as ``A = cos`` is
    a member).  So the sums at 0 and pi/2 are compared, and pi/4 replaces
    one of them when they disagree; ``abs_error`` is the larger of their
    Richardson spreads and their distance, plus ``8 eps`` times the sum
    of ``|terms|``.  Terms that decay no faster than ``1/n`` raise
    NonConvergentTail, three sums that disagree pairwise raise
    SamplingDisagreement, and a phase that cannot back the declared type
    raises ConfigError.

    Otherwise (a series or polynomial E, or no declared type), by
    adaptive quadrature of ``F(t) conj(G(t)) / |E(t)|**2`` over R
    (``integrate_real_line``), which raises NonConvergentTail when the
    octave envelope decays too slowly.

    Either way the aim is ``max(quad_abs_tol, rel |value|)``, ``rel`` being
    ``rel_tol`` or ``quad_rel_tol``.
    """
    if space.e.closed_form() and space.declared_exp_type > 0:
        from .sampling import sampled_inner_product   # compiled on first use only
        rel = DEFAULTS["quad_rel_tol"] if rel_tol is None else rel_tol
        return sampled_inner_product(space, f, g, rel)

    def integrand(t):
        tc = np.asarray(t, dtype=float).astype(complex)
        fv = f.values(tc)
        gv = fv if g is f else g.values(tc)
        ev = space.e.values(tc)
        return fv * np.conj(gv) / np.abs(ev) ** 2

    res = integrate_real_line(integrand, rel_tol=rel_tol)
    return EvalResult(res.value, res.error)


def norm_squared(space: DbSpace, f: FunctionExpr) -> float:
    return inner_product(space, f, f).value.real


# ---------------------------------------------------------------------------
# mean type
# ---------------------------------------------------------------------------

def _ls_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of ``y`` against ``x``."""
    xbar, ybar = x.mean(), y.mean()
    return float(np.sum((x - xbar) * (y - ybar)) / np.sum((x - xbar) ** 2))


def mean_type(f: FunctionExpr, theta: float,
              radii: np.ndarray | None = None) -> MeanTypeEstimate:
    """Exponential growth rate of ``f`` along the ray ``r e^{i theta}``.

    Least-squares slope of ``log|f|`` against ``r sin(theta)`` over the
    upper half of a geometric radius grid (tiny/nonfinite samples are
    discarded first, so zeros or overflow on the ray cost samples, not
    correctness).  The residual is the standard error of the slope.
    """
    if not (0.0 < theta < math.pi):
        raise ConfigError("mean-type ray angle must lie in (0, pi)")
    if radii is None:
        r0, r1, n = DEFAULTS["meantype_radii"]
        radii = np.geomspace(r0, r1, n)
    radii = np.asarray(radii, dtype=float)
    if radii.size < 20:
        raise ConfigError("mean-type grid needs at least 20 radii")
    pts = radii * np.exp(1j * theta)
    vals = f.moduli(pts)
    keep = np.isfinite(vals) & (vals > DEFAULTS["meantype_tiny"])
    radii_kept, vals = radii[keep], vals[keep]
    if radii_kept.size < 4:
        raise AllPointsDiscarded("no usable samples on the ray")
    half = radii_kept.size // 2
    x = radii_kept[half:] * math.sin(theta)
    y = np.log(vals[half:])
    n = x.size
    xbar, ybar = x.mean(), y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = _ls_slope(x, y)
    resid = y - ybar - slope * (x - xbar)
    se = math.sqrt(float(np.sum(resid ** 2)) / max(n - 2, 1) / sxx)
    return MeanTypeEstimate(slope, se, radii_kept[half:])


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def membership(space: DbSpace, f: FunctionExpr) -> MembershipResult:
    """Decide membership of ``f`` in the space.

    ``in`` needs nonpositive mean type (within tolerance) for both
    ``F/E`` and ``F#/E`` plus a norm from ``inner_product``; a clear
    failure, or a norm that raises NonConvergentTail or
    SamplingDisagreement (message under ``norm_failure``), gives ``out``;
    slopes inside the regression noise band give ``undecided``.
    """
    tol = DEFAULTS["membership_tol"]
    diag: dict = {}
    verdicts = []
    for name, g in (("mt_f_over_e", Quotient(f, space.e)),
                    ("mt_fsharp_over_e", Quotient(f.sharp(), space.e))):
        est = mean_type(g, math.pi / 2)
        diag[name] = {"slope": est.value, "residual": est.residual}
        if est.value <= tol:
            verdicts.append("pass")
        elif abs(est.value) < 2.0 * est.residual:
            verdicts.append("undecided")
        else:
            verdicts.append("fail")
    try:
        ip = inner_product(space, f, f, rel_tol=1e-4)
        diag["norm_squared"] = ip.value.real
        diag["norm_error"] = ip.abs_error
        verdicts.append("pass")
    except (NonConvergentTail, SamplingDisagreement) as exc:
        diag["norm_squared"] = None
        diag["norm_failure"] = str(exc)
        verdicts.append("fail")
    if "fail" in verdicts:
        return MembershipResult("out", diag)
    if "undecided" in verdicts:
        return MembershipResult("undecided", diag)
    return MembershipResult("in", diag)
