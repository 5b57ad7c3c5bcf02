"""De Branges space primitives built from a Hermite-Biehler function E.

A space is represented by its structure function ``E`` together with
optional zero data and declared growth metadata.  Everything numerical
here reduces to four primitives:

* the reproducing kernel
  ``K(w, z) = (E(z) E#(conj w) - E(conj w) E#(z)) / (2 pi i (conj w - z))``,
  with a first-order Taylor form through the removable diagonal
  singularity,
* the kernel norm ``nabla(z) = K(z, z)**0.5`` computed off the real axis
  from the half-plane modulus difference quotient,
* the weighted inner product ``(F, G) = int F conj(G) / |E|**2`` over the
  real line, and
* ray-wise mean-type slope fits.

Membership verdicts combine the mean-type fits with convergence of the
norm integral and may return ``undecided`` when the regression cannot
separate the slope from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .defaults import DEFAULTS
from .errors import (AllPointsDiscarded, ConfigError, MissingZeroData,
                     NegativeRadicand, NonConvergentTail, Overflow, ZeroOnAxis)
from .expressions import (Const, EvalResult, FunctionExpr, Product, Quotient,
                          ZeroSequence, expr_from_json, expr_to_json,
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

    @property
    def a(self) -> FunctionExpr:
        """Even part (E + E#)/2; real on the real axis."""
        if "a" not in self._cache:
            self._cache["a"] = Product([Const(0.5), self.e + self.e_sharp])
        return self._cache["a"]

    @property
    def b(self) -> FunctionExpr:
        """Odd part i(E - E#)/2; real on the real axis."""
        if "b" not in self._cache:
            self._cache["b"] = Product([Const(0.5j), self.e - self.e_sharp])
        return self._cache["b"]

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
                   float(d.get("declared-order", 1.0)),
                   float(d.get("declared-exp-type", 0.0)),
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

def default_hb_grid() -> np.ndarray:
    x = np.linspace(-20.0, 20.0, 10)
    y = np.geomspace(0.1, 10.0, 10)
    return (x[:, None] + 1j * y[None, :]).ravel()


def hb_check(space: DbSpace, grid: np.ndarray | None = None):
    """True iff |E#| < |E| at every grid point; also reports the worst margin.

    Sets ``space.hb_verified`` on success.  Raises :class:`Overflow` when
    |E| or |E#| is not finite at a grid point.
    """
    grid = default_hb_grid() if grid is None else np.asarray(grid, dtype=complex)
    if grid.size == 0 or np.any(np.imag(grid) <= 0):
        raise ConfigError("hb_check grid must be nonempty with Im z > 0")
    ev = np.abs(space.e.values(grid))
    es = np.abs(space.e_sharp.values(grid))
    bad = ~(np.isfinite(ev) & np.isfinite(es))
    if np.any(bad):
        raise Overflow(f"|E| or |E#| at z={grid[bad][0]} is not finite in double precision")
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
    """Vectorized diagonal kernel; one Cauchy ring shared per batch.

    E# on the ring is ``conj(E(conj ring))``, with the ring and the values
    conjugated in place, so the batch holds one ring of points.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    m = DEFAULTS["derivative_nodes"]
    r = DEFAULTS["derivative_radius_scale"] * (1.0 + np.abs(zs))
    theta = 2.0 * np.pi * np.arange(m) / m
    ring = zs[:, None] + r[:, None] * np.exp(1j * theta)[None, :]
    ev = space.e.values(ring)
    esv = space.e.values(np.conj(ring, out=ring))
    np.conj(esv, out=esv)
    phase = np.exp(-1j * theta)
    ed = (ev @ phase) / (m * r)
    esd = (esv @ phase) / (m * r)
    e0 = space.e.values(zs)
    es0 = np.conj(space.e.values(np.conj(zs)))
    return (e0 * esd - ed * es0) / TWO_PI_I


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
    bad = ~np.isfinite(out)
    if np.any(bad):
        raise Overflow(f"the kernel K(w, z) at w={w}, z={zz[bad][0]} is not "
                       "finite in double precision")
    if np.asarray(z).shape == ():
        return complex(out[0])
    return out


def nabla(space: DbSpace, z) -> float:
    """Norm of the reproducing kernel at z (z in the closed upper half-plane)."""
    z = complex(z)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(nabla_values(space, z)[0])
    if not math.isfinite(value):
        raise Overflow(f"the kernel norm at z={z} is not finite in double precision")
    return value


def nabla_values(space: DbSpace, zs: np.ndarray) -> np.ndarray:
    """Vectorized ``nabla`` over an array of points."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    out = np.empty(zs.shape, dtype=float)
    off = zs.imag > 0
    if np.any(off):
        # factor |E(z)|^2 - |E(conj z)|^2 so moduli up to ~1e300 stay in range
        zo = zs[off]
        d = np.abs(space.e.values(zo))
        s = np.abs(space.e.values(np.conj(zo)))
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
    return out


# ---------------------------------------------------------------------------
# phase derivative
# ---------------------------------------------------------------------------

def zero_sum_phase(zeros: np.ndarray, t, constant: float = 0.0) -> np.ndarray:
    """``constant + sum |Im z_n| / |t - z_n|**2`` for real ``t`` (vectorized)."""
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    zs = np.asarray(zeros, dtype=complex)
    out = np.full(tt.shape, float(constant))
    step = max(1, 2 ** 21 // max(1, tt.size))
    for i in range(0, zs.size, step):
        blk = zs[i:i + step]
        out += np.sum(np.abs(blk.imag)[None, :]
                      / np.abs(tt[:, None] - blk[None, :]) ** 2, axis=1)
    return out if np.asarray(t).shape else float(out[0])


def phase_constant(space: DbSpace) -> float:
    """Constant term of the zero-sum phase-derivative formula.

    Taken as ``-mt(E^{-1} E#) / 2``, which reconciles the zero-sum route
    with the kernel identity on the pure-exponential spaces (the kernel
    route is the ground truth in tests).
    """
    if "phase_constant" not in space._cache:
        from .expressions import CanonicalProduct, Poly, Product
        e = space.e
        if (isinstance(e, CanonicalProduct) and e.seq.genus == 0
                and e.seq.tail_inv_sum is None):
            # pair conjugate factors: the plain quotient of two long products
            # overflows long before the slope window is reached
            ratio = Product([Quotient(Poly([1.0, -1.0 / np.conj(w)]),
                                      Poly([1.0, -1.0 / w]))
                             for w in e.seq.zeros])
        else:
            ratio = Quotient(space.e_sharp, space.e)
        # wide radius window: the Blaschke part of E^{-1}E# decays like 1/y,
        # so the slope bias falls off with the top radius
        radii = np.geomspace(1.0, 1e8, 64)
        mt = mean_type(ratio, math.pi / 2, radii=radii)
        space._cache["phase_constant"] = -0.5 * mt.value
    return space._cache["phase_constant"]


def phase_derivative(space: DbSpace, t: float, route: str = "kernel") -> float:
    """Derivative of the phase function of E at real t.

    ``kernel`` route: ``pi K(t, t) / |E(t)|**2``.  ``zero-sum`` route:
    the constant plus the Poisson-type sum over the declared zeros.
    """
    t = float(t)
    if route == "kernel":
        # |E| may be exponentially small between near-axis zeros and the
        # K/|E|^2 ratio is still fine; only an underflow-level modulus is fatal
        e_abs = abs(space.e.at(t))
        if e_abs <= 1e-140 * (1.0 + abs(t)):
            raise ZeroOnAxis(f"E vanishes at t={t}; phase derivative undefined there")
        return math.pi * kernel_diagonal(space, t).real / e_abs ** 2
    if route == "zero-sum":
        if space.zeros is None:
            raise MissingZeroData("zero-sum route requires a declared zero sequence")
        return float(zero_sum_phase(space.zeros.zeros, t, phase_constant(space)))
    raise ConfigError(f"unknown phase-derivative route {route!r}")


# ---------------------------------------------------------------------------
# inner product
# ---------------------------------------------------------------------------

def inner_product(space: DbSpace, f: FunctionExpr, g: FunctionExpr,
                  rel_tol: float | None = None) -> EvalResult:
    """Adaptive quadrature of ``F(t) conj(G(t)) / |E(t)|**2`` over R.

    Raises :class:`NonConvergentTail` when the octave envelope decays too
    slowly to certify convergence.
    """

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
    vals = np.abs(f.values(pts))
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
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    resid = y - ybar - slope * (x - xbar)
    se = math.sqrt(float(np.sum(resid ** 2)) / max(n - 2, 1) / sxx)
    return MeanTypeEstimate(slope, se, radii_kept[half:])


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def membership(space: DbSpace, f: FunctionExpr) -> MembershipResult:
    """Decide membership of ``f`` in the space.

    ``in`` needs nonpositive mean type (within tolerance) for both
    ``F/E`` and ``F#/E`` plus a convergent norm integral; a clear failure
    gives ``out``; slopes inside the regression noise band give
    ``undecided``.
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
        verdicts.append("pass" if math.isfinite(ip.value.real) else "fail")
    except NonConvergentTail as exc:
        diag["norm_squared"] = None
        diag["quadrature"] = str(exc)
        verdicts.append("fail")
    if "fail" in verdicts:
        return MembershipResult("out", diag)
    if "undecided" in verdicts:
        return MembershipResult("undecided", diag)
    return MembershipResult("in", diag)
