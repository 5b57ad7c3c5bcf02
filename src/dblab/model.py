"""Inner functions, Herglotz representations, Clark kernels, weak-type
estimates.

Two Cayley conventions are in circulation and both are shipped with an
explicit variant tag that is never defaulted silently:

* ``plus``:    q = (1 + Theta) / (1 - Theta)   (nonnegative real part),
* ``i-minus``: q = i (1 - Theta) / (1 + Theta) (nonnegative imaginary part).

Herglotz data of a function with nonnegative real part on the upper
half-plane: the linear coefficient ``p`` from the growth of
``Re q(iy)``, boundary density samples ``Re q(t + i delta)``, point
masses where ``delta |q(t + i delta)|`` stabilizes to a positive limit
(each located by a 9-point zoom on the peak of ``|q|``), and the total
mass ``pi * lim y q(iy)`` when that limit exists.

Weak-type reports integrate the superlevel indicator
``|q(x + i y0)| > a`` with bisection-refined boundaries against either
Lebesgue or Poisson measure and compare ``a * m({...})`` with
``pi sqrt(2) (1 + e) * lim y q(iy)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .defaults import DEFAULTS
from .errors import (ConfigError, DegenerateInner, EnvelopeNotDecaying,
                     NegativeRealPart, require_finite)
from .expressions import (Const, FunctionExpr, Poly, Product, Quotient,
                          expr_from_json, expr_to_json)
from .space import DbSpace, _ls_slope


# ---------------------------------------------------------------------------
# inner functions
# ---------------------------------------------------------------------------

@dataclass
class InnerFunction:
    """Unimodular-boundary analytic contraction of the upper half-plane."""

    kind: str                  # ratio | exp | blaschke | expr
    expr: FunctionExpr

    def values(self, z) -> np.ndarray:
        return self.expr.values(z)

    def at(self, z) -> complex:
        return self.expr.at(z)

    def validate(self) -> dict:
        """Contraction margin on a half-plane grid and boundary-modulus
        deviation on a real grid; raises :class:`Overflow` when |theta| is
        not finite at a grid point."""
        x = np.linspace(-10, 10, 9)
        y = np.geomspace(0.05, 20.0, 7)
        grid = np.concatenate([(x[:, None] + 1j * y[None, :]).ravel(),
                               np.linspace(-30.0, 30.0, 61) + 0j])
        mod = self.expr.moduli(grid)
        require_finite(np.isfinite(mod), grid, "|theta| at z")
        up, real = np.split(mod, [x.size * y.size])
        margin = float(np.min(1.0 - up))
        boundary = float(np.max(np.abs(real - 1.0)))
        return {"contraction-margin": margin, "boundary-deviation": boundary}

    @classmethod
    def from_space(cls, space: DbSpace, alpha: float = 0.0) -> "InnerFunction":
        """Theta = e^{-2 i alpha} E# / E."""
        expr = Quotient(Product([Const(np.exp(-2j * alpha)), space.e_sharp]), space.e)
        return cls("ratio", expr)

    @classmethod
    def exponential(cls, a: float) -> "InnerFunction":
        if a < 0:
            raise ConfigError("exponential inner function needs a >= 0")
        from .expressions import ExpCZ
        return cls("exp", ExpCZ(1j * a))

    @classmethod
    def blaschke(cls, zeros: Sequence[complex]) -> "InnerFunction":
        zs = [complex(z) for z in zeros]
        if any(z.imag <= 0 for z in zs):
            raise ConfigError("Blaschke zeros must lie in the open upper half-plane")
        factors = [Quotient(Poly([-z, 1.0]), Poly([-np.conj(z), 1.0])) for z in zs]
        return cls("blaschke", Product(factors))

    @classmethod
    def constant(cls, c: complex) -> "InnerFunction":
        # handy for degenerate test inputs such as Theta == 0
        return cls("expr", Const(c))

    def to_json(self) -> dict:
        return {"inner": expr_to_json(self.expr), "kind": self.kind}

    @classmethod
    def from_json(cls, d: dict) -> "InnerFunction":
        if "inner" not in d:
            raise ConfigError("inner-function spec needs an 'inner' expression")
        return cls(str(d.get("kind", "expr")), expr_from_json(d["inner"]))

    @classmethod
    def from_spec(cls, d: dict) -> "InnerFunction":
        """Accept the wrapped form or a shorthand constructor spec."""
        if "inner" in d:
            return cls.from_json(d)
        k = d.get("kind")
        if k == "exp":
            return cls.exponential(float(d["a"]))
        if k == "blaschke":
            return cls.blaschke([complex(z[0], z[1]) for z in d["zeros"]])
        if k == "ratio":
            return cls.from_space(DbSpace.from_json(d["space"]),
                                  float(d.get("alpha", 0.0)))
        raise ConfigError(f"bad inner-function spec: {d!r}")


CAYLEY_VARIANTS = ("plus", "i-minus")


def _check_nondegenerate(expr: FunctionExpr, what: str):
    probes = np.array([1j, 2j, 0.5j, 1 + 1j, -2 + 3j])
    if float(np.max(np.abs(expr.values(probes)))) < 1e-12:
        raise DegenerateInner(f"Cayley denominator {what} vanishes on the probe set")


def cayley_q_from_theta(theta: InnerFunction, variant: str) -> FunctionExpr:
    """Herglotz-type function attached to an inner function.

    ``plus`` has nonnegative real part, ``i-minus`` nonnegative imaginary
    part on the upper half-plane; the variant tag is mandatory.
    """
    if variant == "plus":
        den = Const(1.0) - theta.expr
        _check_nondegenerate(den, "1 - Theta")
        return Quotient(Const(1.0) + theta.expr, den)
    if variant == "i-minus":
        den = Const(1.0) + theta.expr
        _check_nondegenerate(den, "1 + Theta")
        return Quotient(Product([Const(1j), Const(1.0) - theta.expr]), den)
    raise ConfigError(f"unknown Cayley variant {variant!r}; use one of {CAYLEY_VARIANTS}")


def theta_from_q(q: FunctionExpr, variant: str) -> FunctionExpr:
    if variant == "plus":
        return Quotient(q - Const(1.0), q + Const(1.0))
    if variant == "i-minus":
        return Quotient(Const(1j) - q, Const(1j) + q)
    raise ConfigError(f"unknown Cayley variant {variant!r}; use one of {CAYLEY_VARIANTS}")


# ---------------------------------------------------------------------------
# Herglotz extraction
# ---------------------------------------------------------------------------

@dataclass
class HerglotzData:
    p: float
    im_at_i: float
    density_grid: np.ndarray
    density: np.ndarray
    point_masses: List[Tuple[float, float]]
    total_mass: float
    class_c0: bool
    class_c1: bool

    def to_json(self) -> dict:
        return {"p": self.p, "im-at-i": self.im_at_i,
                "density": {"grid": self.density_grid.tolist(),
                            "values": self.density.tolist()},
                "point-masses": [[t, w] for t, w in self.point_masses],
                "total-mass": (self.total_mass if math.isfinite(self.total_mass)
                               else "inf"),
                "class-c0": self.class_c0, "class-c1": self.class_c1}


def y_limit(q: FunctionExpr) -> float:
    """``lim y q(iy)`` when the product stabilizes, else +inf."""
    y0, y1, n = DEFAULTS["herglotz_fit_y"]
    y = np.geomspace(y0, y1, int(n))
    w = y * q.values(1j * y)
    tailvals = w[-8:]
    spread = float(np.max(np.abs(tailvals - np.mean(tailvals))))
    mean = complex(np.mean(tailvals))
    size = np.hypot(mean.real, mean.imag)
    if spread <= 1e-3 * max(size, 1e-12) and abs(mean.imag) <= 1e-3 * max(size, 1e-9):
        return float(mean.real)
    return math.inf


# smallest scanned delta*|q| taken as a point-mass candidate
_MASS_FLOOR = 5e-3


def _peak(q: FunctionExpr, a: float, b: float, delta: float) -> float:
    """Abscissa of the largest ``|q(x + i delta)|`` on ``[a, b]``: keep the
    argmax of 9 even samples and its neighbours, a bracket 4x narrower,
    until it is under 1e-13 wide or stops shrinking (a few ulps of x)."""
    while True:
        x = np.linspace(a, b, 9)
        k = int(np.argmax(np.abs(q.values(x + 1j * delta))))
        lo, hi = x[max(k - 1, 0)], x[min(k + 1, 8)]
        if hi - lo < 1e-13 or hi - lo >= b - a:
            return float(x[k])
        a, b = lo, hi


def herglotz_extract(q: FunctionExpr, density_grid: np.ndarray | None = None,
                     delta: float | None = None) -> HerglotzData:
    """Numeric Herglotz-representation summary of a nonnegative-real-part
    function.  ``delta`` sets the density height only; point masses are
    located and read at the smallest of ``herglotz_delta_probes``.  Raises
    :class:`Overflow` when a probe, fit or density sample is not finite."""
    probes = (np.linspace(-10.0, 10.0, 9)[:, None] + 1j * np.geomspace(0.1, 10.0, 5)).ravel()
    pv = q.values(probes)
    require_finite(np.isfinite(pv), probes, "q at the probe z")
    if float(np.min(pv.real)) < -1e-9 * (1.0 + float(np.max(np.abs(pv)))):
        raise NegativeRealPart("Re q dips below -1e-9 on the upper half-plane probes")

    y0, y1, n = DEFAULTS["herglotz_fit_y"]
    y = np.geomspace(y0, y1, int(n))
    fit = q.values(1j * y).real
    require_finite(np.isfinite(fit), 1j * y, "Re q at the p-fit point z")
    p = _ls_slope(y, fit)
    # bounded-measure contributions leak O(1/y^2) into the fit; snap those
    # to the exact p = 0 so the representation invariant p >= 0 holds
    p = 0.0 if abs(p) < 1e-6 else max(p, 0.0)

    im_at_i = float(q.at(1j).imag)
    dlt = DEFAULTS["herglotz_delta"] if delta is None else delta
    grid = np.linspace(-10.0, 10.0, 401) if density_grid is None else np.asarray(density_grid)
    density = q.values(grid + 1j * dlt).real
    require_finite(np.isfinite(density), grid + 1j * dlt, "Re q at the density point z")

    # coarse scan at delta ~ grid spacing so masses between nodes still show,
    # then zoom on |q| at the smallest probe delta; keep delta*|q| if stable
    masses = []
    probes_d = np.array(DEFAULTS["herglotz_delta_probes"])
    d_scan = max(dlt, float(np.min(np.diff(grid)))) if grid.size > 1 else dlt
    cand = d_scan * np.abs(q.values(grid + 1j * d_scan))
    for i in range(1, grid.size - 1):
        if cand[i] > _MASS_FLOOR and cand[i] > cand[i - 1] and cand[i] >= cand[i + 1]:
            t0 = _peak(q, grid[i - 1], grid[i + 1], probes_d[-1])
            ws = probes_d * np.abs(q.values(t0 + 1j * probes_d))
            if np.max(np.abs(ws - ws.mean())) < DEFAULTS["herglotz_mass_stability"] * ws.mean():
                masses.append((t0, float(math.pi * ws[-1])))

    total = math.pi * y_limit(q) if p == 0.0 else math.inf
    return HerglotzData(p, im_at_i, grid, density, masses, total,
                        class_c0=math.isfinite(total), class_c1=(p == 0.0))


# ---------------------------------------------------------------------------
# weak-type estimates
# ---------------------------------------------------------------------------

@dataclass
class WeakTypeReport:
    a_grid: np.ndarray
    measures: np.ndarray
    measure_kind: str
    bound_constant: float
    y_limit: float
    bound_products: np.ndarray          # a * measure
    bound_ok: Optional[np.ndarray]      # only when the y-limit is finite
    unbounded: np.ndarray               # superlevel set reached the scan edge
    c1_trend_to_zero: bool

    def to_json(self) -> dict:
        return {"a": self.a_grid.tolist(),
                "measure": [m if math.isfinite(m) else "inf" for m in self.measures],
                "kind": self.measure_kind,
                "bound-constant": self.bound_constant,
                "y-limit": self.y_limit if math.isfinite(self.y_limit) else "inf",
                "a-times-measure": [v if math.isfinite(v) else "inf"
                                    for v in self.bound_products],
                "bound-ok": None if self.bound_ok is None else
                [bool(b) for b in self.bound_ok],
                "unbounded": [bool(b) for b in self.unbounded],
                "c1-trend-to-zero": self.c1_trend_to_zero}

    def csv_rows(self):
        bound = (self.bound_constant * self.y_limit
                 if math.isfinite(self.y_limit) else math.inf)
        for a, m, am in zip(self.a_grid, self.measures, self.bound_products):
            yield (float(a), float(m), float(am), float(bound))


def _superlevel_intervals(g: Callable[[np.ndarray], np.ndarray], a: float,
                          xmax: float):
    """Intervals of {|q| > a} inside [-xmax, xmax] with refined endpoints.

    Returns (intervals, touches_edge).
    """
    tol = DEFAULTS["weak_type_bisect_tol"]
    pos = np.geomspace(1e-6, xmax, 1200)
    xs = np.concatenate([-pos[::-1], [0.0], pos])
    above = g(xs) > a

    def refine(lo, hi):
        flo = g(np.array([lo]))[0] > a
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if (g(np.array([mid]))[0] > a) == flo:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    intervals, start = [], None
    for i in range(xs.size):
        if above[i] and start is None:
            start = xs[i] if i == 0 else refine(xs[i - 1], xs[i])
        elif not above[i] and start is not None:
            intervals.append((start, refine(xs[i - 1], xs[i])))
            start = None
    touches = False
    if start is not None:
        intervals.append((start, xs[-1]))
        touches = True
    if above[0]:
        touches = True
    return intervals, touches


def weak_type_test(q: FunctionExpr, y0: float, a_grid: Sequence[float],
                   measure: str = "lebesgue") -> WeakTypeReport:
    """Superlevel-set measures of ``|q(x + i y0)|`` over an ``a`` grid.

    The scan extends to where a decay envelope (fitted as a power law on
    ``|q|``) certifies ``|q| < a``.  With Lebesgue measure
    a non-decaying envelope is an error; with Poisson measure the
    unbounded remainder contributes its full Poisson tail and the report
    flags the failure of the scaled measures to decay.
    """
    if measure not in ("lebesgue", "poisson"):
        raise ConfigError("measure must be 'lebesgue' or 'poisson'")
    if y0 <= 0:
        raise ConfigError("weak-type scan line must satisfy y0 > 0")
    a_grid = np.asarray(sorted(float(a) for a in a_grid))
    if a_grid.size == 0 or a_grid[0] <= 0:
        raise ConfigError("a grid must be positive")

    def g(x):
        return np.abs(q.values(np.asarray(x, dtype=float) + 1j * y0))

    # decay envelope: fitted log-log slope on [1e2, 1e6]
    xf = np.geomspace(1e2, 1e6, 17)
    gf = g(xf) + g(-xf)
    lg, lx = np.log(np.maximum(gf, 1e-300)), np.log(xf)
    slope = _ls_slope(lx, lg)
    amp = float(np.exp(lg.mean() - slope * lx.mean()))
    decaying = slope < -0.05

    def env(x):
        return amp * np.asarray(x, dtype=float) ** slope

    measures = np.empty(a_grid.shape)
    unbounded = np.zeros(a_grid.shape, dtype=bool)
    for k, a in enumerate(a_grid):
        if decaying:
            xmax = 64.0
            while float(env(np.array([xmax]))[0]) > 0.25 * a or np.max(g(np.array([xmax, 2 * xmax]))) > 0.5 * a:
                xmax *= 2.0
                if xmax > 1e12:
                    raise EnvelopeNotDecaying(
                        f"could not certify |q| < {a} at any reachable scan width")
        else:
            if measure == "lebesgue":
                raise EnvelopeNotDecaying(
                    "superlevel set not certifiably bounded; use the Poisson variant")
            xmax = 1e6
        intervals, touches = _superlevel_intervals(g, float(a), xmax)
        unbounded[k] = touches and not decaying
        if measure == "lebesgue":
            measures[k] = (math.inf if unbounded[k]
                           else sum(hi - lo for lo, hi in intervals))
        else:
            val = sum(math.atan(hi) - math.atan(lo) for lo, hi in intervals)
            if unbounded[k]:
                val += 2.0 * (math.pi / 2.0 - math.atan(xmax))
            measures[k] = val

    products = a_grid * measures
    ylim = y_limit(q)
    a_const = DEFAULTS["weak_type_constant"]
    bound_ok = None
    if measure == "lebesgue" and math.isfinite(ylim):
        bound_ok = products <= a_const * ylim + 1e-12
    finite = np.isfinite(products)
    trend = bool(finite.all() and products[-1] <= 0.5 * max(products[0], 1e-300))
    return WeakTypeReport(a_grid, measures, measure, a_const, ylim,
                          products, bound_ok, unbounded, trend)


# ---------------------------------------------------------------------------
# Clark kernels and the horizontal-ray scan
# ---------------------------------------------------------------------------

def clark_kernel(theta: InnerFunction, z: complex) -> FunctionExpr:
    """``k_z(zeta) = (i/2pi) (1 - conj(Theta(z)) Theta(zeta)) / (zeta - conj z)``."""
    z = complex(z)
    if z.imag <= 0:
        raise ConfigError("Clark kernel anchor must lie in the open upper half-plane")
    tz = np.conj(theta.at(z))
    num = Const(1.0) + Product([Const(-tz), theta.expr])
    return Product([Const(1j / (2.0 * math.pi)), Quotient(num, Poly([-np.conj(z), 1.0]))])


def clark_kernel_diag(theta: InnerFunction, z: complex) -> float:
    """``k_z(z) = (1 - |Theta(z)|^2) / (4 pi Im z)``."""
    z = complex(z)
    return (1.0 - abs(theta.at(z)) ** 2) / (4.0 * math.pi * z.imag)


@dataclass
class A60ScanRow:
    r: float
    measure: float
    ratio: float
    residual_max: Optional[float]


@dataclass
class A60ScanReport:
    y0: float
    c: float
    rows: List[A60ScanRow]

    def to_json(self) -> dict:
        return {"y0": self.y0, "c": self.c,
                "rows": [{"r": w.r, "measure": w.measure, "ratio": w.ratio,
                          "residual-max": w.residual_max} for w in self.rows]}

    def csv_rows(self):
        for w in self.rows:
            yield (w.r, w.measure, w.ratio,
                   w.residual_max if w.residual_max is not None else math.nan)


def theorem_a60_scan(theta: InnerFunction, y0: float, c: float,
                     r_grid: Sequence[float], f: FunctionExpr | None = None,
                     samples_per_r: int = 2000) -> A60ScanReport:
    """Per-octave measure of the near-1 set of Theta on a horizontal line.

    For each ``r`` it measures ``{x in [r, 2r]: |1 - Theta(x + i y0)| <=
    c / |x + i y0|}`` by fine sampling and reports ``measure / r``.  When
    ``f`` is given, the hypothesis residual ``|f + 1 - Theta| |x + i y0|``
    is maximized over the same window.
    """
    rows = []
    for r in r_grid:
        r = float(r)
        xs = np.linspace(r, 2.0 * r, samples_per_r)
        zline = xs + 1j * y0
        tv = theta.expr.values(zline)
        inside = np.abs(1.0 - tv) <= c / np.abs(zline)
        meas = float(np.mean(inside) * r)
        resid = None
        if f is not None:
            fv = f.values(zline)
            resid = float(np.max(np.abs(fv + 1.0 - tv) * np.abs(zline)))
        rows.append(A60ScanRow(r, meas, meas / r, resid))
    return A60ScanReport(float(y0), float(c), rows)
