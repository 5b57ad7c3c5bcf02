"""Majorants and the numerical majorization test.

A majorant is a nonnegative function on a sampled domain together with a
declared zero divisor supported on the real axis.  The test computes
``max(|F(z)|, |F#(z)|) / m(z)`` over the grid (skipping declared zeros of
``m`` within the exclusion radius) and reads off

* the supremum of the ratio, and
* the growth slope of the ratio tail: a log-log fit through half-octave
  bin *maxima* over the last two octaves of ``|z|``.  Bin maxima rather
  than raw samples keep bounded oscillatory ratios (think ``|cos|`` along
  a horizontal line) from polluting the slope.

The existential constant in the majorization definition is undecidable
from finitely many samples, so verdicts are slope-thresholded with an
``undecided`` band between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple, Union

import numpy as np

from .defaults import DEFAULTS
from .domains import SampledDomain
from .errors import AllPointsExcluded, ConfigError, require_finite
from .expressions import _POINTS, FunctionExpr
from .space import DbSpace, _ls_slope, membership, nabla_values

ZeroDivisor = Union[str, Sequence[Tuple[float, int]]]

# the tail slope is fitted to this many bin maxima over the top octaves of |z|
_TAIL_OCTAVES = 2.0
_TAIL_BINS = 4


@dataclass
class Majorant:
    label: str
    fn: Callable[[np.ndarray], np.ndarray]
    domain: SampledDomain
    zero_divisor: ZeroDivisor = ()

    def values(self, z: np.ndarray) -> np.ndarray:
        """The majorant at ``z``, of its shape: ``fn`` gets the flattened
        points in order, in blocks of at most ``_POINTS``, so its working
        memory is O(block)."""
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        v = np.empty(flat.shape)
        for i in range(0, flat.size, _POINTS):
            v[i:i + _POINTS] = self.fn(flat[i:i + _POINTS])
        v = v.reshape(z.shape)
        if np.any(v < -1e-300):
            raise ConfigError(f"majorant {self.label} negative on the grid")
        return v


def nabla_majorant(space: DbSpace, domain: SampledDomain) -> Majorant:
    """Kernel-norm majorant of a (verified) space restricted to a domain."""
    if not space.hb_verified:
        from .space import hb_check
        ok, margin = hb_check(space)
        if not ok:
            raise ConfigError(f"space {space.label} failed the HB check (margin {margin})")
    zd = []
    if space.zeros is not None:
        zs = space.zeros.zeros
        real = zs[np.abs(zs.imag) < 1e-12]
        zd = [(float(x.real), 1) for x in real]
    return Majorant(f"nabla[{space.label}]", lambda z: nabla_values(space, z),
                    domain, tuple(zd))


def _moduli_max(f: FunctionExpr) -> Callable[[np.ndarray], np.ndarray]:
    """``z -> max(|F(z)|, |F#(z)|)``; ``|F|`` alone for a real tree, whose
    ``|F#|`` has the bits of ``|F|`` (see ``FunctionExpr``)."""
    if f.is_real():
        return f.moduli
    fsharp = f.sharp()
    return lambda z: np.maximum(f.moduli(z), fsharp.moduli(z))


def mS_majorant(s: FunctionExpr, domain: SampledDomain,
                zero_divisor: ZeroDivisor = ()) -> Majorant:
    """``max(|S(z)|, |S#(z)|) / |z + i|`` for a function S associated to a space."""
    moduli = _moduli_max(s)

    def fn(z):
        return moduli(z) / np.abs(z + 1j)

    return Majorant("mS", fn, domain, zero_divisor)


def expr_majorant(f: FunctionExpr, domain: SampledDomain,
                  zero_divisor: ZeroDivisor = ()) -> Majorant:
    """User expression taken in modulus."""
    return Majorant("expr", f.moduli, domain, zero_divisor)


@dataclass
class MajorizationReport:
    verdict: str                 # majorized | not-majorized | undecided
    sup_ratio: float
    tail_slope: float
    z: np.ndarray
    ratio: np.ndarray
    thresholds: dict

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "sup-ratio": self.sup_ratio,
                "tail-slope": self.tail_slope, "points": int(self.z.size),
                "thresholds": self.thresholds}

    def csv_rows(self) -> Iterable[tuple]:
        for zi, ri in zip(self.z, self.ratio):
            yield (float(zi.real), float(zi.imag), float(ri))


def tail_slope(z_abs: np.ndarray, values: np.ndarray) -> float:
    """Log-log growth slope of bin maxima over the top octaves of |z|, from
    the finite positive values; only the top-octave samples are copied."""
    keep = np.isfinite(values) & (values > 0)
    if np.count_nonzero(keep) < 2:
        return math.inf
    top = float(np.max(z_abs, where=keep, initial=-math.inf))
    lo = top / 2.0 ** _TAIL_OCTAVES
    keep &= z_abs >= lo
    za, va = np.log(z_abs[keep]), np.log(values[keep])
    edges = np.linspace(math.log(lo) - 1e-12, math.log(top) + 1e-12, _TAIL_BINS + 1)
    xs, ys = [], []
    for i in range(_TAIL_BINS):
        m = (za >= edges[i]) & (za < edges[i + 1])
        if np.any(m):
            xs.append(0.5 * (edges[i] + edges[i + 1]))
            ys.append(float(np.max(va[m])))
    if len(xs) < 2:
        return 0.0
    return _ls_slope(np.array(xs), np.array(ys))


def test_majorization(f: FunctionExpr, m: Majorant) -> MajorizationReport:
    """Decide whether ``|F|, |F#| <= C m`` plausibly holds on the domain;
    a real ``F`` (``F# = F``) takes one pass, for ``|F|``.

    The ratio is built block by block over the samples left outside the
    zero-divisor balls, in the majorant's blocks, so its working memory
    beyond the sample and the ratio is O(block).  A sample where ``|F|``,
    ``|F#|`` or ``m`` is not finite raises ``Overflow`` naming the first
    such point; a zero of ``m`` under a finite ``F`` gives an infinite
    ratio.
    """
    return _majorize(f, m, m.domain.points())


def _majorize(f: FunctionExpr, m: Majorant, z: np.ndarray,
              mv: np.ndarray | None = None) -> MajorizationReport:
    """``test_majorization`` on the samples ``z`` of ``m.domain``, reading
    the majorant from ``mv``, its values at ``z``, when given."""
    s_maj = DEFAULTS["slope_majorized"]
    s_not = DEFAULTS["slope_not_majorized"]
    cap = DEFAULTS["sup_ratio_cap"]

    if isinstance(m.zero_divisor, str):
        raise AllPointsExcluded(
            "majorant declares an infinite zero divisor; no usable samples")
    excl = DEFAULTS["zero_divisor_exclusion"]
    mask = np.ones(z.shape, dtype=bool)
    for x0, _ in m.zero_divisor:
        mask &= np.abs(z - x0) >= excl
    if not np.any(mask):
        raise AllPointsExcluded("every sample lies in a zero-divisor exclusion ball")
    if not np.all(mask):
        z = z[mask]
        mv = None if mv is None else mv[mask]
    del mask

    moduli = _moduli_max(f)
    ratio = np.empty(z.shape)
    for i in range(0, z.size, _POINTS):
        zb = z[i:i + _POINTS]
        fv = moduli(zb)
        mv_b = m.values(zb) if mv is None else mv[i:i + _POINTS]
        require_finite(np.isfinite(fv) & np.isfinite(mv_b), zb,
                       "max(|F|, |F#|) or the majorant at z")
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio[i:i + _POINTS] = np.where(mv_b > 0, fv / mv_b, np.inf)
    sup = float(np.max(ratio))
    if not math.isfinite(sup):
        slope = math.inf  # unbounded ratio: keep verdict and slope consistent
    elif sup == 0.0:
        slope = 0.0  # F vanishes on the whole grid: trivially majorized
    else:
        slope = tail_slope(np.abs(z), ratio)

    if not math.isfinite(sup) or slope >= s_not:
        verdict = "not-majorized"
    elif slope <= s_maj and sup < cap:
        verdict = "majorized"
    else:
        verdict = "undecided"
    return MajorizationReport(verdict, sup, slope, z, ratio,
                              {"slope-majorized": s_maj, "slope-not-majorized": s_not,
                               "sup-ratio-cap": cap})


def estimate_zero_divisor_order(m: Majorant, x0: float) -> int:
    """Log-log estimate of the vanishing order of a majorant at a real
    point: the slope of ``log m(x0 + delta)`` against ``log delta``,
    rounded.  Declared divisors remain authoritative; this is the sampled
    cross-check (local infima are not computable from finitely many
    samples)."""
    deltas = np.geomspace(1e-6, 1e-3, 12)
    vals = m.values(np.asarray(x0 + deltas, dtype=complex))
    keep = vals > 0
    if np.count_nonzero(keep) < 4:
        return 0
    slope = _ls_slope(np.log(deltas[keep]), np.log(vals[keep]))
    return max(0, int(round(slope)))


@dataclass
class AdmissibilityReport:
    ok: bool
    details: dict

    def __bool__(self) -> bool:
        return self.ok


def admissibility_check(m: Majorant, witnesses: List[FunctionExpr],
                        space: DbSpace) -> AdmissibilityReport:
    """Both admissibility conditions: a real-supported zero divisor and a
    nonzero majorized member among the witnesses."""
    if not witnesses:
        raise ConfigError("admissibility check needs at least one witness")
    details: dict = {"witnesses": []}
    if isinstance(m.zero_divisor, str):
        details["zero-divisor"] = "not supported on the real axis"
        return AdmissibilityReport(False, details)
    z = m.domain.points()
    samples = m.values(z)
    if float(np.max(samples, initial=0.0)) <= 0.0:
        details["zero-divisor"] = "majorant vanishes on the whole grid"
        return AdmissibilityReport(False, details)
    for i, w in enumerate(witnesses):
        mem = membership(space, w)
        row = {"index": i, "membership": mem.verdict}
        if mem.verdict == "in":
            rep = _majorize(w, m, z, samples)
            row["majorization"] = rep.verdict
            details["witnesses"].append(row)
            if rep.verdict == "majorized":
                return AdmissibilityReport(True, details)
        else:
            details["witnesses"].append(row)
    return AdmissibilityReport(False, details)
