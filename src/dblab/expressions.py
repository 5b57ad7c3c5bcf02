"""Evaluable expression trees for entire functions.

The node set covers closed forms (constants, the identity, ``exp(c*z)``,
``sin``, ``cos``, polynomials), arithmetic combinations, affine
composition, integer powers, truncated canonical products over a declared
zero sequence, and partial-fraction series over a pole sequence.  Every
node evaluates vectorized over numpy arrays of complex points.
Each node has one evaluation method, ``_eval(z, ctx, error)``, which
returns its values and, when ``error`` is true, an absolute-error
estimate (truncation + bounded roundoff), else ``None``: ``eval_array``
asks for both, ``values`` for the values only.  A subtree that does not
depend on ``z`` (a constant, or arithmetic of constants) gives a 0-d
value and error, and ``eval_array`` broadcasts them to the shape of
``z``.  Nodes combine values through numpy ufunc calls, never
numpy-scalar arithmetic, whose complex products round differently from
the array loops, so a 0-d subtree gives the bits of a broadcast one.

Expressions are immutable after construction and evaluation is pure, so
values are safe to share across threads.  Canonical products and
partial-fraction series are summed shell by shell: shells far beyond the
point through power moments, every other shell term by term (see
``_Shells``); the moment tables a sequence builds at its first evaluation
are caches, and no value depends on whether they were built.

The ``#``-conjugate ``F#(z) = conj(F(conj z))`` is one node, ``Sharp``,
which evaluates its child at the conjugate points and conjugates the
values.  Its error estimate is the child's, and its own ``sharp()`` is
the child.

JSON codec: each node serializes to ``{"kind": ..., ...}`` with complex
payloads as ``[re, im]`` pairs.  Zero/pole sequences serialize either as
explicit lists or as named generator specs resolved through
``SEQUENCE_BUILDERS`` / ``POLE_SEQUENCE_BUILDERS`` (populated by
:mod:`dblab.examples` at import time).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .defaults import DEFAULTS
from .errors import (ConfigError, Overflow, PoleHit, RadiusTooLarge,
                     TruncationBudgetExceeded)

EPS = float(np.finfo(float).eps)
_LOG_EPS = math.log(EPS)

# sequence terms per block when building moments or summing terms directly,
# the largest (points x terms) temporary of a direct sum, and the points
# evaluated together against every shell
_CHUNK = 2 ** 16
_BLOCK = 2 ** 18
_POINTS = 2 ** 13
# the highest expansion order: a shell is expanded only at ratios <= 1/2
_MAX_ORDER = math.ceil(_LOG_EPS / math.log(0.5))
# the most terms a sequence without a generator spec serializes inline
_INLINE_MAX = 10_000


def _c2pair(c: complex) -> list:
    c = complex(c)
    return [c.real, c.imag]


def _pair2c(p) -> complex:
    if isinstance(p, (int, float)):
        return complex(p)
    if not (isinstance(p, (list, tuple)) and len(p) == 2
            and all(isinstance(x, (int, float)) for x in p)):
        raise ConfigError(f"expected a number or an [re, im] pair, got {p!r}")
    return complex(float(p[0]), float(p[1]))


@dataclass(frozen=True)
class EvalResult:
    """Value plus a nonnegative absolute-error estimate; both finite."""

    value: complex
    abs_error: float

    def __post_init__(self):
        if not (self.abs_error >= 0.0 and math.isfinite(self.abs_error)
                and cmath.isfinite(self.value)):
            raise Overflow(f"value {self.value} with abs_error {self.abs_error} "
                           "is not finite in double precision")


# ---------------------------------------------------------------------------
# zero / pole sequences
# ---------------------------------------------------------------------------

def cached(seq, key: str, build: Callable):
    """``build()`` for a frozen sequence, kept on it under ``key`` once
    built.  Two threads that build at once store equal objects."""
    obj = seq.__dict__.get(key)
    if obj is None:
        obj = build()
        object.__setattr__(seq, key, obj)
    return obj


@dataclass(frozen=True)
class ZeroSequence:
    """Finite truncation of a declared zero set of an entire function.

    ``tail_log_bound(R)`` bounds ``|log of the omitted tail|`` on the disk
    ``|z| <= R`` *after* any first-order tail correction has been applied
    (the correction is ``exp(-z * tail_inv_sum)`` with
    ``tail_inv_sum = sum of 1/z_n over the omitted indices``).  Builders
    are responsible for making the bound nonincreasing in the truncation
    length.  ``None`` means the sequence is exact (finite zero set).
    """

    label: str
    zeros: np.ndarray
    genus: int = 0
    tail_log_bound: Optional[Callable] = None
    tail_inv_sum: Optional[complex] = None
    spec: Optional[dict] = None

    def __post_init__(self):
        if self.genus not in (0, 1):
            raise ConfigError("declared genus must be 0 or 1")
        zs = np.asarray(self.zeros, dtype=complex)
        object.__setattr__(self, "zeros", zs)
        if zs.size and np.any(zs == 0):
            raise ConfigError("canonical-product zeros must be nonzero")

    def __len__(self) -> int:
        return int(self.zeros.size)

    def shells(self) -> "_Shells":
        """Modulus shells of the zeros, built at the first evaluation."""
        return cached(self, "_shells", lambda: _Shells(self.zeros))

    def to_spec(self) -> dict:
        """The generator spec, or else an inline list of the zeros."""
        if self.spec is not None:
            return self.spec
        if len(self) > _INLINE_MAX:
            raise ConfigError("zero sequence too large for inline serialization")
        return {"kind": "list", "genus": self.genus,
                "zeros": [_c2pair(c) for c in self.zeros]}

    def genus0_partial_sums(self, n_checks: int = 6) -> np.ndarray:
        """Partial sums of 1/|z_n| at geometric prefixes (monotone, for the
        genus-0 convergence check)."""
        inv = np.sort(1.0 / np.abs(self.zeros))[::-1]
        cum = np.cumsum(inv)
        idx = np.unique(np.geomspace(1, len(inv), n_checks).astype(int)) - 1
        return cum[idx]

    def tail_bound_at(self, r) -> np.ndarray:
        if self.tail_log_bound is None:
            return np.zeros_like(np.asarray(r, dtype=float))
        return np.asarray(self.tail_log_bound(np.asarray(r, dtype=float)), dtype=float)


@dataclass(frozen=True)
class PoleSequence:
    """Real poles ``t_n`` with nonnegative masses ``mu_n`` for
    partial-fraction series ``sum mu_n * (1/(t_n - z) - 1/t_n)``."""

    label: str
    poles: np.ndarray
    weights: np.ndarray
    tail_abs_bound: Optional[Callable] = None
    spec: Optional[dict] = None

    def __post_init__(self):
        object.__setattr__(self, "poles", np.asarray(self.poles, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.poles.shape != self.weights.shape:
            raise ConfigError("poles and weights must have matching shapes")
        if np.any(self.poles == 0):
            raise ConfigError("pole at 0 not representable in the normalized series")

    def __len__(self) -> int:
        return int(self.poles.size)

    def shells(self) -> "_Shells":
        """Modulus shells of the poles, built at the first evaluation."""
        return cached(self, "_shells", lambda: _Shells(self.poles, self.weights))

    def to_spec(self) -> dict:
        """The generator spec, or else an inline list of the poles."""
        if self.spec is not None:
            return self.spec
        if len(self) > _INLINE_MAX:
            raise ConfigError("pole sequence too large for inline serialization")
        return {"kind": "list", "poles": self.poles.tolist(),
                "weights": self.weights.tolist()}


# named generator registries; examples.py registers its builders on import
SEQUENCE_BUILDERS: dict = {}
POLE_SEQUENCE_BUILDERS: dict = {}


def _spec_kind(spec, what: str) -> str:
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} spec must be an object, got {spec!r}")
    return spec.get("kind")


def _from_builder(registry: dict, spec: dict, what: str):
    name, params = spec.get("name"), spec.get("params", {})
    if name not in registry:
        raise ConfigError(f"unknown {what} generator {name!r}")
    if not isinstance(params, dict):
        raise ConfigError(f"{what} generator parameters must be an object, got {params!r}")
    try:
        return registry[name](**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for the {what} generator {name!r}: {exc}") from exc


def zero_sequence_from_spec(spec: dict) -> ZeroSequence:
    kind = _spec_kind(spec, "zero-sequence")
    if kind == "list":
        zeros = spec.get("zeros")
        genus = spec.get("genus", 0)
        if not isinstance(zeros, list) or not isinstance(genus, int):
            raise ConfigError(f"a zero list needs a list of zeros and an integer genus: {spec!r}")
        zs = np.array([_pair2c(p) for p in zeros], dtype=complex)
        return ZeroSequence("list", zs, genus, None, None, spec)
    if kind == "named":
        return _from_builder(SEQUENCE_BUILDERS, spec, "zero-sequence")
    raise ConfigError(f"bad zero-sequence spec: {spec!r}")


def pole_sequence_from_spec(spec: dict) -> PoleSequence:
    kind = _spec_kind(spec, "pole-sequence")
    if kind == "list":
        try:
            poles = np.asarray(spec["poles"], dtype=float)
            weights = np.asarray(spec["weights"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"a pole list needs numeric poles and weights: {exc}") from exc
        return PoleSequence("list", poles, weights, None, spec)
    if kind == "named":
        return _from_builder(POLE_SEQUENCE_BUILDERS, spec, "pole-sequence")
    raise ConfigError(f"bad pole-sequence spec: {spec!r}")


# ---------------------------------------------------------------------------
# shell-moment evaluation of long products and series
# ---------------------------------------------------------------------------

def _order(rho: np.ndarray) -> np.ndarray:
    """Per-pair expansion order J with rho**J <= EPS (0 at rho = 0)."""
    return np.ceil(_LOG_EPS / np.log(rho)).astype(int)


def _horner(table: np.ndarray, s: np.ndarray, w: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``sum_{j=1..order_k} table[s_k, j-1] w_k**j`` for every pair ``k``.

    Pairs are ranked by decreasing order, so the step for power ``j``
    touches only the leading pairs that need it; a pair's value does not
    depend on the other pairs.
    """
    rank = np.argsort(-order, kind="stable")
    s, w, neg = s[rank], w[rank], -order[rank]
    acc = np.zeros(w.shape, dtype=complex)
    for j in range(-int(neg.min(initial=0)), 0, -1):
        m = np.searchsorted(neg, -j, side="right")
        acc[:m] = (acc[:m] + table[s[:m], j - 1]) * w[:m]
    out = np.empty_like(acc)
    out[rank] = acc
    return out


def _by_point(p: np.ndarray, x: np.ndarray, size: int) -> np.ndarray:
    """Sum pair values point by point, in pair order."""
    if np.iscomplexobj(x):
        return np.bincount(p, x.real, size) + 1j * np.bincount(p, x.imag, size)
    return np.bincount(p, x, size)


def _accumulate(acc, err, p, val, e):
    """Add pair values and their error bounds into the per-point sums,
    charging each addition its rounding."""
    n = acc.size
    acc += _by_point(p, val, n)
    err += _by_point(p, e, n) + EPS * np.bincount(p, minlength=n) * (
        _by_point(p, np.abs(val), n) + np.abs(acc))


def _blockwise(fn, *arrays):
    """``fn`` over aligned blocks of at most ``_POINTS`` points, outputs concatenated."""
    n = arrays[0].size
    parts = [fn(*(a[i:i + _POINTS] for a in arrays)) for i in range(0, max(n, 1), _POINTS)]
    return tuple(np.concatenate(out) for out in zip(*parts))


class _Shells:
    """A zero or pole sequence split into modulus shells ``[2^s, 2^(s+1))``.

    Seen from a point ``z``, a shell whose smallest modulus ``lo`` is at
    least ``2|z|`` is far and is summed through its power moments about
    ``lo``; every other shell is summed term by term, so a point costs
    shells x orders plus one step per term with modulus below about
    ``2|z|``.  ``moments(s, order)`` is ``sum_k c_k x_k**j`` for
    ``j = 0..order`` with ``x = lo/t_k`` and ``c = 1`` (``mu/t`` for a
    series).  A table is built when first needed and rebuilt from scratch
    for a higher order, so a point's value never depends on what else was
    evaluated, and two threads that build the same table at once store
    equal tables.
    """

    def __init__(self, nodes: np.ndarray, weights: Optional[np.ndarray] = None):
        mod = np.abs(nodes)
        if np.any(mod[1:] < mod[:-1]):
            order = np.argsort(mod, kind="stable")
            nodes, mod = nodes[order], mod[order]
            weights = None if weights is None else weights[order]
        self.nodes, self.weights = nodes, weights
        edges = np.zeros(1, dtype=int)
        if mod.size:
            exps = np.arange(math.frexp(mod[0])[1], math.frexp(mod[-1])[1])
            edges = np.unique(np.r_[0, np.searchsorted(mod, np.ldexp(1.0, exps)), mod.size])
        self.start, self.stop = edges[:-1], edges[1:]
        self.lo = mod[self.start]
        self.count = self.stop - self.start
        # roundoff of a sum over one shell: pairwise within a block, sequential across blocks
        self.gamma = EPS * (np.log2(np.maximum(self.count, 1)) + 8.0
                            + np.ceil(self.count / _CHUNK))
        self._tables: dict = {}

    def _blocks(self, s: int):
        for a in range(self.start[s], self.stop[s], _CHUNK):
            yield a, min(a + _CHUNK, self.stop[s])

    def moments(self, s: int, order: int):
        """Moment table of shell ``s`` (at least ``order + 1`` entries) and ``sum |c_k|``."""
        tab = self._tables.get(s)
        if tab is None or tab[0].size <= order:
            mom = np.zeros(order + 1, dtype=self.nodes.dtype)
            absw = 0.0
            for a, b in self._blocks(s):
                t = self.nodes[a:b]
                x = self.lo[s] / t
                p = np.ones(b - a, dtype=t.dtype) if self.weights is None else self.weights[a:b] / t
                absw += float(np.sum(np.abs(p)))
                for j in range(order + 1):
                    mom[j] += np.sum(p)
                    p *= x
            tab = self._tables[s] = (mom, absw)
        return tab

    def _expansion(self, z, az, far, scale):
        """The far pairs (point ``p``, shell ``s``) of ``far``, their ratio
        ``rho = |z|/lo``, order ``J`` and ``sum_{j=1..J} scale_j m_j (z/lo)**j``
        over the shell's moments ``m``, with each shell's ``sum |c|``."""
        p, s = np.nonzero(far)
        rho = az[p] / self.lo[s]
        order = _order(rho)
        top = np.zeros(self.lo.size, dtype=int)
        np.maximum.at(top, s, order)
        table = np.zeros((self.lo.size, top.max(initial=0)), dtype=complex)
        absw = np.zeros(self.lo.size)
        for k in np.unique(s):
            mom, absw[k] = self.moments(k, top[k])
            table[k, :top[k]] = scale[:top[k]] * mom[1:top[k] + 1]
        return p, s, rho, order, _horner(table, s, z[p] / self.lo[s], order), absw[s]

    def _direct(self, z, aux, near, acc, err, term):
        """Add the shells marked in ``near`` (points x shells) into ``acc``
        and ``err`` term by term, and return the per-point flags.
        ``term(zb, auxb, a, b)`` gets a column of points (and of ``aux``)
        and the block ``a:b`` of a shell; it returns the terms, extra
        per-term error bounds and a per-point flag."""
        flag = np.zeros(z.shape, dtype=bool)
        for s in np.nonzero(near.any(axis=0))[0]:
            pts = np.nonzero(near[:, s])[0]
            zs, xs = z[pts, None], aux[pts, None]
            val = np.zeros(pts.size, dtype=complex)
            e = np.zeros(pts.size)
            for a, b in self._blocks(s):
                step = max(1, _BLOCK // (b - a))
                for i in range(0, pts.size, step):
                    sl = slice(i, i + step)
                    t, et, f = term(zs[sl], xs[sl], a, b)
                    val[sl] += np.sum(t, axis=1)
                    e[sl] += np.sum(et + self.gamma[s] * np.abs(t), axis=1)
                    flag[pts[sl]] |= f
            _accumulate(acc, err, pts, val, e)
        return flag

    def log_product(self, z: np.ndarray, genus: int):
        """``sum log(1 - z/t_k)`` (plus ``z/t_k`` at genus 1) modulo 2 pi i,
        a bound on its error, and the points where a factor cancelled exactly."""
        return _blockwise(lambda zb: self._log_product(zb, genus), z)

    def _log_product(self, z, genus):
        az = np.abs(z)
        far = 2.0 * az[:, None] <= self.lo
        logv = np.zeros(z.shape, dtype=complex)
        err = np.zeros(z.shape)
        if far.any():
            scale = -1.0 / np.arange(1, _MAX_ORDER + 1)
            if genus == 1:
                scale[0] = 0.0
            p, s, rho, jj, val, _ = self._expansion(z, az, far, scale)
            n, gam = self.count[s], self.gamma[s]
            # sum_k sum_j |x_k w|^j / j bounds every term of the expansion
            mag = -n * np.log1p(-rho)
            e = n * rho ** (jj + 1) / ((jj + 1) * (1.0 - rho)) + (gam + 2 * jj * EPS) * mag
            _accumulate(logv, err, p, val, e)

        def term(zb, _, a, b):
            q = zb / self.nodes[None, a:b]
            d = 1.0 - q
            cancelled = d == 0
            # an exactly cancelled factor is replaced by its modulus bound
            d[cancelled] = 4.0 * EPS * np.abs(q[cancelled])
            lt = np.log(d)
            if genus == 1:
                lt += q
            return lt, 4.0 * EPS * np.abs(q) / np.abs(d), cancelled.any(axis=1)

        hit = self._direct(z, az, ~far, logv, err, term)
        return logv, err, hit

    def series(self, z: np.ndarray, excl: np.ndarray):
        """``sum mu_k z / (t_k (t_k - z))`` and a bound on its error.

        Far shells keep a margin of ``excl`` from every point, so only the
        shells summed term by term can hold a pole inside the exclusion
        radius.
        """
        return _blockwise(self._series, z, excl)

    def _series(self, z, excl):
        az = np.abs(z)
        far = 2.0 * az[:, None] + excl[:, None] <= self.lo
        v = np.zeros(z.shape, dtype=complex)
        err = np.zeros(z.shape)
        if far.any():
            p, s, rho, jj, val, absw = self._expansion(z, az, far, np.ones(_MAX_ORDER))
            e = absw * (rho ** (jj + 1) + (self.gamma[s] + 2 * jj * EPS) * rho) / (1.0 - rho)
            _accumulate(v, err, p, val, e)

        def term(zb, exb, a, b):
            t = self.nodes[None, a:b]
            d = t - zb
            close = np.abs(d) < exb
            if np.any(close):
                zbad = np.broadcast_to(zb, close.shape)[close][0]
                raise PoleHit(zbad, "z={z} within exclusion radius of a series pole")
            return self.weights[None, a:b] * zb / (t * d), 0.0, False

        self._direct(z, excl, ~far, v, err, term)
        return v, err


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------

class FunctionExpr:
    """Base class. Subclasses implement ``to_json`` and ``_eval(z, ctx,
    error)``, which returns the values at the points ``z`` and their
    absolute-error estimates, or ``None`` for the estimates when ``error``
    is false; each is 0-d when it does not depend on ``z``."""

    kind = "?"

    def _eval(self, z: np.ndarray, ctx: dict, error: bool):
        raise NotImplementedError

    def sharp(self) -> "FunctionExpr":
        """``F#(z) = conj(F(conj z))``."""
        return Sharp(self)

    def to_json(self) -> dict:
        raise NotImplementedError

    # -- evaluation entry points ------------------------------------------

    def eval_array(self, z, max_terms: int | None = None, *, error: bool = True):
        """Vectorized evaluation; returns (values, abs_error_estimates), or
        (values, None) when ``error`` is false.

        ``max_terms`` caps the terms of each product or series node
        (default ``max_series_terms``).
        """
        ctx = {"max_terms": DEFAULTS["max_series_terms"] if max_terms is None else max_terms}
        zz = np.asarray(z, dtype=complex)
        z1 = np.atleast_1d(zz)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals, errs = self._eval(z1, ctx, error)
        vals = _spread(vals, complex, z1.shape)
        if errs is not None:
            errs = _spread(errs, float, z1.shape)
        if zz.shape == ():
            return vals[0], None if errs is None else errs[0]
        return vals, errs

    def values(self, z) -> np.ndarray:
        """The values of ``eval_array``, without the error estimates."""
        return self.eval_array(z, error=False)[0]

    def at(self, z) -> complex:
        return complex(self.values(complex(z)))

    # -- arithmetic sugar ---------------------------------------------------

    def __add__(self, other):
        return Sum([self, as_expr(other)])

    def __radd__(self, other):
        return Sum([as_expr(other), self])

    def __sub__(self, other):
        return Sum([self, Product([Const(-1.0), as_expr(other)])])

    def __neg__(self):
        return Product([Const(-1.0), self])

    def __mul__(self, other):
        return Product([self, as_expr(other)])

    def __rmul__(self, other):
        return Product([as_expr(other), self])

    def __truediv__(self, other):
        return Quotient(self, as_expr(other))

    def __rtruediv__(self, other):
        return Quotient(as_expr(other), self)


def _spread(x, dtype, shape) -> np.ndarray:
    """``x`` as an array of ``shape``; a 0-d ``x`` fills it."""
    x = np.asarray(x, dtype=dtype)
    return np.full(shape, x) if x.ndim == 0 else x.reshape(shape)


def _at(node, w, z, ctx, error):
    """``node._eval`` at the images ``w`` of the caller's points ``z``; a
    PoleHit names the caller's point, not its image."""
    try:
        return node._eval(w, ctx, error)
    except PoleHit as exc:
        hit = np.flatnonzero(w == exc.z)
        if hit.size == 0:
            raise
        raise PoleHit(z.flat[hit[0]], exc.template) from None


def as_expr(x) -> FunctionExpr:
    if isinstance(x, FunctionExpr):
        return x
    if isinstance(x, (int, float, complex)):
        return Const(complex(x))
    raise TypeError(f"cannot coerce {type(x)} to FunctionExpr")


class Const(FunctionExpr):
    kind = "const"

    def __init__(self, value):
        self.value = complex(value)

    def _eval(self, z, ctx, error):
        return np.complex128(self.value), (np.float64(abs(self.value) * EPS) if error else None)

    def to_json(self):
        return {"kind": "const", "value": _c2pair(self.value)}


class Z(FunctionExpr):
    kind = "z"

    def _eval(self, z, ctx, error):
        return z.copy(), (np.abs(z) * EPS if error else None)

    def to_json(self):
        return {"kind": "z"}


class ExpCZ(FunctionExpr):
    """exp(c*z)."""

    kind = "exp"

    def __init__(self, coeff):
        self.coeff = complex(coeff)

    def _eval(self, z, ctx, error):
        v = np.exp(self.coeff * z)
        return v, (4.0 * EPS * np.abs(v) * (1.0 + np.abs(self.coeff * z)) if error else None)

    def to_json(self):
        return {"kind": "exp", "coeff": _c2pair(self.coeff)}


class Sin(FunctionExpr):
    kind = "sin"

    def _eval(self, z, ctx, error):
        v = np.sin(z)
        return v, (4.0 * EPS * (np.abs(v) + np.abs(z)) if error else None)

    def to_json(self):
        return {"kind": "sin"}


class Cos(FunctionExpr):
    kind = "cos"

    def _eval(self, z, ctx, error):
        v = np.cos(z)
        return v, (4.0 * EPS * (np.abs(v) + np.abs(z)) if error else None)

    def to_json(self):
        return {"kind": "cos"}


def csinc(w: np.ndarray) -> np.ndarray:
    """Entire ``sin(w)/w`` (value 1 at 0), complex-safe."""
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < 1e-4
    with np.errstate(invalid="ignore", over="ignore"):
        if not small.any():
            return np.sin(w) / w
        ws = np.where(small, 0.0, w)
        big = np.sin(ws) / np.where(small, 1.0, ws)
    w2 = w * w
    return np.where(small, 1.0 - w2 / 6.0 + w2 * w2 / 120.0, big)


class Sinc(FunctionExpr):
    """Entire sin(z)/z; keeps Paley-Wiener kernels evaluable at their
    removable singularity."""

    kind = "sinc"

    def _eval(self, z, ctx, error):
        v = csinc(z)
        return v, (4.0 * EPS * (np.abs(v) + 1.0) if error else None)

    def to_json(self):
        return {"kind": "sinc"}


def _polyval(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``np.polynomial.polynomial.polyval(x, c)`` for 1-d ``c``, bit for bit:
    the same Horner steps with the same operands in the same order, without
    its per-call set-up, adding each coefficient in place."""
    v = x * 0
    np.add(c[-1], v, out=v)
    for a in c[-2::-1]:
        v = v * x
        np.add(a, v, out=v)
    return v


class Poly(FunctionExpr):
    """Polynomial with complex coefficients, ascending degree order."""

    kind = "poly"

    def __init__(self, coeffs: Sequence[complex]):
        self.coeffs = np.asarray(list(coeffs), dtype=complex)
        if self.coeffs.size == 0:
            self.coeffs = np.zeros(1, dtype=complex)

    def _eval(self, z, ctx, error):
        v = _polyval(z, self.coeffs)
        if not error:
            return v, None
        cond = _polyval(np.abs(z), np.abs(self.coeffs))
        return v, EPS * (self.coeffs.size + 1) * cond

    def roots(self) -> np.ndarray:
        c = np.trim_zeros(self.coeffs, "b")
        if c.size <= 1:
            return np.empty(0, dtype=complex)
        return np.polynomial.polynomial.polyroots(c)

    def to_json(self):
        return {"kind": "poly", "coeffs": [_c2pair(c) for c in self.coeffs]}


class Affine(FunctionExpr):
    """child(scale*z + shift)."""

    kind = "affine"

    def __init__(self, child: FunctionExpr, scale, shift=0.0):
        self.child = child
        self.scale = complex(scale)
        self.shift = complex(shift)

    def _eval(self, z, ctx, error):
        return _at(self.child, self.scale * z + self.shift, z, ctx, error)

    def to_json(self):
        return {"kind": "affine", "child": self.child.to_json(),
                "scale": _c2pair(self.scale), "shift": _c2pair(self.shift)}


class Sum(FunctionExpr):
    kind = "sum"

    def __init__(self, children: Sequence[FunctionExpr]):
        self.children = list(children)

    def _eval(self, z, ctx, error):
        v, e = np.complex128(0), 0      # complex: the conjugate of an empty sum is -0j
        for c in self.children:
            cv, ce = c._eval(z, ctx, error)
            v = np.add(v, cv)
            if error:
                e = e + ce + EPS * np.abs(v)
            # the child's arrays die before the next child evaluates
            del cv, ce
        return v, (e if error else None)

    def to_json(self):
        return {"kind": "sum", "children": [c.to_json() for c in self.children]}


class Product(FunctionExpr):
    kind = "product"

    def __init__(self, children: Sequence[FunctionExpr]):
        self.children = list(children)

    def _eval(self, z, ctx, error):
        v, e = np.complex128(1), 0
        for c in self.children:
            cv, ce = c._eval(z, ctx, error)
            # a ufunc call, not ``v * cv``: the operator may multiply into a
            # temporary in place, and two numpy scalars multiply outside the
            # array loop; both round differently
            pv = np.multiply(v, cv)
            if error:
                e = e * np.abs(cv) + ce * np.abs(v) + EPS * np.abs(pv)
            v = pv
            del cv, ce
        return v, (e if error else None)

    def to_json(self):
        return {"kind": "product", "children": [c.to_json() for c in self.children]}


class Quotient(FunctionExpr):
    kind = "quotient"

    def __init__(self, num: FunctionExpr, den: FunctionExpr):
        self.num = num
        self.den = den
        self._den_roots = None
        if isinstance(den, Poly):
            self._den_roots = den.roots()

    def _check_poles(self, z, dv):
        roots = self._den_roots
        if roots is not None and roots.size:
            dist = np.abs(z - roots[0])
            for r in roots[1:]:
                np.minimum(dist, np.abs(z - r), out=dist)
            bad = dist < DEFAULTS["pole_exclusion_scale"] * (1.0 + np.abs(z))
            what = "z={z} within exclusion radius of a denominator zero"
        else:
            # overflow (inf) denominators are fine: the quotient underflows to 0
            bad = np.broadcast_to(dv == 0, z.shape)
            what = "denominator vanished at z={z}"
        if np.any(bad):
            raise PoleHit(z[bad][0], what)

    def _eval(self, z, ctx, error):
        nv, ne = self.num._eval(z, ctx, error)
        dv, de = self.den._eval(z, ctx, error)
        self._check_poles(z, dv)
        v = np.divide(nv, dv)
        if not error:
            return v, None
        return v, (ne + np.abs(v) * de) / np.abs(dv) + EPS * np.abs(v)

    def to_json(self):
        return {"kind": "quotient", "num": self.num.to_json(), "den": self.den.to_json()}


class Power(FunctionExpr):
    kind = "power"

    def __init__(self, child: FunctionExpr, exponent: int):
        if int(exponent) != exponent or exponent < 0:
            raise ConfigError("power exponent must be a nonnegative integer")
        self.child = child
        self.exponent = int(exponent)

    def _eval(self, z, ctx, error):
        cv, ce = self.child._eval(z, ctx, error)
        k = self.exponent
        # the array operator, which squares through np.square; a numpy
        # scalar's ``**`` rounds differently
        v = np.asarray(cv) ** k
        if not error:
            return v, None
        return v, k * np.asarray(np.abs(cv)) ** max(k - 1, 0) * ce + EPS * np.abs(v)

    def to_json(self):
        return {"kind": "power", "child": self.child.to_json(), "exponent": self.exponent}


class CanonicalProduct(FunctionExpr):
    """Truncated canonical product over a ZeroSequence.

    Genus 0: ``prod (1 - z/z_n)``, times the first-order tail correction
    ``exp(-z * tail_inv_sum)`` when the sequence supplies the omitted
    inverse sum.  Genus 1: ``prod (1 - z/z_n) exp(z/z_n)``.  The product
    is summed in log space by the sequence's shell-moment evaluator.
    """

    kind = "canonical-product"

    def __init__(self, seq: ZeroSequence):
        self.seq = seq

    def _eval(self, z, ctx, error):
        seq = self.seq
        n = len(seq)
        if n > ctx["max_terms"]:
            raise TruncationBudgetExceeded(
                f"{n} product terms exceed the budget of {ctx['max_terms']}")
        flat = z.ravel()
        logv, err, hit = seq.shells().log_product(flat, seq.genus)
        if seq.genus == 0 and seq.tail_inv_sum is not None:
            corr = flat * seq.tail_inv_sum
            logv = logv - corr
            err = err + EPS * (np.abs(corr) + np.abs(logv))
        v = np.exp(logv)
        tail = seq.tail_bound_at(np.abs(flat))
        # expm1 keeps the estimate faithful when the bounds are not small
        e = np.abs(v) * (np.expm1(err + tail) + 4.0 * EPS)
        # an exactly cancelled factor: the value is 0, its modulus bound is |v|
        e[hit] += np.abs(v[hit])
        v[hit] = 0.0
        return v.reshape(z.shape), (e.reshape(z.shape) if error else None)

    def to_json(self):
        return {"kind": "canonical-product", "zeros": self.seq.to_spec()}


class PartialFractions(FunctionExpr):
    """``sum mu_n (1/(t_n - z) - 1/t_n)`` over a truncated PoleSequence."""

    kind = "partial-fractions"

    def __init__(self, seq: PoleSequence):
        self.seq = seq

    def _eval(self, z, ctx, error):
        n = len(self.seq)
        if n > ctx["max_terms"]:
            raise TruncationBudgetExceeded(
                f"{n} series terms exceed the budget of {ctx['max_terms']}")
        flat = z.ravel()
        excl = DEFAULTS["pole_exclusion_scale"] * (1.0 + np.abs(flat))
        v, e = self.seq.shells().series(flat, excl)
        if self.seq.tail_abs_bound is not None:
            e = e + np.asarray(self.seq.tail_abs_bound(np.abs(flat)), dtype=float)
        return v.reshape(z.shape), (e.reshape(z.shape) if error else None)

    def to_json(self):
        return {"kind": "partial-fractions", "poles": self.seq.to_spec()}


class Sharp(FunctionExpr):
    """``conj(child(conj z))``, with the child's error estimate."""

    kind = "sharp"

    def __init__(self, child: FunctionExpr):
        self.child = child

    def _eval(self, z, ctx, error):
        v, e = _at(self.child, np.conj(z), z, ctx, error)
        return np.conj(v), e

    def sharp(self):
        return self.child

    def to_json(self):
        return {"kind": "sharp", "child": self.child.to_json()}


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def evaluate(f: FunctionExpr, z, max_terms: int | None = None) -> EvalResult:
    """Evaluate ``f`` at a single point with an absolute-error estimate."""
    v, e = f.eval_array(complex(z), max_terms)
    return EvalResult(complex(v), float(e))


def sharp(f: FunctionExpr) -> FunctionExpr:
    return f.sharp()


def derivative(f: FunctionExpr, z, order: int = 1, *,
               radius: float | None = None) -> EvalResult:
    """Derivative of order 1 or 2 via a Cauchy-integral mean.

    Trapezoid rule on a circle of radius ``radius`` (default
    ``1e-3*(1+|z|)``) with ``derivative_nodes`` points; spectrally
    accurate for entire integrands.  The error estimate compares the
    full-node result with the half-node result and adds propagated
    evaluation error.
    """
    if order not in (1, 2):
        raise ConfigError("derivative order must be 1 or 2")
    z = complex(z)
    r = radius if radius is not None else DEFAULTS["derivative_radius_scale"] * (1.0 + abs(z))
    m = DEFAULTS["derivative_nodes"]
    theta = 2.0 * np.pi * np.arange(m) / m
    ring = z + r * np.exp(1j * theta)
    try:
        vals, errs = f.eval_array(ring)
    except PoleHit as exc:
        raise RadiusTooLarge(f"derivative circle of radius {r} at z={z}: {exc}") from exc
    fact = math.factorial(order)
    phase = np.exp(-1j * order * theta)
    d_full = fact / (m * r ** order) * np.sum(vals * phase)
    d_half = fact / ((m // 2) * r ** order) * np.sum(vals[::2] * phase[::2])
    err = abs(d_full - d_half) + fact / r ** order * float(np.mean(errs))
    return EvalResult(complex(d_full), float(err))


# ---------------------------------------------------------------------------
# JSON codec
# ---------------------------------------------------------------------------

def expr_to_json(f: FunctionExpr) -> dict:
    return f.to_json()


def _field(d: dict, key: str, types: tuple = ()):
    """``d[key]``; a missing or mistyped field is a ConfigError."""
    if key not in d:
        raise ConfigError(f"expression spec {d['kind']!r} missing field {key!r}")
    v = d[key]
    if types and not isinstance(v, types):
        raise ConfigError(f"field {key!r} of a {d['kind']!r} spec must be "
                          f"{' or '.join(t.__name__ for t in types)}, got {v!r}")
    return v


def _child(d: dict, key: str = "child") -> FunctionExpr:
    return expr_from_json(_field(d, key))


def _children(d: dict) -> list:
    return [expr_from_json(c) for c in _field(d, "children", (list,))]


_DECODERS: Dict[str, Callable[[dict], FunctionExpr]] = {
    "const": lambda d: Const(_pair2c(_field(d, "value"))),
    "z": lambda d: Z(),
    "exp": lambda d: ExpCZ(_pair2c(_field(d, "coeff"))),
    "sin": lambda d: Sin(),
    "cos": lambda d: Cos(),
    "sinc": lambda d: Sinc(),
    "poly": lambda d: Poly([_pair2c(c) for c in _field(d, "coeffs", (list,))]),
    "affine": lambda d: Affine(_child(d), _pair2c(_field(d, "scale")),
                               _pair2c(d.get("shift", 0.0))),
    "sum": lambda d: Sum(_children(d)),
    "product": lambda d: Product(_children(d)),
    "quotient": lambda d: Quotient(_child(d, "num"), _child(d, "den")),
    "power": lambda d: Power(_child(d), _field(d, "exponent", (int, float))),
    "sharp": lambda d: _child(d).sharp(),
    "canonical-product": lambda d: CanonicalProduct(zero_sequence_from_spec(_field(d, "zeros"))),
    "partial-fractions": lambda d: PartialFractions(pole_sequence_from_spec(_field(d, "poles"))),
}


def expr_from_json(d: dict) -> FunctionExpr:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"expression spec must be an object with a 'kind': {d!r}")
    decode = _DECODERS.get(d["kind"]) if isinstance(d["kind"], str) else None
    if decode is None:
        raise ConfigError(f"unknown expression kind {d['kind']!r}")
    return decode(d)
