"""Evaluable expression trees for entire functions.

The node set covers closed forms (constants, the identity, ``exp(c*z)``,
``sin``, ``cos``, polynomials), arithmetic combinations, affine
composition, integer powers, truncated canonical products over a declared
zero sequence, and partial-fraction series over a pole sequence.  Every
node evaluates vectorized over numpy arrays of complex points.
Each node has one evaluation method, ``_eval(z, ctx, want)``, which
returns its values and beside them what ``want`` asks for: nothing
(``_VALUES``), an absolute-error estimate (``_ERROR``: truncation +
bounded roundoff) or the derivative F' (``_SLOPE``, by the forward-mode
rule of its kind, for closed-form trees only).  ``values`` asks for
nothing, and the canonical-product and partial-fraction nodes then skip
every error term of their sums; ``eval_array`` asks for the error and
``jets`` for F'.  The values half makes the same ufunc calls in the same
order whatever ``want`` is, so the three give the same values.  A
series node that appears more than once in a tree (``q`` in ``(i - q)/(i
+ q)``) sums once per block: ``ctx`` keeps its result for the block's
points and ``want`` until the next block, and nothing across blocks or
calls.  ``moduli`` asks each node for ``|F|`` alone through a second
rule, ``_abs(z, ctx)``: constants, ``z``, ``exp``, ``sin`` and ``cos``
compute it from real parts (``|exp(cz)| = exp(Re cz)``, ``|cos z|^2 =
cos^2 x + sinh^2 y``), products, quotients, powers, affine and sharp
nodes from their children's moduli, and every other node takes
``np.abs`` of its values.  Every entry point hands the nodes the
flattened points in order, ``_POINTS`` at a time, and writes each block
into preallocated outputs; nodes are pointwise, so blocks change no bit.
A subtree that does not depend on ``z`` (a constant, or arithmetic of
constants) gives a 0-d value and error or F', which fill their block.
Nodes combine values through numpy ufunc calls, never numpy-scalar
arithmetic, whose complex products round differently from the array
loops, so a 0-d subtree gives the bits of a broadcast one.

Expressions are immutable after construction and evaluation is pure, so
values are safe to share across threads.  Canonical products and
partial-fraction series are summed shell by shell: shells far beyond the
point through power moments, every other shell term by term (see
``_Shells``); the scaled moment tables a sequence builds as its points
need them are caches, and no value depends on whether they were built.

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
                     TruncationBudgetExceeded, finite)

EPS = float(np.finfo(float).eps)
_LOG_EPS = math.log(EPS)

# sequence terms per block when splitting a sequence into shells, building
# moments or summing terms directly, and the largest (points x terms)
# temporary of a direct sum
_CHUNK = 2 ** 16
_BLOCK = 2 ** 18
# points per block: eval_array, Cauchy rings and majorants take one at a time
_POINTS = 2 ** 13
# the highest expansion order: a shell is expanded only at ratios <= 1/2
_MAX_ORDER = math.ceil(_LOG_EPS / math.log(0.5))
# the most terms a sequence without a generator spec serializes inline
_INLINE_MAX = 10_000
# what ``_eval`` returns beside the values: nothing, error estimates, F'
_VALUES, _ERROR, _SLOPE = 0, 1, 2


def _c2pair(c: complex) -> list:
    c = complex(c)
    return [c.real, c.imag]


def _pair2c(p) -> complex:
    parts = (p, 0.0) if isinstance(p, (int, float)) else p
    if not (isinstance(parts, (list, tuple)) and len(parts) == 2
            and all(isinstance(x, (int, float)) for x in parts)):
        raise ConfigError(f"expected a number or an [re, im] pair, got {p!r}")
    return complex(*(finite(x, "a number in an expression spec", float) for x in parts))


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
        return registry[name](**{k: finite(v, f"{what} generator parameter {k!r}")
                                 for k, v in params.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for the {what} generator {name!r}: {exc}") from exc


def zero_sequence_from_spec(spec: dict) -> ZeroSequence:
    kind = _spec_kind(spec, "zero-sequence")
    if kind == "list":
        zeros = spec.get("zeros")
        genus = spec.get("genus", 0)
        if not isinstance(zeros, list) or type(genus) is not int:
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
            poles, weights = (np.array([finite(x, "a pole-list entry") for x in spec[k]],
                                       dtype=float) for k in ("poles", "weights"))
        except (KeyError, TypeError) as exc:
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
    """``sum_{j=1..order_k} table[j-1, s_k] w_k**j`` for every pair ``k``.

    Pairs are ranked by decreasing order, so the step for power ``j``
    touches only the leading pairs that need it; a pair's value does not
    depend on the other pairs.
    """
    rank = np.argsort(-order, kind="stable")
    s, w, neg = s[rank], w[rank], -order[rank]
    powers = np.arange(-int(neg.min(initial=0)), 0, -1)
    acc = np.zeros(w.shape, dtype=complex)
    for j, m in zip(powers, np.searchsorted(neg, -powers, side="right")):
        head = acc[:m]
        head += table[j - 1].take(s[:m])
        head *= w[:m]
    out = np.empty_like(acc)
    out[rank] = acc
    return out


def _by_point(p: np.ndarray, x: np.ndarray, size: int) -> np.ndarray:
    """Sum pair values point by point, in pair order."""
    if np.iscomplexobj(x):
        return np.bincount(p, x.real, size) + 1j * np.bincount(p, x.imag, size)
    return np.bincount(p, x, size)


def _accumulate(acc, err, p, val, e):
    """Add pair values and, unless ``err`` is None, their error bounds into
    the per-point sums, charging each addition its rounding."""
    n = acc.size
    acc += _by_point(p, val, n)
    if err is not None:
        err += _by_point(p, e, n) + EPS * np.bincount(p, minlength=n) * (
            _by_point(p, np.abs(val), n) + np.abs(acc))


def _chunks(start: int, stop: int):
    """``(a, b)`` spans of ``_CHUNK`` indices at most, covering ``start:stop``."""
    for a in range(start, stop, _CHUNK):
        yield a, min(a + _CHUNK, stop)


class _Shells:
    """A zero or pole sequence split into modulus shells ``[2^s, 2^(s+1))``.

    Seen from a point ``z``, a shell whose smallest modulus ``lo`` is at
    least ``2|z|`` is far and is summed through its power moments about
    ``lo``; every other shell is summed term by term, so a point costs
    shells x orders plus one step per term with modulus below about
    ``2|z|``.  ``moments(s, order)`` is ``sum_k c_k x_k**j`` for
    ``j = 0..order`` with ``x = lo/t_k`` and ``c = 1`` (``mu/t`` for a
    series).  The expansion reads one table of scaled moments per scale
    (genus 0, genus 1, series), a column per shell, and grows a shell's
    column only when a pair needs a higher order.  An entry does not
    depend on the order its column was built to, so a point's value never
    depends on what else was evaluated; a grown table is built aside and
    then stored, so two threads that grow it at once store equal entries.
    The build takes the moduli ``_CHUNK`` terms at a time, so that it
    holds no temporary of the sequence's size unless the terms come
    unsorted.
    """

    def __init__(self, nodes: np.ndarray, weights: Optional[np.ndarray] = None):
        for a, b in _chunks(0, nodes.size):
            mod = np.abs(nodes[a:b + 1])
            if np.any(mod[1:] < mod[:-1]):
                order = np.argsort(np.abs(nodes), kind="stable")
                nodes = nodes[order]
                weights = None if weights is None else weights[order]
                break
        self.nodes, self.weights = nodes, weights
        edges = np.zeros(1, dtype=int)
        if nodes.size:
            ends = np.abs(nodes[[0, -1]])
            powers = np.ldexp(1.0, np.arange(math.frexp(ends[0])[1], math.frexp(ends[1])[1]))
            # the moduli below each power of two, counted chunk by chunk
            cuts = sum(np.searchsorted(np.abs(nodes[a:b]), powers)
                       for a, b in _chunks(0, nodes.size))
            edges = np.unique(np.r_[0, cuts, nodes.size])
        self.start, self.stop = edges[:-1], edges[1:]
        self.lo = np.abs(nodes[self.start])
        self.count = self.stop - self.start
        # roundoff of a sum over one shell: pairwise within a block, sequential across blocks
        self.gamma = EPS * (np.log2(np.maximum(self.count, 1)) + 8.0
                            + np.ceil(self.count / _CHUNK))
        self._scaled: dict = {}

    def moments(self, s: int, order: int):
        """Moment table of shell ``s`` (``order + 1`` entries) and ``sum |c_k|``."""
        mom = np.zeros(order + 1, dtype=self.nodes.dtype)
        absw = 0.0
        for a, b in _chunks(self.start[s], self.stop[s]):
            t = self.nodes[a:b]
            x = self.lo[s] / t
            p = np.ones(b - a, dtype=t.dtype) if self.weights is None else self.weights[a:b] / t
            absw += float(np.sum(np.abs(p)))
            for j in range(order + 1):
                mom[j] += np.sum(p)
                p *= x
        return mom, absw

    def _expansion(self, z, az, far, key, scale):
        """The far pairs (point ``p``, shell ``s``) of ``far``, their ratio
        ``rho = |z|/lo``, order ``J`` and ``sum_{j=1..J} scale_j m_j (z/lo)**j``
        over the shell's moments ``m``, with each shell's ``sum |c|``.
        ``key`` names the scale's table."""
        p, s = np.nonzero(far)
        rho = az[p] / self.lo[s]
        order = _order(rho)
        n = self.lo.size
        # (scaled moments by power and shell, sum |c| and built order by shell; -1: unbuilt)
        table = self._scaled.get(key) or (np.zeros((_MAX_ORDER, n), dtype=complex),
                                          np.zeros(n), np.full(n, -1))
        if np.any(order > table[2][s]):
            tab, absw, top = table[0].copy(), table[1].copy(), table[2].copy()
            np.maximum.at(top, s, order)
            for k in np.nonzero(top > table[2])[0]:
                mom, absw[k] = self.moments(k, top[k])
                tab[:top[k], k] = scale[:top[k]] * mom[1:top[k] + 1]
            table = self._scaled[key] = (tab, absw, top)
        return p, s, rho, order, _horner(table[0], s, z[p] / self.lo[s], order), table[1][s]

    def _direct(self, z, aux, near, acc, err, term):
        """Add the shells marked in ``near`` (points x shells) into ``acc``
        and, unless it is None, ``err`` term by term, and return the
        per-point flags.  ``term(zb, auxb, a, b)`` gets a column of points
        (and of ``aux``) and the block ``a:b`` of a shell; it returns the
        terms, extra per-term error bounds (read only when ``err`` is not
        None) and a per-point flag."""
        flag = np.zeros(z.shape, dtype=bool)
        for s in np.nonzero(near.any(axis=0))[0]:
            pts = np.nonzero(near[:, s])[0]
            zs, xs = z[pts, None], aux[pts, None]
            val = np.zeros(pts.size, dtype=complex)
            e = None if err is None else np.zeros(pts.size)
            for a, b in _chunks(self.start[s], self.stop[s]):
                step = max(1, _BLOCK // (b - a))
                for i in range(0, pts.size, step):
                    sl = slice(i, i + step)
                    t, et, f = term(zs[sl], xs[sl], a, b)
                    val[sl] += np.sum(t, axis=1)
                    if e is not None:
                        e[sl] += np.sum(et + self.gamma[s] * np.abs(t), axis=1)
                    flag[pts[sl]] |= f
            _accumulate(acc, err, pts, val, e)
        return flag

    def log_product(self, z: np.ndarray, genus: int, error: bool = True):
        """``sum log(1 - z/t_k)`` (plus ``z/t_k`` at genus 1) modulo 2 pi i,
        a bound on its error (None unless ``error``), and the points where a
        factor cancelled exactly."""
        az = np.abs(z)
        far = 2.0 * az[:, None] <= self.lo
        logv = np.zeros(z.shape, dtype=complex)
        err = np.zeros(z.shape) if error else None
        if far.any():
            scale = -1.0 / np.arange(1, _MAX_ORDER + 1)
            if genus == 1:
                scale[0] = 0.0
            p, s, rho, jj, val, _ = self._expansion(z, az, far, genus, scale)
            e = None
            if error:
                n, gam = self.count[s], self.gamma[s]
                # sum_k sum_j |x_k w|^j / j bounds every term of the expansion
                mag = -n * np.log1p(-rho)
                e = n * rho ** (jj + 1) / ((jj + 1) * (1.0 - rho)) + (gam + 2 * jj * EPS) * mag
            _accumulate(logv, err, p, val, e)

        def term(zb, _, a, b):
            q = zb / self.nodes[None, a:b]
            d = 1.0 - q
            cancelled = d == 0
            hit = cancelled.any(axis=1)
            if hit.any():
                # an exactly cancelled factor is replaced by its modulus bound
                d[cancelled] = 4.0 * EPS * np.abs(q[cancelled])
            lt = np.log(d)
            if genus == 1:
                lt += q
            return lt, (4.0 * EPS * np.abs(q) / np.abs(d) if error else None), hit

        hit = self._direct(z, az, ~far, logv, err, term)
        return logv, err, hit

    def series(self, z: np.ndarray, excl: np.ndarray, error: bool = True):
        """``sum mu_k z / (t_k (t_k - z))`` and a bound on its error (None
        unless ``error``).

        Far shells keep a margin of ``excl`` from every point, so only the
        shells summed term by term can hold a pole inside the exclusion
        radius.
        """
        az = np.abs(z)
        far = 2.0 * az[:, None] + excl[:, None] <= self.lo
        v = np.zeros(z.shape, dtype=complex)
        err = np.zeros(z.shape) if error else None
        if far.any():
            p, s, rho, jj, val, absw = self._expansion(z, az, far, "series", np.ones(_MAX_ORDER))
            e = None
            if error:
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
    want)``, which returns the values at the points ``z`` and, for
    ``want`` = ``_ERROR`` or ``_SLOPE``, their absolute-error estimates or
    derivatives (``None`` for ``_VALUES``); each is 0-d when it does not
    depend on ``z``.  A subclass may override ``_abs(z, ctx)``, the moduli
    alone, when it has them more cheaply than its complex values.  A node
    with children lists them in ``_parts``, and a kind with parameters
    names their attributes in ``_params``.

    A tree that ``is_real`` is a real entire function: ``F# = F``.  Its
    ``sharp().moduli`` are its ``moduli``, bit for bit: each rule takes
    the same operations on the conjugate points and the conjugate real
    parameters, and every one of them (libm's ``sin``, ``cos``, ``exp``,
    ``sinh``, complex products, quotients and moduli) is symmetric under
    conjugation up to the sign of a zero part, which no modulus sees."""

    kind = "?"
    _params: tuple = ()

    def _eval(self, z: np.ndarray, ctx: dict, want: int):
        raise NotImplementedError

    def _abs(self, z: np.ndarray, ctx: dict):
        return np.abs(self._eval(z, ctx, _VALUES)[0])

    def _parts(self) -> tuple:
        return ()

    def closed_form(self) -> bool:
        """Whether the tree holds no canonical-product or partial-fraction
        node, so that ``jets`` can evaluate it."""
        return (not isinstance(self, _SeriesNode)
                and all(c.closed_form() for c in self._parts()))

    def is_real(self) -> bool:
        """Whether the tree is ``closed_form`` and every parameter of every
        node is real, so that ``F# = F``."""
        return (self.closed_form()
                and not any(np.any(np.imag(getattr(self, p))) for p in self._params)
                and all(c.is_real() for c in self._parts()))

    def sharp(self) -> "FunctionExpr":
        """``F#(z) = conj(F(conj z))``."""
        return Sharp(self)

    def to_json(self) -> dict:
        raise NotImplementedError

    # -- evaluation entry points ------------------------------------------

    def _blockwise(self, z, dtypes, run):
        """``run(block, ctx)`` over the flattened points, ``_POINTS`` at a
        time, into one output per dtype of ``dtypes``, each of the shape
        of ``z`` (a scalar for a scalar ``z``).  ``ctx`` holds the term
        budget and the block's memo of series-node results."""
        ctx = {"max_terms": DEFAULTS["max_series_terms"], "memo": {}}
        zz = np.asarray(z, dtype=complex)
        flat = zz.ravel()
        outs = [np.empty(flat.shape, dtype=t) for t in dtypes]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for i in range(0, max(flat.size, 1), _POINTS):
                block = slice(i, i + _POINTS)
                ctx["memo"].clear()
                for out, r in zip(outs, run(flat[block], ctx)):
                    out[block] = r
        if zz.shape == ():
            return [out[0] for out in outs]
        return [out.reshape(zz.shape) for out in outs]

    def eval_array(self, z, *, error: bool = True):
        """Vectorized evaluation; returns (values, abs_error_estimates), or
        (values, None) when ``error`` is false.

        ``max_series_terms`` caps the terms of each product or series
        node.  When several points fail, the error raised is that of the
        first failing block of ``_POINTS`` points, in tree order within
        that block.
        """
        if not error:
            return self._blockwise(z, (complex,),
                                   lambda w, ctx: self._eval(w, ctx, _VALUES)[:1])[0], None
        v, e = self._blockwise(z, (complex, float), lambda w, ctx: self._eval(w, ctx, _ERROR))
        return v, e

    def moduli(self, z) -> np.ndarray:
        """``|F(z)|``, real, of the shape of ``z``; raises what ``values``
        raises, at the same point.  Nodes with a direct rule may differ
        from ``np.abs(values(z))`` in the last bits."""
        return self._blockwise(z, (float,), lambda w, ctx: (self._abs(w, ctx),))[0]

    def jets(self, z):
        """``(F(z), F'(z))`` of a closed-form tree, each of the shape of
        ``z``, from one pass: the values have the bits of ``values`` and
        raise what it raises, at the same point.  A tree that is not
        ``closed_form`` raises ConfigError before anything is evaluated."""
        if not self.closed_form():
            raise ConfigError(f"no jets for a {self.kind!r} tree with a series node")
        return tuple(self._blockwise(z, (complex, complex),
                                     lambda w, ctx: self._eval(w, ctx, _SLOPE)))

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


def _at(method, w, z, *args):
    """``method(w, *args)``, a node's ``_eval`` or ``_abs``, at the images
    ``w`` of the caller's points ``z``; a PoleHit names the caller's point,
    not its image."""
    try:
        return method(w, *args)
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
    _params = ("value",)

    def __init__(self, value):
        self.value = complex(value)

    def _eval(self, z, ctx, want):
        return np.complex128(self.value), (np.float64(abs(self.value) * EPS) if want == _ERROR
                                           else np.complex128(0) if want == _SLOPE else None)

    def _abs(self, z, ctx):
        return np.abs(np.complex128(self.value))

    def to_json(self):
        return {"kind": "const", "value": _c2pair(self.value)}


class Z(FunctionExpr):
    kind = "z"

    def _eval(self, z, ctx, want):
        return z.copy(), (np.abs(z) * EPS if want == _ERROR
                          else np.complex128(1) if want == _SLOPE else None)

    def _abs(self, z, ctx):
        return np.abs(z)

    def to_json(self):
        return {"kind": "z"}


class ExpCZ(FunctionExpr):
    """exp(c*z)."""

    kind = "exp"
    _params = ("coeff",)

    def __init__(self, coeff):
        self.coeff = complex(coeff)

    def _eval(self, z, ctx, want):
        v = np.exp(self.coeff * z)
        return v, (4.0 * EPS * np.abs(v) * (1.0 + np.abs(self.coeff * z)) if want == _ERROR
                   else self.coeff * v if want == _SLOPE else None)

    def _abs(self, z, ctx):
        c = self.coeff
        return np.exp(c.real * z.real - c.imag * z.imag)

    def to_json(self):
        return {"kind": "exp", "coeff": _c2pair(self.coeff)}


def _trig_moduli(part: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sqrt(part^2 + sinh^2 y)``: ``|sin z|`` from ``sin x``, ``|cos z|``
    from ``cos x``.  The squares overflow once ``|y|`` passes about 355,
    and underflow below about 1e-154; those entries take ``np.hypot``,
    which is finite and nonzero wherever ``np.abs`` of the complex value
    is, but costs as much as the rest together."""
    sh = np.sinh(y)
    v = np.sqrt(part * part + sh * sh)
    redo = ~((v > 1e-150) & (v < np.inf))
    if redo.any():
        v[redo] = np.hypot(part[redo], sh[redo])
    return v


class Sin(FunctionExpr):
    kind = "sin"

    def _eval(self, z, ctx, want):
        v = np.sin(z)
        return v, (4.0 * EPS * (np.abs(v) + np.abs(z)) if want == _ERROR
                   else np.cos(z) if want == _SLOPE else None)

    def _abs(self, z, ctx):
        return _trig_moduli(np.sin(z.real), z.imag)

    def to_json(self):
        return {"kind": "sin"}


class Cos(FunctionExpr):
    kind = "cos"

    def _eval(self, z, ctx, want):
        v = np.cos(z)
        return v, (4.0 * EPS * (np.abs(v) + np.abs(z)) if want == _ERROR
                   else np.negative(np.sin(z)) if want == _SLOPE else None)

    def _abs(self, z, ctx):
        return _trig_moduli(np.cos(z.real), z.imag)

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


# sinc'(z) = z sum_{k>=1} (-1)^k 2k z^(2k-2) / (2k+1)!, to k = 10: the last
# term is below 1.2e-18 of the first on |z| < 1, where (cos z - sinc z)/z
# would cancel up to 2 log10(1/|z|) digits
_SINC_SLOPE = np.array([(-1) ** k * 2 * k / math.factorial(2 * k + 1) for k in range(1, 11)],
                       dtype=complex)


class Sinc(FunctionExpr):
    """Entire sin(z)/z; keeps Paley-Wiener kernels evaluable at their
    removable singularity."""

    kind = "sinc"

    def _eval(self, z, ctx, want):
        v = csinc(z)
        if want == _SLOPE:
            return v, np.where(np.abs(z) < 1.0, z * _polyval(z * z, _SINC_SLOPE),
                               (np.cos(z) - v) / z)
        return v, (4.0 * EPS * (np.abs(v) + 1.0) if want == _ERROR else None)

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


def _monic_roots(c: np.ndarray):
    """The roots of the polynomial ``c`` (ascending, last entry nonzero), or
    None when ``c[:-1] / c[-1]`` is not finite."""
    if c.size <= 1:
        return np.empty(0, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.all(np.isfinite(c[:-1] / c[-1])):
            return None
    return np.polynomial.polynomial.polyroots(c)


class Poly(FunctionExpr):
    """Polynomial with complex coefficients, ascending degree order."""

    kind = "poly"
    _params = ("coeffs",)

    def __init__(self, coeffs: Sequence[complex]):
        self.coeffs = np.asarray(list(coeffs), dtype=complex)
        if self.coeffs.size == 0:
            self.coeffs = np.zeros(1, dtype=complex)
        n = self.coeffs.size
        self._slope = self.coeffs[1:] * np.arange(1, n) if n > 1 else np.zeros(1, dtype=complex)

    def _eval(self, z, ctx, want):
        v = _polyval(z, self.coeffs)
        if want == _ERROR:
            return v, EPS * (self.coeffs.size + 1) * _polyval(np.abs(z), np.abs(self.coeffs))
        return v, (_polyval(z, self._slope) if want == _SLOPE else None)

    def roots(self) -> np.ndarray:
        """The roots within double range.  The coefficients are scaled by a
        power of two, which moves no root, so that the largest part is
        below 1 and no division sees two subnormals.  Where a leading
        coefficient is so small that the monic form still overflows, the
        roots are the finite reciprocals of the roots of the reversed
        polynomial (past a zero constant term: those roots are 0); if that
        form overflows too, the leading coefficient is dropped first.  A
        root beyond double range lies within the pole exclusion of no
        finite point."""
        c = self.coeffs
        if np.any(c):
            parts = c.view(float)
            c = np.ldexp(parts, -math.frexp(float(np.max(np.abs(parts))))[1]).view(complex)
        c = np.trim_zeros(c, "b")
        while True:
            r = _monic_roots(c)
            if r is not None:
                return r
            at0 = c.size - np.trim_zeros(c, "f").size
            u = _monic_roots(c[at0:][::-1])
            if u is not None:
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    r = 1.0 / u
                return np.concatenate([np.zeros(at0, dtype=complex), r[np.isfinite(r)]])
            c = np.trim_zeros(c[:-1], "b")

    def to_json(self):
        return {"kind": "poly", "coeffs": [_c2pair(c) for c in self.coeffs]}


class Affine(FunctionExpr):
    """child(scale*z + shift)."""

    kind = "affine"
    _params = ("scale", "shift")

    def __init__(self, child: FunctionExpr, scale, shift=0.0):
        self.child = child
        self.scale = complex(scale)
        self.shift = complex(shift)

    def _eval(self, z, ctx, want):
        v, x = _at(self.child._eval, self.scale * z + self.shift, z, ctx, want)
        return v, (np.multiply(self.scale, x) if want == _SLOPE else x)

    def _abs(self, z, ctx):
        return _at(self.child._abs, self.scale * z + self.shift, z, ctx)

    def _parts(self):
        return (self.child,)

    def to_json(self):
        return {"kind": "affine", "child": self.child.to_json(),
                "scale": _c2pair(self.scale), "shift": _c2pair(self.shift)}


class Sum(FunctionExpr):
    kind = "sum"

    def __init__(self, children: Sequence[FunctionExpr]):
        self.children = list(children)

    def _eval(self, z, ctx, want):
        # complex: the conjugate of an empty sum is -0j
        v, x = np.complex128(0), (0 if want == _ERROR else np.complex128(0))
        for c in self.children:
            cv, cx = c._eval(z, ctx, want)
            v = np.add(v, cv)
            if want == _ERROR:
                x = x + cx + EPS * np.abs(v)
            elif want == _SLOPE:
                x = np.add(x, cx)
            # the child's arrays die before the next child evaluates
            del cv, cx
        return v, (None if want == _VALUES else x)

    def _parts(self):
        return tuple(self.children)

    def to_json(self):
        return {"kind": "sum", "children": [c.to_json() for c in self.children]}


class Product(FunctionExpr):
    kind = "product"

    def __init__(self, children: Sequence[FunctionExpr]):
        self.children = list(children)

    def _eval(self, z, ctx, want):
        v, x = np.complex128(1), (0 if want == _ERROR else np.complex128(0))
        for c in self.children:
            cv, cx = c._eval(z, ctx, want)
            # a ufunc call, not ``v * cv``: the operator may multiply into a
            # temporary in place, and two numpy scalars multiply outside the
            # array loop; both round differently
            pv = np.multiply(v, cv)
            if want == _ERROR:
                x = x * np.abs(cv) + cx * np.abs(v) + EPS * np.abs(pv)
            elif want == _SLOPE:
                # Leibniz: (v cv)' = x cv + v cx, with v the product so far
                x = np.add(np.multiply(x, cv), np.multiply(v, cx))
            v = pv
            del cv, cx
        return v, (None if want == _VALUES else x)

    def _abs(self, z, ctx):
        v = np.float64(1)
        for c in self.children:
            v = np.multiply(v, c._abs(z, ctx))
        return v

    def _parts(self):
        return tuple(self.children)

    def to_json(self):
        return {"kind": "product", "children": [c.to_json() for c in self.children]}


# numpy's complex division multiplies by the reciprocal of the divisor's
# larger part, which overflows when that part is subnormal; such an entry
# is divided again with both operands scaled by _UNSUBNORMAL.  Where the
# scaled numerator overflows, the quotient is beyond double range anyway.
_TINY = float(np.finfo(float).tiny)
_UNSUBNORMAL = 2.0 ** 600


def _divide(nv, dv):
    """``np.divide(nv, dv)``, finite where only a subnormal divisor kept
    it from being; every other entry keeps its bits."""
    v = np.divide(nv, dv)
    # the cheapest test: the sum is finite when every entry is
    if cmath.isfinite(np.add.reduce(v, axis=None)):
        return v
    redo = ~np.isfinite(v) & (dv != 0) & (
        np.maximum(np.abs(np.real(dv)), np.abs(np.imag(dv))) < _TINY)
    nv, dv, redo = np.broadcast_arrays(nv, dv, redo)
    v = np.array(v)
    v[redo] = np.divide(nv[redo] * _UNSUBNORMAL, dv[redo] * _UNSUBNORMAL)
    return v[()]


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

    def _eval(self, z, ctx, want):
        nv, nx = self.num._eval(z, ctx, want)
        dv, dx = self.den._eval(z, ctx, want)
        self._check_poles(z, dv)
        v = _divide(nv, dv)
        if want == _ERROR:
            return v, (nx + np.abs(v) * dx) / np.abs(dv) + EPS * np.abs(v)
        return v, (_divide(np.subtract(nx, np.multiply(v, dx)), dv) if want == _SLOPE else None)

    def _abs(self, z, ctx):
        nv = self.num._abs(z, ctx)
        dv = self.den._abs(z, ctx)
        self._check_poles(z, dv)
        return np.divide(nv, dv)

    def _parts(self):
        return (self.num, self.den)

    def to_json(self):
        return {"kind": "quotient", "num": self.num.to_json(), "den": self.den.to_json()}


class Power(FunctionExpr):
    kind = "power"

    def __init__(self, child: FunctionExpr, exponent: int):
        if int(exponent) != exponent or exponent < 0:
            raise ConfigError("power exponent must be a nonnegative integer")
        self.child = child
        self.exponent = int(exponent)

    def _eval(self, z, ctx, want):
        cv, cx = self.child._eval(z, ctx, want)
        k = self.exponent
        # the array operator, which squares through np.square; a numpy
        # scalar's ``**`` rounds differently
        v = np.asarray(cv) ** k
        if want == _ERROR:
            return v, k * np.asarray(np.abs(cv)) ** max(k - 1, 0) * cx + EPS * np.abs(v)
        if want == _SLOPE:
            return v, (np.multiply(k * np.asarray(cv) ** (k - 1), cx) if k else np.complex128(0))
        return v, None

    def _abs(self, z, ctx):
        return np.asarray(self.child._abs(z, ctx)) ** self.exponent

    def _parts(self):
        return (self.child,)

    def to_json(self):
        return {"kind": "power", "child": self.child.to_json(), "exponent": self.exponent}


class _SeriesNode(FunctionExpr):
    """A node over a long sequence ``seq``: it checks the term budget, and
    sums once per block, points array and ``want`` however often it
    appears in the tree, through ``ctx["memo"]``, which ``_blockwise``
    empties at every block."""

    _terms = "?"

    def __init__(self, seq):
        self.seq = seq

    def _eval(self, z, ctx, want):
        n = len(self.seq)
        if n > ctx["max_terms"]:
            raise TruncationBudgetExceeded(
                f"{n} {self._terms} terms exceed the budget of {ctx['max_terms']}")
        key = (id(self), id(z), want)
        got = ctx["memo"].get(key)
        if got is None:
            # the entry holds z, so no other array takes its id within the block
            got = ctx["memo"][key] = (z, self._sum(z, want == _ERROR))
        return got[1]


class CanonicalProduct(_SeriesNode):
    """Truncated canonical product over a ZeroSequence.

    Genus 0: ``prod (1 - z/z_n)``, times the first-order tail correction
    ``exp(-z * tail_inv_sum)`` when the sequence supplies the omitted
    inverse sum.  Genus 1: ``prod (1 - z/z_n) exp(z/z_n)``.  The product
    is summed in log space by the sequence's shell-moment evaluator.
    """

    kind = "canonical-product"
    _terms = "product"

    def _sum(self, z, error):
        seq = self.seq
        logv, err, hit = seq.shells().log_product(z, seq.genus, error)
        if seq.genus == 0 and seq.tail_inv_sum is not None:
            corr = z * seq.tail_inv_sum
            logv = logv - corr
            if error:
                err = err + EPS * (np.abs(corr) + np.abs(logv))
        v = np.exp(logv)
        e = None
        if error:
            tail = seq.tail_bound_at(np.abs(z))
            # expm1 keeps the estimate faithful when the bounds are not small
            e = np.abs(v) * (np.expm1(err + tail) + 4.0 * EPS)
            # an exactly cancelled factor: the value is 0, its modulus bound is |v|
            e[hit] += np.abs(v[hit])
        v[hit] = 0.0
        return v, e

    def to_json(self):
        return {"kind": "canonical-product", "zeros": self.seq.to_spec()}


class PartialFractions(_SeriesNode):
    """``sum mu_n (1/(t_n - z) - 1/t_n)`` over a truncated PoleSequence."""

    kind = "partial-fractions"
    _terms = "series"

    def _sum(self, z, error):
        excl = DEFAULTS["pole_exclusion_scale"] * (1.0 + np.abs(z))
        v, e = self.seq.shells().series(z, excl, error)
        if error and self.seq.tail_abs_bound is not None:
            e = e + np.asarray(self.seq.tail_abs_bound(np.abs(z)), dtype=float)
        return v, e

    def to_json(self):
        return {"kind": "partial-fractions", "poles": self.seq.to_spec()}


class Sharp(FunctionExpr):
    """``conj(child(conj z))``, with the child's error estimate."""

    kind = "sharp"

    def __init__(self, child: FunctionExpr):
        self.child = child

    def _eval(self, z, ctx, want):
        v, x = _at(self.child._eval, np.conj(z), z, ctx, want)
        return np.conj(v), (np.conj(x) if want == _SLOPE else x)

    def _abs(self, z, ctx):
        return _at(self.child._abs, np.conj(z), z, ctx)

    def _parts(self):
        return (self.child,)

    def sharp(self):
        return self.child

    def to_json(self):
        return {"kind": "sharp", "child": self.child.to_json()}


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def evaluate(f: FunctionExpr, z) -> EvalResult:
    """Evaluate ``f`` at a single point with an absolute-error estimate."""
    v, e = f.eval_array(complex(z))
    return EvalResult(complex(v), float(e))


def sharp(f: FunctionExpr) -> FunctionExpr:
    return f.sharp()


def ring_derivatives(f: FunctionExpr, z, order: int = 1, error: bool = True):
    """Row ``k`` of ``(d, err)``, each ``(order + 1, z.size)``, is F's
    ``k``-th derivative at the flattened ``z``, ``k!/(m r^k) sum F(ring)
    e^(-ik theta)`` on a circle of ``m = derivative_nodes`` points and radius
    ``r = derivative_radius_scale (1 + |z|)``, and its error: the distance to
    the rule on every other node plus ``k!/r^k`` times the mean evaluation
    error.  When ``error`` is false the ring is evaluated without error
    estimates and ``err`` is None; ``d`` keeps its bits.  ``_POINTS // m``
    centres at a time, each summed on its own, so its bits do not depend
    on its batch.  A pole on a circle raises PoleHit; one inside raises
    nothing (``derivative`` checks for it)."""
    flat = np.asarray(z, dtype=complex).ravel()
    m = DEFAULTS["derivative_nodes"]
    theta = 2.0 * np.pi * np.arange(m) / m
    phases = [np.exp(-1j * k * theta) for k in range(order + 1)]
    d = np.empty((order + 1, flat.size), dtype=complex)
    err = np.empty((order + 1, flat.size)) if error else None
    step = max(1, _POINTS // m)
    for i in range(0, flat.size, step):
        zb = flat[i:i + step]
        # libm's hypot, as Python's abs: numpy's complex abs rounds otherwise
        r = DEFAULTS["derivative_radius_scale"] * (1.0 + np.hypot(zb.real, zb.imag))
        vals, errs = f.eval_array(zb[:, None] + r[:, None] * np.exp(1j * theta), error=error)
        # the ring sums of values that overflowed are not finite; callers check
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mean_err = np.mean(errs, axis=-1) if error else None
            for k, phase in enumerate(phases):
                fact, rk = math.factorial(k), r ** k
                full = fact / (m * rk) * np.sum(vals * phase, axis=-1)
                d[k, i:i + step] = full
                if error:
                    half = fact / ((m // 2) * rk) * np.sum(vals[:, ::2] * phase[::2], axis=-1)
                    err[k, i:i + step] = np.abs(full - half) + fact / rk * mean_err
    return d, err


def derivative(f: FunctionExpr, z, order: int = 1) -> EvalResult:
    """Derivative of order 1 or 2 at one point from ``ring_derivatives``.

    Raises RadiusTooLarge when the circle passes within the exclusion
    radius of a pole, or encloses one: when the ring mean and ``f(z)``,
    equal for an ``f`` analytic on the disc, differ by more than 8 times
    their error estimates together.
    """
    if order not in (1, 2):
        raise ConfigError("derivative order must be 1 or 2")
    z = complex(z)
    where = f"derivative circle of radius {DEFAULTS['derivative_radius_scale'] * (1 + abs(z))}"
    try:
        d, err = ring_derivatives(f, z, order)
        v, e = f.eval_array(z)
    except PoleHit as exc:
        raise RadiusTooLarge(f"{where} at z={z}: {exc}") from exc
    if abs(d[0, 0] - v) > 8.0 * (err[0, 0] + e):
        raise RadiusTooLarge(f"{where} at z={z} encloses a pole: its mean is not f(z)")
    return EvalResult(complex(d[order, 0]), float(err[order, 0]))


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
    "power": lambda d: Power(_child(d), finite(_field(d, "exponent", (int, float)),
                                               "power exponent")),
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
