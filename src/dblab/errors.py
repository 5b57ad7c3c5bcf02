"""Exception taxonomy shared by all dblab modules.

Every computational failure mode gets its own class so the CLI can map it
to a structured ``{kind, detail}`` error object and exit code 1.  The
``kind`` string is stable; tests and downstream tooling match on it.
"""

from __future__ import annotations

import cmath

import numpy as np


class DblabError(Exception):
    """Base class for all computation errors."""

    kind = "error"

    def payload(self) -> dict:
        return {"kind": self.kind, "detail": str(self)}


class PoleHit(DblabError):
    """Evaluation point ``z`` inside the exclusion radius of a pole;
    ``template`` words the detail around ``{z}``."""

    kind = "pole-hit"

    def __init__(self, z, template: str):
        super().__init__(template.format(z=z))
        self.z, self.template = z, template


class TruncationBudgetExceeded(DblabError):
    """A series/product node asked for more terms than the configured cap."""

    kind = "truncation-budget-exceeded"


class RadiusTooLarge(DblabError):
    """Derivative circle passes within the exclusion radius of a pole, or encloses one."""

    kind = "radius-too-large"


class NonConvergentTail(DblabError):
    """Integrand envelope decays slower than 1/t**1.05; integral not certified."""

    kind = "non-convergent-tail"


class SamplingDisagreement(DblabError):
    """Sampling sums of a norm at three phase angles disagree pairwise."""

    kind = "sampling-disagreement"


class AllPointsDiscarded(DblabError):
    """Mean-type fit lost every sample to the tiny-modulus cutoff."""

    kind = "all-points-discarded"


class AllPointsExcluded(DblabError):
    """Every majorization sample fell inside a zero-divisor exclusion ball."""

    kind = "all-points-excluded"


class ZeroOnAxis(DblabError):
    """Structure function vanishes at the requested real point."""

    kind = "zero-of-E-on-axis"


class NegativeRadicand(DblabError):
    """Kernel-norm radicand significantly negative: input is not Hermite-Biehler."""

    kind = "negative-radicand"


class DegenerateInner(DblabError):
    """Cayley transform denominator vanishes identically."""

    kind = "degenerate-inner"


class NegativeRealPart(DblabError):
    """Herglotz extraction fed a function without nonnegative real part."""

    kind = "negative-real-part"


class EnvelopeNotDecaying(DblabError):
    """Superlevel set cannot be certified bounded from the decay envelope."""

    kind = "envelope-not-decaying"


class Overflow(DblabError):
    """A value or its error estimate is not finite in double precision."""

    kind = "overflow"


def require_finite(ok: np.ndarray, points: np.ndarray, what: str):
    """Raise :class:`Overflow` at the first of ``points`` where ``ok`` is
    false; ``what`` names the value up to the point, e.g. ``"q at z"``."""
    if not np.all(ok):
        raise Overflow(f"{what}={points[~ok][0]} is not finite in double precision")


class UnknownInstance(DblabError):
    """Theorem verification asked for an example configuration that is not shipped."""

    kind = "unknown-instance"


class ConfigError(Exception):
    """Malformed run configuration; maps to CLI exit code 2."""


def finite(x, what: str, kind=None):
    """``x``, or ``kind(x)`` when ``kind`` is given: a number from a flag, a
    config file or a spec.  A bool, NaN, an infinity (a literal such as
    1e400 reads as one), a number beyond double range, a non-integral
    number for ``kind=int``, or anything that is not a number or that
    ``kind`` cannot read is a ConfigError."""
    try:
        y = x if kind is None else kind(x)
        ok = (not isinstance(x, bool) and cmath.isfinite(y)
              and (kind is not int or isinstance(x, str) or y == x))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(f"{what} must be finite and not boolean"
                          f"{', and a whole number' if kind is int else ''}, got {x!r}")
    return y
