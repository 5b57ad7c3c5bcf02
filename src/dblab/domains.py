"""Sampled subsets of the closed upper half-plane.

Supported shapes: rays ``e^{i pi beta}[h, inf)`` with ``beta`` in (0, 1],
horizontal lines ``R + ih``, the real axis, horizontal rays
``i y0 + [h, inf)``, and disjoint unions.  Each domain carries a
deterministic sampling grid: geometric with the configured ratio out to
``rmax``.  Lines and the axis sample symmetrically and always include
the point above 0, so suprema attained at the imaginary axis are hit
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULTS
from .errors import ConfigError, finite


@dataclass(frozen=True)
class SampledDomain:
    kind: str                      # ray | line | axis | hray | union
    beta: float = 0.5              # ray direction as a fraction of pi
    h: float = 0.0                 # start offset (ray radius / hray abscissa)
    y0: float = 0.0                # height of lines / horizontal rays
    ratio: float = 0.0             # geometric grid ratio (0 -> default)
    rmax: float = 0.0              # grid extent (0 -> default)
    parts: tuple = ()              # union members

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown domain kind {self.kind!r}")
        if self.y0 < 0:
            raise ConfigError(f"a {self.kind} must lie in the closed upper half-plane")
        if self.kind == "union" and not self.parts:
            raise ConfigError("a union needs at least one part")

    def _ratio(self) -> float:
        return self.ratio if self.ratio > 1.0 else DEFAULTS["grid_ratio"]

    def _rmax(self) -> float:
        return self.rmax if self.rmax > 0.0 else DEFAULTS["grid_rmax"]

    def _geometric(self, start: float) -> np.ndarray:
        stop = self._rmax()
        if stop <= start:
            raise ConfigError(f"grid extent {stop} does not exceed start {start}")
        n = int(math.floor(math.log(stop / start) / math.log(self._ratio()))) + 1
        g = start * self._ratio() ** np.arange(n)
        return np.append(g, stop) if g[-1] < stop else g

    def points(self) -> np.ndarray:
        return _KINDS[self.kind][1](self)

    def to_json(self) -> dict:
        d = {"kind": self.kind, **{k: getattr(self, k) for k in _KINDS[self.kind][0]}}
        if self.kind == "union":
            d["parts"] = [p.to_json() for p in self.parts]
        if self.ratio > 1.0:
            d["ratio"] = self.ratio
        if self.rmax > 0.0:
            d["rmax"] = self.rmax
        return d

    @classmethod
    def from_json(cls, d: dict) -> "SampledDomain":
        kind = d.get("kind")
        if kind == "union":
            return union(*[cls.from_json(p) for p in d["parts"]])
        if kind == "line" and "y0" not in d:
            d = {**d, "y0": d.get("h", 0.0)}    # a line's height may be given as h
        fields = {**_KINDS[kind][0], "ratio": 0.0, "rmax": 0.0} if kind in _KINDS else {}
        return cls(kind, **{k: finite(d.get(k, v), f"domain {k!r}", float)
                            for k, v in fields.items()})


def _ray(d: SampledDomain) -> np.ndarray:
    if not (0.0 < d.beta <= 1.0):
        raise ConfigError("ray direction beta must lie in (0, 1]")
    return d._geometric(max(d.h, 1.0)) * np.exp(1j * math.pi * d.beta)


def _line(d: SampledDomain) -> np.ndarray:
    x = d._geometric(1.0)
    return np.concatenate([-x[::-1], [0.0], x]) + 1j * d.y0


def _union(d: SampledDomain) -> np.ndarray:
    flat = np.concatenate([p.points() for p in d.parts])
    if np.unique(flat).size != flat.size:
        raise ConfigError("union parts must be disjoint")
    return flat


# each kind's JSON fields with the defaults from_json gives them, and its sampler
_KINDS = {
    "ray": ({"beta": 0.5, "h": 1.0}, _ray),
    "line": ({"y0": 0.0}, _line),
    "axis": ({}, _line),
    "hray": ({"y0": 0.0, "h": 1.0}, lambda d: d._geometric(max(d.h, 1.0)) + 1j * d.y0),
    "union": ({}, _union),
}


def ray(beta: float = 0.5, h: float = 1.0, ratio: float = 0.0,
        rmax: float = 0.0) -> SampledDomain:
    """Ray e^{i pi beta}[h, inf); beta = 1/2 is the imaginary half-axis."""
    return SampledDomain("ray", beta=beta, h=h, ratio=ratio, rmax=rmax)


def line(y0: float, ratio: float = 0.0, rmax: float = 0.0) -> SampledDomain:
    """Horizontal line R + i y0, y0 >= 0."""
    return SampledDomain("line", y0=y0, ratio=ratio, rmax=rmax)


def axis(ratio: float = 0.0, rmax: float = 0.0) -> SampledDomain:
    return SampledDomain("axis", ratio=ratio, rmax=rmax)


def horizontal_ray(y0: float, h: float = 1.0, ratio: float = 0.0,
                   rmax: float = 0.0) -> SampledDomain:
    """Horizontal ray i y0 + [h, inf), y0 >= 0."""
    return SampledDomain("hray", y0=y0, h=h, ratio=ratio, rmax=rmax)


def union(*parts: SampledDomain) -> SampledDomain:
    return SampledDomain("union", parts=tuple(parts))
