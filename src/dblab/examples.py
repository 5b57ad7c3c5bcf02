"""Constructors and quantitative oracles for the shipped example spaces.

Five families:

* ``pw`` - Paley-Wiener spaces ``H(e^{-iaz})`` with sinc kernels, the
  workhorse oracle spaces (kernel and norms in closed form).
* ``a20`` - the one-dimensional extension of PW_1 generated by
  ``E = cos z - i (z cos z + sin z)``, i.e. the pair (A, B) = (cos, sin)
  pushed through the transfer matrix [[1, z], [0, 1]].  ``cos z`` lies in
  the big space but not in PW_1.
* ``a38`` - order-1/2 canonical products ``G`` (zeros ``n^2 - i``) and
  ``Gtilde`` (zeros ``n^2 - in``), with the closed form for ``G`` and the
  ``|Gtilde(x^2)| ~ 1/x`` decay oracle; ``E0 = (z + i) Gtilde^2``.
* ``a41`` - Herglotz partial-fraction series with poles at ``|n|^alpha``
  and masses ``|n|^{2 alpha - 2}``; its Cayley transform gives an inner
  function whose boundary values hug -1 along horizontal lines.
* ``a45`` - the fast-growing phase-derivative zero set
  ``(sign n) log|n| + i |n|^{-1} log^{-2}|n|``; only the zero-sum phase
  evaluator is built (the generating function itself is never needed).

Truncated products carry analytic tail data computed from Hurwitz zeta
values (summed by Euler-Maclaurin), so evaluation error is dominated by
the second-order tail remainder rather than the raw truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Tuple

import numpy as np

from .defaults import DEFAULTS
from .errors import ConfigError, UnknownInstance, finite
from .expressions import (Affine, CanonicalProduct, Const, Cos, ExpCZ,
                          FunctionExpr, PartialFractions, Poly, PoleSequence,
                          Power, Product, Quotient, Sin, Sinc, Sum, Z,
                          ZeroSequence, csinc, expr_to_json,
                          POLE_SEQUENCE_BUILDERS, SEQUENCE_BUILDERS)
from .space import DbSpace, membership, zero_sum_phase

LOG2 = math.log(2.0)
A46_CONSTANT = 1.0 / (1.0 + 1.0 / LOG2 ** 4)


# ---------------------------------------------------------------------------
# tail sums via Hurwitz zeta
# ---------------------------------------------------------------------------

# B_2m / (2m)! for the Euler-Maclaurin corrections, m = 1..8
_EULER_MACLAURIN = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                    -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000)


def _zeta_tail(s: int, n: int) -> float:
    """sum_{k > n} k^{-s} for an integer s >= 2: twenty terms directly, the
    rest by Euler-Maclaurin, whose remainder is below 1e-19 relative."""
    a = n + 21
    head = math.fsum(k ** -s for k in range(n + 1, a))
    rest = a ** (1 - s) / (s - 1) + 0.5 * a ** -s
    rising = s                      # s (s+1) ... (s+2m-2)
    for m, c in enumerate(_EULER_MACLAURIN, 1):
        rest += c * rising * a ** (-s - 2 * m + 1)
        rising *= (s + 2 * m - 1) * (s + 2 * m)
    return head + rest


def _a38_g_tail_inv_sum(n: int) -> complex:
    # sum_{k>n} 1/(k^2 - i) = sum_j i^j * zeta(2j+2, n+1)
    total = 0.0 + 0.0j
    for j in range(8):
        term = (1j ** j) * _zeta_tail(2 * j + 2, n)
        total += term
        if abs(term) < 1e-22:
            break
    return total

def _a38_gtilde_tail_inv_sum(n: int) -> complex:
    # sum_{k>n} 1/(k(k - i)) = sum_j i^j * zeta(j+2, n+1)
    total = 0.0 + 0.0j
    for j in range(40):
        term = (1j ** j) * _zeta_tail(j + 2, n)
        total += term
        if abs(term) < 1e-22:
            break
    return total


def _second_order_tail_bound(n: int, zmin_next: float) -> Callable:
    """Bound on the corrected log-tail of a genus-0 product whose omitted
    zeros satisfy |z_k| >= k^2-ish; blows up honestly once R leaves the
    validity region R << |z_{n+1}|."""
    z4 = _zeta_tail(4, n)
    z2 = _zeta_tail(2, n)

    def bound(r):
        r = np.asarray(r, dtype=float)
        ok = r < 0.3 * zmin_next
        return np.where(ok, r * r * z4, 2.0 * r * z2 + r * r * z4 + 1.0)

    return bound


# ---------------------------------------------------------------------------
# named sequences (registered for the JSON codec)
# ---------------------------------------------------------------------------

def a38_g_sequence(n: int) -> ZeroSequence:
    """Zeros ``k^2 - i``, k = 1..n, with first-order tail correction."""
    n = int(n)
    if n < 1:
        raise ConfigError("a38 truncation must be >= 1")
    k = np.arange(1, n + 1, dtype=float)
    # filled part by part, with the bits of k * k - 1j and no temporary of size n
    zeros = np.empty(n, dtype=complex)
    np.multiply(k, k, out=zeros.real)
    zeros.imag = -1.0
    return ZeroSequence("a38_g", zeros, 0,
                        _second_order_tail_bound(n, (n + 1) ** 2),
                        _a38_g_tail_inv_sum(n),
                        {"kind": "named", "name": "a38_g", "params": {"n": n}})


def a38_gtilde_sequence(n: int) -> ZeroSequence:
    """Zeros ``k^2 - ik``, k = 1..n."""
    n = int(n)
    if n < 1:
        raise ConfigError("a38 truncation must be >= 1")
    k = np.arange(1, n + 1, dtype=float)
    # filled part by part, with the bits of k * k - 1j * k and no temporary of size n
    zeros = np.empty(n, dtype=complex)
    np.multiply(k, k, out=zeros.real)
    np.negative(k, out=zeros.imag)
    zmin_next = (n + 1) * math.hypot(n + 1.0, 1.0)
    return ZeroSequence("a38_gtilde", zeros, 0,
                        _second_order_tail_bound(n, zmin_next),
                        _a38_gtilde_tail_inv_sum(n),
                        {"kind": "named", "name": "a38_gtilde", "params": {"n": n}})


def a45_zero_sequence(n: int) -> ZeroSequence:
    """``(sign k) log|k| + i |k|^{-1} log^{-2}|k|`` for 2 <= |k| <= n."""
    n = int(n)
    if n < 2:
        raise ConfigError("a45 truncation must be >= 2")
    k = np.arange(2, n + 1, dtype=float)
    x = np.log(k)
    y = 1.0 / (k * np.log(k) ** 2)
    zeros = np.concatenate([x + 1j * y, -x + 1j * y])
    return ZeroSequence("a45", zeros, 1, None, None,
                        {"kind": "named", "name": "a45", "params": {"n": n}})


def a41_pole_sequence(alpha: float, n: int) -> PoleSequence:
    """Poles ``k^alpha`` with mass ``2 k^{2 alpha - 2}`` (the symmetric
    index pairs share a pole, so their masses merge)."""
    alpha = float(alpha)
    n = int(n)
    if alpha <= 1.0:
        raise ConfigError("a41 requires alpha > 1")
    k = np.arange(1, n + 1, dtype=float)
    poles = k ** alpha
    weights = 2.0 * k ** (2.0 * alpha - 2.0)
    z2 = _zeta_tail(2, n)
    nalpha = float((n + 1) ** alpha)

    def tail(r):
        r = np.asarray(r, dtype=float)
        ok = r < 0.5 * nalpha
        return np.where(ok, 4.0 * r * z2, np.inf)

    return PoleSequence("a41", poles, weights, tail,
                        {"kind": "named", "name": "a41",
                         "params": {"alpha": alpha, "n": n}})


SEQUENCE_BUILDERS["a38_g"] = a38_g_sequence
SEQUENCE_BUILDERS["a38_gtilde"] = a38_gtilde_sequence
SEQUENCE_BUILDERS["a45"] = a45_zero_sequence
POLE_SEQUENCE_BUILDERS["a41"] = a41_pole_sequence


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

@dataclass
class ExampleInstance:
    id: str
    params: dict
    spaces: Dict[str, DbSpace]
    members: List[Tuple[str, FunctionExpr, str]]        # (label, F, space key)
    non_members: List[Tuple[str, FunctionExpr, str]]
    extras: dict = field(default_factory=dict)

    def check_claims(self) -> List[dict]:
        """Run the shipped member/non-member table through membership()."""
        rows = []
        for table, expected in ((self.members, "in"), (self.non_members, "out")):
            for label, f, key in table:
                v = membership(self.spaces[key], f).verdict
                rows.append({"function": label, "space": key, "expected": expected,
                             "verdict": v, "ok": v == expected})
        return rows

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "params": self.params,
            "spaces": {k: s.to_json() for k, s in self.spaces.items()},
            "members": [{"label": l, "space": k, "f": expr_to_json(f)}
                        for l, f, k in self.members],
            "non-members": [{"label": l, "space": k, "f": expr_to_json(f)}
                            for l, f, k in self.non_members],
        }


def pw_kernel_expr(a: float, x0: float) -> FunctionExpr:
    """K_{PW_a}(x0, .) = sin(a(z - x0)) / (pi (z - x0)) as an entire expression."""
    return Product([Const(a / math.pi), Affine(Sinc(), a, -a * x0)])


def pw_kernel_closed(a: float, w: complex, z) -> np.ndarray:
    """Closed-form PW_a kernel sin(a(z - conj w)) / (pi (z - conj w))."""
    u = np.asarray(z, dtype=complex) - np.conj(complex(w))
    return (a / math.pi) * csinc(a * u)


def pw_space(a: float) -> DbSpace:
    if a <= 0:
        raise ConfigError("Paley-Wiener parameter must be positive")
    sp = DbSpace(ExpCZ(-1j * a), None, 1.0, a, f"pw{a:g}")
    sp.hb_verified = True  # |e^{iaz}| < |e^{-iaz}| holds identically on C+
    return sp


def build_pw(a: float = 1.0) -> ExampleInstance:
    sp = pw_space(a)
    xs = [0.0, math.pi / a, 1.3]
    kernels = [(f"k[{x:g}]", pw_kernel_expr(a, x)) for x in xs]
    members = [(lbl, f, "H") for lbl, f in kernels]
    # two kernel combinations round the shipped member list out to five
    members.append(("k[0]+k[pi/a]", kernels[0][1] + kernels[1][1], "H"))
    members.append(("k[0]-k[1.3]", kernels[0][1] - kernels[2][1], "H"))
    non_members = [
        (f"cos({a:g}z)", Affine(Cos(), a), "H"),
        (f"sin({2 * a:g}z)/(2 pi z)",
         Product([Const(a / math.pi), Affine(Sinc(), 2 * a)]), "H"),
    ]

    def member_norm2(coeffs_points):
        total = 0.0j
        for c1, x1 in coeffs_points:
            for c2, x2 in coeffs_points:
                total += c1 * np.conj(c2) * pw_kernel_closed(a, x2, x1)
        return float(np.real(total))

    norms2 = [member_norm2([(1.0, xs[0])]),
              member_norm2([(1.0, xs[1])]),
              member_norm2([(1.0, xs[2])]),
              member_norm2([(1.0, xs[0]), (1.0, xs[1])]),
              member_norm2([(1.0, xs[0]), (-1.0, xs[2])])]
    return ExampleInstance(
        "pw", {"a": a}, {"H": sp}, members, non_members,
        extras={"member_norms2": norms2})


def a20_structure_function() -> FunctionExpr:
    # E = cos z - i (z cos z + sin z); (A, B) = (cos, sin) * [[1, z], [0, 1]]
    b = Sum([Product([Z(), Cos()]), Sin()])
    return Sum([Cos(), Product([Const(-1j), b])])


def build_a20() -> ExampleInstance:
    e = a20_structure_function()
    big = DbSpace(e, None, 1.0, 1.0, "a20")
    pw1 = pw_space(1.0)
    sinc_member = pw_kernel_expr(1.0, 0.0)
    members = [("sin z/(pi z)", sinc_member, "L"),
               ("sin z/(pi z)", sinc_member, "H"),
               ("cos z", Cos(), "H")]
    non_members = [("cos z", Cos(), "L")]
    return ExampleInstance(
        "a20", {}, {"H": big, "L": pw1}, members, non_members,
        extras={"A": Cos(), "B": Sum([Product([Z(), Cos()]), Sin()])})


@lru_cache(maxsize=None)
def a38_constant(n: int = 100_000) -> complex:
    """``prod (k^2 - i)/k^2``; the truncated log-sum plus its exact
    zeta-series tail, so the value is machine accurate for any n >= 1000."""
    k = np.arange(1, n + 1, dtype=float)
    logs = np.log(1.0 - 1j / (k * k))
    tail = 0.0 + 0.0j
    for j in range(1, 10):
        term = -(1j ** j) / j * _zeta_tail(2 * j, n)
        tail += term
        if abs(term) < 1e-22:
            break
    return complex(np.exp(np.sum(logs) + tail))


def a38_g_closed(z) -> np.ndarray:
    """Closed form for G: ``sin(pi sqrt(z+i)) / (pi sqrt(z+i))`` divided by
    the constant ``prod (k^2 - i)/k^2`` (fixed by G(0) = 1; the branch of
    the square root is immaterial since the expression is even)."""
    w = np.sqrt(np.asarray(z, dtype=complex) + 1j)
    return csinc(math.pi * w) / a38_constant()


def a38_gtilde_x2_envelope(x) -> np.ndarray:
    """``|x^2 - k^2 + ik| / (x (x + k))`` with k the nearest integer;
    the two-sided comparison function for |Gtilde(x^2)|, x > 1."""
    x = np.asarray(x, dtype=float)
    k = np.maximum(np.round(x), 1.0)
    return np.abs(x * x - k * k + 1j * k) / (x * (x + k))


def build_a38(n: int | None = None) -> ExampleInstance:
    n = DEFAULTS["truncation_a38"] if n is None else int(n)
    if n < 1000:
        raise ConfigError("a38 truncation must be >= 1000")
    g = CanonicalProduct(a38_g_sequence(n))
    gtilde = CanonicalProduct(a38_gtilde_sequence(n))
    e0 = Product([Poly([1j, 1.0]), Power(gtilde, 2)])
    sp = DbSpace(e0, None, 0.5, 0.0, "a38")
    return ExampleInstance(
        "a38", {"n": n}, {"H": sp}, [], [],
        extras={"G": g, "Gtilde": gtilde,
                "gtilde_x2_envelope": a38_gtilde_x2_envelope})


def build_a41(alpha: float = 2.0, y0: float = 1.0, n: int | None = None) -> ExampleInstance:
    n = DEFAULTS["truncation_a41"] if n is None else int(n)
    if n < 1000:
        raise ConfigError("a41 truncation must be >= 1000")
    seq = a41_pole_sequence(alpha, n)
    q = PartialFractions(seq)
    theta = Quotient(Const(1j) - q, Const(1j) + q)

    def im_q(x: np.ndarray) -> np.ndarray:
        return q.values(np.asarray(x, dtype=float) + 1j * y0).imag

    mass_partial = np.cumsum(seq.weights / seq.poles ** 2)
    return ExampleInstance(
        "a41", {"alpha": alpha, "y0": y0, "n": n}, {}, [], [],
        extras={"q": q, "theta": theta, "im_q": im_q,
                "mass_partial_sums": mass_partial,
                "mass_limit": 2.0 * math.pi ** 2 / 6.0})


def a46_lower_bound(x) -> np.ndarray:
    """``(e^x - 1)/x^2`` scaled by ``[1 + 1/log^4 2]^{-1}``."""
    x = np.asarray(x, dtype=float)
    return (np.exp(x) - 1.0) / (x * x) * A46_CONSTANT


def build_a45(n: int | None = None) -> ExampleInstance:
    n = DEFAULTS["truncation_a45"] if n is None else int(n)
    if n < 1000:
        raise ConfigError("a45 truncation must be >= 1000")
    seq = a45_zero_sequence(n)

    def phi(x):
        return zero_sum_phase(seq, x)

    return ExampleInstance(
        "a45", {"n": n}, {}, [], [],
        extras={"zeros": seq, "phi": phi, "lower_bound": a46_lower_bound})


def a45_truncated_space(n: int = 200) -> DbSpace:
    """Finite product with the conjugated (lower half-plane) zero set; a
    genuine HB polynomial-type function used for phase-route cross-checks."""
    lower = ZeroSequence(f"a45#[{n}]", np.conj(a45_zero_sequence(n).zeros), 0)
    sp = DbSpace(CanonicalProduct(lower), lower, 0.0, 0.0, f"a45-trunc-{n}")
    return sp


EXAMPLE_BUILDERS: Dict[str, Callable[..., ExampleInstance]] = {
    "pw": build_pw,
    "a20": build_a20,
    "a38": build_a38,
    "a41": build_a41,
    "a45": build_a45,
}


def build_example(example_id: str, **params) -> ExampleInstance:
    key = example_id.lower()
    if key.startswith("pw(") and key.endswith(")"):
        return build_pw(finite(key[3:-1], "the width of pw(a)", float))
    if key not in EXAMPLE_BUILDERS:
        raise UnknownInstance(f"no example named {example_id!r}; "
                              f"known: {sorted(EXAMPLE_BUILDERS)}")
    return EXAMPLE_BUILDERS[key](**params)
