"""The three benchmark workloads: seeded inputs, references and checks.

A workload object is built in three steps:

* ``__init__(seed)`` is the timed set-up: it builds the workload's
  spaces, sequences and domains through public ``dblab`` calls;
* ``prepare()`` draws the remaining seeded inputs and computes every
  reference value (mpmath at 40 digits, closed forms, or independent
  numpy sums) outside any timed region;
* ``ops()`` returns the fixed operation list of one pass.  Each ``Op``
  pairs the timed call with an untimed check.

All dblab calls go through module attributes (``ds.nabla_values``, not a
name bound at import), so the tracer's rebinding sees every call.

Checks come in two kinds.  A *value* check compares an output with its
reference at the tolerance the workload requires; a miss makes the run
incorrect.  A *bound* check asks whether the reported ``abs_error`` (or
quadrature error) covers the actual distance to the reference; a miss
fails the operation and is named in the report, but the value itself may
still meet its tolerance.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from dblab import cli
from dblab import domains as dd
from dblab import examples as de
from dblab import expressions as dx
from dblab import majorization as dm
from dblab import model as dmod
from dblab import quadrature as dq
from dblab import space as ds

THEOREMS = ("A10", "A12", "A13", "A15", "A18", "A18-nabla", "A37", "A48", "A54")
MP_DIGITS = 40


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object, "Checks"], None]


class Checks:
    """Findings of one operation's check."""

    def __init__(self):
        self.raised = None                  # "Type: message" when the operation raised
        self.value_failures: list = []
        self.bound_failures: list = []
        self.bound_points = {"expressions": [0, 0], "quadrature": [0, 0]}   # [violations, checked]
        self.bound_worst = {"expressions": 0.0, "quadrature": 0.0}         # max actual/abs_error

    def value(self, ok: bool, what: str):
        if not ok:
            self.value_failures.append(what)

    def close(self, got, ref, rel: float, what: str, floor: float = 0.0):
        got, ref = np.asarray(got), np.asarray(ref)
        dev = np.abs(got - ref)
        tol = rel * np.maximum(np.abs(ref), floor)
        bad = ~(dev <= tol)
        self.value(not bad.any(), f"{what}: {int(bad.sum())}/{bad.size} points off by "
                                  f"more than {rel:g} relative (worst {float(np.max(dev / tol)):.3g}x)")

    def bound(self, layer: str, got, ref, err, what: str):
        """|got - ref| <= err, pointwise."""
        dev = np.abs(np.asarray(got) - np.asarray(ref)).ravel()
        err = np.asarray(err, dtype=float).ravel()
        bad = ~(dev <= err)
        counts = self.bound_points[layer]
        counts[0] += int(bad.sum())
        counts[1] += int(bad.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dev > 0, dev / err, 0.0)
        worst = min(float(np.max(ratio)), 1e300)     # stays finite for the JSON report
        self.bound_worst[layer] = max(self.bound_worst[layer], worst)
        if bad.any():
            self.bound_failures.append(
                f"{what}: abs_error understates the actual error at {int(bad.sum())}/{bad.size} "
                f"points (worst actual/abs_error {float(np.max(dev[bad] / err[bad])):.3g})")


def _mp():
    import mpmath
    mpmath.mp.dps = MP_DIGITS
    return mpmath


def _mpc(mp, z):
    return mp.mpc(float(z.real), float(z.imag))


def _slope(x, y) -> float:
    lx, ly = np.log(x), np.log(y)
    return float(np.sum((lx - lx.mean()) * (ly - ly.mean())) / np.sum((lx - lx.mean()) ** 2))


# ---------------------------------------------------------------------------
# witness: closed-form trees on sampled domains
# ---------------------------------------------------------------------------

class Witness:
    # point counts are fixed by the grid ratios; the seed moves heights and a
    LINE_RATIOS = (1.001, 1.0004, 1.0002)      # about 1.8e4, 4.6e4 and 9.2e4 points
    GRID_RATIO = 1.00002                       # about 9.2e5 points
    AXIS_POINTS = 50_000

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        rng = self.rng
        self.pw1 = de.pw_space(1.0)
        self.a = float(rng.uniform(0.25, 4.0))
        self.pwa = de.pw_space(self.a)
        self.lines = [dd.line(float(rng.uniform(0.2, 3.0)), ratio=r, rmax=1.0e4)
                      for r in self.LINE_RATIOS]
        self.ray = dd.ray(0.5, float(rng.uniform(0.5, 2.0)), ratio=1.02, rmax=512.0)
        self.grid = dd.line(float(rng.uniform(0.2, 3.0)), ratio=self.GRID_RATIO, rmax=1.0e4)

    def prepare(self):
        rng = self.rng
        self.axis_x = rng.uniform(-200.0, 200.0, self.AXIS_POINTS) + 0j
        self.axis_ref = math.sqrt(self.a / math.pi)
        self.audit_z = rng.uniform(-50.0, 50.0, 32) + 1j * rng.uniform(0.0, 5.0, 32)
        mp = _mp()
        zs = [_mpc(mp, z) for z in self.audit_z]
        self.audit_cos = np.array([complex(mp.cos(z)) for z in zs])
        self.audit_exp = np.array([complex(mp.exp(-1j * self.a * z)) for z in zs])

    def ops(self):
        ops = [Op(f"verify_{t}", _verify_run(t), _verify_check) for t in THEOREMS]
        for i, d in enumerate(self.lines):
            ops.append(Op(f"cos_line_{i}", self._majorize(d), self._check_line(d)))
        ops.append(Op("cos_ray", self._majorize(self.ray), self._check_ray))
        ops.append(Op("axis_nabla", self._axis, self._check_axis))
        ops.append(Op("cos_grid", self._majorize(self.grid), self._check_line(self.grid)))
        ops.append(Op("expr_audit", self._audit, self._check_audit))
        return ops

    def _majorize(self, domain):
        def run():
            rep = dm.test_majorization(dx.Cos(), dm.nabla_majorant(self.pw1, domain))
            return {"verdict": rep.verdict, "sup": rep.sup_ratio,
                    "slope": rep.tail_slope, "z": rep.z, "ratio": rep.ratio}
        return run

    @staticmethod
    def _check_line(domain):
        h = domain.y0

        def check(res, c: Checks):
            nabla_h = math.sqrt(math.sinh(2 * h) / (2 * math.pi * h))
            c.value(res["verdict"] == "majorized", f"line y={h:.4g}: verdict {res['verdict']}")
            c.close(res["sup"], math.cosh(h) / nabla_h, 1e-9, f"line y={h:.4g} sup ratio")
            x = res["z"].real
            c.close(res["ratio"], np.sqrt(np.cos(x) ** 2 + math.sinh(h) ** 2) / nabla_h,
                    1e-9, f"line y={h:.4g} ratio profile")
        return check

    @staticmethod
    def _check_ray(res, c: Checks):
        c.value(res["verdict"] == "not-majorized", f"vertical ray: verdict {res['verdict']}")
        c.value(res["slope"] >= 0.10, f"vertical ray: tail slope {res['slope']:.3g} < 0.10")

    def _axis(self):
        return ds.nabla_values(self.pwa, self.axis_x)

    def _check_axis(self, res, c: Checks):
        c.close(res, np.full(res.shape, self.axis_ref), 1e-8, f"nabla PW_{self.a:.4g} on the axis")

    def _audit(self):
        return dx.Cos().eval_array(self.audit_z), self.pwa.e.eval_array(self.audit_z)

    def _check_audit(self, res, c: Checks):
        (cv, ce), (ev, ee) = res
        c.close(cv, self.audit_cos, 1e-12, "cos z against mpmath", floor=1.0)
        c.close(ev, self.audit_exp, 1e-12, "exp(-iaz) against mpmath", floor=1.0)
        c.bound("expressions", cv, self.audit_cos, ce, "cos z")
        c.bound("expressions", ev, self.audit_exp, ee, "exp(-iaz)")


def _verify_run(theorem: str):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", theorem])
        doc = json.loads(out.getvalue())
        doc.pop("timestamp", None)
        return {"exit": code, "doc": doc}
    return run


def _verify_check(res, c: Checks):
    doc = res["doc"]
    name = doc["config"].get("theorem")
    c.value(res["exit"] == 0, f"verify {name}: exit code {res['exit']}")
    for rep in doc["result"]["reports"]:
        for w in rep["witnesses"]:
            c.value(w["verdict"] == w["expected"],
                    f"verify {name}: {w['function']} is {w['verdict']}, table says {w['expected']}")


# ---------------------------------------------------------------------------
# series: order-1/2 products and long series
# ---------------------------------------------------------------------------

class Series:
    N_A38 = 1_000_000
    N_A41 = 100_000
    N_A45 = 100_000

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.a38 = de.build_a38(self.N_A38)
        self.a41 = de.build_a41(2.0, 1.0, self.N_A41)
        self.a45 = de.build_a45(self.N_A45)
        self.e0 = self.a38.spaces["H"]

    def prepare(self):
        rng = self.rng
        x = np.exp(rng.uniform(math.log(5.0), math.log(50.0), 24))
        self.g_real = x * x + 0j
        x = np.exp(rng.uniform(math.log(5.0), math.log(50.0), 24))
        self.g_upper = x * x + 1j * rng.uniform(0.5, 50.0, 24)
        self.gt_x = np.sort(np.exp(rng.uniform(math.log(5.0), math.log(50.0), 40)))
        self.diag_t = rng.uniform(0.5, 100.0, 1) + 0j
        self.nabla_z = rng.uniform(-100.0, 100.0, 3) + 1j * rng.uniform(0.5, 5.0, 3)
        line = rng.uniform(1.0, 1.0e4, 80) + 1j
        k = rng.choice(np.arange(1, 91), 40, replace=False).astype(float)
        self.mid = (k * k + (k + 1) ** 2) / 2.0 + 1j
        self.a41_z = np.concatenate([line, self.mid])
        self.a45_x = rng.uniform(math.log(2.0), math.log(self.N_A45 + 1.0), 50)

        mp = _mp()
        c = mp.sincpi(mp.sqrt(mp.mpc(0, 1)))

        def g_ref(z):
            return complex(mp.sincpi(mp.sqrt(_mpc(mp, z) + 1j)) / c)

        self.g_real_ref = np.array([g_ref(z) for z in self.g_real])
        self.g_upper_ref = np.array([g_ref(z) for z in self.g_upper])

        def q_ref(z):
            w = mp.sqrt(_mpc(mp, z))
            return complex(1 - mp.pi * w * mp.cot(mp.pi * w))

        self.a41_ref = np.array([q_ref(z) for z in self.a41_z])
        seq = self.a41.extras["q"].seq
        t, mu = seq.poles, seq.weights
        self.a41_trunc = np.array([np.sum(mu * z / (t * (t - z))) for z in self.a41_z])

        gseq = self.a38.extras["Gtilde"].seq
        zk, s = gseq.zeros, gseq.tail_inv_sum

        def log_e0(z):   # log E0 = log(z + i) + 2 (sum log(1 - z/z_k) - z s)
            return np.log(z + 1j) + 2.0 * (np.sum(np.log1p(-z / zk)) - z * s)

        t0 = complex(self.diag_t[0])
        dlog = 1.0 / (t0 + 1j) + 2.0 * np.sum(1.0 / (t0 - zk)) - 2.0 * s
        self.diag_ref = np.array([-math.exp(2.0 * log_e0(t0).real) / math.pi * dlog.imag])
        refs = []
        for z in self.nabla_z:
            d, sh = log_e0(z).real, log_e0(np.conj(z)).real
            refs.append(math.exp(d) * math.sqrt(-math.expm1(2.0 * (sh - d)))
                        / (2.0 * math.sqrt(math.pi * z.imag)))
        self.nabla_ref = np.array(refs)

        zs = self.a45.extras["zeros"].zeros
        self.a45_ref = np.array([np.sum(np.abs(zs.imag) / np.abs(x - zs) ** 2) for x in self.a45_x])

    def ops(self):
        g, gt = self.a38.extras["G"], self.a38.extras["Gtilde"]
        return [
            Op("a38_G_real", lambda: g.eval_array(self.g_real), self._check_g("real", self.g_real_ref)),
            Op("a38_G_upper", lambda: g.eval_array(self.g_upper), self._check_g("upper", self.g_upper_ref)),
            Op("a38_Gtilde_sqrt", lambda: gt.eval_array(self.gt_x ** 2 + 0j), self._check_gtilde),
            Op("a38_E0_nabla", lambda: ds.nabla_values(self.e0, self.nabla_z), self._check_nabla),
            Op("a38_E0_diag", lambda: ds.kernel_diagonal_values(self.e0, self.diag_t), self._check_diag),
            Op("a41_q_theta", self._a41, self._check_a41),
            Op("a45_phase", lambda: self.a45.extras["phi"](self.a45_x), self._check_a45),
        ]

    @staticmethod
    def _check_g(where: str, ref):
        def check(res, c: Checks):
            v, e = res
            c.close(v, ref, 1e-6, f"a38 G (n=1e6, {where}) against mpmath")
            c.bound("expressions", v, ref, e, f"a38 G (n=1e6, {where})")
        return check

    def _check_gtilde(self, res, c: Checks):
        v = np.abs(res[0])
        c.value(bool(np.all(np.isfinite(v)) and np.all(v > 0)), "a38 Gtilde: nonfinite or zero value")
        slope = _slope(self.gt_x, v)
        c.value(abs(slope + 1.0) <= 0.1, f"a38 Gtilde: sqrt-scale decay slope {slope:.3f}, expected -1")

    def _check_nabla(self, res, c: Checks):
        c.close(res, self.nabla_ref, 1e-8, "E0 nabla off the axis against a log-sum reference")

    def _check_diag(self, res, c: Checks):
        c.close(res.real, self.diag_ref, 1e-6, "E0 diagonal kernel against the zero-sum reference")

    def _a41(self):
        q = self.a41.extras["q"].eval_array(self.a41_z)
        theta = self.a41.extras["theta"].values(self.a41_z)
        return q, theta

    def _check_a41(self, res, c: Checks):
        (qv, qe), tv = res
        c.close(qv, self.a41_trunc, 1e-9, "a41 q against the truncated sum")
        c.value(float(np.min(qv.imag)) >= 0.1, "a41: Im q drops below 0.1 on y = 1")
        m = qv.size - self.mid.size
        rhs = (1.0 - np.abs(tv[m:]) ** 2) / np.abs(1.0 + tv[m:]) ** 2
        dev = float(np.max(np.abs(qv[m:].imag - rhs)))
        c.value(dev <= 1e-10, f"a41 Cayley identity off by {dev:.3g} > 1e-10")
        c.bound("expressions", qv, self.a41_ref, qe, "a41 q (n=1e5) against 1 - pi sqrt(z) cot(pi sqrt(z))")

    def _check_a45(self, res, c: Checks):
        c.close(res, self.a45_ref, 1e-10, "a45 zero-sum phase against a direct sum")
        bound = de.a46_lower_bound(self.a45_x)
        c.value(bool(np.all(res >= bound)), "a45 phase below (e^x - 1)/x^2 inside the window")


# ---------------------------------------------------------------------------
# hilbert: weighted integrals and model tools on closed-form spaces
# ---------------------------------------------------------------------------

class Hilbert:
    BLASCHKE_ZEROS = (1j, -2 + 0.5j)
    # Fixed anchor: the halfwidth the |k_w|^2 integral reaches, and with it the
    # largest panel batch and the run's peak memory, depends on w.
    PARSEVAL_W = 0.3 + 0.7j
    A_GRID = np.arange(1, 21) * 0.1

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.pw = de.build_pw(1.0)
        self.a20 = de.build_a20()
        self.theta = dmod.InnerFunction.exponential(1.0)
        self.blaschke = dmod.InnerFunction.blaschke(self.BLASCHKE_ZEROS)
        self.herglotz_cases = [
            ("-iz", dx.Product([dx.Const(-1j), dx.Z()]), 1.0, math.inf),
            ("i/z", dx.Quotient(dx.Const(1j), dx.Z()), 0.0, math.pi),
            ("1", dx.Const(1.0), 0.0, math.inf),
        ]
        self.weak_q = dx.Quotient(dx.Const(1j), dx.Z())

    def prepare(self):
        rng = self.rng

        def anchor(lo, hi, ylo, yhi):
            return complex(rng.uniform(lo, hi), rng.uniform(ylo, yhi))

        self.pairs = [(anchor(-2, 2, 0.3, 2.0), anchor(-2, 2, 0.3, 2.0)) for _ in range(2)]
        self.weak_y0 = float(rng.uniform(0.5, 1.5))
        self.audit_w = anchor(-2, 2, 0.3, 2.0)
        self.audit_z = rng.uniform(-20.0, 20.0, 24) + 1j * rng.uniform(0.0, 3.0, 24)

        mp = _mp()

        def k_exp(w, z):   # Clark kernel of e^{iz}: (i/2pi)(1 - conj(theta(w)) theta(z)) / (z - conj w)
            w, z = _mpc(mp, w), _mpc(mp, z)
            tw, tz = mp.exp(1j * w), mp.exp(1j * z)
            return complex(1j / (2 * mp.pi) * (1 - mp.conj(tw) * tz) / (z - mp.conj(w)))

        self.pair_refs = [k_exp(w, z) for w, z in self.pairs]
        self.audit_ref = np.array([k_exp(self.audit_w, z) for z in self.audit_z])
        w = _mpc(mp, self.PARSEVAL_W)
        tb = mp.mpf(1)
        for zk in self.BLASCHKE_ZEROS:
            zk = _mpc(mp, zk)
            tb *= (w - zk) / (w - mp.conj(zk))
        self.parseval_ref = float((1 - abs(tb) ** 2) / (4 * mp.pi * w.imag))
        self.norm_refs = list(self.pw.extras["member_norms2"])

    def ops(self):
        ops = [Op("pw_claims", self.pw.check_claims, _claims_check("pw")),
               Op("a20_claims", self.a20.check_claims, _claims_check("a20"))]
        space = self.pw.spaces["H"]
        for (label, f, _), ref in zip(self.pw.members, self.norm_refs):
            ops.append(Op(f"pw_norm[{label}]", _norm_run(space, f), _norm_check(label, ref)))
        for i, ((w, z), ref) in enumerate(zip(self.pairs, self.pair_refs)):
            ops.append(Op(f"clark_cross_{i}", self._clark(w, z), _clark_check(w, z, ref)))
        for label, q, p, total in self.herglotz_cases:
            ops.append(Op(f"herglotz[{label}]", _herglotz_run(q), _herglotz_check(label, p, total)))
        ops.append(Op("blaschke_parseval", self._parseval, self._check_parseval))
        ops.append(Op("weak_type_iz", self._weak, self._check_weak))
        ops.append(Op("clark_kernel_audit", self._audit, self._check_audit))
        return ops

    def _clark(self, w, z):
        def run():
            kw, kz = dmod.clark_kernel(self.theta, w), dmod.clark_kernel(self.theta, z)

            def cross(t):
                tt = np.asarray(t, dtype=complex)
                return kw.values(tt) * np.conj(kz.values(tt))

            return dq.integrate_real_line(cross, rel_tol=1e-8)
        return run

    def _parseval(self):
        neg = dmod.InnerFunction("expr", dx.Product([dx.Const(-1.0), self.blaschke.expr]))
        h = dmod.herglotz_extract(dmod.cayley_q_from_theta(neg, "plus"),
                                  density_grid=np.linspace(-30.0, 30.0, 1201))
        kw = dmod.clark_kernel(self.blaschke, self.PARSEVAL_W)

        def sq(t):
            v = kw.values(np.asarray(t, dtype=complex))
            return (v * np.conj(v)).real

        res = dq.integrate_real_line(sq, rel_tol=1e-8)
        parseval = sum(wj * abs(kw.at(tj)) ** 2 for tj, wj in h.point_masses)
        return {"masses": len(h.point_masses), "p": h.p, "integral": res, "parseval": parseval}

    def _check_parseval(self, res, c: Checks):
        c.value(res["masses"] == 2 and res["p"] == 0.0,
                f"Blaschke Clark measure: {res['masses']} point masses, p = {res['p']}")
        h2 = res["integral"].value.real
        c.value(abs(h2 - res["parseval"]) <= 1e-5 * h2, "Blaschke Parseval identity off by more than 1e-5")
        c.close(h2, self.parseval_ref, 1e-6, "Blaschke |k_w|^2 against (1 - |theta(w)|^2)/(4 pi Im w)")
        c.bound("quadrature", h2, self.parseval_ref, res["integral"].error, "Blaschke |k_w|^2 integral")

    def _weak(self):
        return dmod.weak_type_test(self.weak_q, self.weak_y0, self.A_GRID)

    def _check_weak(self, rep, c: Checks):
        closed = 2.0 * np.sqrt(np.maximum(0.0, 1.0 / rep.a_grid ** 2 - self.weak_y0 ** 2))
        dev = float(np.max(np.abs(rep.measures - closed)))
        c.value(dev <= 1e-6, f"weak type of i/z on y={self.weak_y0:.4g}: measure off by {dev:.3g}")
        c.value(abs(rep.y_limit - 1.0) < 1e-9, f"weak type of i/z: y-limit {rep.y_limit}")
        c.value(bool(np.all(rep.bound_products <= rep.bound_constant * rep.y_limit)),
                "weak type of i/z: a * measure exceeds the weak-type constant")

    def _audit(self):
        return dmod.clark_kernel(self.theta, self.audit_w).eval_array(self.audit_z)

    def _check_audit(self, res, c: Checks):
        v, e = res
        c.close(v, self.audit_ref, 1e-9, "Clark kernel of e^{iz} against mpmath")
        c.bound("expressions", v, self.audit_ref, e, "Clark kernel of e^{iz}")


def _claims_check(name: str):
    def check(rows, c: Checks):
        for r in rows:
            c.value(r["ok"], f"{name} membership: {r['function']} in {r['space']} is "
                             f"{r['verdict']}, table says {r['expected']}")
    return check


def _norm_run(space, f):
    return lambda: ds.inner_product(space, f, f)


def _norm_check(label: str, ref: float):
    def check(res, c: Checks):
        c.close(res.value.real, ref, 1e-6, f"pw norm of {label}")
        c.bound("quadrature", res.value.real, ref, res.abs_error, f"pw norm of {label}")
    return check


def _clark_check(w, z, ref):
    def check(res, c: Checks):
        dev = abs(res.value - ref)
        c.value(dev < 1e-5, f"Clark reproduction at w={w:.3g}, z={z:.3g} off by {dev:.3g}")
        c.bound("quadrature", res.value, ref, res.error, f"Clark cross integral at w={w:.3g}, z={z:.3g}")
    return check


def _herglotz_run(q):
    return lambda: dmod.herglotz_extract(q)


def _herglotz_check(label: str, p: float, total: float):
    def check(h, c: Checks):
        c.value(abs(h.p - p) <= 1e-4, f"Herglotz {label}: p = {h.p}, expected {p}")
        if math.isfinite(total):
            c.value(abs(h.total_mass - total) <= 1e-4, f"Herglotz {label}: mass {h.total_mass}")
        else:
            c.value(h.total_mass == math.inf, f"Herglotz {label}: mass {h.total_mass}, expected inf")
    return check


WORKLOADS = {"witness": Witness, "series": Series, "hilbert": Hilbert}
