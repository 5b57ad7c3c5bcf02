"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its runtime.  Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion report.

Every tolerance is pinned here, not computed; budgets are wall-clock
seconds per criterion.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from dblab import domains as dom
from dblab.examples import (LOG2, a38_g_closed, build_a38, build_a41,
                            build_a45, build_pw, pw_space)
from dblab.expressions import Cos, Const, Product, Quotient, Z
from dblab.majorization import nabla_majorant, tail_slope
from dblab.majorization import test_majorization as run_majorization
from dblab.model import (InnerFunction, cayley_q_from_theta, herglotz_extract,
                         theta_from_q, weak_type_test)
from dblab.space import (inner_product, kernel_diagonal_values, nabla_values)

WEAK_CONSTANT = math.pi * math.sqrt(2.0) * (1.0 + math.e)


class criterion:
    """Times a criterion body, prints one PASS/FAIL line, enforces the
    runtime budget."""

    def __init__(self, num: int, desc: str, budget: float):
        self.num, self.desc, self.budget = num, desc, budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        ok = exc_type is None and dt < self.budget
        print(f"ACCEPTANCE {self.num}: {'PASS' if ok else 'FAIL'} "
              f"({dt:.2f}s / budget {self.budget:g}s) - {self.desc}")
        if exc_type is None and dt >= self.budget:
            raise AssertionError(
                f"criterion {self.num} exceeded its runtime budget: "
                f"{dt:.2f}s >= {self.budget}s")
        return False


def test_criterion_1_kernel_consistency(pw1, zpi):
    with criterion(1, "kernel diagonal, kernel norm and phase derivative "
                      "match closed forms at 1e-8", 5.0):
        t = np.linspace(-30.0, 30.0, 200)
        diag = kernel_diagonal_values(pw1, t + 0j).real
        assert np.all(np.abs(diag - 1.0 / math.pi) <= 1e-8 / math.pi)
        phase = math.pi * diag / np.abs(pw1.e.values(t + 0j)) ** 2
        assert np.all(np.abs(phase - 1.0) <= 1e-8)

        hs = np.geomspace(0.05, 5.0, 10)
        xs = np.linspace(-20.0, 20.0, 20)
        zs = (xs[:, None] + 1j * hs[None, :]).ravel()
        got = nabla_values(pw1, zs)
        expect = np.sqrt(np.sinh(2 * zs.imag) / (2 * math.pi * zs.imag))
        assert np.all(np.abs(got - expect) <= 1e-8 * expect)

        diag2 = kernel_diagonal_values(zpi, t + 0j).real
        assert np.all(np.abs(diag2 - 1.0 / math.pi) <= 1e-8 / math.pi)
        phase2 = math.pi * diag2 / np.abs(zpi.e.values(t + 0j)) ** 2
        expect2 = 1.0 / (t * t + 1.0)
        assert np.all(np.abs(phase2 - expect2) <= 1e-8 * expect2)


def test_criterion_2_schwarz_and_sandwich(pw1, zpi, rng):
    with criterion(2, "Schwarz bound with 1e-6 slack on 5 members; "
                      "kernel-norm upper sandwich", 10.0):
        inst = build_pw(1.0)
        zs = np.concatenate([
            rng.uniform(-20, 20, 100) + 1j * rng.uniform(0.01, 4.0, 100),
            rng.uniform(-20, 20, 100) + 0j])
        nv = nabla_values(pw1, zs)
        for label, f, _ in inst.members:
            nrm = math.sqrt(inner_product(pw1, f, f).value.real)
            fv = np.abs(f.values(zs))
            assert np.all(fv <= (1 + 1e-6) * nrm * nv), label
        zup = rng.uniform(-20, 20, 200) + 1j * rng.uniform(0.01, 5.0, 200)
        for sp in (pw1, zpi):
            ratio = nabla_values(sp, zup) / np.abs(sp.e.values(zup))
            bound = 1.0 / (2.0 * np.sqrt(math.pi * zup.imag))
            assert np.all(ratio <= (1 + 1e-9) * bound)


def test_criterion_3_line_versus_ray(pw1):
    with criterion(3, "cos z majorized on horizontal lines with the exact "
                      "sup ratio; excluded on the vertical ray", 30.0):
        for h in (0.5, 1.0, 2.0):
            m = nabla_majorant(pw1, dom.line(h, ratio=1.01, rmax=1e4))
            rep = run_majorization(Cos(), m)
            expect = math.cosh(h) / math.sqrt(math.sinh(2 * h) / (2 * math.pi * h))
            assert rep.verdict == "majorized", h
            assert abs(rep.sup_ratio - expect) <= 1e-6 * expect, h
        ray = dom.ray(0.5, 1.0, ratio=1.02, rmax=512.0)
        rep = run_majorization(Cos(), nabla_majorant(pw1, ray))
        assert rep.verdict == "not-majorized"
        assert rep.tail_slope >= 0.10
        envelope = np.sqrt(math.pi * rep.z.imag)
        slope = tail_slope(np.abs(rep.z), rep.ratio / envelope)
        assert abs(slope) <= 0.02


def test_criterion_4_phase_derivative_lower_bound():
    with criterion(4, "truncated phase-derivative series dominates "
                      "(e^x - 1)/x^2 on 50 log-spaced points", 60.0):
        inst = build_a45(100_000)
        xs = np.geomspace(LOG2, 12.0, 50)
        phi = inst.extras["phi"](xs)
        bound = inst.extras["lower_bound"](xs)
        bad = xs[phi < bound]
        assert bad.size == 0, (
            f"series truncated at n = {inst.params['n']} cannot dominate the "
            f"bound at x = {bad.tolist()} (needs the zero with index "
            f"floor(e^x) <= n, i.e. x <= {math.log(inst.params['n'] + 1):.4f}); "
            f"phi = {phi[phi < bound].tolist()} vs bound = "
            f"{bound[phi < bound].tolist()}")


def test_criterion_5_order_half_products():
    with criterion(5, "product with zeros n^2 - in decays like 1/x on "
                      "square-root scale; closed form matches at 1e-6", 120.0):
        inst = build_a38(1_000_000)
        gt = inst.extras["Gtilde"]
        xs = np.geomspace(5.0, 50.0, 120)
        vals = np.abs(gt.values(xs * xs))
        lx, ly = np.log(xs), np.log(vals)
        slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean()))
                      / np.sum((lx - lx.mean()) ** 2))
        assert abs(slope - (-1.0)) <= 0.1, slope
        g = inst.extras["G"]
        for x in np.linspace(5.0, 50.0, 10):
            got = g.at(x * x)
            expect = complex(a38_g_closed(x * x))
            assert abs(got - expect) <= 1e-6 * abs(expect), x


def test_criterion_6_series_inner_function():
    with criterion(6, "series Herglotz function stays above 0.1 on the "
                      "line; Cayley identity at 1e-10", 60.0):
        inst = build_a41(2.0, 1.0, 100_000)
        xs = np.geomspace(1.0, 1.0e4, 500)
        assert float(np.min(inst.extras["im_q"](xs))) >= 0.1
        k = np.unique(np.geomspace(1, 90, 50).astype(int))
        mids = (k ** 2 + (k + 1) ** 2) / 2.0
        z = mids + 1j
        qv = inst.extras["q"].values(z)
        tv = inst.extras["theta"].values(z)
        rhs = (1.0 - np.abs(tv) ** 2) / np.abs(1.0 + tv) ** 2
        assert np.max(np.abs(qv.imag - rhs)) <= 1e-10


def test_criterion_7_weak_type_closed_form():
    with criterion(7, "superlevel measures of i/z match the closed form at "
                      "1e-6 and obey the weak-type constant", 10.0):
        q = Quotient(Const(1j), Z())
        rep = weak_type_test(q, 1.0, np.arange(1, 21) * 0.1)
        for a, m in zip(rep.a_grid, rep.measures):
            closed = 2.0 * math.sqrt(max(0.0, 1.0 / a ** 2 - 1.0))
            assert abs(m - closed) <= 1e-6, a
        assert abs(rep.y_limit - 1.0) < 1e-9
        assert np.all(rep.bound_products <= WEAK_CONSTANT * rep.y_limit)


def test_criterion_8_herglotz_recovery():
    with criterion(8, "linear coefficient and total mass recovered for the "
                      "three reference functions at 1e-4", 10.0):
        cases = [
            (Product([Const(-1j), Z()]), 1.0, math.inf),
            (Quotient(Const(1j), Z()), 0.0, math.pi),
            (Const(1.0), 0.0, math.inf),
        ]
        for q, p_expect, total_expect in cases:
            h = herglotz_extract(q)
            assert abs(h.p - p_expect) <= 1e-4
            if math.isfinite(total_expect):
                assert abs(h.total_mass - total_expect) <= 1e-4
            else:
                assert h.total_mass == math.inf


def test_criterion_9_mobius_round_trip(rng):
    with criterion(9, "Cayley round trip at 1e-12, both variants", 1.0):
        th = InnerFunction.exponential(1.0)
        pts = rng.uniform(-5, 5, 100) + 1j * rng.uniform(0.1, 5.0, 100)
        ref = th.expr.values(pts)
        for variant in ("plus", "i-minus"):
            q = cayley_q_from_theta(th, variant)
            back = theta_from_q(q, variant)
            assert np.max(np.abs(back.values(pts) - ref)) <= 1e-12


def _run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "dblab.cli"] + args,
                          capture_output=True, text=True, env=env)


def test_criterion_10_verify_subcommand():
    with criterion(10, "verify tables for the line/ray statements pass; "
                       "the full sweep exits 0", 120.0):
        for tid in ("A12", "A18"):
            r = _run_cli(["verify", tid, "--instance", "a20"])
            assert r.returncode == 0, r.stdout
            doc = json.loads(r.stdout)
            assert doc["result"]["ok"]
            for w in doc["result"]["reports"][0]["witnesses"]:
                assert w["ok"], w
        r = _run_cli(["verify", "all"])
        assert r.returncode == 0, r.stdout
        assert json.loads(r.stdout)["result"]["ok"]


def test_criterion_11_determinism(tmp_path, pw1):
    with criterion(11, "byte-identical artifacts across repeated runs", 120.0):
        space_file = tmp_path / "pw1.json"
        space_file.write_text(json.dumps(pw_space(1.0).to_json()))
        battery = [
            (["kernel", "--space", str(space_file), "--w", "0.3+0.1i",
              "--z", "1-0.2i"], None),
            (["weaktype", "--q",
              '{"kind":"quotient","num":{"kind":"const","value":[0,1]},'
              '"den":{"kind":"z"}}', "--y0", "1", "--a-grid", "0.2:1.2:0.2"],
             "wt.csv"),
            (["majorize", "--config", "-"], "mj.csv"),
            (["verify", "A12"], None),
            (["example", "pw", "--a", "1"], None),
        ]
        majorize_cfg = json.dumps({
            "f": {"kind": "cos"},
            "majorant": {"type": "nabla",
                         "space": json.loads(space_file.read_text())},
            "domain": {"kind": "line", "y0": 1.0, "ratio": 1.02, "rmax": 1e3},
        })
        outputs = {}
        for run in ("1", "2"):
            blobs = []
            for args, csv_name in battery:
                cmd = list(args)
                stdin = majorize_cfg if args[0] == "majorize" else None
                if csv_name:
                    cmd += ["--out", str(tmp_path / f"{run}-{csv_name}")]
                r = subprocess.run([sys.executable, "-m", "dblab.cli"] + cmd,
                                   capture_output=True, text=True, input=stdin)
                assert r.returncode == 0, r.stdout + r.stderr
                doc = json.loads(r.stdout)
                doc.pop("timestamp")
                blobs.append(json.dumps(doc, sort_keys=True))
                if csv_name:
                    blobs.append((tmp_path / f"{run}-{csv_name}").read_bytes())
            outputs[run] = blobs
        assert outputs["1"] == outputs["2"]
