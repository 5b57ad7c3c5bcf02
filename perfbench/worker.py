"""One benchmark run of one workload in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload series --seed 1 --seconds 30 [--trace] [--setup-only]

The set-up clock starts before ``import dblab`` and stops once the
workload's spaces, sequences and domains are built.  Then the seeded
inputs and references are prepared (untimed), and passes over the fixed
operation list repeat until the next pass would end after ``--seconds``.
The first pass is a warm-up that is checked but not timed into ``run_s``.
Each operation is timed on its own and checked right after, outside its
timing.  ``run_s`` is the mean pass time after the warm-up.

With ``--trace`` passes alternate untraced and traced; the tracing
overhead is the difference of the two such means, the per-layer metrics come
from the traced passes, and the spans are written to ``--spans`` when the
run ends.

The last line of stdout is one JSON object with the run's figures.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import numpy as np


def _parse():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file the traced run writes its spans to")
    return ap.parse_args()


def _feed(h, obj):
    """Feed a canonical byte form of an operation result to a hash."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for k in sorted(obj):
            h.update(repr(k).encode())
            _feed(h, obj[k])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for x in obj:
            _feed(h, x)
        h.update(b"]")
    elif dataclasses.is_dataclass(obj):
        _feed(h, vars(obj))
    else:
        h.update(repr(obj).encode())


@dataclasses.dataclass
class Pass:
    seconds: float
    op_s: list              # each operation's time, in operation order
    findings: list          # (operation name, Checks)
    digest: str
    op_counts: dict         # traced passes: counter deltas per operation
    snap: dict              # traced passes: the tracer's counters for the pass


def run_pass(ops, tracer=None) -> Pass:
    """Run every operation once, timing each and checking it afterwards."""
    from workloads import Checks
    op_s, findings, op_counts = [], [], {}
    digest = hashlib.sha256()
    if tracer is not None:
        tracer.reset()
        first_span = len(tracer.spans)
    for op in ops:
        if tracer is not None:
            before = dict(tracer.counts)
            tracer.active = True
        t0 = time.perf_counter()
        error = None
        try:
            if tracer is not None:
                with tracer.span(op.name, "bench"):
                    result = op.run()
            else:
                result = op.run()
        except Exception as exc:  # a raising operation is a failed operation
            error = exc
        op_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
            op_counts[op.name] = {k: v - before.get(k, 0.0) for k, v in tracer.counts.items()}
        checks = Checks()
        if error is None:
            try:
                op.check(result, checks)
            except Exception as exc:  # a result the check cannot read is a wrong result
                checks.value(False, f"check raised {type(exc).__name__}: {exc}")
            digest.update(op.name.encode())
            _feed(digest, result)
        else:
            checks.raised = f"{type(error).__name__}: {error}"
        findings.append((op.name, checks))
    snap = {}
    if tracer is not None:
        snap = tracer.snapshot()
        snap["spans"] = len(tracer.spans) - first_span
    return Pass(sum(op_s), op_s, findings, digest.hexdigest(), op_counts, snap)


def measure(ops, seconds, tracer=None) -> list:
    """Passes until the next one would end after ``seconds``; at least two
    (four with a tracer).

    With a tracer, passes alternate untraced and traced, so that drift in
    machine speed falls on both sides of the tracing overhead alike.
    """
    start = time.perf_counter()
    passes = []
    minimum = 2 if tracer is None else 4
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append(run_pass(ops, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        if len(passes) >= minimum and elapsed + statistics.median(p.seconds for p in passes) > seconds:
            return passes


def after_warmup(passes: list) -> list:
    """The first pass warms the process up and is left out of the figures."""
    return passes[1:] if len(passes) > 1 else passes


def steady(passes: list) -> float:
    """Mean pass time after the warm-up: the measured wall time over the
    number of measured passes.

    On the 2-vCPU machine the bounds were set on (README.md), CPU speed
    moves by about 20% in stretches of seconds to minutes, and every
    operation moves with it.  On three sets of ten seeds per workload the
    mean's widest spread between runs was the smallest of the estimators
    tried (README.md).
    """
    return statistics.fmean(p.seconds for p in after_warmup(passes))


def machine() -> dict:
    import mpmath
    import scipy
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__, "mpmath": mpmath.__version__}


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(snap: dict, op_counts: dict, findings: list, ops) -> dict:
    """Per-layer figures of one traced pass."""
    c, self_s, outer_s, calls = snap["counts"], snap["self_s"], snap["outer_s"], snap["calls"]

    def ratio(a, b):
        return a / b if b else 0.0

    integrals = c.get("quadrature.integrals", 0.0)
    points = c.get("quadrature.integrand_points", 0.0)
    violations = {"expressions": 0, "quadrature": 0}
    worst = {"expressions": 0.0, "quadrature": 0.0}
    for _, ch in findings:
        for layer in violations:
            violations[layer] += ch.bound_points[layer][0]
            worst[layer] = max(worst[layer], ch.bound_worst[layer])
    clark = [op_counts[o.name].get("quadrature.integrand_points", 0.0)
             for o in ops if o.name.startswith("clark_cross_")]
    diag = op_counts.get("a38_E0_diag", {}).get("expressions.series_term_points", 0.0)
    return {
        "cli.calls": c.get("cli.calls", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "theorems.reports": c.get("theorems.reports", 0.0),
        "theorems.self_s": self_s.get("theorems", 0.0),
        "majorization.tests": c.get("majorization.tests", 0.0),
        "majorization.points": c.get("majorization.points", 0.0),
        "majorization.self_s": self_s.get("majorization", 0.0),
        "majorization.points_per_s": ratio(c.get("majorization.points", 0.0),
                                           outer_s.get("majorization", 0.0)),
        "domains.points": c.get("domains.points", 0.0),
        "domains.self_s": self_s.get("domains", 0.0),
        "parallel.calls": calls.get("parallel", 0),
        "parallel.points": c.get("parallel.points", 0.0),
        "space.calls": calls.get("space", 0),
        "space.self_s": self_s.get("space", 0.0),
        "space.ring_points": c.get("space.ring_points", 0.0),
        "space.nabla_points": c.get("space.nabla_points", 0.0),
        "space.meantype_calls": c.get("space.meantype_calls", 0.0),
        "expressions.series_term_points": c.get("expressions.series_term_points", 0.0),
        "expressions.series_terms_per_s": ratio(c.get("expressions.series_term_points", 0.0),
                                                c.get("expressions.series_eval_s", 0.0)),
        "expressions.eval_calls": c.get("expressions.eval_calls", 0.0),
        "expressions.eval_points": c.get("expressions.eval_points", 0.0),
        "expressions.points_per_call": ratio(c.get("expressions.eval_points", 0.0),
                                             c.get("expressions.eval_calls", 0.0)),
        "expressions.self_s": self_s.get("expressions", 0.0),
        "expressions.bound_violations": violations["expressions"],
        "expressions.bound_slack": worst["expressions"],
        "expressions.e0_diag_term_points": diag,
        "quadrature.integrals": integrals,
        "quadrature.interval_calls": c.get("quadrature.interval_calls", 0.0),
        "quadrature.integrand_points": points,
        "quadrature.points_per_integral": ratio(points, integrals),
        "quadrature.tail_point_frac": ratio(c.get("quadrature.tail_points", 0.0), points),
        "quadrature.tail_value_share": _median(snap["tail_shares"]),
        "quadrature.max_halfwidth": max(snap["halfwidths"], default=0.0),
        "quadrature.self_s": self_s.get("quadrature", 0.0),
        "quadrature.bound_violations": violations["quadrature"],
        "quadrature.clark_points": ratio(sum(clark), len(clark)),
        "model.calls": calls.get("model", 0),
        "model.self_s": self_s.get("model", 0.0),
        "model.eval_calls": c.get("model.eval_calls", 0.0),
        "model.eval_points": c.get("model.eval_points", 0.0),
        "trace.spans": snap["spans"],
    }


def speedup_2t(repeats: int = 2) -> float:
    """1-thread over 2-thread time of cos z on the largest witness grid."""
    from dblab import domains as dd
    from dblab import examples as de
    from dblab import expressions as dx
    from dblab import majorization as dm
    from workloads import Witness
    m = dm.nabla_majorant(de.pw_space(1.0), dd.line(1.0, ratio=Witness.GRID_RATIO, rmax=1.0e4))
    times = {"1": [], "2": []}
    try:
        for _ in range(repeats):
            for n in times:
                os.environ["DBLAB_THREADS"] = n
                t0 = time.perf_counter()
                dm.test_majorization(dx.Cos(), m)
                times[n].append(time.perf_counter() - t0)
    finally:
        os.environ.pop("DBLAB_THREADS", None)     # the benchmark runs with it unset
    return statistics.median(times["1"]) / statistics.median(times["2"])


def tree_overhead(repeats: int = 5) -> float:
    """The a20 E tree over the same formula in raw numpy, 2e5 points."""
    from dblab import examples as de
    e = de.a20_structure_function()
    x = np.linspace(-50.0, 50.0, 200_000)
    z = x + 1j * (2.5 + 2.5 * np.sin(x))

    def raw(z):
        c = np.cos(z)
        return c - 1j * (z * c + np.sin(z))

    tree, plain = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        v = e.values(z)
        tree.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        r = raw(z)
        plain.append(time.perf_counter() - t0)
    if not np.allclose(v, r, rtol=1e-12, atol=0.0):
        raise RuntimeError("a20 E tree disagrees with its numpy formula")
    return statistics.median(tree) / statistics.median(plain)


def main():
    args = _parse()
    t0 = time.perf_counter()
    import dblab  # noqa: F401  (the set-up clock includes the package import)
    import_s = time.perf_counter() - t0
    import workloads
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed % 2 ** 64)
    setup_s = time.perf_counter() - t0
    out = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s, "import_s": import_s}
    if tracer is not None:
        setup_snap = tracer.snapshot()
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps(out))
        return

    wl.prepare()
    ops = wl.ops()
    passes = measure(ops, args.seconds, tracer)
    traced = [p for p in passes if p.snap]
    untraced = [p for p in passes if not p.snap]

    failures, attempted, failed, correct = {}, 0, 0, True
    for p in passes:
        for name, ch in p.findings:
            attempted += 1
            msgs = ([("raised", ch.raised)] if ch.raised else []) \
                + [("value", m) for m in ch.value_failures] \
                + [("bound", m) for m in ch.bound_failures]
            if msgs:
                failed += 1
            for kind, msg in msgs:
                correct &= kind == "bound"
                key = f"{name}: {msg}"
                failures.setdefault(key, {"op": name, "kind": kind, "detail": msg, "passes": 0})
                failures[key]["passes"] += 1
    digests = sorted({p.digest for p in passes})
    if len(digests) != 1:
        correct = False
        failures["digest"] = {"op": "*", "kind": "value", "passes": len(passes),
                              "detail": "passes over the same inputs gave different results"}
    out.update({
        "pass_s": [p.seconds for p in untraced],
        "op_s": [p.op_s for p in untraced],
        "run_s": steady(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted, "failed": failed, "correct": correct,
        "failures": list(failures.values()),
        "digest": digests[0] if len(digests) == 1 else digests,
        "ops": [o.name for o in ops],
        "machine": machine(),
    })
    if tracer is not None:
        per_pass = [layer_metrics(p.snap, p.op_counts, p.findings, ops) for p in after_warmup(traced)]
        layers = {k: statistics.median(pp[k] for pp in per_pass) for k in per_pass[0]}
        traced_s = steady(traced)
        layers.update({
            "import.dblab_s": import_s,
            "examples.build_s": setup_snap["outer_s"].get("examples", 0.0),
            "examples.sequence_terms": setup_snap["counts"].get("examples.sequence_terms", 0.0),
            "parallel.speedup_2t": speedup_2t(),
            "expressions.tree_overhead": tree_overhead(),
            "trace.run_s": traced_s,
            "trace.overhead_s": traced_s - out["run_s"],
        })
        out["per_layer"] = layers
        out["traced_pass_s"] = [p.seconds for p in traced]
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["name", "layer", "start", "end", "parent"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
