"""dblab benchmark: one command for every end-to-end and per-layer metric.

    python3 perfbench/run.py --workload witness|series|hilbert|all --seed N --seconds S --trace 0|1

Run it from the root of a dblab checkout; the package is imported from
``src/``.  Each workload is one closed-loop client in one process, with
``DBLAB_THREADS`` unset and OpenBLAS held to one thread.  The run
starts ``SETUP_PROBES`` fresh interpreters that only import dblab and
build the workload (the set-up time is their median, together with the
measuring interpreter's own), then one fresh interpreter that measures
passes over the workload's fixed operation list for ``--seconds`` (see
``worker.py``).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced run.  A traced run of the workload that owns a hand
check fails (``correct`` false) unless its counter equals the count worked
out by hand.  The report names every failing check; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Full results, and the spans of traced runs,
are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("witness", "series", "hilbert")
SETUP_PROBES = 6            # set-up-only interpreters per run, besides the measuring one

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MiB"))

# Counts worked out by hand: per-layer metric -> (workload that owns it,
# expected count, how it was worked out).  A traced run of the owning
# workload must report exactly the expected count.
HAND_CHECKS = {
    "expressions.e0_diag_term_points": (
        "series", 130 * 10 ** 6,
        "E0 and E0# on a 64-node Cauchy ring plus at the point: "
        "130 evaluations x 1e6 Gtilde terms"),
    "quadrature.clark_points": (
        "hilbert", 2_010_292,
        "Clark cross integral for theta = e^{iz}: 22 core panels + 2 x 21,840 "
        "octave panels (ceil(T/1.5) for T = 16..16384) = 43,702 panels x 46 nodes"),
}


def per_layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def _worker(args: list) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DBLAB_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    # numpy's and scipy's OpenBLAS would otherwise start one thread per core;
    # on a 2-vCPU machine the second competes with the client (README.md).
    env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")] + args,
                          cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def hand_check(name: str, res: dict) -> None:
    """In a traced run, fail the run when a hand-checked count it owns differs."""
    for key, (owner, expect, why) in HAND_CHECKS.items():
        if owner != name:
            continue
        got = res["per_layer"].get(key)
        if got == expect:
            continue
        res["correct"] = False
        res["failures"].append({"op": key, "kind": "hand", "passes": len(res["traced_pass_s"]),
                                "detail": f"counted {got}, expected {expect} ({why})"})


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        setups = [_worker(base + ["--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)]
    OUT.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    extra = ["--trace", "--spans", str(OUT / f"spans-{tag}.json")] if trace else []
    res = _worker(base + ["--seconds", str(seconds)] + extra)
    if trace:
        hand_check(name, res)
    setups.append(res["setup_s"])
    res["setup_samples"] = setups
    res["setup_s"] = statistics.median(setups)
    res["fail_frac"] = res["failed"] / res["attempted"]
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(res, fh, indent=1)
    return res


def report(name: str, res: dict, trace: bool, units: dict) -> dict:
    """Print the human-readable block; return the metrics of the JSON line."""
    print(f"== {name} (seed {res['seed']}): {len(res['pass_s'])} passes, "
          f"digest {res['digest'] if isinstance(res['digest'], str) else 'MISMATCH'}")
    if trace:
        metrics = {k: {"value": res["per_layer"][k], "unit": u} for k, u in units.items()}
    else:
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END}
    for k, m in metrics.items():
        print(f"  {k:36s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':36s} {res['fail_frac']:.6g} ratio "
          f"({res['failed']} of {res['attempted']} operations failed)")
    for k, (owner, expect, why) in HAND_CHECKS.items():
        if trace and owner == name:
            got = res["per_layer"].get(k)
            print(f"  hand check {k}: {got} {'matches' if got == expect else 'DIFFERS from'} "
                  f"{expect} ({why})")
    for f in res["failures"]:
        print(f"  FAILED [{f['kind']}] {f['op']} ({f['passes']} passes): {f['detail']}")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "dblab" / "__init__.py").is_file():
        print(f"perfbench: no dblab package under {ROOT / 'src'}; "
              "run from the root of a dblab checkout", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    units = per_layer_units() if trace else {}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, trace)
        m = report(name, res, trace, units)
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({f"{name}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
