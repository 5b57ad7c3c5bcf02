"""Command-line front end.

Every subcommand reads either flags, a JSON config (``--config path`` or
``-`` for stdin), or both (flags win), echoes the merged config in its
output for provenance, and writes a single JSON object to stdout.  Series
results can additionally be written as CSV via ``--out``.

Exit codes: 0 success, 1 computation error (structured ``error`` object),
2 malformed configuration.  ``verify`` exits 0 only when every witness
verdict matches its expectation.

Complex numbers serialize as ``[re, im]`` pairs; flags accept the
``a+bi`` form.  Non-finite floats serialize as the strings ``"inf"``,
``"-inf"`` and ``"nan"``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import examples as ex
from . import theorems
from .defaults import DEFAULTS
from .domains import SampledDomain
from .errors import ConfigError, DblabError, finite
from .expressions import derivative, evaluate, expr_from_json
from .majorization import (Majorant, admissibility_check, expr_majorant,
                           mS_majorant, nabla_majorant, test_majorization)
from .model import (InnerFunction, clark_kernel, clark_kernel_diag,
                    herglotz_extract, theorem_a60_scan, weak_type_test)
from .space import (DbSpace, kernel, mean_type, membership, nabla,
                    phase_derivative)


@contextlib.contextmanager
def _decoding(what: str):
    """Input that fails to decode is malformed configuration, not a
    computation error."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        raise ConfigError(f"malformed {what}: {exc!r}") from exc


def _num(cfg: dict, key: str, default=None, kind=float):
    """A numeric config entry read as ``kind``, or ``default`` if absent."""
    if cfg.get(key) is None:
        return default
    return finite(cfg[key], repr(key), kind)


def parse_complex(text: str) -> complex:
    """Accept '1.5', '2i', '0+1i', '-3.2-4e-1j'; reject non-finite values."""
    t = str(text).strip().replace(" ", "")
    with _decoding(f"complex number {text!r}"):
        if t.endswith(("i", "j")):
            body = t[:-1]
            m = re.match(r"^(?P<re>[+-]?\d*\.?\d+(?:[eE][+-]?\d+)?)"
                         r"(?P<im>[+-](?:\d*\.?\d+(?:[eE][+-]?\d+)?)?)$", body)
            if m:
                imtxt = m.group("im")
                if imtxt in ("+", "-"):
                    imtxt += "1"
                c = complex(float(m.group("re")), float(imtxt))
            else:
                if body in ("", "+", "-"):
                    body += "1"
                c = complex(0.0, float(body))
        else:
            c = complex(float(t), 0.0)
    return finite(c, f"complex number {text!r}")


def _load_json_arg(text: str) -> dict:
    """Inline JSON, @path, or bare path to a JSON file."""
    t = text.strip()
    if t.startswith("@"):
        return json.loads(Path(t[1:]).read_text())
    if t.startswith("{") or t.startswith("["):
        return json.loads(t)
    p = Path(t)
    if p.exists():
        return json.loads(p.read_text())
    raise ConfigError(f"cannot interpret {text!r} as JSON or a JSON file path")


def _jsonable(obj):
    if isinstance(obj, complex):
        return [_jsonable(obj.real), _jsonable(obj.imag)]
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(command: str, config: dict, result: dict, out_rows=None,
          out_path: str | None = None, header=None) -> None:
    if out_path and out_rows is not None:
        with open(out_path, "w", newline="") as fh:
            w = csv.writer(fh)
            if header:
                w.writerow(header)
            for row in out_rows:
                w.writerow(row)
    payload = {"command": command, "config": _jsonable(config),
               "result": _jsonable(result),
               "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _merged(args) -> dict:
    """The config file (if any) overlaid with every flag given on the
    command line, keyed by flag name (``--a-grid`` as ``a-grid``)."""
    cfg = {}
    if args.config:
        if args.config == "-":
            cfg = json.load(sys.stdin)
        else:
            cfg = json.loads(Path(args.config).read_text())
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
    for k, v in vars(args).items():
        if k not in ("cmd", "fn", "config", "out") and v is not None:
            cfg[k.replace("_", "-")] = v
    return cfg


def _decode(cfg, key, what, decoder):
    """``decoder`` applied to the required spec ``cfg[key]``; a string spec
    is inline JSON or a JSON file path."""
    if key not in cfg:
        raise ConfigError(f"missing required input {key!r}")
    with _decoding(f"{what} {key!r}"):
        spec = cfg[key]
        if isinstance(spec, str):
            spec = _load_json_arg(spec)
        return decoder(spec)


def _expr(cfg, key):
    return _decode(cfg, key, "expression", expr_from_json)


def _space_from_json(spec) -> DbSpace:
    if isinstance(spec, dict) and "spaces" in spec:
        # whole example-instance documents are accepted: take the main space
        spaces = spec["spaces"]
        spec = spaces.get("H") or next(iter(spaces.values()))
    return DbSpace.from_json(spec)


def _space(cfg, key="space") -> DbSpace:
    return _decode(cfg, key, "space", _space_from_json)


def _domain(cfg, key="domain") -> SampledDomain:
    return _decode(cfg, key, "domain", SampledDomain.from_json)


def _inner(cfg, key="theta") -> InnerFunction:
    return _decode(cfg, key, "inner function", InnerFunction.from_spec)


def _majorant(cfg, domain: SampledDomain) -> Majorant:
    def decoder(spec):
        if not isinstance(spec, dict) or "type" not in spec:
            raise ConfigError("majorant spec must be an object with a 'type'")
        zd = tuple((finite(x, "zero-divisor location", float), finite(k, "zero-divisor order", int))
                   for x, k in spec.get("zero-divisor", []))
        if spec["type"] == "nabla":
            return nabla_majorant(DbSpace.from_json(spec["space"]), domain)
        if spec["type"] == "mS":
            return mS_majorant(expr_from_json(spec["S"]), domain, zd)
        if spec["type"] == "expr":
            return expr_majorant(expr_from_json(spec["f"]), domain, zd)
        raise ConfigError(f"unknown majorant type {spec['type']!r}")
    return _decode(cfg, "majorant", "input", decoder)


def _grid(cfg, key, default=None) -> np.ndarray:
    spec = cfg.get(key, default)
    if spec is None:
        raise ConfigError(f"missing required grid {key!r}")
    with _decoding(f"grid {key!r}"):
        if isinstance(spec, str):
            parts = spec.split(":")
            if len(parts) == 3:
                start, stop, step = (finite(p, f"grid {key!r} entry", float) for p in parts)
                return np.arange(start, stop + 0.5 * step, step)
            spec = json.loads(spec)
        return np.array([finite(x, f"grid {key!r} entry", float) for x in spec])


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_eval(args):
    cfg = _merged(args)
    f = _expr(cfg, "f")
    z = parse_complex(cfg.get("z", "0"))
    order = _num(cfg, "order", 0, int)
    if order:
        r = derivative(f, z, order)
    else:
        r = evaluate(f, z)
    _emit("eval", cfg, {"value": r.value, "abs-error": r.abs_error})


def _cmd_kernel(args):
    cfg = _merged(args)
    sp = _space(cfg)
    w, z = parse_complex(cfg.get("w", "0")), parse_complex(cfg.get("z", "0"))
    _emit("kernel", cfg, {"value": complex(kernel(sp, w, z))})


def _cmd_nabla(args):
    cfg = _merged(args)
    sp = _space(cfg)
    _emit("nabla", cfg, {"value": nabla(sp, parse_complex(cfg.get("z", "0")))})


def _cmd_phase(args):
    cfg = _merged(args)
    sp = _space(cfg)
    route = cfg.get("route", "kernel")
    _emit("phase", cfg, {"value": phase_derivative(sp, _num(cfg, "t", 0.0), route),
                         "route": route})


def _cmd_meantype(args):
    cfg = _merged(args)
    f = _expr(cfg, "f")
    theta = _num(cfg, "theta", math.pi / 2)
    radii = None
    if any(k in cfg for k in ("rmin", "rmax", "rcount")):
        r0, r1, n = DEFAULTS["meantype_radii"]
        ends = _num(cfg, "rmin", r0), _num(cfg, "rmax", r1)
        if min(ends) <= 0.0:
            raise ConfigError(f"the radius grid ends {ends} must be positive")
        radii = np.geomspace(*ends, max(_num(cfg, "rcount", n, int), 0))
    est = mean_type(f, theta, radii)
    _emit("meantype", cfg, {"value": est.value, "residual": est.residual,
                            "radii": [float(est.radii[0]), float(est.radii[-1]),
                                      int(est.radii.size)]})


def _cmd_member(args):
    cfg = _merged(args)
    sp = _space(cfg)
    res = membership(sp, _expr(cfg, "f"))
    _emit("member", cfg, {"verdict": res.verdict, "diagnostics": res.diagnostics})


def _cmd_majorize(args):
    cfg = _merged(args)
    dom = _domain(cfg)
    m = _majorant(cfg, dom)
    rep = test_majorization(_expr(cfg, "f"), m)
    _emit("majorize", cfg, rep.to_json(), rep.csv_rows(), args.out,
          ("z_re", "z_im", "ratio"))


def _cmd_admissible(args):
    cfg = _merged(args)
    dom = _domain(cfg)
    m = _majorant(cfg, dom)
    sp = _space(cfg)
    with _decoding("input 'witnesses'"):
        wspecs = cfg.get("witnesses") or []
        if isinstance(wspecs, str):
            wspecs = _load_json_arg(wspecs)
        witnesses = [expr_from_json(_load_json_arg(w) if isinstance(w, str) else w)
                     for w in wspecs]
    rep = admissibility_check(m, witnesses, sp)
    _emit("admissible", cfg, {"admissible": rep.ok, "details": rep.details})


def _cmd_herglotz(args):
    cfg = _merged(args)
    q = _expr(cfg, "q")
    data = herglotz_extract(q, delta=_num(cfg, "delta"))
    rows = zip(data.density_grid.tolist(), data.density.tolist())
    _emit("herglotz", cfg, data.to_json(), rows, args.out, ("t", "density"))


def _cmd_weaktype(args):
    cfg = _merged(args)
    q = _expr(cfg, "q")
    rep = weak_type_test(q, _num(cfg, "y0", 1.0),
                         _grid(cfg, "a-grid", "0.1:2.0:0.1"),
                         cfg.get("measure", "lebesgue"))
    _emit("weaktype", cfg, rep.to_json(), rep.csv_rows(), args.out,
          ("a", "measure", "a_times_measure", "bound"))


def _cmd_clark(args):
    cfg = _merged(args)
    th = _inner(cfg)
    z = parse_complex(cfg.get("z", "1i"))
    kz = clark_kernel(th, z)
    _emit("clark", cfg, {"kernel": kz.to_json(), "diagonal": clark_kernel_diag(th, z),
                         "checks": th.validate()})


def _cmd_a60scan(args):
    cfg = _merged(args)
    th = _inner(cfg)
    f = _expr(cfg, "f") if cfg.get("f") else None
    rep = theorem_a60_scan(th, _num(cfg, "y0", 1.0), _num(cfg, "c", 1.0),
                           _grid(cfg, "r-grid", "[4,8,16,32,64,128]"), f)
    _emit("a60scan", cfg, rep.to_json(), rep.csv_rows(), args.out,
          ("r", "measure", "ratio", "residual_max"))


def _cmd_example(args):
    cfg = _merged(args)
    tokens = cfg.get("id") or ["list"]
    if isinstance(tokens, str):
        tokens = [tokens]
    if tokens and tokens[0] == "build":
        tokens = tokens[1:]
    ex_id = tokens[0] if tokens else "list"
    cfg["id"] = ex_id
    if ex_id == "list":
        _emit("example", cfg, {"available": sorted(ex.EXAMPLE_BUILDERS)})
        return
    params = {key: _num(cfg, key, kind=int if key == "n" else float)
              for key in ("a", "alpha", "y0", "n") if cfg.get(key) is not None}
    inst = ex.build_example(ex_id, **params)
    doc = inst.to_json()
    if args.out:
        Path(args.out).write_text(json.dumps(_jsonable(doc), sort_keys=True, indent=1))
    _emit("example", cfg, doc)


def _cmd_verify(args):
    cfg = _merged(args)
    tid = cfg.get("theorem", "all")
    if tid == "all":
        reports = theorems.verify_all()
    else:
        reports = [theorems.verify_theorem(tid, cfg.get("instance"))]
    ok = all(r.ok for r in reports)
    _emit("verify", cfg, {"ok": ok, "reports": [r.to_json() for r in reports]})
    if not ok:
        sys.exit(1)


def _cmd_defaults(args):
    _emit("defaults", {}, DEFAULTS)


# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file ('-' for stdin)")
    p.add_argument("--out", help="CSV output path for series results")


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a config error; subparsers
    inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value that starts with "-" and a digit (-1+1i, -1e-3) is a
        # value, not an option, so "--z -1+1i" parses like "--z=-1+1i"
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise ConfigError(message)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first call and shared by every
    later one: parsing leaves no state on it."""
    ap = _Parser(prog="dblab",
                 description="numerical laboratory for de Branges spaces of entire functions")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, fn, flags):
        p = sub.add_parser(name)
        _add_common(p)
        for flag, kw in flags:
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
        return p

    add("eval", _cmd_eval, [("--f", {}), ("--z", {}), ("--order", {"type": int})])
    add("kernel", _cmd_kernel, [("--space", {}), ("--w", {}), ("--z", {})])
    add("nabla", _cmd_nabla, [("--space", {}), ("--z", {})])
    add("phase", _cmd_phase, [("--space", {}), ("--t", {"type": float}),
                              ("--route", {"choices": ["kernel", "zero-sum"]})])
    add("meantype", _cmd_meantype, [("--f", {}), ("--theta", {"type": float}),
                                    ("--rmin", {"type": float}),
                                    ("--rmax", {"type": float}),
                                    ("--rcount", {"type": int})])
    add("member", _cmd_member, [("--space", {}), ("--f", {})])
    add("majorize", _cmd_majorize, [("--f", {}), ("--majorant", {}), ("--domain", {})])
    add("admissible", _cmd_admissible, [("--majorant", {}), ("--domain", {}),
                                        ("--space", {}), ("--witnesses", {})])
    add("herglotz", _cmd_herglotz, [("--q", {}), ("--delta", {"type": float})])
    add("weaktype", _cmd_weaktype, [("--q", {}), ("--y0", {"type": float}),
                                    ("--a-grid", {"dest": "a_grid"}),
                                    ("--measure", {"choices": ["lebesgue", "poisson"]})])
    add("clark", _cmd_clark, [("--theta", {}), ("--z", {})])
    add("a60scan", _cmd_a60scan, [("--theta", {}), ("--y0", {"type": float}),
                                  ("--c", {"type": float}),
                                  ("--r-grid", {"dest": "r_grid"}), ("--f", {})])
    p_ex = add("example", _cmd_example, [("id", {"nargs": "*"}),
                                         ("--a", {"type": float}),
                                         ("--alpha", {"type": float}),
                                         ("--y0", {"type": float}),
                                         ("--n", {"type": int})])
    p_ex.add_argument("--json", dest="out", help="alias for --out")
    add("verify", _cmd_verify, [("theorem", {"nargs": "?"}), ("--instance", {})])
    add("defaults", _cmd_defaults, [])
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.fn(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        sys.stdout.write(json.dumps(
            {"error": {"kind": "config-error", "detail": str(exc)}}) + "\n")
        return 2
    except DblabError as exc:
        sys.stdout.write(json.dumps({"error": exc.payload()}) + "\n")
        return 1
    except Exception as exc:    # a fault of the program: still one JSON object, exit 1
        sys.stdout.write(json.dumps(
            {"error": {"kind": "internal-error", "detail": f"{type(exc).__name__}: {exc}"}}) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
