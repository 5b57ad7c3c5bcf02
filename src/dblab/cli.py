"""Command-line front end.

Each subcommand is one row of ``COMMANDS``.  It reads flags, a JSON config
(``--config path`` or ``-`` for stdin) keyed by the flag names, or both
(flags win), echoes the merged config in its output for provenance, and
writes a single JSON object to stdout.  A subcommand whose row names an
output also writes it to ``--out``: CSV series, or the ``example`` JSON.

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
                    phase_derivative, phase_route)


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


def _write(path: str, out, artifact) -> None:
    """``artifact`` written to ``path``: CSV rows under the header ``out``,
    or one JSON document when ``out`` is ``"json"``."""
    if out == "json":
        Path(path).write_text(json.dumps(_jsonable(artifact), sort_keys=True, indent=1))
        return
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(out)
        w.writerows(artifact)


def _merged(args, names) -> dict:
    """The config file (if any) overlaid with every flag given on the
    command line, keyed by flag name (``--a-grid`` as ``a-grid``).  A config
    key that is none of ``names``, the subcommand's flag names, is an error."""
    cfg = {}
    if args.config:
        if args.config == "-":
            cfg = json.load(sys.stdin)
        else:
            cfg = json.loads(Path(args.config).read_text())
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(cfg) - set(names))
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; "
                              f"{args.cmd} accepts {sorted(names)}")
    for name in names:
        v = getattr(args, name.replace("-", "_"))
        if v is not None and v != []:   # an absent positional parses as [] or None
            cfg[name] = v
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


# majorant type -> builder(spec, domain, zero divisor)
_MAJORANTS = {
    "nabla": lambda spec, domain, zd: nabla_majorant(DbSpace.from_json(spec["space"]), domain),
    "mS": lambda spec, domain, zd: mS_majorant(expr_from_json(spec["S"]), domain, zd),
    "expr": lambda spec, domain, zd: expr_majorant(expr_from_json(spec["f"]), domain, zd),
}


def _majorant(cfg, domain: SampledDomain) -> Majorant:
    def decoder(spec):
        if not isinstance(spec, dict) or "type" not in spec:
            raise ConfigError("majorant spec must be an object with a 'type'")
        zd = tuple((finite(x, "zero-divisor location", float), finite(k, "zero-divisor order", int))
                   for x, k in spec.get("zero-divisor", []))
        if spec["type"] not in _MAJORANTS:
            raise ConfigError(f"unknown majorant type {spec['type']!r}")
        return _MAJORANTS[spec["type"]](spec, domain, zd)
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


# subcommands: each takes the merged config and returns its result, or
# (result, artifact) when its row in COMMANDS names an output

def _cmd_eval(cfg):
    f = _expr(cfg, "f")
    z = parse_complex(cfg.get("z", "0"))
    order = _num(cfg, "order", 0, int)
    r = derivative(f, z, order) if order else evaluate(f, z)
    return {"value": r.value, "abs-error": r.abs_error}


def _cmd_kernel(cfg):
    sp = _space(cfg)
    w, z = parse_complex(cfg.get("w", "0")), parse_complex(cfg.get("z", "0"))
    return {"value": complex(kernel(sp, w, z))}


def _cmd_nabla(cfg):
    return {"value": nabla(_space(cfg), parse_complex(cfg.get("z", "0")))}


def _cmd_phase(cfg):
    sp = _space(cfg)
    return {"value": phase_derivative(sp, _num(cfg, "t", 0.0)), "route": phase_route(sp)[0]}


def _cmd_meantype(cfg):
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
    return {"value": est.value, "residual": est.residual,
            "radii": [float(est.radii[0]), float(est.radii[-1]), int(est.radii.size)]}


def _cmd_member(cfg):
    res = membership(_space(cfg), _expr(cfg, "f"))
    return {"verdict": res.verdict, "diagnostics": res.diagnostics}


def _cmd_majorize(cfg):
    m = _majorant(cfg, _domain(cfg))
    rep = test_majorization(_expr(cfg, "f"), m)
    return rep.to_json(), rep.csv_rows()


def _cmd_admissible(cfg):
    m = _majorant(cfg, _domain(cfg))
    sp = _space(cfg)
    with _decoding("input 'witnesses'"):
        wspecs = cfg.get("witnesses") or []
        if isinstance(wspecs, str):
            wspecs = _load_json_arg(wspecs)
        witnesses = [expr_from_json(_load_json_arg(w) if isinstance(w, str) else w)
                     for w in wspecs]
    rep = admissibility_check(m, witnesses, sp)
    return {"admissible": rep.ok, "details": rep.details}


def _cmd_herglotz(cfg):
    data = herglotz_extract(_expr(cfg, "q"), delta=_num(cfg, "delta"))
    return data.to_json(), zip(data.density_grid.tolist(), data.density.tolist())


def _cmd_weaktype(cfg):
    rep = weak_type_test(_expr(cfg, "q"), _num(cfg, "y0", 1.0),
                         _grid(cfg, "a-grid", "0.1:2.0:0.1"), cfg.get("measure", "lebesgue"))
    return rep.to_json(), rep.csv_rows()


def _cmd_clark(cfg):
    th = _inner(cfg)
    z = parse_complex(cfg.get("z", "1i"))
    return {"kernel": clark_kernel(th, z).to_json(), "diagonal": clark_kernel_diag(th, z),
            "checks": th.validate()}


def _cmd_a60scan(cfg):
    th = _inner(cfg)
    f = _expr(cfg, "f") if cfg.get("f") else None
    rep = theorem_a60_scan(th, _num(cfg, "y0", 1.0), _num(cfg, "c", 1.0),
                           _grid(cfg, "r-grid", "[4,8,16,32,64,128]"), f)
    return rep.to_json(), rep.csv_rows()


def _cmd_example(cfg):
    tokens = cfg.get("id") or ["list"]
    tokens = [tokens] if isinstance(tokens, str) else tokens
    if tokens and tokens[0] == "build":
        tokens = tokens[1:]
    ex_id = cfg["id"] = tokens[0] if tokens else "list"
    if ex_id == "list":
        return {"available": sorted(ex.EXAMPLE_BUILDERS)}, None
    params = {key: _num(cfg, key, kind=int if key == "n" else float)
              for key in ("a", "alpha", "y0", "n") if cfg.get(key) is not None}
    doc = ex.build_example(ex_id, **params).to_json()
    return doc, doc


def _cmd_verify(cfg):
    tid = cfg.get("theorem", "all")
    reports = (theorems.verify_all() if tid == "all"
               else [theorems.verify_theorem(tid, cfg.get("instance"))])
    return {"ok": all(r.ok for r in reports), "reports": [r.to_json() for r in reports]}


_FLOAT, _INT = {"type": float}, {"type": int}

# name -> (run, input flags with their argparse kwargs, output).  A flag's
# name without its dashes is also its config key.  The output is a CSV
# header, "json" for a JSON artifact, or None when the subcommand writes no
# file; only a subcommand with an output takes --out.
COMMANDS = {
    "eval": (_cmd_eval, {"--f": {}, "--z": {}, "--order": _INT}, None),
    "kernel": (_cmd_kernel, {"--space": {}, "--w": {}, "--z": {}}, None),
    "nabla": (_cmd_nabla, {"--space": {}, "--z": {}}, None),
    "phase": (_cmd_phase, {"--space": {}, "--t": _FLOAT}, None),
    "meantype": (_cmd_meantype, {"--f": {}, "--theta": _FLOAT, "--rmin": _FLOAT,
                                 "--rmax": _FLOAT, "--rcount": _INT}, None),
    "member": (_cmd_member, {"--space": {}, "--f": {}}, None),
    "majorize": (_cmd_majorize, {"--f": {}, "--majorant": {}, "--domain": {}},
                 ("z_re", "z_im", "ratio")),
    "admissible": (_cmd_admissible, {"--majorant": {}, "--domain": {}, "--space": {},
                                     "--witnesses": {}}, None),
    "herglotz": (_cmd_herglotz, {"--q": {}, "--delta": _FLOAT}, ("t", "density")),
    "weaktype": (_cmd_weaktype, {"--q": {}, "--y0": _FLOAT, "--a-grid": {},
                                 "--measure": {"choices": ["lebesgue", "poisson"]}},
                 ("a", "measure", "a_times_measure", "bound")),
    "clark": (_cmd_clark, {"--theta": {}, "--z": {}}, None),
    "a60scan": (_cmd_a60scan, {"--theta": {}, "--y0": _FLOAT, "--c": _FLOAT,
                               "--r-grid": {}, "--f": {}},
                ("r", "measure", "ratio", "residual_max")),
    "example": (_cmd_example, {"id": {"nargs": "*"}, "--a": _FLOAT, "--alpha": _FLOAT,
                               "--y0": _FLOAT, "--n": _INT}, "json"),
    "verify": (_cmd_verify, {"theorem": {"nargs": "?"}, "--instance": {}}, None),
    "defaults": (lambda cfg: DEFAULTS, {}, None),
}


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
    """The command-line parser, built from COMMANDS at the first call and
    shared by every later one: parsing leaves no state on it."""
    ap = _Parser(prog="dblab",
                 description="numerical laboratory for de Branges spaces of entire functions")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (_, flags, out) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file ('-' for stdin)")
        if out == "json":
            p.add_argument("--out", "--json", help="JSON output path")
        elif out is not None:
            p.add_argument("--out", help="CSV output path")
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        run, flags, out = COMMANDS[args.cmd]
        cfg = _merged(args, [flag.lstrip("-") for flag in flags])
        result = run(cfg)
        if out is not None:
            result, artifact = result
            if args.out and artifact is not None:
                _write(args.out, out, artifact)
        payload = {"command": args.cmd, "config": _jsonable(cfg), "result": _jsonable(result),
                   "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
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
    return 0 if result.get("ok", True) else 1   # verify exits 1 unless every verdict is ok


if __name__ == "__main__":
    sys.exit(main())
