"""Expression bits that a refactor of the node rules must not move.

For fixed trees covering every closed-form kind (and two series nodes),
on fixed points that include poles, overflow, subnormals and signed
zeros, the sha256 digests of ``values``, both halves of ``eval_array``,
both halves of ``jets`` and ``moduli`` are compared with
``data/expr_golden.json``; so are the pw and a20 kernel diagonals and
axis ``nabla``.  A call that raises is recorded as its error's class and
message.  ``python tests/test_expr_golden.py`` writes the file from the
``dblab`` on the path.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from dblab.errors import DblabError
from dblab.examples import build_a20, pw_space
from dblab.expressions import expr_from_json
from dblab.space import kernel_diagonal_values, nabla_values

GOLDEN = Path(__file__).parent / "data" / "expr_golden.json"

_SIN = {"kind": "sin"}
_COS = {"kind": "cos"}
_Z = {"kind": "z"}


def _const(re, im=0.0):
    return {"kind": "const", "value": [re, im]}


def _affine(child, scale, shift=(0.0, 0.0)):
    return {"kind": "affine", "child": child, "scale": list(scale), "shift": list(shift)}


# label -> spec; every closed-form kind appears, alone and inside others
TREES = {
    "const": _const(1.5, -0.25),
    "z": _Z,
    "exp": {"kind": "exp", "coeff": [0.5, -1.25]},
    "sin": _SIN,
    "cos": _COS,
    "sinc": {"kind": "sinc"},
    "poly": {"kind": "poly", "coeffs": [[1, 0], [-2, 0.5], [0.25, 0], [0, 1e-3]]},
    "affine": _affine(_SIN, (2.0, -0.5), (0.3, 0.1)),
    "sum": {"kind": "sum", "children": [{"kind": "exp", "coeff": [0, 1]}, _COS,
                                        _const(-0.5, 2.0)]},
    "product": {"kind": "product", "children": [{"kind": "sinc"}, _Z,
                                                _affine(_COS, (0.5, 0.0))]},
    "quotient-poly": {"kind": "quotient", "num": _SIN,
                      "den": {"kind": "poly", "coeffs": [[-1, 0], [0, 0], [1, 0]]}},
    "quotient-sin": {"kind": "quotient", "num": _COS, "den": _SIN},
    "quotient-mixed": {"kind": "quotient",
                       "num": {"kind": "product", "children": [_SIN, {"kind": "sinc"}]},
                       "den": {"kind": "sum", "children": [_const(2.0), _COS]}},
    "power": {"kind": "power", "child": {"kind": "sum", "children": [_Z, _const(-0.5, 0.25)]},
              "exponent": 3},
    "power-0": {"kind": "power", "child": _COS, "exponent": 0},
    "power-1": {"kind": "power", "child": {"kind": "exp", "coeff": [0, -2]}, "exponent": 1},
    "sharp": {"kind": "sharp", "child": {"kind": "product", "children": [
        {"kind": "exp", "coeff": [0.25, 1]}, _affine({"kind": "sinc"}, (1.0, 0.2))]}},
    "sharp-quotient": {"kind": "sharp", "child": {
        "kind": "quotient", "num": _Z,
        "den": {"kind": "poly", "coeffs": [[0, -2], [1, 0]]}}},
    "constant-tree": {"kind": "quotient", "num": {"kind": "sum", "children": [
        _const(1.0), _const(0.0, 3.0)]}, "den": {"kind": "power", "child": _const(2.0, -1.0),
                                               "exponent": 2}},
    "empty-sum-product": {"kind": "sum", "children": [
        {"kind": "sum", "children": []}, {"kind": "product", "children": []}, _Z]},
    # the conjugate of an empty sum is -0j, of its derivative too
    "sharp-empty-sum": {"kind": "sharp", "child": {"kind": "sum", "children": []}},
    "sharp-empty-product": {"kind": "sharp", "child": {"kind": "product", "children": []}},
    "canonical-product": {"kind": "canonical-product", "zeros": {
        "kind": "list", "genus": 1, "zeros": [[2, 1], [-3, 0.5], [4, 0], [0, -7], [1.5, 0]]}},
    "partial-fractions": {"kind": "quotient", "num": _Z, "den": {
        "kind": "sum", "children": [_const(0, 1), {"kind": "partial-fractions", "poles": {
            "kind": "list", "poles": [-3.0, 1.5, 2.5, 8.0], "weights": [1.0, 0.5, 2.0, 0.25]}}]}},
}


def _point_sets() -> dict:
    x = np.linspace(-7.3, 7.9, 50)
    y = np.linspace(-3.1, 4.3, 40)
    grid = (x[:, None] + 1j * y[None, :]).ravel()
    r = np.geomspace(1e-3, 2e3, 40)
    far = np.concatenate([r * np.exp(1j * a) for a in (0.2, 1.1, 1.9, -0.7, -2.6)])
    edge = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), 5e-324 - 5e-324j, 1e-310j,
                     1e-160, 1e-160 + 1e-160j, 1.2e-7, -1e-5j, 0.999 + 0.5j, 1e5, 1e5 + 1j,
                     -3e5 - 2j, 720j, -720j, 745j, 400 + 400j, -1e154 + 1j, 1e300j,
                     np.nan, complex(np.nan, 1.0)], dtype=complex)
    # exact poles and zeros: 0 (sin), 1 (z^2 - 1), -2i (the sharp quotient),
    # 1.5 (a series pole and a product zero)
    poles = np.array([0.5 + 0.5j, 1.5, 1.0, -2j, 0.0, 3.0], dtype=complex)
    return {"grid": grid, "edge": np.concatenate([far, edge]), "poles": poles}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _outcome(run) -> str:
    try:
        return _digest(*run())
    except DblabError as exc:
        return f"{type(exc).__name__}: {exc}"


def _tree_digests(f, z) -> dict:
    out = {"values": _outcome(lambda: (f.values(z),)),
           "eval_array": _outcome(lambda: f.eval_array(z)),
           "moduli": _outcome(lambda: (f.moduli(z),))}
    if f.closed_form():
        out["jets"] = _outcome(lambda: f.jets(z))
    return out


def _kernel_spaces() -> dict:
    return {"pw1": pw_space(1.0), "pw2.5": pw_space(2.5), "a20": build_a20().spaces["H"]}


def _space_digests(space) -> dict:
    x = np.concatenate([np.linspace(-40.0, 40.0, 801), [0.0, -0.0, 1e-160, 1e-7, 3e4]])
    return {"kernel_diagonal": _outcome(lambda: (kernel_diagonal_values(space, x),)),
            "nabla": _outcome(lambda: (nabla_values(space, x + 0j),))}


def _compute() -> dict:
    sets = _point_sets()
    doc = {f"{label} @ {name}": _tree_digests(expr_from_json(spec), z)
           for label, spec in TREES.items() for name, z in sets.items()}
    doc.update({f"space {label}": _space_digests(sp)
                for label, sp in _kernel_spaces().items()})
    return doc


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def computed():
    return _compute()


def test_golden_covers_every_case(golden, computed):
    assert sorted(golden) == sorted(computed)


def test_golden_covers_every_closed_form_kind():
    kinds = set()

    def walk(node):
        if isinstance(node, dict):
            kinds.add(node.get("kind"))
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(list(TREES.values()))
    assert {"const", "z", "exp", "sin", "cos", "sinc", "poly", "affine", "sum", "product",
            "quotient", "power", "sharp"} <= kinds


@pytest.mark.parametrize("case", sorted(
    [f"{t} @ {s}" for t in TREES for s in ("grid", "edge", "poles")]
    + [f"space {s}" for s in ("pw1", "pw2.5", "a20")]))
def test_expression_bits_match_the_golden_digests(golden, computed, case):
    assert computed[case] == golden[case]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_compute(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
