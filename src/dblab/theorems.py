"""Witness-based verification of the representability statements.

Each theorem id maps to shipped example configurations: a majorant on the
theorem's domain plus a curated list of functions with their expected
verdicts (members of the represented subspace must come out majorized;
functions outside it must come out not-majorized whenever the theorem's
equality predicts exclusion).  This is a finite-witness check, never a
claim about the full closed subspace.

Instances:

* ``a20``    - the codimension-one extension of PW_1 (line/axis/ray tests);
* ``pw-nested`` - PW_{1/2} inside PW_1 (bounded-phase-derivative case);
* ``poly``   - constants inside degree-<=1 polynomials over ``(z+i)^2``
  (all elements of zero exponential type, so the slanted-ray and
  horizontal-ray statements with their order hypotheses apply).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from . import domains as dom
from .errors import UnknownInstance
from .examples import a20_structure_function, pw_kernel_expr, pw_space
from .expressions import Const, Cos, ExpCZ, FunctionExpr, Poly
from .majorization import mS_majorant, nabla_majorant, test_majorization
from .space import DbSpace, hb_check

@dataclass
class WitnessRow:
    label: str
    expected: str
    verdict: str
    sup_ratio: float
    tail_slope: float

    @property
    def ok(self) -> bool:
        return self.verdict == self.expected

    def to_json(self) -> dict:
        return {"function": self.label, "expected": self.expected,
                "verdict": self.verdict, "sup-ratio": self.sup_ratio,
                "tail-slope": self.tail_slope, "ok": self.ok}


@dataclass
class TheoremReport:
    theorem: str
    instance: str
    majorant: str
    domain: dict
    witnesses: List[WitnessRow]

    @property
    def ok(self) -> bool:
        return all(w.ok for w in self.witnesses)

    def to_json(self) -> dict:
        return {"theorem": self.theorem, "instance": self.instance,
                "majorant": self.majorant, "domain": self.domain,
                "witnesses": [w.to_json() for w in self.witnesses],
                "ok": self.ok}


def _poly_pair() -> Tuple[DbSpace, DbSpace, FunctionExpr]:
    big = DbSpace(Poly([-1.0, 2.0j, 1.0]), None, 0.0, 0.0, "poly2")   # (z+i)^2
    small = DbSpace(Poly([1.0j, 1.0]), None, 0.0, 0.0, "poly1")       # z+i
    hb_check(big)
    hb_check(small)
    return big, small, Poly([1.0j, 1.0])


def _a20_pair() -> Tuple[DbSpace, DbSpace, FunctionExpr]:
    big = DbSpace(a20_structure_function(), None, 1.0, 1.0, "a20")
    small = pw_space(1.0)
    hb_check(big)
    return big, small, ExpCZ(-1.0j)


_SINC = pw_kernel_expr(1.0, 0.0)
_ONE = Const(1.0)
_ZED = Poly([0.0, 1.0])

# fine grids where ratios oscillate; short rays where witnesses grow like cosh
_AXIS = dom.axis(ratio=1.01, rmax=1.0e4)
_AXIS_SHORT = dom.axis(ratio=1.01, rmax=512.0)
_VRAY = dom.ray(0.5, 1.0, ratio=1.02, rmax=512.0)
_LINE1 = dom.line(1.0, ratio=1.01, rmax=1.0e4)


def _config(theorem: str, instance: str):
    """(majorant builder, witness rows) for a shipped (theorem, instance)."""
    key = (theorem, instance)
    if key == ("A12", "a20"):
        big, small, _ = _a20_pair()
        return big, lambda: nabla_majorant(small, _VRAY), [
            ("sin z/(pi z)", _SINC, "majorized"),
            ("cos z", Cos(), "not-majorized")]
    if key == ("A12", "poly"):
        big, small, _ = _poly_pair()
        return big, lambda: nabla_majorant(small, _VRAY), [
            ("1", _ONE, "majorized"),
            ("z", _ZED, "not-majorized")]
    if key == ("A13", "a20"):
        big, small, _ = _a20_pair()
        d = dom.union(_AXIS_SHORT, _VRAY)
        return big, lambda: nabla_majorant(small, d), [
            ("sin z/(pi z)", _SINC, "majorized"),
            ("cos z", Cos(), "not-majorized")]
    if key == ("A10", "a20"):
        big, _, e1 = _a20_pair()
        return big, lambda: mS_majorant(e1, _AXIS), [
            ("sin z/(pi z)", _SINC, "majorized"),
            ("cos z", Cos(), "not-majorized")]
    if key == ("A15", "pw-nested"):
        big = pw_space(1.0)
        small = pw_space(0.5)
        return big, lambda: nabla_majorant(small, _AXIS), [
            ("k05[0]", pw_kernel_expr(0.5, 0.0), "majorized"),
            ("k05[1.3]", pw_kernel_expr(0.5, 1.3), "majorized")]
    if key == ("A18", "a20"):
        big, small, e1 = _a20_pair()
        return big, lambda: mS_majorant(e1, _LINE1), [
            ("sin z/(pi z)", _SINC, "majorized"),
            ("cos z", Cos(), "not-majorized")]
    if key == ("A18-nabla", "a20"):
        # the kernel-norm variant keeps cos z: the line test cannot cut the
        # one-dimensional extension down to PW_1
        big, small, _ = _a20_pair()
        return big, lambda: nabla_majorant(small, _LINE1), [
            ("sin z/(pi z)", _SINC, "majorized"),
            ("cos z", Cos(), "majorized")]
    if key == ("A37", "poly"):
        big, small, _ = _poly_pair()
        d = dom.ray(0.25, 1.0, ratio=1.02, rmax=1.0e4)
        return big, lambda: nabla_majorant(small, d), [
            ("1", _ONE, "majorized"),
            ("z", _ZED, "not-majorized")]
    if key == ("A48", "poly"):
        big, _, e1 = _poly_pair()
        d = dom.horizontal_ray(1.0, 1.0, ratio=1.02, rmax=1.0e4)
        return big, lambda: mS_majorant(e1, d), [
            ("1", _ONE, "majorized"),
            ("z", _ZED, "not-majorized")]
    if key == ("A54", "a20"):
        big, _, e1 = _a20_pair()
        d = dom.union(_AXIS_SHORT, dom.ray(0.25, 0.0, ratio=1.02, rmax=512.0))
        return big, lambda: mS_majorant(e1, d), [
            ("sin z/(pi z)", _SINC, "majorized"),
            ("cos z", Cos(), "not-majorized")]
    raise UnknownInstance(f"no shipped configuration for theorem {theorem!r} "
                          f"on instance {instance!r}")


DEFAULT_INSTANCE: Dict[str, str] = {
    "A10": "a20", "A12": "a20", "A13": "a20", "A15": "pw-nested",
    "A18": "a20", "A18-nabla": "a20", "A37": "poly", "A48": "poly",
    "A54": "a20",
}


def verify_theorem(theorem: str, instance: str | None = None) -> TheoremReport:
    theorem = theorem.upper().replace("A18-NABLA", "A18-nabla")
    if theorem not in DEFAULT_INSTANCE:
        raise UnknownInstance(f"unknown theorem id {theorem!r}; "
                              f"known: {sorted(DEFAULT_INSTANCE)}")
    instance = instance or DEFAULT_INSTANCE[theorem]
    _, maj_builder, witnesses = _config(theorem, instance)
    m = maj_builder()
    rows = []
    for label, f, expected in witnesses:
        rep = test_majorization(f, m)
        rows.append(WitnessRow(label, expected, rep.verdict,
                               rep.sup_ratio, rep.tail_slope))
    return TheoremReport(theorem, instance, m.label, m.domain.to_json(), rows)


def verify_all() -> List[TheoremReport]:
    """The full sweep: every shipped theorem id on its default instance,
    with the kernel-norm line variant alongside the plain A18 row."""
    return [verify_theorem(t) for t in
            ("A10", "A12", "A13", "A15", "A18", "A18-nabla", "A37", "A48", "A54")]
