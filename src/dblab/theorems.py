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
from .examples import pw_kernel_expr, pw_space
from .expressions import Const, Cos, ExpCZ, Poly
from .majorization import mS_majorant, nabla_majorant, test_majorization
from .space import DbSpace


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


# instance -> (small space, E1), built when a theorem is verified; both
# majorant kinds need only these, never the big space
_PAIRS = {
    "a20": lambda: (pw_space(1.0), ExpCZ(-1.0j)),
    "poly": lambda: (DbSpace(Poly([1.0j, 1.0]), None, 0.0, 0.0, "poly1"),   # z+i
                     Poly([1.0j, 1.0])),
    "pw-nested": lambda: (pw_space(0.5), None),
}

# witness rows: (label, function, expected verdict)
_A20_ROWS = (("sin z/(pi z)", pw_kernel_expr(1.0, 0.0), "majorized"),
             ("cos z", Cos(), "not-majorized"))
_POLY_ROWS = (("1", Const(1.0), "majorized"),
              ("z", Poly([0.0, 1.0]), "not-majorized"))

# fine grids where ratios oscillate; short rays where witnesses grow like cosh
_AXIS = dom.axis(ratio=1.01, rmax=1.0e4)
_AXIS_SHORT = dom.axis(ratio=1.01, rmax=512.0)
_VRAY = dom.ray(0.5, 1.0, ratio=1.02, rmax=512.0)
_LINE1 = dom.line(1.0, ratio=1.01, rmax=1.0e4)

# (theorem, instance) -> (majorant kind, domain, witness rows).  The kind is
# "nabla" (kernel norm of the small space) or "mS" (m_S with S = E1).  The
# first entry of a theorem is its default instance; ``verify_all`` sweeps the
# theorems in table order.
TABLE: Dict[Tuple[str, str], tuple] = {
    ("A10", "a20"): ("mS", _AXIS, _A20_ROWS),
    ("A12", "a20"): ("nabla", _VRAY, _A20_ROWS),
    ("A12", "poly"): ("nabla", _VRAY, _POLY_ROWS),
    ("A13", "a20"): ("nabla", dom.union(_AXIS_SHORT, _VRAY), _A20_ROWS),
    ("A15", "pw-nested"): ("nabla", _AXIS, (
        ("k05[0]", pw_kernel_expr(0.5, 0.0), "majorized"),
        ("k05[1.3]", pw_kernel_expr(0.5, 1.3), "majorized"))),
    ("A18", "a20"): ("mS", _LINE1, _A20_ROWS),
    # the kernel-norm variant keeps cos z: the line test cannot cut the
    # one-dimensional extension down to PW_1
    ("A18-nabla", "a20"): ("nabla", _LINE1, (
        _A20_ROWS[0], ("cos z", Cos(), "majorized"))),
    ("A37", "poly"): ("nabla", dom.ray(0.25, 1.0, ratio=1.02, rmax=1.0e4), _POLY_ROWS),
    ("A48", "poly"): ("mS", dom.horizontal_ray(1.0, 1.0, ratio=1.02, rmax=1.0e4),
                      _POLY_ROWS),
    ("A54", "a20"): ("mS", dom.union(_AXIS_SHORT,
                                     dom.ray(0.25, 0.0, ratio=1.02, rmax=512.0)),
                     _A20_ROWS),
}

THEOREMS = list(dict.fromkeys(t for t, _ in TABLE))


def verify_theorem(theorem: str, instance: str | None = None) -> TheoremReport:
    theorem = theorem.upper().replace("A18-NABLA", "A18-nabla")
    if theorem not in THEOREMS:
        raise UnknownInstance(f"unknown theorem id {theorem!r}; "
                              f"known: {sorted(THEOREMS)}")
    instance = instance or next(i for t, i in TABLE if t == theorem)
    if (theorem, instance) not in TABLE:
        raise UnknownInstance(f"no shipped configuration for theorem {theorem!r} "
                              f"on instance {instance!r}")
    kind, domain, witnesses = TABLE[theorem, instance]
    small, e1 = _PAIRS[instance]()
    m = nabla_majorant(small, domain) if kind == "nabla" else mS_majorant(e1, domain)
    rows = []
    for label, f, expected in witnesses:
        rep = test_majorization(f, m)
        rows.append(WitnessRow(label, expected, rep.verdict,
                               rep.sup_ratio, rep.tail_slope))
    return TheoremReport(theorem, instance, m.label, m.domain.to_json(), rows)


def verify_all() -> List[TheoremReport]:
    """The full sweep: every shipped theorem id on its default instance,
    with the kernel-norm line variant alongside the plain A18 row."""
    return [verify_theorem(t) for t in THEOREMS]
