"""dblab: a numerical laboratory for de Branges spaces of entire functions.

Evaluate Hermite-Biehler structure functions, reproducing kernels,
kernel-norm majorants and mean types; run the majorization test on
sampled domains; and exercise the model-subspace machinery (Cayley
transforms, Herglotz data, Clark kernels, weak-type estimates) at desk
scale.
"""

from . import examples as examples  # populates the named-sequence registries
from .defaults import DEFAULTS
from .domains import SampledDomain, axis, horizontal_ray, line, ray, union
from .errors import DblabError
from .expressions import (Affine, CanonicalProduct, Const, Cos, EvalResult,
                          ExpCZ, FunctionExpr, PartialFractions, Poly,
                          PoleSequence, Power, Product, Quotient, Sharp, Sin,
                          Sinc, Sum, Z, ZeroSequence, derivative, evaluate,
                          expr_from_json, expr_to_json, sharp)
from .majorization import (AdmissibilityReport, Majorant, MajorizationReport,
                           admissibility_check, expr_majorant, mS_majorant,
                           nabla_majorant, test_majorization)
from .model import (HerglotzData, InnerFunction, WeakTypeReport,
                    cayley_q_from_theta, clark_kernel, clark_kernel_diag,
                    herglotz_extract, theorem_a60_scan, theta_from_q,
                    weak_type_test)
from .space import (DbSpace, MeanTypeEstimate, MembershipResult, hb_check,
                    inner_product, kernel, kernel_diagonal, mean_type,
                    membership, nabla, nabla_values, norm_squared,
                    phase_derivative, phase_route, zero_sum_phase)
from .theorems import TheoremReport, verify_all, verify_theorem

__version__ = "0.1.0"
