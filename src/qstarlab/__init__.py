"""Finite-dimensional laboratory for quasi *-algebras with invariant
positive sesquilinear form families."""

from .algebra import (Element, QuasiAlgebraInstance, ValidationReport,
                      ensure_valid, hermitian_parts, module_product,
                      validate_structure)
from .bounded import (ConeReport, NormReport, RadicalReport, WeakProductReport,
                      check_condition_product, cone_intersection_null,
                      cone_membership, cone_witness_element,
                      extract_bounded_algebra, m_bounded_norm, m_bounded_values,
                      radical, weak_product, weak_products)
from .bundled import bundle_names, load_bundle
from .errors import (AmbiguousProduct, BadExponent, BadMeasure,
                     CharacterizationMismatch, ClosureViolation, DependentBasis,
                     EmptyFamily, FamilyNotBalanced, MissingUnit, NotInA0,
                     NotIps, NotSufficient, NotWellDefined, OutOfFloatRange,
                     ParseError, ProductOverflow, QStarError, ZeroForm,
                     ZeroFunction)
from .forms import (FamilyReport, FormFamily, FormReport, IpsForm,
                    SufficiencyReport, check_sufficiency, degeneracy_residuals,
                    form_equal, form_proportional, invariance_residual,
                    is_dense, twist, validate_family, validate_ips_form)
from .gns import GnsRep, build_gns, reconstruction_defect
from .lp_model import (DiscreteLpAlgebra, ball_lower_seminorm_nonneg,
                       build_lp_instance, conjugate_index, holder_sup,
                       lp_bounded_norm, weight_ascent_oracle)
from .probes import standard_probes
from .tolerances import DEFAULT_TOL, ToleranceConfig
from .topology import (BoundedFormSet, GaStarReport, compare_topologies, gamma,
                       ga_star_check, left_mult_bound, p_lower, p_star, p_upper,
                       seminorm_eval, seminorms, twisted_set)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
