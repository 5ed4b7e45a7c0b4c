"""factpat: factorization-pattern statistics over small finite fields.

Exhaustively verifies, at desk scale, the exact combinatorial identities
and explicit deviation bounds governing how factorization patterns
distribute over linear families of monic polynomials.
"""

__version__ = "0.1.0"

from .census import (RunConfig, census_tally, emit_report, family_descriptor,
                     parse_config, run_bounds, run_census, run_global,
                     run_verify)
from .correspondence import (PatternLayout, RootVector, build_G, fiber_count,
                             fiber_map, is_type_lambda, layout,
                             scan_G, verify_membership_equivalence,
                             window_start)
from .errors import BudgetError, CountingIdentityError, GaloisDescentError
from .family import (BoundReport, LinearFamily, ReferenceBound, bound_fp1,
                     bound_fp2, bound_nonsquarefree, bound_reference_ci,
                     enumerate_members, new_family, pattern_tally,
                     prescribed_family)
from .ffield import (ContextBank, Embedding, ExtCtx, FieldParams,
                     find_irreducible, make_field)
from .patterns import (Pattern, PatternStats, cycle_pattern,
                       enumerate_patterns, irreducible_count, pattern_stats,
                       symmetric_group_census)
from .poly import (MonicPoly, factor_pattern, is_squarefree,
                   pattern_of_coeffs, squarefree_decompose)
from .variety import (PointCounts, ProbeReport, SymSystem, count_points,
                      elementary_symmetric, eval_R, g_coeffs, jacobian_probe,
                      rational_zeros, sym_system, variety_pass)
