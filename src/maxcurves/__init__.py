"""Maximal curves covered by the Hermitian curve.

Exact finite-field tower arithmetic, explicit plane models, exhaustive point
counting with Hasse-Weil verdicts, cyclic quotients counted by Burnside on
the Singer trace line, numerical semigroups and Stohr-Voloch arithmetic.
"""

from .errors import CapError, ConsistencyError
from .fields import (
    Embedding,
    ExtField,
    FieldElement,
    FPoly,
    build_field,
    embed,
    find_root_of_unity,
    mult_order,
    poly_roots,
)
from .curves import (
    CurveModel,
    HomPoly3,
    ProjMatrix,
    TruncSeries,
    apply_coord_change,
    artin_schreier_quotient,
    branch_expansion_check,
    branch_series,
    char2_chain_curve,
    cube_cover_identity,
    envelope_model,
    fermat_quotient,
    frame_matrix,
    frame_parameter,
    frame_scalars,
    geer_vlugt_curve,
    hermitian_canonical,
    hermitian_fermat,
    quotient_model_rational,
    quotient_plane_model,
    singer_frame,
    smooth_cyclic_model,
)
from .counting import (
    CountReport,
    MaximalityVerdict,
    count_projective_points,
    extension_count_prediction,
    genus_from_count,
    hasse_weil_bounds,
    maximality_check,
)
from .quotients import (
    BurnsideReport,
    CyclicAction,
    FiberReport,
    HurwitzCheck,
    LangSolution,
    burnside_quotient_count,
    divisor_report,
    fiber_statistics,
    hermitian_cyclic_action,
    hurwitz_check,
    hurwitz_genus,
    lang_solve,
    twisted_fixed_count,
)
from .semigroups import (
    CASTELNUOVO_PARAMETER_NOTE,
    NumericalSemigroup,
    OrderSequence,
    SVReport,
    castelnuovo_bound,
    dim3_orders,
    classify_genus,
    dim3_order_inequality,
    first_nongap_candidates,
    first_quotient_nongaps,
    geer_vlugt_dim,
    geer_vlugt_orders,
    genus_lmm,
    hermitian_point_semigroup,
    linear_series_dim,
    orders_at_quotient_branch,
    orders_from_nongaps,
    quotient_semigroup,
    semigroup_from_generators,
    stohr_voloch_degrees,
)

__all__ = [name for name in dir() if not name.startswith("_")]
