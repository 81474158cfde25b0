"""Sharp Bohr-type radii on the unit polydisc.

The package computes the sharp radii of five majorant-type inequalities for
functions bounded by one on the polydisc (as roots of explicit low-degree
polynomials), evaluates the corresponding functionals on truncated power
series with certified truncation tails, and verifies both directions: the
inequalities hold below each radius, and the extremal Moebius family breaks
them just above it.
"""

from .families import (
    BlaschkeFactor,
    ExtremalSpec,
    Lcg64,
    ProductFunctionSpec,
    SchwarzMapSpec,
    eval_schwarz,
    extremal_closed_eval,
    extremal_series,
    sample_product_spec,
    sample_schwarz_map,
    schwarz_power_map,
)
from .functionals import (
    FromDegree,
    MultiplesOf,
    functional_A,
    functional_B,
    functional_C,
    functional_D,
    functional_E,
    functional_rogosinski_uni,
)
from .radii import (
    AN,
    AreaT,
    Classical,
    ConvexMNT,
    ConvexT,
    EulerLambda,
    NoSignChangeError,
    RadiusResult,
    RmN,
    RmnN,
    RogosinskiUni,
    bracketed_bisection,
    limit_sweep_m,
    limit_sweep_N,
    min_positive_root,
    solve,
)
from .report import EvalReport, Verdict
from .series import (
    CapacityError,
    DivergentTailError,
    TailBound,
    TruncatedSeries,
    area_sum,
    euler_derivative,
    eval_series,
    inf_norm,
    majorant_block_sums,
    majorant_sum,
)
from .verify import (
    AuditStats,
    SuiteConfig,
    SuiteReport,
    audit_lemmas,
    check_holds_below,
    check_sharpness_above,
    euler_closed_form_check,
)

__version__ = "0.1.0"
