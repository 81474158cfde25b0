"""Input checks at the library's entry points, one row per check: each bad
input raises its exception type with its message prefix.  Also the early
returns of a tail at radius 0 and of a root on the scan grid."""

import re

import pytest

from polybohr import (
    BlaschkeFactor,
    ConvexMNT,
    EvalReport,
    ExtremalSpec,
    FromDegree,
    MultiplesOf,
    ProductFunctionSpec,
    RogosinskiUni,
    SchwarzMapSpec,
    TailBound,
    TruncatedSeries,
    eval_schwarz,
    extremal_closed_eval,
    extremal_series,
    functional_B,
    functional_C,
    functional_D,
    functional_E,
    min_positive_root,
    sample_product_spec,
    schwarz_power_map,
)
from polybohr.radii import MIN_ROOT_GRID
from polybohr.series import _weighted_geometric_sum

SPEC = ExtremalSpec(0.5, 2)
SERIES = extremal_series(SPEC, 4)
PRODUCT = ProductFunctionSpec(((BlaschkeFactor(0.5),), (BlaschkeFactor(0.25j),)))
ONE_POINT = (0.1 + 0j,)
TWO_POINT = (0.1 + 0j, 0.2 + 0j)

# id, call, exception type, message prefix
CHECKS = [
    ("extremal-spec-n", lambda: ExtremalSpec(0.5, 0), ValueError,
     "dimension must be >= 1, got 0"),
    ("extremal-closed-eval-dim", lambda: extremal_closed_eval(SPEC, ONE_POINT), ValueError,
     "point dimension 1 != 2"),
    ("product-eval-dim", lambda: PRODUCT.eval(ONE_POINT), ValueError,
     "point dimension 1 != 2"),
    ("product-euler-eval-dim", lambda: PRODUCT.euler_eval(ONE_POINT), ValueError,
     "point dimension 1 != 2"),
    ("eval-schwarz-dim", lambda: eval_schwarz(schwarz_power_map(2, 1), ONE_POINT),
     ValueError, "point dimension 1 != 2"),
    ("extremal-series-K", lambda: extremal_series(SPEC, -1), ValueError,
     "max degree must be >= 0, got -1"),
    ("sample-product-n", lambda: sample_product_spec(0, 0, 1), ValueError,
     "dimension must be >= 1, got 0"),
    ("sample-product-factors", lambda: sample_product_spec(0, 1, -1), ValueError,
     "factor count must be >= 0, got -1"),
    ("schwarz-n", lambda: SchwarzMapSpec(0, 1), ValueError, "dimension must be >= 1, got 0"),
    ("schwarz-m", lambda: SchwarzMapSpec(1, 0), ValueError,
     "vanishing order must be >= 1, got 0"),
    ("blaschke-majorant", lambda: BlaschkeFactor(0.5).majorant_at(2.0), ValueError,
     "majorant of a Blaschke factor diverges at t = 2.0"),
    ("from-degree", lambda: FromDegree(0), ValueError, "tail start must be >= 1, got 0"),
    ("multiples-of", lambda: MultiplesOf(0), ValueError, "tail step must be >= 1, got 0"),
    ("functional-B-p",
     lambda: functional_B(SERIES, schwarz_power_map(2, 1), TWO_POINT, FromDegree(1), p=3),
     ValueError, "modulus power must be 1 or 2, got 3"),
    ("functional-C-dim",
     lambda: functional_C(SERIES, schwarz_power_map(2, 1), ONE_POINT, 0.5),
     ValueError, "point dimension 1 != series dimension 2"),
    ("functional-D-dim", lambda: functional_D(SERIES, ONE_POINT, 0.5), ValueError,
     "point dimension 1 != series dimension 2"),
    ("functional-D-lambda-zero", lambda: functional_D(SERIES, TWO_POINT, 0.0), ValueError,
     "lambda must be positive, got 0.0"),
    ("functional-D-lambda-negative", lambda: functional_D(SERIES, TWO_POINT, -1.0),
     ValueError, "lambda must be positive, got -1.0"),
    ("functional-E-t-zero", lambda: functional_E(SERIES, 0.1, 0.0), ValueError,
     "area weight must lie in (0,1], got 0.0"),
    ("functional-E-t-above-one", lambda: functional_E(SERIES, 0.1, 1.5), ValueError,
     "area weight must lie in (0,1], got 1.5"),
    ("rogosinski-p", lambda: RogosinskiUni(1, p=3), ValueError,
     "modulus power must be 1 or 2, got 3"),
    ("convexmnt-t-below-zero", lambda: ConvexMNT(2, 2, -0.5), ValueError,
     "t must lie in [0,1], got -0.5"),
    ("convexmnt-t-above-one", lambda: ConvexMNT(2, 2, 1.5), ValueError,
     "t must lie in [0,1], got 1.5"),
    ("eval-report-tail", lambda: EvalReport.build(0.5, -1.0), ValueError,
     "negative tail bound -1.0"),
    ("tail-bound-weight", lambda: TailBound(1.0, 0.5, -1), ValueError,
     "negative tail weight -1"),
    ("series-dim", lambda: TruncatedSeries(0, 2, {}), ValueError,
     "dimension must be >= 1, got 0"),
    ("series-max-degree", lambda: TruncatedSeries(1, -1, {}), ValueError,
     "max degree must be >= 0, got -1"),
    ("tail-start", lambda: _weighted_geometric_sum(1.0, 0.5, 0, 0), ValueError,
     "tail start degree must be >= 1, got 0"),
]


@pytest.mark.parametrize("call,exc,prefix", [row[1:] for row in CHECKS],
                         ids=[row[0] for row in CHECKS])
def test_bad_input_is_rejected(call, exc, prefix):
    with pytest.raises(exc, match="^" + re.escape(prefix)):
        call()


def test_tail_at_radius_zero_is_zero():
    assert SERIES.tail is not None
    assert SERIES.tail_sum(0.0) == 0.0


def test_root_on_the_scan_grid():
    # g vanishes exactly at the first grid point hi / MIN_ROOT_GRID
    h = 1.0 / MIN_ROOT_GRID
    assert min_positive_root(lambda x: x - h, 1.0) == (h, h, h, "root on the scan grid")
