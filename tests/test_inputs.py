"""Malformed library inputs: every public entry point answers with DomainError."""

from fractions import Fraction

import pytest

from conftest import cycle_graph, theta_graph
from hyperkirch import (
    DomainError,
    EdgeOrbit,
    LocalFieldParams,
    StabilityParam,
    generic_orbit,
    is_generic,
    is_semistable,
    matrix_tree_dual,
    point_orbit,
    segment_orbit,
    strata_complex,
    total_volume_padic_oracle,
    valuation_stratum_measure,
)

THETA = theta_graph()
ETA = {"u": -1, "v": 1}
SPEC = {"e1": generic_orbit(), "e2": EdgeOrbit("segment", 0), "e3": EdgeOrbit("point", 1)}

BY_SCALE = {
    "strata_complex": lambda N: strata_complex(THETA, StabilityParam(ETA, N)),
    "is_generic": lambda N: is_generic(THETA, StabilityParam(ETA, N)),
    "is_semistable": lambda N: is_semistable(THETA, StabilityParam(ETA, N), SPEC),
}

BY_BUDGET = {
    "spanning_forests": lambda b: THETA.spanning_forests(b),
    "is_generic": lambda b: is_generic(THETA, StabilityParam(ETA, 2), budget=b),
    "strata_complex": lambda b: strata_complex(THETA, StabilityParam(ETA, 2), budget=b),
    "oracle": lambda b: total_volume_padic_oracle(
        cycle_graph(3), LocalFieldParams(2, 2, 3), budget=b
    ),
}


def _weights(value):
    return {"e1": value, "e2": Fraction(1), "e3": 2}


CASES = [
    *(
        (f"{name} N={N!r}", lambda call=call, N=N: call(N))
        for N in (2.0, True)
        for name, call in BY_SCALE.items()
    ),
    *(
        (f"{name} budget={b!r}", lambda call=call, b=b: call(b))
        for b in (True, "10", 2.5)
        for name, call in BY_BUDGET.items()
    ),
    *(
        (f"matrix_tree_dual weight {w!r}", lambda w=w: matrix_tree_dual(THETA, _weights(w)))
        for w in ("abc", float("nan"), True)
    ),
    ("EdgeOrbit('segment')", lambda: EdgeOrbit("segment")),
    ("EdgeOrbit('segment', 1.5)", lambda: EdgeOrbit("segment", 1.5)),
    ("segment_orbit(1.5)", lambda: segment_orbit(1.5)),
    ("segment_orbit(True)", lambda: segment_orbit(True)),
    ("point_orbit('2')", lambda: point_orbit("2")),
    ("boundary coefficient 1.5", lambda: THETA.boundary({"e1": 1.5, "e2": 0, "e3": 0})),
    ("boundary coefficient '1'", lambda: THETA.boundary({"e1": "1", "e2": 0, "e3": 0})),
    ("valuation_stratum_measure n=1.5", lambda: valuation_stratum_measure(2, 1.5)),
    ("LocalFieldParams k=True", lambda: LocalFieldParams(2, 2, True)),
]


@pytest.mark.parametrize("call", [c for _, c in CASES], ids=[name for name, _ in CASES])
def test_malformed_input_raises_domain_error(call):
    # exactly DomainError: a malformed budget must not pass as a tiny cap and
    # surface as BudgetExceededError
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is DomainError
