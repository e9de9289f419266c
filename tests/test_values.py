"""The per-step value types are immutable, hashable NamedTuples.

The executor builds these on every integration step, so they are tuples
built positionally; this pins what a frozen dataclass used to guarantee.
"""

import pytest

from bumpsim.controller import ControlDecision, ControllerTerms, Region
from bumpsim.hybrid import CSV_HEADER, FlowSample
from bumpsim.scenario import ControlInput, RobotState

TERMS = ControllerTerms(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
VALUES = [
    RobotState(1.0, 2.0, 0.5),
    ControlInput(1.0, -0.5),
    TERMS,
    ControlDecision(ControlInput(1.0, 0.0), ControlInput(2.0, 0.0), Region.OMEGA2, TERMS, False),
    FlowSample(0.25, 1, 1.0, 2.0, 0.5, 1.0, -0.5, 0),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_is_an_immutable_hashable_tuple(value):
    assert isinstance(value, tuple)
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, 0.0)
    assert hash(value) == hash(type(value)(*value))


def test_flow_sample_fields_follow_the_sample_row():
    # The sample row leaves record_type constant and other_id, extra empty.
    columns = [c for c in CSV_HEADER.split(",") if c not in ("record_type", "other_id", "extra")]
    assert FlowSample._fields == tuple(columns)
