"""bumpsim: two unicycle robots, allowable elastic collisions, impulsive redesign."""

from .collision import (
    CollisionOutcome,
    ContactQuery,
    ContactStatus,
    PenetrationError,
    check_collision,
    post_velocity,
    resolve_collision,
    resolve_normal,
)
from .controller import (
    ControlDecision,
    ControllerTerms,
    Region,
    RegionError,
    cbf_value,
    classify_region,
    clf_value,
    lie_derivatives,
    nominal_control,
    predefined_control,
    saturate,
)
from .frames import (
    CoincidentCentersError,
    LocalFrame,
    LocalState,
    build_local_frame,
    decompose_velocity,
    to_global,
    to_local,
)
from .hybrid import (
    EventHit,
    SimMode,
    Trace,
    contact_pairs,
    detect_event,
    jump,
    metrics,
    simulate,
    step_flow,
    trace_to_csv,
    write_plot_csv,
    write_trace_csv,
)
from .redesign import (
    DegenerateTargetError,
    GeometryError,
    LocalPhase,
    NonSeparableError,
    TangentRays,
    deconflict_headings,
    impulse,
    local_control,
    local_duration,
    select_escape_heading,
    tangent_rays,
)
from .scenario import (
    UNBOUNDED,
    Body,
    BodyKind,
    ControlInput,
    ControllerParams,
    ParseError,
    RobotState,
    Scenario,
    ScenarioError,
    SchemaError,
    WorkspaceRect,
    load_scenario,
    serialize,
    validate_scenario,
)

__version__ = "0.1.0"
