"""Deterministic simulator of an entanglement-based QSDC network."""

from .analysis import (
    QberEstimate,
    SecrecyReport,
    ThroughputReport,
    binary_entropy,
    fidelity_from_visibility,
    secrecy_capacity_bound,
    session_secrecy_report,
    throughput,
)
from .errors import (
    CapacityExceeded,
    DomainError,
    InsufficientData,
    InvariantViolation,
    QsdcError,
    ScenarioError,
)
from .netplan import (
    ChannelPair,
    ConnectivityReport,
    UserId,
    WavelengthPlan,
    build_plan,
    channels_required,
    itu_name,
    verify_full_connectivity,
)
from .photonics import (
    Devices,
    DetectorSpec,
    FiberSpec,
    ModulatorSpec,
    SfgSpec,
    SourceSpec,
    accidental_rate,
    transmittance,
)
from .protocol import (
    DetectionBatch,
    EveKind,
    EveModel,
    Link,
    MessageCodes,
    ProtocolConfig,
    Session,
    SessionPhase,
    SessionTranscript,
    run_qsdc,
    run_security_detection,
    transmit_and_decode_block,
)
from .qstate import (
    BellLabel,
    NoiseParams,
    bell_weights,
    fidelity,
    fringe_probability,
)
from .scenario import Scenario, load_scenario, scenario_from_dict

__version__ = "0.1.0"
