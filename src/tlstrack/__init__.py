"""Three-level transmon relaxation analysis and TLS defect tracking."""

__version__ = "0.1.0"

from .dynamics import (
    DecayRates,
    PopulationTrace,
    closed_form_trace,
)
from .errors import (
    FitDivergedError,
    InvalidParameterError,
    MitigationUnstableError,
    ScenarioSchemaError,
    TlstrackError,
    UndefinedCorrelationError,
)
from .readout import (
    ConfusionMatrix,
    IqBlobModel,
    equilateral_blobs,
    mitigate_trace,
    simulate_confusion_matrix,
)
from .synth import (
    DriftProcess,
    Scenario,
    TlsTruth,
    bundled_scenario,
    generate_trajectories,
    load_scenario,
    synthesize_experiment,
    write_run_directory,
)
from .tls import (
    DeviceFrequencies,
    TlsDefect,
    TlsParameterSet,
    lorentzian_density,
    rate_series,
)
from .trace_fit import TraceFit, default_delay_grid, fit_trace, fit_traces, initial_guess
from .tracker import (
    LifetimeSeries,
    TrackerConfig,
    TrackerFit,
    lifetime_correlation,
    reconstruct_trajectory,
    select_model,
    track_tls,
)

__all__ = [name for name in dir() if not name.startswith("_")]
