"""High-dimensional online calibration lab.

Simulation and verification framework for hierarchical calibrated
forecasting: exact probability-simplex arithmetic, the multi-level
empirical-frequency forecaster, seeded adversaries (i.i.d., adaptive
argmin, recursive hard sequence), ECE/DCE calibration metrics with
brute-force oracles, and a pathwise proof-certificate engine that audits
every inequality of the calibration upper-bound analysis on concrete runs.
"""

from . import backend
from .adversary import (
    AdaptiveArgminAdversary,
    EpsSchedule,
    HardSeqConfig,
    HardSequenceAdversary,
    IIDAdversary,
    day_distribution,
    day_tuple,
    sample_tau_tree,
)
from .certificate import (
    CertificateReport,
    RunView,
    certify_run,
    check_chain,
    check_pseudo_regret,
    check_smoothness,
    check_telescope,
)
from .engine import RunResult, dce_value, ece_value, run_from_outcomes, simulate
from .forecaster import (
    ForecastConfig,
    MixtureRecord,
    coupled_parameters,
    sample_prediction,
    smoothed_prediction,
)
from .metrics import (
    DayRecord,
    Transcript,
    dce,
    ece_estimate,
    ece_trajectory,
    exhaustive_ece,
    oracle_dce_direct,
)
from .rng import RNG_ID, Stream, derive_stream
from .simplex import (
    PredictionKey,
    RationalDist,
    entropy,
    kl_divergence,
    make_rational_dist,
    point_mass,
    uniform,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
