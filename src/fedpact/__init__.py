"""Contract-menu incentives and coverage-aware aggregation for federated learning.

The package measures how well a client's local data covers the feature
space, prices a menu of fee/reward contracts that makes quality types
self-select truthfully, simulates a contracting round, and compares
reward-weighted against uniform aggregation in a small end-to-end
federated training experiment.
"""
from .config import ConfigError, ExperimentConfig, TaskSpec, TrainingSpec
from .contracts import (
    ContractMenu,
    FeasibilityReport,
    GridSearchResult,
    GridSpec,
    MenuMismatchError,
    RevenueCurve,
    TypeProfile,
    envelope_utilities,
    grid_search_menu,
    server_expected_utility,
    solve_optimal_menu,
    utility_tolerance,
    verify_feasibility,
)
from .coverage import PointCloud, coverage_quality
from .learning import (
    ArchitectureMismatchError,
    CalibrationError,
    ClientDataset,
    ModelArch,
    ModelVector,
    SchemeReport,
    SyntheticTask,
    aggregate,
    generate_client_dataset,
    local_train,
    model_accuracy,
    run_scheme_comparison,
    server_test,
)
from .simulation import (
    RoundOutcome,
    choose_contract,
    realize_success,
    run_round,
    sample_population,
)

__version__ = "0.1.0"
