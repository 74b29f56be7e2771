"""Projected Baringhaus-Franz two-sample test for functional data.

Library surface: curve representations and Gram matrices (`curves`), the
test statistic (`statistic`), permutation calibration (`permute`), spectral
diagnostics of the limiting null law (`spectrum`), synthetic data
generators (`simgen`), and the level/power simulation harness (`harness`).
"""

from .curves import (
    COEFF,
    GRID,
    DataError,
    FunctionalSample,
    GridSpec,
    NumericalError,
    equispaced_grid,
    gram,
    gram_call_count,
    gram_entries,
    make_sample,
    read_curves_csv,
    write_curves_csv,
)
from .harness import (
    PowerEstimate,
    ScenarioConfig,
    append_ledger,
    ingest_pair,
    read_config_file,
    run_power,
    run_single_replication,
    run_subsample_power,
    run_sweep,
)
from .permute import TestResult, permutation_test
from .simgen import (
    BASIS_WEIGHTS,
    SCENARIO_IDS,
    Scenario,
    ScenarioParams,
    build_scenario,
    gen_basis,
    gen_mixture,
    gen_shifted_wiener,
    gen_sincos,
    gen_wiener,
    generate_pair,
)
from .spectrum import (
    KernelSpectrum,
    LimitShift,
    sample_limit_law,
    spectrum_estimate,
    spectrum_from_kernel_matrix,
)
from .statistic import (
    PhiKind,
    batch_statistics,
    pbf_statistic,
    pbf_statistic_oracle,
)

__version__ = "0.1.0"
