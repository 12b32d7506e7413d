"""scval: self-consistency validation for surrogate electronic structure.

Predicted (Hamiltonian, density) pairs can be screened without labels by
measuring how far they sit from mutual self-consistency; this package
provides the model system, SCF reference solver, surrogate predictors,
validation reports, statistics, and gated molecular dynamics built on
that idea.
"""

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    EmptyDataset,
    FermiDegeneracy,
    FileFormatError,
    GenerationExhausted,
    InsufficientData,
    InvalidGeometry,
    LinearDependence,
    NoConvergence,
    ScvalError,
    SpeciesMismatch,
)
from .matcore import (
    EigSolution,
    aufbau_occupations,
    build_density,
    commutator_error,
    error_magnitude,
    gen_eigensolve,
    loewdin_inverse_sqrt,
    read_scvm,
    write_scvm,
)
from .model import (
    Context,
    Geometry,
    ModelParams,
    ScfSolution,
    build_h0,
    build_overlap,
    effective_hamiltonian,
    load_geometry,
    mulliken_charges,
)
from .scf import ScfConfig, scf_solve
from .validator import (
    Prediction,
    ReportTable,
    full_report,
    self_diis,
    self_diis_position_gradient,
)
from .surrogate import (
    Dataset,
    KernelModel,
    generate_dataset,
    kernel_fit,
    kernel_loo,
    kernel_predict,
    load_dataset,
    oracle_noise_predict,
    save_dataset,
)
from .stats import bin_records, correlation_report, linfit
from .mdsim import MdConfig, MdResult, forces_surrogate, run_md

__version__ = "0.1.0"
