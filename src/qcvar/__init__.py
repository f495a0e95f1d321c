"""qcvar: quasi-cointegration analysis for VARs with near-unit roots.

The package identifies, estimates and performs inference on the
quasi-cointegrating space of a VAR whose largest characteristic roots
are near but not necessarily equal to unity, including the Monte Carlo
machinery for the nonstandard limit distributions used by the
Bonferroni confidence construction.
"""

__version__ = "0.1.0"

from .dgp import DgpSpec, LocalSequence, NearUnitBase, build_var, local_sequence, simulate
from .exceptions import (
    BoundaryWarning,
    ClassificationError,
    ConditionWarning,
    ConstructionError,
    DomainError,
    NormalizationError,
    NumericalError,
    QcvarError,
    RootSeparationError,
    SingularDesignError,
    TableCoverageError,
)
from .inference import (
    ConfidenceSet,
    LrStatistic,
    bonferroni_ci,
    bonferroni_level,
    chi2_quantile,
    ci_coefficient_given_lambda,
    ci_lambda,
    localisation,
    lr_coefficient,
    lr_lambda,
)
from .likelihood import (
    Design,
    FitResult,
    LambdaGrid,
    ProfileLambdaResult,
    concentrated_loglik,
    make_design,
    ols_fit,
    profile_a,
    profile_lambda,
    restricted_fit,
    rrr_fit,
)
from .limitdist import (
    LimitDistConfig,
    QuantileTable,
    TableEntry,
    build_table,
    c_star,
    load_table,
    lookup,
    quantiles_with_se,
    save_table,
    simulate_statistics,
)
from .representation import (
    ImpulseResponse,
    PerturbationJacobians,
    QcsBasis,
    StateDecomposition,
    adjustment_alpha,
    apply_b,
    b_matrix,
    decay_profile,
    irf,
    jacobians,
    qcs_basis,
    state_decompose,
)
from .spectral import (
    Classification,
    RegionSpec,
    RootSet,
    SpectralSplit,
    VarCoefficients,
    classify,
    companion,
    constraint_matrices,
    half_life_to_radius,
    radius_to_half_life,
    reconstruct,
    roots,
    split,
)
