"""Verification toolkit for two-boson separability and locality.

Five separability notions for two indistinguishable bosons, the operators
preserving each one, numerical factorization audits with witness search,
and exact polynomial certificates showing which notions admit local operator
pairs and which cannot.
"""

from .certificates import (
    Certificate,
    certify_factorization_sep_I,
    certify_sector_coupling,
    expand_residual_sep_I,
)
from .errors import ConsistencyError, ConvergenceError, DegreeOverflowError, ZeroNormError
from .exact import GaussianRational, MultiPoly, RootTwoRational
from .factorization import (
    AuditReport,
    WITNESS_THRESHOLD,
    Witness,
    audit,
    expectations,
    find_violation_witness,
    occupation_imbalance_pair,
    positive_control,
    residual,
    residuals,
)
from .hilbert import (
    EPS_STATE,
    PAULI,
    SECTOR_SLOTS,
    SECTORS,
    FockSpace,
    number_level_operator,
    partial_trace_second_particle,
    pauli_decompose,
    project_symmetric,
    reduced_single_particle_dm,
    sym_embedding,
    sym_one_body,
    sym_pairs,
    symmetrize_product,
)
from .invariance import (
    BlockScalarReport,
    CommutativityCheck,
    SepIPreserverFit,
    commutativity_condition,
    construct_sep_I_preserver,
    fit_sep_I_preserver,
    is_block_scalar,
    is_sep_II_preserver,
    sector_blocks,
)
from .reference import reference_lines, reference_suite
from .separability import (
    DEFAULT_TOL,
    QuarticRoots,
    SepClass,
    SeparabilityVerdict,
    Tolerances,
    classify,
    classify_mode,
    classify_sep_I,
    classify_sep_II,
    classify_sep_III,
    classify_ssr,
    classify_states,
    embed_ll,
    lr_block,
    sample_separable,
    sep_I_discriminant,
    sep_I_state,
    sep_II_orthogonal_state,
    sep_III_state,
    solve_preservation_quartic,
)

__version__ = "0.19.0"
