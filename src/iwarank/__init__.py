"""Exact Kobayashi ranks over Z_p[[X]]: signed cyclotomic towers,
special 2x2 matrices, Coleman-pair closed forms and Sha growth tables.

All arithmetic is exact: polynomials carry integer coefficients,
finite-level module lengths come from Smith normal forms over Z/p^N,
and rational ranks come from the cyclotomic rank profile of the
relations (ord_{eps_m}(det A) for square ones; exact minors at eps_m
where that is infinite or the relations are not square).  Nothing is ever
rounded; a length is reported only when its count of finite elementary
divisors equals the exact rank, and otherwise the engine raises
PrecisionUnstable instead of answering.
"""

from .cyclo_eval import INFINITE, matrices_proportional_at_eps, ord_eps
from .errors import (
    DegenerateColeman,
    InvalidContext,
    IwarankError,
    NotCoprime,
    NotSpecial,
    NotTorsion,
    PhiDivides,
    PostconditionFailed,
    PrecisionUnstable,
    SingularMatrix,
    ZeroElement,
)
from .growth_model import (
    GrowthRow,
    GrowthTable,
    InvariantSet,
    degree_identities,
    delta_e,
    nabla_x_formula,
    s_sequence,
    sha_growth,
)
from .kobayashi_rank import (
    CyclicTower,
    MatrixTower,
    NablaResult,
    TorsionTower,
    additivity_check,
    direct_sum,
    nabla_coleman_tower,
    nabla_cyclic,
    nabla_matrix_tower,
    nabla_torsion_tower,
)
from .lambda_ring import (
    ONE,
    X,
    ZERO,
    IwasawaInvariants,
    LambdaElement,
    LambdaMatrix,
    OmegaTower,
    PrimeContext,
    cyclotomic_phi,
    euler_phi_pk,
    iwasawa_invariants,
    omega_poly,
    omega_tower,
    signed_degree,
)
from .special_matrices import (
    BDFactorization,
    ColemanData,
    SpecialLevel,
    SpecialReport,
    assemble_fn,
    factor_bd,
    good_basis_transform,
    is_special,
    parity_congruence_check,
    parity_reference,
    rod_check,
)
from .verify import SUITE_NAMES, CheckOutcome, SuiteReport, run_suites
from .zp_modules import SpanPresentation, lambda_column_span

__version__ = "0.1.0"
