"""Exact computations with finite-dimensional commutative algebras over Q.

Quotients of polynomial rings by zero-dimensional ideals, their Kaehler
differentials, socles, truncated valuations, homomorphisms into truncated
polynomial rings, critical-degree bounds and torsion-witness evidence.
All arithmetic is exact rational arithmetic.
"""

from .algebra import (
    AlgebraElement,
    AlgebraMap,
    ArtinAlgebra,
    GradingInfo,
    Subspace,
    build_algebra,
    embedding_dimension,
    euler_derivation,
    grading_info,
    is_gorenstein,
    is_local_over_q,
    is_principal_ideal_algebra,
    nilpotency_index,
    nilradical,
    quotient_algebra,
    reduced_quotient,
    socle,
)
from .berger import (
    CriticalDegreeReport,
    SurjectionToQ,
    WitnessReport,
    critical_degree_search,
    degree_one_witness_hom,
    omega_witness,
    q_algebra,
    socle_kill_check,
    surjection_to_q,
    tau_membership_check,
    tau_witness_gorenstein,
)
from .errors import (
    AlgebraFileError,
    ArtinalgError,
    DependentInputError,
    IncompatibleAlgebrasError,
    InvalidArgumentError,
    NotDegreeOneError,
    NotGorensteinError,
    NotGradedError,
    NotLocalOverQError,
    NotZeroDimensionalError,
    PolynomialSyntaxError,
    PrincipalAlgebraError,
    RelationViolatedError,
    TrivialAlgebraError,
    UnknownVariableError,
    VariableMismatchError,
    WitnessInsufficientError,
)
from .groebner import (
    GroebnerBasis,
    StandardMonomialBasis,
    buchberger,
    ideal_membership,
    normal_form,
    standard_monomials,
)
from .kahler import (
    DifferentialForm,
    KahlerModule,
    d,
    embedding_obstruction,
    h0_de_rham,
    kahler_module,
    pushforward,
)
from .polycore import (
    Monomial,
    MonomialOrder,
    Polynomial,
    parse_polynomial,
)
from .truncated import (
    DEFAULT_COEFF_POOL,
    TruncatedHom,
    TruncatedPolyAlgebra,
    make_hom,
    search_homs,
    triangularize,
)

__version__ = "0.1.0"
