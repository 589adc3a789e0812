"""Exact hamiltonian structure over finite-dimensional Lie algebras.

Everything is rational arithmetic end to end: cochain complexes of Lie
algebra modules, the symplectic/hamiltonian subspace analysis of a
2-cochain, poisson brackets on admissible vectors, momentum maps with
their obstruction and group cocycles, central and abelian extensions
with the Baer product relating them, and conservation checks. A JSON
problem-file format plus the `hamflux` command line drive the same
machinery from files.
"""

from .cochain import (
    Cochain,
    CohomologySpace,
    cochain_dim,
    cohomology,
    contract,
    differential,
    differential_matrix,
    invariant_vectors,
    lie_derivative,
)
from .errors import (
    GenerationFailed,
    HamfluxError,
    HypothesisViolation,
    ImageNotHamiltonian,
    ParseError,
    ValidationError,
)
from .gallery import (
    InstanceBundle,
    associative_algebra_example,
    from_central_extension,
    matrix_algebra_example,
    random_instance,
)
from .groupelem import (
    GroupElement,
    adjoint_on_extension,
    affine_action,
    compose,
    exp_nilpotent,
    group_cocycle,
    group_cocycle_check,
    group_element,
    identity_element,
    inverse,
)
from .hamiltonian import (
    HamiltonianAnalysis,
    HamiltonianPair,
    abelian_bracket,
    analyze,
    hamiltonian_pair,
    oneform_bracket,
    pair_bracket,
)
from .liealg import (
    AlgebraHom,
    LieAlgebra,
    LieModule,
    adjoint_module,
    center,
    spanned_subalgebra,
    subalgebra,
)
from .linalg import LinearSolver, Matrix, Subspace, kernel_basis, quotient_map, rref
from .momentum import (
    BaerProductResult,
    EquivariantizationResult,
    ExtensionPresentation,
    MomentumMap,
    abelian_extension,
    baer_product,
    central_extension,
    coboundary_trivialization,
    equivariantize,
    extended_momentum,
    extension_embedding,
    obstruction_cocycle,
    pullback_cocycle,
    solve_momentum,
)
from .noether import NoetherReport, commuting_actions_check, invariant_flow_check
from .problemfile import ProblemFile, parse_problem, problem_to_text, serialize_problem

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
