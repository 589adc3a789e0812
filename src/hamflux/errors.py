"""Exception hierarchy.

Every failure mode of the library raises a subclass of HamfluxError, so
callers (and the CLI) can tell usage problems, validation problems and
genuine mathematical obstructions apart.
"""


class HamfluxError(Exception):
    """Base class for all library errors."""


# -- linear algebra ----------------------------------------------------------

class Unsolvable(HamfluxError):
    """The right-hand side is not in the image of the map."""


# -- structure validation ----------------------------------------------------

class AntisymmetryViolation(HamfluxError):
    """Structure constants fail c_ij = -c_ji (or c_ii != 0)."""

    def __init__(self, i, j, value):
        self.indices = (i, j)
        self.value = value
        super().__init__(f"bracket not antisymmetric at basis pair ({i}, {j}): {value}")


class JacobiViolation(HamfluxError):
    """The cyclic Jacobi sum is nonzero on some basis triple."""

    def __init__(self, i, j, k, residual):
        self.indices = (i, j, k)
        self.residual = residual
        super().__init__(f"Jacobi identity fails on basis triple ({i}, {j}, {k})")


class HomViolation(HamfluxError):
    """An action map fails rho([x,y]) = rho(x)rho(y) - rho(y)rho(x)."""

    def __init__(self, i, j):
        self.indices = (i, j)
        super().__init__(f"action is not a Lie algebra homomorphism at basis pair ({i}, {j})")


class BracketViolation(HamfluxError):
    """A claimed algebra map fails phi([x,y]) = [phi(x), phi(y)]."""

    def __init__(self, i, j):
        self.indices = (i, j)
        super().__init__(f"map does not preserve brackets at basis pair ({i}, {j})")


# -- cochain calculus --------------------------------------------------------

class UnsupportedDegree(HamfluxError):
    """Cochain degree outside the implemented range."""


class DegreeZero(HamfluxError):
    """Contraction of a degree-0 cochain is undefined."""


# -- hamiltonian structure ---------------------------------------------------

class NotAdmissible(HamfluxError):
    """Vector has no hamiltonian lift (it is outside the admissible subspace)."""


class NotSymplectic(HamfluxError):
    """Element is outside the symplectic subalgebra."""


class NotInImage(HamfluxError):
    """One-form is not a contraction i_xi omega for xi in the allowed subalgebra."""


class InvariantViolation(HamfluxError):
    """A pair (v, xi) fails its defining equation d_h v = i_xi omega."""


# -- momentum maps and extensions --------------------------------------------

class ImageNotHamiltonian(HamfluxError):
    """zeta sends some basis element outside the hamiltonian subalgebra."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"zeta(basis {index}) is not hamiltonian")


class NotPrimitive(HamfluxError):
    """Supplied 1-cochain is not a primitive of omega (d_h alpha != omega)."""


# -- group-level data ---------------------------------------------------------

class NotAutomorphism(HamfluxError):
    """Candidate Ad matrix is not an invertible bracket-preserving map."""


class NotInvertible(HamfluxError):
    """Candidate module-level matrix is singular."""


class IntertwiningViolation(HamfluxError):
    """rhoV . rho(zeta X) . rhoV^-1 != rho(zeta Ad X) for some basis X."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"intertwining fails at basis element {index}")


class CocycleInvarianceViolation(HamfluxError):
    """rhoV . omega_g(X,Y) != omega_g(Ad X, Ad Y) for some basis pair."""

    def __init__(self, i, j):
        self.indices = (i, j)
        super().__init__(f"pullback cocycle not invariant at basis pair ({i}, {j})")


class ValueOutsideInvariants(HamfluxError):
    """Group cocycle value escapes the invariant vectors."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"cocycle value at basis element {index} is not invariant")


class NotNilpotent(HamfluxError):
    """Matrix exponential requested for a non-nilpotent matrix."""


# -- conservation checks ------------------------------------------------------

class HypothesisViolation(HamfluxError):
    """A conservation-statement premise fails; names which one."""

    def __init__(self, premise, detail=""):
        self.premise = premise
        msg = f"hypothesis violated: {premise}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


# -- instance builders ---------------------------------------------------------

class NotCentral(HamfluxError):
    """Designated subspace is not central in the ambient algebra."""


class NotAssociative(HamfluxError):
    """Multiplication table fails associativity."""

    def __init__(self, i, j, k):
        self.indices = (i, j, k)
        super().__init__(f"associativity fails on basis triple ({i}, {j}, {k})")


class GenerationFailed(HamfluxError):
    """Randomized instance search exhausted its attempt budget."""


# -- problem files -------------------------------------------------------------

class ParseError(HamfluxError):
    """Problem file is malformed; carries a JSON path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class ValidationError(HamfluxError):
    """Problem file parsed but its mathematical content is inconsistent."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
