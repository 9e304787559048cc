"""Exception hierarchy shared by all modules.

Every structured failure mode has its own class so the CLI can map
failures onto exit codes without string matching.
"""


class ArtinalgError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(ArtinalgError, ValueError):
    """A numeric or named argument lies outside its documented range."""


class PolynomialSyntaxError(ArtinalgError):
    """Polynomial text does not conform to the input grammar."""


class UnknownVariableError(PolynomialSyntaxError):
    """Polynomial text mentions a variable outside the ambient list."""


class VariableMismatchError(ArtinalgError):
    """Operands live over different ambient variable lists."""


class NotZeroDimensionalError(ArtinalgError):
    """The ideal has infinitely many standard monomials."""


class TrivialAlgebraError(ArtinalgError):
    """The ideal contains 1, so the quotient algebra is zero."""


class NotLocalOverQError(ArtinalgError):
    """The algebra is not local with residue field the rationals."""


class NotGradedError(ArtinalgError):
    """The operation needs a standard grading the algebra lacks."""


class NotDegreeOneError(ArtinalgError):
    """An element expected in the degree-one component is not there."""


class NotGorensteinError(ArtinalgError):
    """The socle is not one-dimensional."""


class PrincipalAlgebraError(ArtinalgError):
    """The algebra is a principal ideal algebra, so the check is void."""


class RelationViolatedError(ArtinalgError):
    """A candidate homomorphism fails to kill an ideal generator."""

    def __init__(self, generator, residual):
        self.generator = generator
        self.residual = residual
        super().__init__(f"relation violated: {generator} maps to nonzero {residual}")


class DependentInputError(ArtinalgError):
    """Input vectors expected to be linearly independent are not."""


class WitnessInsufficientError(ArtinalgError):
    """The supplied homomorphism does not witness the required rank."""


class IncompatibleAlgebrasError(ArtinalgError):
    """A map or form is used with an algebra it does not belong to."""


class AlgebraFileError(ArtinalgError):
    """An algebra definition file cannot be parsed."""
