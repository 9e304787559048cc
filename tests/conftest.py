import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from artinalg import build_algebra, parse_polynomial, q_algebra

# The golden example: Q[Y,X] / <X^3 Y, X^5, X Y^3 + 2 X^3, 3 X^2 Y^2 + 5 Y^4>.
# Listing Y before X makes the order precedence Y > X, under which the
# standard monomials are the twelve-element basis the golden suite pins.
GOLDEN_VARS = ("Y", "X")
GOLDEN_GENS = ("X^3*Y", "X^5", "X*Y^3 + 2*X^3", "3*X^2*Y^2 + 5*Y^4")


def algebra_from_strings(variables, gens):
    return build_algebra(
        variables, [parse_polynomial(g, variables) for g in gens]
    )


@pytest.fixture(scope="session")
def golden():
    return algebra_from_strings(GOLDEN_VARS, GOLDEN_GENS)


@pytest.fixture(scope="session")
def q2():
    return q_algebra(2)


@pytest.fixture(scope="session")
def q3():
    return q_algebra(3)


@pytest.fixture(scope="session")
def diag_xyz():
    """Q[X,Y,Z] / <X^2 - Y^2, Y^2 - Z^2, XY, XZ, YZ>: Gorenstein, embedding dimension 3."""
    return algebra_from_strings(
        ("X", "Y", "Z"), ("X^2 - Y^2", "Y^2 - Z^2", "X*Y", "X*Z", "Y*Z")
    )


@pytest.fixture(scope="session")
def m4():
    """Q[X,Y] / <X,Y>^4."""
    return algebra_from_strings(
        ("X", "Y"), ("X^4", "X^3*Y", "X^2*Y^2", "X*Y^3", "Y^4")
    )


@pytest.fixture(scope="session")
def gorenstein_diag():
    """Q[X,Y] / <X^2 - Y^2, X*Y>: Gorenstein, embedding dimension 2."""
    return algebra_from_strings(("X", "Y"), ("X^2 - Y^2", "X*Y"))


@pytest.fixture(scope="session")
def gorenstein_mixed():
    """Q[X,Y] / <X^3, Y^2>: Gorenstein with socle x^2 y."""
    return algebra_from_strings(("X", "Y"), ("X^3", "Y^2"))


@pytest.fixture(scope="session")
def chain3():
    return algebra_from_strings(("X",), ("X^3",))


@pytest.fixture(scope="session")
def dual_numbers():
    return algebra_from_strings(("X",), ("X^2",))


@pytest.fixture(scope="session")
def split_quadratic():
    """Q[X] / <X^2 - 1>: reduced but not local."""
    return algebra_from_strings(("X",), ("X^2 - 1",))


@pytest.fixture(scope="session")
def rationals():
    """The ground field itself, over an empty variable list."""
    return algebra_from_strings((), ("0",))
