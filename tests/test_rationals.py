import random
from fractions import Fraction

import pytest

from kproper import (
    BlowupSurface,
    Fan,
    StabilizerAlpha,
    SuppliedAlpha,
    ToricDivisor,
    abstract_slice,
    check_properness,
    dp6_fan,
    dp6_family,
    make_polytope,
    sweep_lambda,
)
from kproper.alpha import symmetry_context
from kproper.polytope import HalfSpace, LinearEquation, Polytope
from kproper.properness import dervan_alpha_bound
from kproper.rationals import (
    GeometryError,
    InputError,
    ValidationError,
    det,
    dot,
    format_rational,
    is_unimodular,
    mat_mul,
    parse_rational,
    primitive,
    solve_exact,
    solve_linear_system,
)

F = Fraction


def test_parse_canonical_forms():
    assert parse_rational("0") == 0
    assert parse_rational("-7") == -7
    assert parse_rational("5/6") == Fraction(5, 6)
    assert parse_rational("-1/1000000") == Fraction(-1, 10**6)


@pytest.mark.parametrize("bad", ["2/4", "3/1", "+3", "-0", "03", "1/0", "1/-2", "", "x", "1.5"])
def test_parse_rejects_non_canonical(bad):
    with pytest.raises(InputError):
        parse_rational(bad)


def test_parse_error_names_canonical_form():
    with pytest.raises(InputError, match='"1/2"'):
        parse_rational("2/4")


def test_format_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        q = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        assert parse_rational(format_rational(q)) == q


def test_primitive_examples():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((1, 0)) == (1, 0)
    assert primitive((0, -3)) == (0, -1)


def test_primitive_zero_vector_errors():
    with pytest.raises(GeometryError, match="zero vector"):
        primitive((0, 0))


def test_primitive_idempotent():
    rng = random.Random(11)
    for _ in range(100):
        v = tuple(rng.randint(-20, 20) for _ in range(rng.choice((2, 3))))
        if all(x == 0 for x in v):
            continue
        assert primitive(primitive(v)) == primitive(v)


def test_solve_exact_identity():
    assert solve_exact(((1, 0), (0, 1)), (3, 7)) == (3, 7)


def test_solve_exact_singular_is_none():
    assert solve_exact(((1, 1), (2, 2)), (1, 1)) is None


def test_solve_exact_hand_elimination():
    # row reduce [[1,0],[1,1]] | (-1,-1): x = -1, then y = -1 - x = 0
    assert solve_exact(((1, 0), (1, 1)), (-1, -1)) == (-1, 0)


def test_solve_exact_dimension_mismatch():
    with pytest.raises(ValidationError):
        solve_exact(((1, 0), (0, 1)), (1, 2, 3))


def test_solve_exact_satisfies_system():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.choice((2, 3))
        a = tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)) for _ in range(n))
        b = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
        x = solve_exact(a, b)
        if x is None:
            assert det(a) == 0
        else:
            assert tuple(dot(row, x) for row in a) == b


def test_is_unimodular():
    assert is_unimodular(((1, 0), (0, 1)))
    assert is_unimodular(((0, -1), (1, -1)))
    assert not is_unimodular(((2, 0), (0, 1)))


def test_is_unimodular_rejects_non_integer():
    with pytest.raises(ValidationError):
        is_unimodular(((Fraction(1, 2), 0), (0, 1)))


def test_exact_field_identities():
    rng = random.Random(17)
    for _ in range(300):
        x = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        y = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        assert (x + y) - y == x
        if y != 0:
            assert (x * y) / y == x


def test_solve_linear_system_nullspace():
    solution = solve_linear_system([[1, 1, 0]], [2])
    assert solution is not None
    particular, basis = solution
    assert dot(particular, (1, 1, 0)) == 2
    assert len(basis) == 2
    for v in basis:
        assert dot(v, (1, 1, 0)) == 0


def test_solve_linear_system_inconsistent():
    assert solve_linear_system([[1, 0], [1, 0]], [1, 2]) is None


def test_integer_products_stay_integers():
    # no int() is needed to read an integer product back
    assert type(dot((1, 2), (3, 4))) is int and dot((1, 2), (3, 4)) == 11
    rotation = ((0, -1), (1, -1))
    square = mat_mul(rotation, rotation)
    assert square == ((-1, 1), (-1, 0))
    assert all(type(x) is int for row in square for x in row)


# ---------------------------------------------------------------------------
# the Python API refuses floats, as the CLI does: a float's binary value is
# never the rational that was meant (0.1 would be 3602879701896397/2^55)

X = 0.1
MINUS_K = ToricDivisor(dp6_fan(), (1,) * 6)
SWEEP = (F(1, 2), F(2), F(1, 10), F(1, 100))
TRIANGLE = ((0, 1), (1, 2), (0, 2))
FLOAT_INPUTS = {
    "sweep range": lambda: sweep_lambda(dp6_family(), X, 2, F(1, 100), F(1, 10**6)),
    "sweep endpoint": lambda: sweep_lambda(dp6_family(), *SWEEP, 1, [F(5, 6), X]),
    "check epsilon": lambda: check_properness(MINUS_K, X, StabilizerAlpha()),
    "supplied alpha": lambda: check_properness(MINUS_K, 1, SuppliedAlpha(X)),
    "toric coefficient": lambda: ToricDivisor(dp6_fan(), (1,) * 5 + (X,)),
    "picard coordinate": lambda: BlowupSurface(2).cls((1, X, 0)),
    "class times a float": lambda: MINUS_K * X,
    "float times a class": lambda: X * MINUS_K,
    "family lambda": lambda: dp6_family().class_at(X),
    "polytope offset": lambda: make_polytope(2, [((1, 0), X), ((0, 1), 0), ((-1, -1), 1)]),
    "polytope equation": lambda: make_polytope(2, [((1, 0), 0)], [((0, 1), X)]),
    "slice form": lambda: abstract_slice(2, X, 1, [("c", 1, 1)]),
    "slice curve": lambda: abstract_slice(2, 1, 1, [("c", X, 1)]),
    "dp1 bound": lambda: dervan_alpha_bound(X),
    "primitive vector": lambda: primitive((X, 1)),
    # Fraction() once took a float's binary value in a half-space, an equation or a solver
    "half-space offset": lambda: Polytope(2, (HalfSpace((1, 0), X), HalfSpace((0, 1), 0),
                                              HalfSpace((-1, -1), -1))),
    "equation rhs": lambda: Polytope(2, (HalfSpace((1, 0), 0),), (LinearEquation((1, -1), X),)),
    "solve 2x2": lambda: solve_exact(((1, 0), (0, 1)), (X, 0)),
    "solve 3x3": lambda: solve_exact(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, X, 0)),
    "determinant": lambda: det(((1, 0), (0, X))),
    "linear system": lambda: solve_linear_system([[1, X]], [0]),
    # int() once truncated a ray, a normal or a group matrix instead of refusing it
    "fan ray": lambda: Fan(2, ((X, 0), (0, 1), (-1, -1)), TRIANGLE),
    "polytope normal": lambda: make_polytope(2, [((X, 0), 0), ((0, 1), 0), ((-1, -1), 1)]),
    "group matrix": lambda: symmetry_context(MINUS_K, "explicit", [((X, -1), (1, -1))]),
}


@pytest.mark.parametrize("name", sorted(FLOAT_INPUTS))
def test_the_library_refuses_floats(name):
    with pytest.raises(InputError, match=r"^0\.1 is not an exact rational"):
        FLOAT_INPUTS[name]()


# a ray, a normal, an equation coefficient or a group matrix entry that is no
# integer is refused, naming the value, where int() once truncated it
NON_INTEGER_INPUTS = {
    "float ray": (lambda: Fan(2, ((1.7, 0), (0, 1), (-1, -1)), TRIANGLE),
                  r"^1\.7 is not an exact rational"),
    "fraction ray": (lambda: Fan(2, ((F(3, 2), 0), (0, 1), (-1, -1)), TRIANGLE),
                     r"^Fraction\(3, 2\) is not an integer"),
    "float normal": (lambda: make_polytope(2, [((1.5, 0), 0), ((0, 1), 0), ((-1, -1), 1)]),
                     r"^1\.5 is not an exact rational"),
    "fraction normal": (lambda: make_polytope(2, [((F(3, 2), 0), 0), ((0, 1), 0),
                                                  ((-1, -1), 1)]),
                        r"^Fraction\(3, 2\) is not an integer"),
    "fraction equation": (lambda: make_polytope(2, [((1, 0), 0)], [((F(1, 2), 1), 0)]),
                          r"^Fraction\(1, 2\) is not an integer"),
    # truncated, this matrix was the order-3 rotation of the dp6 fan
    "fraction group matrix": (lambda: symmetry_context(MINUS_K, "explicit",
                                                       [((F(1, 2), -1), (1, -1))]),
                              r"^Fraction\(1, 2\) is not an integer"),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_INPUTS))
def test_the_library_refuses_non_integer_rays_and_normals(name):
    build, message = NON_INTEGER_INPUTS[name]
    with pytest.raises(InputError, match=message):
        build()


def test_integral_fractions_still_make_rays():
    fan = Fan(2, ((F(2, 2), 0), (0, F(1)), (-1, -1)), TRIANGLE)
    assert fan.rays == ((1, 0), (0, 1), (-1, -1))
    assert all(type(x) is int for ray in fan.rays for x in ray)
