"""Exact rational scalars and small integer/rational linear algebra.

Every module downstream (fans, polytopes, Picard lattices, feasibility
sweeps) routes its arithmetic through the helpers here so that no floating
point can leak into a verdict.  The exact-number rule lives here: a
caller's number is read by `as_fraction`, or by `exact_integer` where an
integer is due, and anything else raises `InputError` naming it.  No value
is cast with `int()` and no caller's value with `Fraction()`; int
arithmetic stays int (`dot`, `mat_mul`).  Scalars are ints and
`fractions.Fraction` values, which normalize eagerly (gcd-reduced,
positive denominator).  This module adds the canonical string format used
in all JSON interfaces, lattice vector helpers, the few dense exact solvers
the geometry needs, the cleared arithmetic that toric and Picard classes
share, and the integer ConstraintTable that every surface backend builds
for a class: its pairings with a finite list of curves, whose signs alone
decide positivity.

Vectors are plain tuples, matrices are tuples of rows.  All values are
immutable and safe to share between threads: records are `NamedTuple`s,
and a class that validates its input or keeps caches is a `Frozen`.
"""

from __future__ import annotations

import numbers
import re
import sys
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import NamedTuple, Sequence, Union

Scalar = Union[int, Fraction]
Vector = tuple  # tuple of int or Fraction
Matrix = tuple  # tuple of row tuples


class KProperError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(KProperError):
    """Structurally invalid mathematical data (fan, polytope, divisor)."""


class InputError(KProperError):
    """Malformed user input: files, JSON, rational strings, CLI flags."""


class GeometryError(KProperError):
    """An operation's mathematical precondition does not hold."""


_RATIONAL_RE = re.compile(r"-?\d+(/\d+)?")


def parse_rational(text: str, where: str = "") -> Fraction:
    """Parse a canonical rational string: reduced "p/q" with q >= 2, or "p".

    The format is deliberately strict so that serialized data has a unique
    spelling.  Non-canonical strings like "2/4", "3/1", "+3" or "-0" are
    rejected with a message naming the canonical form.
    """
    context = f" in {where}" if where else ""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        # escaped, so a newline in the text cannot split the error line
        shown = str(text).encode("unicode_escape").decode("ascii")
        raise InputError(f'malformed rational "{shown}"{context}; expected canonical "p/q" or "p"')
    num_s, _, den_s = text.partition("/")
    try:
        num, den = int(num_s), int(den_s or 1)
    except ValueError as exc:
        # more digits than the interpreter converts
        raise InputError(f"rational{context} is too long: {exc}") from None
    if den == 0:
        raise InputError(f'malformed rational "{text}"{context}; zero denominator')
    value = Fraction(num, den)
    canonical = format_rational(value)
    if canonical != text:
        raise InputError(f'non-canonical rational "{text}"{context}; expected "{canonical}"')
    return value


def _exact(x) -> Fraction:
    """x as a Fraction, for an exact rational of any type other than
    Fraction.  A float, a Decimal, a string or anything else raises,
    naming x: a float's binary value is never the number that was meant."""
    if type(x) is int or isinstance(x, numbers.Rational):
        return Fraction(x)
    raise InputError(f"{x!r} is not an exact rational; pass an int or a Fraction")


def exact_integer(x) -> int:
    """x as an int, for an exact integer; anything else raises, naming x."""
    f = x if type(x) is int else _exact(x)
    if f.denominator != 1:
        raise InputError(f"{x!r} is not an integer; pass an int or a Fraction with denominator 1")
    return f.numerator


def as_fraction(x: Scalar) -> Fraction:
    """x as a Fraction, for an exact rational; anything else raises, naming x."""
    return x if type(x) is Fraction else Fraction(x) if type(x) is int else _exact(x)


def integer_ratio(x: Scalar) -> tuple[int, int]:
    """(p, q) with x = p/q in least terms and q > 0, built from an int or a
    Fraction without a new Fraction."""
    return (x if type(x) in (int, Fraction) else _exact(x)).as_integer_ratio()


def format_rational(q: Scalar) -> str:
    """Canonical string form: "p/q" with q >= 2, or "p" when q = 1."""
    return format_ratio(*integer_ratio(q))


def format_ratio(p: int, q: int) -> str:
    """format_rational(p / q) for integers p and q > 0, with no Fraction built."""
    g = gcd(p, q)
    try:
        return str(p // g) if q == g else f"{p // g}/{q // g}"
    except ValueError:
        raise InputError(
            f"a result has more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's limit for writing an integer"
        ) from None


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries, keeping direction.

    Raises for the zero vector, which has no primitive representative.
    """
    entries = tuple(map(exact_integer, v))
    g = gcd(*entries) if entries else 0
    if g == 0:
        raise GeometryError("zero vector has no primitive representative")
    return tuple(x // g for x in entries)


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """The exact sum of the products u_i v_i: an int for int vectors."""
    if len(u) != len(v):
        raise ValidationError(f"dot product dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def vec_add(u: Sequence[Scalar], v: Sequence[Scalar]) -> tuple:
    if len(u) != len(v):
        raise ValidationError(f"vector dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence[Scalar], v: Sequence[Scalar]) -> tuple:
    if len(u) != len(v):
        raise ValidationError(f"vector dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c: Scalar, v: Sequence[Scalar]) -> tuple:
    return tuple(c * x for x in v)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def echelon(rows: list) -> tuple[int, list[int]]:
    """Bareiss's fraction-free row echelon form of a list of int row lists,
    in place, every division exact: (the sign of its row swaps, the pivot
    column of each row not zero).  The rows keep their span, and a square
    matrix of full rank ends in its determinant times that sign."""
    sign, prev, pivots = 1, 1, []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        top, lead = rows[r], rows[r][col]
        for row in rows[r + 1:]:
            row[col:] = [(x * lead - row[col] * y) // prev for x, y in zip(row[col:], top[col:])]
        prev = lead
        pivots.append(col)
    return sign, pivots


def det(m: Matrix) -> Fraction:
    """Exact determinant of a square matrix by `echelon`, each row cleared
    to integers over its own denominator."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValidationError("determinant requires a square matrix")
    cleared = [clear_denominators(row) for row in m]
    rows = [list(nums) for _, nums in cleared]
    sign, pivots = echelon(rows)
    d = 0 if len(pivots) < n else sign * rows[-1][-1] if n else 1
    return Fraction(d, prod(den for den, _ in cleared))


def is_unimodular(m: Matrix) -> bool:
    """True iff the square matrix has determinant +-1; its entries are read
    by `exact_integer`."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValidationError("unimodularity requires a square matrix")
    return abs(det([[exact_integer(x) for x in row] for row in m])) == 1


def solve_exact(a: Matrix, b: Sequence[Scalar]):
    """Solve A x = b exactly for square A; return None when A is singular.

    A 2x2 system is solved by Cramer's rule, before the shape checks of
    the general case, which it passes.  When its entries and b are
    ints and det A = +-1 the solution is a tuple of ints (the cone
    functionals of a smooth surface fan); every other solution is a tuple
    of Fractions.  A larger system is solved in integers, each row cleared
    with its right-hand side and the rows brought to `echelon` form."""
    n = len(a)
    if n == 2 and len(a[0]) == 2 and len(a[1]) == 2 and len(b) == 2:
        (p, q), (r, s), (u, v) = *a, b
        ints = type(p) is type(q) is type(r) is type(s) is type(u) is type(v) is int
        if not ints:
            p, q, r, s, u, v = map(as_fraction, (p, q, r, s, u, v))
        d = p * s - q * r
        if d == 0:
            return None
        x, y = s * u - q * v, p * v - r * u
        if ints and (d == 1 or d == -1):
            return (x * d, y * d)
        return (Fraction(x, d), Fraction(y, d))
    if any(len(row) != n for row in a):
        raise ValidationError("solve_exact requires a square matrix")
    if len(b) != n:
        raise ValidationError(f"solve_exact dimension mismatch: matrix {n}x{n}, rhs {len(b)}")
    if not n:
        raise ValidationError("empty system has no well-defined unknown count")
    rows = [list(clear_denominators((*row, y))[1]) for row, y in zip(a, b)]
    if echelon(rows)[1] != list(range(n)):
        return None
    # back-substitution in integers: y_i = d x_i for the last pivot d = +-det A
    d, ys = rows[-1][n - 1], [0] * n
    for i in reversed(range(n)):
        ys[i] = (d * rows[i][n] - sum(map(mul, rows[i][i + 1:n], ys[i + 1:]))) // rows[i][i]
    return tuple(Fraction(y, d) for y in ys)


def solve_linear_system(rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]):
    """Solve a (possibly rectangular) exact linear system.

    Returns (particular_solution, nullspace_basis) with the basis given as a
    tuple of vectors, or None when the system is inconsistent.
    """
    m = len(rows)
    if len(rhs) != m:
        raise ValidationError("system dimension mismatch")
    if m == 0:
        raise ValidationError("empty system has no well-defined unknown count")
    n = len(rows[0])
    aug = [[*map(as_fraction, row), as_fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    particular = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        particular[col] = aug[i][n]
    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -aug[i][fc]
        basis.append(tuple(vec))
    return tuple(particular), tuple(basis)


def clear_denominators(values: Sequence[Scalar]) -> tuple[int, tuple[int, ...]]:
    """Return (c, (c*v as ints)) with c the least positive common multiplier."""
    fracs = [v if type(v) in (int, Fraction) else _exact(v) for v in values]
    c = lcm(*(f.denominator for f in fracs)) if fracs else 1
    return c, tuple(f.numerator * (c // f.denominator) for f in fracs)


class Frozen:
    """A value of the fields named by `_fields`, which __init__ puts in
    vars(self): == compares them within one class, the hash is their tuple's
    (kept once computed), the repr Name(field=value, ...), and no attribute
    is set after __init__.  Caches filled on first use go in vars(self) too."""

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return other is self or self._key() == other._key()

    def __hash__(self):
        values = vars(self)
        if "_hash" not in values:
            values["_hash"] = hash(self._key())
        return values["_hash"]

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete field {name!r}")

    __delattr__ = __setattr__


class ClearedClass(Frozen):
    """The arithmetic of a class stored cleared, and its value (home, N,
    nums): den = N > 0, the least common denominator of its rationals, nums
    the integers N times them, and home the variety in the field `_home`.
    +, - and * return a new class with empty caches; adding classes of two
    kinds raises, and classes on two varieties raise `_apart`."""

    def _key(self) -> tuple:
        return vars(self)[self._home], self.den, self.nums

    def _with_integers(self, den: int, nums) -> "ClearedClass":
        """The class nums / den on this variety, for den > 0, stored in least
        terms: the constructor from integers."""
        g = gcd(den, *nums)
        out = object.__new__(type(self))
        home = self._home
        vars(out).update({home: vars(self)[home], "den": den // g,
                          "nums": tuple([x // g for x in nums])})
        return out

    def __add__(self, other):
        if type(other) is not type(self):
            raise ValidationError(
                f"cannot add a {type(other).__name__} to a {type(self).__name__}")
        here, there = vars(self)[self._home], vars(other)[self._home]
        if here is not there and here != there:
            raise ValidationError(self._apart)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return self._with_integers(den, [x * a + y * b for x, y in zip(self.nums, other.nums)])

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, c):
        p, q = integer_ratio(c)
        return self._with_integers(self.den * q, [p * x for x in self.nums])

    __rmul__ = __mul__

    def __neg__(self):
        return (-1) * self


class ConstraintTable(NamedTuple):
    """A class L against the finite list of curves C_i that decides
    positivity of x L + y K: the walls of a toric surface, the curves that
    span the cone of curves of a blowup of P^2 or the test curves of a
    slice.

    L.C_i = nums[i] / den and K.C_i = k_nums[i] / den with den > 0.  There
    is one row per distinct pairing vector: curves that pair alike with
    every class of the table's kind (the cone curves of a blowup of P^2
    that differ only inside a block of equal multiplicities) share one row
    under the label of the first of them.  Rows are sorted into the
    backend's tie order, so a binding constraint is the first row at the
    minimum.  l_sq and k_dot_l are L^n and K.L^{n-1}.  The rows are taken
    to span the cone of curves, so x L + y K is ample exactly when it pairs
    positively with every row (Kleiman).

    With one K.C on every row, the first row at the minimum is the first at
    min(nums) for x > 0, at max(nums) for x < 0, and row 0 for x = 0.  Picard
    nums fill packed slots of W bits that hold |nums| < 2^(W-1) (picard)."""

    labels: tuple[str, ...]
    nums: tuple[int, ...]
    k_nums: tuple[int, ...]
    den: int
    l_sq: Fraction
    k_dot_l: Fraction


def constraint_table(labels, l_pairings, k_pairings, *forms) -> ConstraintTable:
    """The table of rational pairings over one denominator; forms are the
    Fractions L^n and K.L^{n-1}."""
    den, nums = clear_denominators((*l_pairings, *k_pairings))
    return ConstraintTable(tuple(labels), nums[: len(labels)], nums[len(labels) :], den, *forms)

