"""Exact rational scalars and small integer/rational linear algebra.

Every module downstream (fans, polytopes, Picard lattices, feasibility
sweeps) routes its arithmetic through the helpers here so that no floating
point can leak into a verdict.  Scalars are `fractions.Fraction` values,
which already normalize eagerly (gcd-reduced, positive denominator).  This
module adds the canonical string format used in all JSON interfaces, lattice
vector helpers, the few dense exact solvers the geometry needs, the
integer ConstraintTable that every surface backend builds for a class, and
exact real root isolation for integer polynomials of degree at most 3.

Vectors are plain tuples, matrices are tuples of rows.  All values are
immutable and safe to share between threads.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, lcm
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


_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


def parse_rational(text: str, where: str = "") -> Fraction:
    """Parse a canonical rational string: reduced "p/q" with q >= 2, or "p".

    The format is deliberately strict so that serialized data has a unique
    spelling.  Non-canonical strings like "2/4", "3/1", "+3" or "-0" are
    rejected with a message naming the canonical form.
    """
    context = f" in {where}" if where else ""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise InputError(f'malformed rational "{text}"{context}; expected canonical "p/q" or "p"')
    if "/" in text:
        num_s, den_s = text.split("/")
        if int(den_s) == 0:
            raise InputError(f'malformed rational "{text}"{context}; zero denominator')
        value = Fraction(int(num_s), int(den_s))
    else:
        value = Fraction(int(text))
    canonical = format_rational(value)
    if canonical != text:
        raise InputError(f'non-canonical rational "{text}"{context}; expected "{canonical}"')
    return value


def json_int(value, where: str) -> int:
    """A JSON integer; booleans, floats and strings raise InputError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{where} must be an integer, got {json.dumps(value, default=repr)}")
    return value


def json_int_vector(value, where: str) -> tuple[int, ...]:
    """A JSON list of integers, as an int tuple."""
    if not isinstance(value, list):
        raise InputError(
            f"{where} must be a list of integers, got {json.dumps(value, default=repr)}"
        )
    return tuple(json_int(x, f"{where}[{i}]") for i, x in enumerate(value))


def format_rational(q: Scalar) -> str:
    """Canonical string form: "p/q" with q >= 2, or "p" when q = 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries, keeping direction.

    Raises for the zero vector, which has no primitive representative.
    """
    entries = tuple(v)
    if any(not isinstance(x, int) for x in entries):
        raise ValidationError(f"primitive requires integer entries, got {entries!r}")
    g = gcd(*entries) if entries else 0
    if g == 0:
        raise GeometryError("zero vector has no primitive representative")
    return tuple(x // g for x in entries)


def is_primitive(v: Sequence[int]) -> bool:
    entries = tuple(v)
    return bool(entries) and all(isinstance(x, int) for x in entries) and gcd(*entries) == 1


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Fraction:
    if len(u) != len(v):
        raise ValidationError(f"dot product dimension mismatch: {len(u)} vs {len(v)}")
    return Fraction(sum(a * b for a, b in zip(u, v)))


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


def mat_vec(m: Matrix, v: Sequence[Scalar]) -> tuple:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def det(m: Matrix) -> Fraction:
    """Exact determinant by fraction elimination (square matrices only)."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValidationError("determinant requires a square matrix")
    rows = [[Fraction(x) for x in row] for row in m]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        result *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return sign * result


def is_unimodular(m: Matrix) -> bool:
    """True iff the matrix is square, integral, and has determinant +-1."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValidationError("unimodularity requires a square matrix")
    if any(not isinstance(x, int) for row in m for x in row):
        raise ValidationError("unimodularity requires integer entries")
    return abs(det(m)) == 1


def solve_exact(a: Matrix, b: Sequence[Scalar]):
    """Solve A x = b exactly for square A; return None when A is singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValidationError("solve_exact requires a square matrix")
    if len(b) != n:
        raise ValidationError(f"solve_exact dimension mismatch: matrix {n}x{n}, rhs {len(b)}")
    rows = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return tuple(rows[i][n] for i in range(n))


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
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
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
    fracs = [Fraction(v) for v in values]
    c = lcm(*(f.denominator for f in fracs)) if fracs else 1
    return c, tuple(f.numerator * (c // f.denominator) for f in fracs)


@dataclass(frozen=True)
class ConstraintTable:
    """A class L against the finite list of curves C_i that decides
    positivity of x L + y K: the walls of a toric surface, the exceptional
    curves of a blowup of P^2 or the test curves of a slice.

    L.C_i = nums[i] / den and K.C_i = k_nums[i] / den with den > 0.  Rows
    are sorted into the backend's tie order, so a binding constraint is the
    first row at the minimum.  l_sq, k_dot_l and k_sq are L^n, K.L^{n-1}
    and K^n.  With safeguard set, positivity also needs (x L + y K)^2 > 0
    (the Nakai test on blowups of P^2)."""

    labels: tuple[str, ...]
    nums: tuple[int, ...]
    k_nums: tuple[int, ...]
    den: int
    l_sq: Fraction
    k_dot_l: Fraction
    k_sq: Fraction
    safeguard: bool = False


def constraint_table(labels, l_pairings, k_pairings, *forms) -> ConstraintTable:
    """The table of rational pairings over one denominator; forms are the
    Fractions L^n, K.L^{n-1} and K^n."""
    den, nums = clear_denominators((*l_pairings, *k_pairings))
    return ConstraintTable(tuple(labels), nums[: len(labels)], nums[len(labels) :], den, *forms)


def integer_vector(v: Sequence[Scalar]) -> tuple[int, ...]:
    """Cast an exactly-integral rational vector to int entries."""
    out = []
    for x in v:
        f = Fraction(x)
        if f.denominator != 1:
            raise ValidationError(f"expected integral vector, got {tuple(v)!r}")
        out.append(f.numerator)
    return tuple(out)


# ---------------------------------------------------------------------------
# real roots of integer polynomials
#
# A polynomial is a tuple of coefficients, constant term first.  Signs are
# read in integers (Sturm sequences: Basu, Pollack and Roy, *Algorithms in
# Real Algebraic Geometry*, ch. 2), so no root is ever approximated.


def poly_mul(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return tuple(out)


def poly_combine(*terms) -> tuple[int, ...]:
    """The sum of c * p over the (c, p) pairs."""
    out = [0] * max(len(p) for _, p in terms)
    for c, p in terms:
        for i, x in enumerate(p):
            out[i] += c * x
    return tuple(out)


def _sign(p, x: Fraction) -> int:
    return _sign_at(p, x.numerator, x.denominator)


def _sign_at(p, a: int, b: int) -> int:
    """The sign of p(a/b) for b > 0, read off the integer p(a/b) b^deg."""
    acc, scale = p[-1], 1
    for c in p[-2::-1]:
        scale *= b
        acc = acc * a + c * scale
    return (acc > 0) - (acc < 0)


def _trim(p) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _primitive_poly(p) -> tuple[int, ...]:
    """An integer polynomial divided by the gcd of its coefficients; the
    signs of its values do not move."""
    g = gcd(*p)
    return tuple(c // g for c in p)


def _normalized(p) -> tuple[int, ...]:
    """The primitive polynomial with a positive leading coefficient that has
    the roots of p."""
    p = _primitive_poly(p)
    return p if p[-1] > 0 else tuple(-c for c in p)


def _pseudo_rem(p, q) -> list:
    """A positive integer multiple of the remainder of p by q."""
    rem, lead, sign = list(p), q[-1], 1
    while rem and len(rem) >= len(q):
        f, shift = rem[-1], len(rem) - len(q)
        rem = [c * lead for c in rem]
        for i, c in enumerate(q):
            rem[shift + i] -= f * c
        rem = _trim(rem)
        sign = sign if lead > 0 else -sign
    return rem if sign > 0 else [-c for c in rem]


def _exact_quotient(p, q) -> tuple[int, ...]:
    """p / q for integer polynomials with q primitive and dividing p, which
    leaves an integer quotient (Gauss's lemma)."""
    rem, quo = list(p), [0] * (len(p) - len(q) + 1)
    for shift in reversed(range(len(quo))):
        quo[shift] = f = rem[shift + len(q) - 1] // q[-1]
        for i, c in enumerate(q):
            rem[shift + i] -= f * c
    return tuple(quo)


def _derivative(p) -> list:
    return [i * c for i, c in enumerate(p)][1:]


def _isolate(p) -> list:
    """Open intervals (lo, hi) with rational ends that are not roots, one
    per real root of the squarefree integer polynomial p."""
    seq = [p, _derivative(p)]
    while len(seq[-1]) > 1:
        rem = _pseudo_rem(seq[-2], seq[-1])
        if not rem:
            break
        seq.append(_primitive_poly([-c for c in rem]))

    def changes(x) -> int:
        signs = [s for s in (_sign(q, x) for q in seq) if s]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    # Cauchy: every root has |x| < 1 + max |p_i / p_deg|
    bound = Fraction(2 + max(map(abs, p[:-1])) // abs(p[-1]))
    out, stack = [], [(-bound, bound, changes(-bound), changes(bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            out.append((lo, hi))
        elif v_lo - v_hi > 1:
            k = 2
            while _sign(p, mid := lo + (hi - lo) / k) == 0:
                k += 1
            v_mid = changes(mid)
            stack += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    return out


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational of least denominator strictly between lo < hi (the one
    nearest 0 among integers)."""
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -simplest_between(-hi, -lo)
    base = floor(lo)
    if base + 1 < hi:
        return Fraction(base + 1)
    # base <= lo < hi <= base + 1: continue with the continued fraction
    if lo == base:
        return base + Fraction(1, floor(1 / (hi - base)) + 1)
    return base + 1 / simplest_between(1 / (hi - base), 1 / (lo - base))


def _rational_root(p, lo, hi) -> Fraction | None:
    """The root of p in (lo, hi) when it is rational.  A rational root a/b
    has b | lead (the rational root theorem), so it is k / |lead| for an
    integer k, and an interval narrower than 1 / |lead| holds at most one
    such number."""
    lead = abs(p[-1])
    # bisect in integers: the interval is (a/den, b/den)
    den = lo.denominator * hi.denominator
    a, b = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    sign_a = _sign_at(p, a, den)
    while (b - a) * lead >= den:
        mid, a, b, den = a + b, 2 * a, 2 * b, 2 * den
        sign = _sign_at(p, mid, den)
        if sign == 0:
            return Fraction(mid, den)
        a, b = (mid, b) if sign == sign_a else (a, mid)
    k = a * lead // den + 1
    return Fraction(k, lead) if k * den < b * lead and _sign_at(p, k, lead) == 0 else None


class AlgebraicRoot(NamedTuple):
    """The one root of the irreducible integer polynomial poly (degree 2 or
    3, so with no rational root) in the open interval (lo, hi)."""

    poly: tuple[int, ...]
    lo: Fraction
    hi: Fraction

    def halved(self) -> "AlgebraicRoot":
        mid = (self.lo + self.hi) / 2
        if _sign(self.poly, mid) == _sign(self.poly, self.lo):
            return self._replace(lo=mid)
        return self._replace(hi=mid)

    def exceeds(self, x: Fraction) -> bool:
        if x <= self.lo or x >= self.hi:
            return x <= self.lo
        return _sign(self.poly, x) == _sign(self.poly, self.lo)


def real_roots(polys, lo=None, hi=None) -> tuple:
    """The distinct real roots in (lo, hi) of integer polynomials of degree
    at most 3, in increasing order: a Fraction for each rational root and
    an AlgebraicRoot for each other one, whose interval lies in (lo, hi) and
    holds no other root.  lo and hi are rationals, None for no bound.

    Each squarefree part is isolated by Sturm sequences and its rational
    roots are divided out.  What is left has degree 2 or 3 and no rational
    root, so it is irreducible: equal leftovers share their roots and
    different ones share none."""
    rational, minimal = set(), set()
    for p in {_normalized(p) for p in map(_trim, polys) if len(p) > 1}:
        if len(p) > 4:
            raise GeometryError("internal inconsistency: root isolation needs degree <= 3")
        # the squarefree part p / gcd(p, p')
        g, h = p, _derivative(p)
        while h:
            g, h = h, _pseudo_rem(g, h)
        squarefree = p if len(g) == 1 else _primitive_poly(_exact_quotient(p, _primitive_poly(g)))
        rest = squarefree
        for a, b in _isolate(squarefree):
            root = _rational_root(squarefree, a, b)
            if root is not None:
                rational.add(root)
                rest = _exact_quotient(rest, (-root.numerator, root.denominator))
        if len(rest) > 2:
            minimal.add(_normalized(rest))
    rational = sorted(r for r in rational if (lo is None or lo < r) and (hi is None or r < hi))
    algebraic = []
    for root in (AlgebraicRoot(q, a, b) for q in sorted(minimal) for a, b in _isolate(q)):
        # no rational bound or root is algebraic, so halving separates them
        while any(end is not None and root.lo < end < root.hi for end in (lo, hi)):
            root = root.halved()
        if (lo is not None and root.hi <= lo) or (hi is not None and root.lo >= hi):
            continue
        while (k := bisect_right(rational, root.lo)) < len(rational) and rational[k] < root.hi:
            root = root.halved()
        algebraic.append(root)
    # sorted by lo, the intervals are disjoint once neighbours are
    overlap = True
    while overlap:
        algebraic.sort(key=lambda r: r.lo)
        overlap = False
        for k in range(len(algebraic) - 1):
            left, right = algebraic[k], algebraic[k + 1]
            while left.hi > right.lo and right.hi > left.lo:
                left, right, overlap = left.halved(), right.halved(), True
            algebraic[k], algebraic[k + 1] = left, right
    return tuple(sorted(
        (*rational, *algebraic),
        key=lambda r: (r.lo, 1) if isinstance(r, AlgebraicRoot) else (r, 0),
    ))
