"""Properness criteria for the K-energy as exact decision procedures.

The main checker decides, for an ample class L, a slack parameter
epsilon > 0 and an alpha invariant source, the three conditions

  (1)  epsilon < (n+1)/n * alpha(L),
  (2)  K + epsilon L     ample,
  (3)  (epsilon - n mu) L - (n-1) K  ample,   mu = -K.L^{n-1} / L^n,

whose conjunction certifies that the K-energy is proper (on all potentials,
or on G-invariant potentials when alpha came from a symmetry group).  Two
degenerate regimes have their own modes: c1 < 0 (K ample) needs only the
non-strict form of (3), and Fano classes polarized by -K reduce to
alpha(-K) > n/(n+1).

Everything is computed in divisor form with exact rationals: conditions
(2) and (3) become finitely many linear inequalities against walls (toric
surfaces), exceptional curves (blowups of P^2) or user-supplied test curves
(abstract slices), and for a one-parameter family a L_lambda all of them are
affine in the scale a, so the feasible set of scales at fixed lambda is an
exact open interval.  Sweeps refine the feasible lambda-window endpoints by
bisection.  Every sweep family carries its alpha as integer pieces, alpha
(L_lambda) = den / max(e + f lambda): a FamilyAlpha's, like Dervan's dp1
bound, or the G-averaged coefficients of a toric family whose group fixes
no line.  Cleared of positive denominators, the probe's cut loop comparisons
against those pieces are signs of linear and cubic integer polynomials in
lambda, so each family certifies its whole lambda range once, by Descartes
bisection, into feasible, infeasible, endpoint and uncertified pieces, and
probes one point of each feasible and infeasible piece; the certificate
does not depend on epsilon.  It decides a sweep's grid piece by piece, and
each bisection point by a lookup, or by the signs of the polynomials at
lambda where no piece decides.  The certified probe runs only at both ends
of every bracket, at the witness and at the endpoint checks; each probe's
alpha cap must match the pieces.  A family without alpha pieces is
rejected, not probed point by point.

All three curve lists are one ConstraintTable per class (rationals.py),
built by wall_table, curve_table or abstract_slice, and _backend is the one
dispatch on the backend type.  Each table's rows span the cone of curves,
so the checker decides x L + y K by Kleiman's criterion alone: one integer
pass over the rows, where the first row at the least pairing binds; toric
threefolds keep the cone-functional test.  A Family pairs two classes of
one surface backend and reads its rows, its forms L_lambda^2 and K.L_lambda
and its ampleness test off the tables of L_0, L_1 and the slope class; its
alpha is data, not the backend's.  The builtin families dp6 and dp1 are
built once per process, on first use, and keep that lambda-independent
data; the certificate is built on their first sweep.

The reports are plain dataclasses; their JSON form is written and read in
cli.py alone.  Condition values are exact; cli.py formats them.  A check
report's verdict is derived from its conditions, as their conjunction, and
never stored.  A failing criterion is reported as "criterion not
satisfied", never as a properness disproof; the conditions are sufficient,
not sharp.  A weaker historical variant of condition (3) (Song-Weinkove's
inequality, tested against a wedge with the reference metric) is
intentionally not implemented; only the stronger class form above is
decided.

Comparison-only constants from the literature, never used in computation:
Zhou-Zhu prove properness of the same hexagonal family for
1/(1 + sqrt(10)/5) < lambda < 1 + sqrt(10)/5 (approx 0.61..1.63), and Dervan
proves K-stability of the degree-1 family for (10 - sqrt(10))/9 < lambda <
sqrt(10) - 2 (approx 0.76..1.16).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from .alpha import alpha_invariant, symmetry_context
from .picard import (
    PicardClass,
    curve_table,
    curve_tables,
    dp1_surface,
    slope_picard,
)
from .rationals import (
    ConstraintTable,
    GeometryError,
    InputError,
    ValidationError,
    as_fraction,
    clear_denominators,
    constraint_table,
    format_ratio,
    format_rational,
    integer_ratio,
)
from .toric import (
    ToricDivisor,
    anticanonical_divisor,
    canonical_divisor,
    dp6_fan,
    fan_automorphisms,
    is_ample,
    is_nef,
    ray_permutations,
    slope_quantities,
    wall_pairings,
    wall_table,
)

SCOPE_ALL = "all potentials"
SCOPE_G = "G-invariant potentials"

VERDICT_PROPER = "proper"
VERDICT_FAIL = "criterion not satisfied"


# ---------------------------------------------------------------------------
# alpha sources


@dataclass(frozen=True)
class StabilizerAlpha:
    """Compute alpha with the vertex formula (toric backends only)."""

    group_mode: str = "full"


@dataclass(frozen=True)
class SuppliedAlpha:
    """An externally supplied alpha value (or lower bound) for the class."""

    value: Fraction
    label: str = "supplied value"
    scope: str = SCOPE_ALL


def dervan_alpha_bound(lam) -> Fraction:
    """Builtin lower bound min{1, 1/(2 - lambda)} for the dp1 family classes."""
    p, q = integer_ratio(lam)
    if p >= 2 * q:
        raise GeometryError("the builtin dp1 alpha bound needs lambda < 2")
    return Fraction(q, 2 * q - p) if p < q else Fraction(1)


class FamilyAlpha(NamedTuple):
    """A family's alpha: the pieces (den, ((e, f), ...)), with alpha(L_lambda)
    = den / max(e + f lambda), and value(lambda), which each probe must match."""

    pieces: tuple
    value: Callable[[Fraction], Fraction]
    label: str
    scope: str = SCOPE_ALL


def resolve_alpha(backend, source):
    """Return (value, provenance label, scope) or raise naming the gap."""
    if isinstance(source, SuppliedAlpha):
        value = as_fraction(source.value)
        if value <= 0:
            raise InputError("supplied alpha must be positive")
        return value, source.label, source.scope
    if isinstance(source, StabilizerAlpha):
        if not isinstance(backend, ToricDivisor):
            raise GeometryError(
                "alpha source 'stabilizer formula' is only available for toric "
                "backends; supply a value for this backend"
            )
        ctx = symmetry_context(backend, source.group_mode)
        order = len(ctx.stabilizer) if ctx.stabilizer else 1
        label = f"stabilizer formula ({source.group_mode} group, order {order})"
        return alpha_invariant(ctx), label, SCOPE_G
    raise InputError(f"unknown alpha source {source!r}")


# ---------------------------------------------------------------------------
# backends: toric divisor, Picard class, abstract slice


@dataclass(frozen=True)
class AbstractSlice:
    """Intersection-slice model of a polarized manifold, built by
    abstract_slice.

    Carries just the dimension and a table of test curves, with L^n and
    K.L^{n-1} as its forms, used to decide positivity of classes x L + y K.
    This is what lets the c1 < 0 mode run on surfaces that have no toric or
    Picard model here.
    """

    n: int
    table: ConstraintTable


def abstract_slice(n: int, l_pow_n, k_dot_l_nm1, curves) -> AbstractSlice:
    """The slice with L^n, K.L^{n-1} and test curves (name, L.C, K.C); the
    table sorts the curves by name, so ties go to the smaller name."""
    if n < 1:
        raise ValidationError("slice dimension must be positive")
    forms = as_fraction(l_pow_n), as_fraction(k_dot_l_nm1)
    if forms[0] <= 0:
        raise ValidationError("slice needs L^n > 0")
    if not curves:
        raise ValidationError("slice needs at least one test curve")
    names, l_pairings, k_pairings = zip(*sorted(curves, key=lambda c: c[0]))
    return AbstractSlice(n, constraint_table(names, l_pairings, k_pairings, *forms))


class _Backend(NamedTuple):
    dim: int
    # None on a toric threefold, which keeps the cone-functional test
    table: ConstraintTable | None
    describe: Callable[[], str]
    # the slope mu = -K.L^{n-1} / L^n
    mu: Callable[[], Fraction]
    # the tables of several surface classes of this backend, with equal
    # labels row by row; a slice is no family and has none
    tables: Callable[..., tuple] | None = None
    walls: Callable | None = None


def _backend(backend) -> _Backend:
    """The one dispatch on the backend type."""
    if isinstance(backend, ToricDivisor):
        fan = backend.fan
        return _Backend(
            fan.dim,
            wall_table(backend) if fan.dim == 2 else None,
            lambda: f"toric divisor ({_join(backend)}) on a {fan.n_rays}-ray fan",
            lambda: slope_quantities(backend).mu,
            lambda *classes: tuple(map(wall_table, classes)),
            wall_pairings if fan.dim == 2 else None,
        )
    if isinstance(backend, PicardClass):
        return _Backend(
            2,
            curve_table(backend),
            lambda: f"Picard class ({_join(backend)}) on the blowup of P^2 at "
            f"{backend.surface.r} points",
            lambda: slope_picard(backend),
            curve_tables,
        )
    if isinstance(backend, AbstractSlice):
        return _Backend(
            backend.n,
            backend.table,
            lambda: f"abstract intersection slice (n={backend.n})",
            lambda: -backend.table.k_dot_l / backend.table.l_sq,
        )
    raise InputError(f"unknown backend {type(backend).__name__}")


def _join(c) -> str:
    """A surface class's coordinates, from its stored integers."""
    return ", ".join(format_ratio(x, c.den) for x in c.nums)


def _combo_positive(backend, x, y, strict: bool, view: _Backend | None = None):
    """Decide positivity of x L + y K; return (holds, binding label, margin).

    One integer pass over the constraint table, where the first row at the
    least pairing binds.  The rows span the cone of curves, so by Kleiman
    their signs alone decide, and a positive class has positive square.
    x and y are ints or Fractions."""
    table = (_backend(backend) if view is None else view).table
    if table is None:
        combo = x * backend + y * canonical_divisor(backend.fan)
        return (is_ample(combo) if strict else is_nef(combo)), None, None
    # (x L + y K).C_i = (xl nums[i] + yk k_nums[i]) / (x.den y.den den)
    xl, yk = x.numerator * y.denominator, y.numerator * x.denominator
    nums, ks = table.nums, table.k_nums
    if ks.count(ks[0]) == len(ks):  # one K.C: ConstraintTable's rule
        i = 0 if xl == 0 else nums.index(min(nums) if xl > 0 else max(nums))
    else:
        values = [xl * a + yk * b for a, b in zip(nums, ks)]
        i = values.index(min(values))
    low = xl * nums[i] + yk * ks[i]
    margin = Fraction(low, x.denominator * y.denominator * table.den)
    binding = table.labels[i]
    return (margin > 0 if strict else margin >= 0), binding, margin


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ConditionCheck:
    """One condition of a check: whether it holds, its exact values by name,
    as Fractions, and the label of the constraint that binds it, if any."""

    name: str
    description: str
    holds: bool
    values: dict[str, Fraction] = field(default_factory=dict)
    binding: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))


@dataclass(frozen=True)
class PropernessReport:
    mode: str
    backend: str
    scope: str
    conditions: tuple[ConditionCheck, ...]
    alpha: Fraction | None = None
    alpha_provenance: str | None = None
    mu: Fraction | None = None

    @property
    def proper(self) -> bool:
        """The criterion certifies properness exactly when all its conditions hold."""
        return all(c.holds for c in self.conditions)

    @property
    def verdict(self) -> str:
        return VERDICT_PROPER if self.proper else VERDICT_FAIL


# ---------------------------------------------------------------------------
# the checkers


def check_properness(backend, epsilon, alpha_source) -> PropernessReport:
    """Decide the three-condition properness criterion for an ample class.

    epsilon = 0 carries no alpha slack and is exactly the c1 < 0 regime, so
    such requests are routed to check_negative_c1 on the same backend.
    """
    eps = as_fraction(epsilon)
    if eps < 0:
        raise InputError("epsilon must be nonnegative")
    view = _backend(backend)
    n = view.dim
    if eps == 0:
        return check_negative_c1(backend)
    ample, _, _ = _combo_positive(backend, 1, 0, True, view)
    if not ample:
        raise GeometryError("class not Kahler: the backend class is not ample")
    alpha, label, scope = resolve_alpha(backend, alpha_source)
    bound = Fraction((n + 1) * alpha.numerator, n * alpha.denominator)
    holds = eps < bound
    cond1 = ConditionCheck(
        name="condition (1)",
        description="epsilon < (n+1)/n * alpha",
        holds=holds,
        values={"epsilon": eps, "alpha": alpha, "bound": bound},
        binding=None if holds else "alpha bound",
    )
    cond2 = _positivity(backend, view, "condition (2)", "K + epsilon L ample", eps, 1, {})
    mu = view.mu()
    factor = eps - n * mu
    cond3 = _positivity(
        backend, view, "condition (3)", "(epsilon - n*mu) L - (n-1) K ample", factor, -(n - 1),
        {"mu": mu, "L-coefficient": factor},
    )
    return PropernessReport(
        mode="epsilon-criterion",
        backend=view.describe(),
        scope=scope,
        conditions=(cond1, cond2, cond3),
        alpha=alpha,
        alpha_provenance=label,
        mu=mu,
    )


def _positivity(backend, view, name, description, x, y, values, strict=True) -> ConditionCheck:
    """The condition that x L + y K is ample (strict) or nef, decided by
    _combo_positive, with its margin added to `values`.  An ample condition
    names its binding row whether it holds or not; a nef condition names it
    only when it fails."""
    holds, binding, margin = _combo_positive(backend, x, y, strict, view)
    if margin is not None:
        values["margin"] = margin
    return ConditionCheck(name, description, holds, values,
                          binding if strict or not holds else None)


def check_negative_c1(backend) -> PropernessReport:
    """The c1 < 0 criterion: (-n mu) L - (n-1) K nef suffices for properness."""
    view = _backend(backend)
    n = view.dim
    k_ample, _, _ = _combo_positive(backend, 0, 1, True, view)
    if not k_ample:
        raise GeometryError("negative-c1 criterion requires c1 < 0 (ample canonical class)")
    mu = view.mu()
    factor = -n * mu
    cond = _positivity(
        backend, view, "condition (nef)", "(-n*mu) L - (n-1) K nef", factor, -(n - 1),
        {"mu": mu, "L-coefficient": factor}, strict=False,
    )
    return PropernessReport(
        mode="negative-c1",
        backend=view.describe(),
        scope=SCOPE_ALL,
        conditions=(cond,),
        mu=mu,
    )


def check_fano(backend, alpha_source) -> PropernessReport:
    """The anticanonically polarized criterion: alpha(-K) > n/(n+1)."""
    view = _backend(backend)
    n = view.dim
    antik_ample, _, _ = _combo_positive(backend, 0, -1, True, view)
    if not antik_ample:
        raise GeometryError("Fano criterion requires an ample anticanonical class")
    # on a toric backend the stabilizer formula evaluates alpha on -K itself
    target = anticanonical_divisor(backend.fan) if isinstance(backend, ToricDivisor) else backend
    alpha, label, scope = resolve_alpha(target, alpha_source)
    threshold = Fraction(n, n + 1)
    cond = ConditionCheck(
        name="condition (1)",
        description="alpha(-K) > n/(n+1)",
        holds=alpha > threshold,
        values={"alpha": alpha, "threshold": threshold},
        binding="alpha bound" if alpha <= threshold else None,
    )
    return PropernessReport(
        mode="fano",
        backend=view.describe(),
        scope=scope,
        conditions=(cond,),
        alpha=alpha,
        alpha_provenance=label,
    )


# ---------------------------------------------------------------------------
# one-parameter families and feasibility in the scale


@dataclass(frozen=True)
class Family:
    """lambda -> L_lambda = base + lambda * slope, for two classes of one
    backend: ToricDivisors on one fan or PicardClasses on one blowup.

    The rows and forms of every probe are read once off the tables of
    L_0 = base, L_1 = base + slope and the slope class.  alpha is a
    FamilyAlpha, or None for the stabilizer formula with its G-averaged
    pieces, which exists on a fan only."""

    name: str
    base: ToricDivisor | PicardClass
    slope: ToricDivisor | PicardClass
    alpha: FamilyAlpha | None = None

    def __post_init__(self):
        if type(self.base) is not type(self.slope):
            raise ValidationError(
                "a family needs two toric divisors or two Picard classes, got "
                f"{type(self.base).__name__} and {type(self.slope).__name__}"
            )
        # raises for classes on different fans or surfaces
        self.base + self.slope

    def class_at(self, lam):
        """L_lambda, built in one step from integers: at lambda = p/q its
        value is B_i q + S_i p over M q, for the base and slope over their
        common denominator, B / M and S / M."""
        p, q = integer_ratio(lam)
        den, base, slope = self._pencil
        return self.base._with_integers(den * q, [b * q + t * p for b, t in zip(base, slope)])

    @functools.cached_property
    def member(self):
        """class_at(lambda), the last one kept, so that a probe's alpha and its
        midpoint check read one class."""
        return functools.lru_cache(maxsize=1)(self.class_at)

    @functools.cached_property
    def _pencil(self):
        """(M, B, S): the base's and slope's stored integers brought over
        M, the lcm of their denominators."""
        den = math.lcm(self.base.den, self.slope.den)
        return den, *(tuple(x * (den // c.den) for x in c.nums) for c in (self.base, self.slope))

    @functools.cached_property
    def _view(self) -> _Backend:
        return _backend(self.base)

    @functools.cached_property
    def dim(self) -> int:
        return self._view.dim

    @functools.cached_property
    def _tables(self):
        """The constraint tables of L_0, L_1 and the slope class, on one
        list of rows: a Picard class alone would merge the rows of its own
        equal multiplicities, and L_0, L_1 and the slope class need not
        have the same ones."""
        if self._view.table is None:
            raise GeometryError("family feasibility is decided on surfaces only")
        return self._view.tables(self.base, self.base + self.slope, self.slope)

    @functools.cached_property
    def pairing_data(self):
        """Constraint labels and integer rows (B, S, K), one per distinct row.

        A row is (base.C, slope.C, K.C) times one positive common multiplier,
        so L_lambda.C is proportional to B + lambda S and each probe of the
        sweep is a handful of integer multiply-adds per row.  Rows come in
        the tables' tie order, and equal rows keep the first label: they give
        equal cuts, and the cut loop keeps the first row on ties."""
        base, top, slope = self._tables
        if not base.labels == top.labels == slope.labels:
            raise GeometryError(
                "internal inconsistency: the family's three tables have different rows"
            )
        den = math.lcm(base.den, slope.den)
        columns = [
            [x * (den // t.den) for x in nums]
            for t, nums in ((base, base.nums), (slope, slope.nums), (base, base.k_nums))
        ]
        first = {}
        for label, row in zip(base.labels, zip(*columns)):
            first.setdefault(row, label)
        return tuple(first.values()), tuple(first)

    @functools.cached_property
    def forms(self):
        """Integers (a0, a1, a2, k0, k1) with, for one positive multiplier M,
        M L_lambda^2 = a0 + a1 lambda + a2 lambda^2 and M K.L_lambda = k0 + k1
        lambda.  On a toric surface the tables read them off the walls:
        L^2 = sum a_i (L.D_i) and K.L = -sum L.D_i."""
        base, top, slope = self._tables
        _, forms = clear_denominators((
            base.l_sq, top.l_sq - base.l_sq - slope.l_sq, slope.l_sq,
            base.k_dot_l, slope.k_dot_l,
        ))
        return forms

    def is_ample_at(self, lam) -> bool:
        """Kleiman on the family's integer rows, which span the cone of curves."""
        p, q = integer_ratio(lam)
        _, rows = self.pairing_data
        return min(b * q + s * p for b, s, _ in rows) > 0

    def alpha_unscaled(self, lam):
        if self.alpha is None:
            return resolve_alpha(self.member(lam), StabilizerAlpha())
        return self.alpha.value(lam), self.alpha.label, self.alpha.scope

    @functools.cached_property
    def alpha_pieces(self):
        """(den, ((e, f), ...)) with alpha(L_lambda) = den / max(e + f lambda)
        wherever L_lambda is ample, or None.

        A FamilyAlpha brings its own.  Otherwise a toric surface family has
        pieces when the group G of fan automorphisms that keep every wall
        row (B, S) has fixed space {0}, i.e. its matrices sum to zero.  G
        fixes each class L_lambda, so the stabilizer's fixed polytope is the
        barycenter alone and alpha = 1 / max a_i', where the recentred
        coefficients a' are the one G-invariant representative of the class:
        the G-average of the coefficients, den a_i' = e + f lambda.  A G that
        fixes a line, or any other backend, gets None."""
        if self.alpha is not None:
            return self.alpha.pieces
        if self._view.walls is None:
            return None
        fan, base, slope = self.base.fan, self.base.coeffs, self.slope.coeffs
        walls = list(zip(*map(self._view.walls, (self.base, self.slope))))
        group = [
            (g, perm)
            for g, perm in zip(fan_automorphisms(fan), ray_permutations(fan))
            if all(walls[j] == walls[i] for i, j in enumerate(perm))
        ]
        # entrywise sum of the matrices
        if any(map(sum, zip(*(sum(g, ()) for g, _ in group)))):
            return None
        den, flat = clear_denominators([
            sum(c[p[i]] for _, p in group) / len(group)
            for i in range(fan.n_rays)
            for c in (base, slope)
        ])
        return den, tuple(sorted(set(zip(flat[::2], flat[1::2]))))

    @functools.cached_property
    def certificate(self) -> "LambdaCertificate":
        """The exact partition of the lambda range into feasible, infeasible,
        endpoint and uncertified pieces; it does not depend on epsilon, so
        every sweep of the family reads the one built on its first sweep.
        A family without alpha pieces is refused before any decision."""
        if self.alpha_pieces is None:
            why = ("has a symmetry group that fixes a line" if self._view.walls is not None
                   else "is on no toric surface and was given no FamilyAlpha")
            raise InputError(f'sweeps need a closed-form alpha; family "{self.name}" {why}')
        return _certify(self)


@functools.cache
def dp6_family() -> Family:
    """(D_1 + D_3 + D_5) + lambda (D_2 + D_4 + D_6) on the hexagonal fan.

    Built on first use and shared by every later call in the process, with
    the lambda-independent data it caches: its tables, rows, forms and
    alpha pieces."""
    fan = dp6_fan()
    return Family("dp6", ToricDivisor(fan, (1, 0) * 3), ToricDivisor(fan, (0, 1) * 3))


@functools.cache
def dp1_family() -> Family:
    """3H - E_1 - ... - E_7 - lambda E_8 on the blowup of P^2 at 8 points;
    built on first use and shared, like dp6_family."""
    surface = dp1_surface()
    alpha = FamilyAlpha((1, ((1, 0), (2, -1))), dervan_alpha_bound, "supplied bound (Dervan)")
    return Family("dp1", surface.cls((3,) + (1,) * 7 + (0,)), surface.cls((0,) * 8 + (1,)), alpha)


BUILTIN_FAMILIES = {"dp6": dp6_family, "dp1": dp1_family}


@dataclass(frozen=True)
class OpenInterval:
    lo: Fraction
    hi: Fraction

    @property
    def is_empty(self) -> bool:
        return self.lo >= self.hi

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def _forms_at(forms, lam: Fraction) -> tuple[int, int]:
    """(L_lambda^2, K.L_lambda) from a family's forms at an ample lambda = p/q,
    both times M q^2; L^2 <= 0 there means the rows are wrong, and raises."""
    a0, a1, a2, k0, k1 = forms
    p, q = lam.numerator, lam.denominator
    l_sq = a0 * q * q + a1 * p * q + a2 * p * p
    if l_sq <= 0:
        raise GeometryError(
            f"internal inconsistency: L^2 <= 0 at lambda = {format_rational(lam)}, "
            "where the rows call the class ample"
        )
    return l_sq, (k0 * q + k1 * p) * q


def feasible_scale_interval(family, lam, epsilon=Fraction(1)) -> OpenInterval:
    """The exact open interval of scales a for which a L_lambda passes all
    three conditions at the given epsilon.

    Every constraint is affine in a: the alpha bound because alpha scales as
    1/a, the positivity conditions because they are signs of pairings with
    the rows (Kleiman).  The resulting half-line intersection is certified
    by a full checker run at the midpoint whenever it is nonempty, and its
    alpha cap must match the family's alpha pieces, when it has them.
    """
    interval, _, _ = _scale_interval_with_bindings(family, lam, epsilon)
    return interval


def _scale_interval_with_bindings(family, lam, epsilon):
    """The interval plus the labels of the constraints attaining lo and hi."""
    lam, epsilon = as_fraction(lam), _positive_slack(epsilon)
    if not family.is_ample_at(lam):
        raise GeometryError(f"lambda = {format_rational(lam)} is outside the ample range")
    n = family.dim
    alpha1, *provenance = family.alpha_unscaled(lam)
    lo_num, lo_den, lo_label = _lower_cut(family, lam)
    pieces = family.alpha_pieces
    if pieces is not None and (alpha1.numerator * _alpha_denominator(pieces, lam)
                               != pieces[0] * lam.denominator * alpha1.denominator):
        raise GeometryError(
            f"internal inconsistency: the alpha cap at lambda = "
            f"{format_rational(lam)} differs from the family's alpha pieces"
        )
    (e_num, e_den), (a_num, a_den) = epsilon.as_integer_ratio(), alpha1.as_integer_ratio()
    # the interval in t = epsilon a is (lo_num / lo_den, hi_num / hi_den)
    hi_num, hi_den = (n + 1) * a_num, n * a_den
    if lo_num * hi_den < hi_num * lo_den:
        t = Fraction(lo_num * hi_den + hi_num * lo_den, 2 * lo_den * hi_den)
        _verify_interval(family, lam, t, alpha1, provenance)
    lo, hi = Fraction(lo_num * e_den, lo_den * e_num), Fraction(hi_num * e_den, hi_den * e_num)
    return OpenInterval(lo, hi), lo_label, "condition (1): alpha bound"


def _positive_slack(epsilon) -> Fraction:
    epsilon = as_fraction(epsilon)
    if epsilon <= 0:
        raise InputError("family feasibility needs epsilon > 0 (zero slack is the c1 < 0 mode)")
    return epsilon


def _lower_cut(family, lam: Fraction):
    """(num, den, label) at an ample lambda: the least t = epsilon a that
    conditions (2) and (3) allow, as integers with den > 0, and the
    constraint attaining it.  The alpha bound caps t at (n+1)/n
    alpha(L_lambda), whatever epsilon is."""
    n = family.dim
    labels, rows = family.pairing_data
    # Each constraint reads c0 + c1 * a > 0.  Every positivity constraint
    # has c1 = epsilon * L.C > 0, since the class is ample (Kleiman), so it
    # bounds a from below by -c0 / c1.  That cut is kept in t = epsilon * a
    # as an integer pair (num, den > 0): at lambda = p/q, with lc = B q + S p
    # a positive multiple of L.C,
    #   condition (2):  -K q / lc,
    #   condition (3):  (n mu lc + (n-1) K q) / lc,
    # and cuts are compared by cross-multiplication, so mu = -lk / mu_d
    # need not be reduced.  The strict comparison keeps the first constraint
    # in table order on ties.
    p, q = lam.numerator, lam.denominator
    mu_d, lk = _forms_at(family.forms, lam)
    lo_num, lo_den, lo_label = 0, 1, "positive scale"
    for label, (b, s, k) in zip(labels, rows):
        lc = b * q + s * p
        if lc <= 0:
            raise GeometryError(
                f"internal inconsistency: the ample class pairs nonpositively with {label}"
            )
        den = mu_d * lc
        kq = k * q * mu_d
        for num, cond in ((-kq, 2), (-n * lk * lc + (n - 1) * kq, 3)):
            if num * lo_den > lo_num * den:
                lo_num, lo_den, lo_label = num, den, f"condition ({cond}): {label}"
    return lo_num, lo_den, lo_label


def _verify_interval(family, lam, t, alpha, provenance):
    """The full checker on L_lambda at slack t, the interval's midpoint in t
    = epsilon a, given alpha, must pass and find mu = -K.L / L^2 of the
    family forms.  That certifies the scale t / epsilon: for a > 0, alpha(a
    L) = alpha(L) / a and mu(a L) = mu(L) / a, so conditions (1)-(3) for
    (a L, epsilon) are those for (L, epsilon a), multiplied through by a."""
    report = check_properness(family.member(lam), t, SuppliedAlpha(alpha, *provenance))
    if not report.proper:
        raise GeometryError(
            "internal inconsistency: checker rejects the feasible-interval midpoint"
        )
    l_sq, lk = _forms_at(family.forms, lam)
    if report.mu.numerator * l_sq != -lk * report.mu.denominator:
        raise GeometryError(
            "internal inconsistency: the checker's mu at the midpoint differs from "
            "the family forms"
        )


# ---------------------------------------------------------------------------
# the lambda certificate

# Subdivisions of the certified range after which an undecided piece is left
# uncertified; both builtin ranges are decided at depth 5 or less.
CERTIFICATE_MAX_DEPTH = 24


class CertifiedPiece(NamedTuple):
    """An open piece (lo, hi) of the certified lambda range (None is an
    unbounded end) with its verdict: "feasible", "infeasible", "endpoint"
    (its polynomial has one simple root inside and every other one is
    positive) or "uncertified".  An infeasible or endpoint piece names the
    (row label, condition, alpha piece) of its polynomial, whose integer
    coefficients come lowest degree first."""

    lo: Fraction | None
    hi: Fraction | None
    verdict: str
    triple: tuple | None = None
    poly: tuple | None = None


@dataclass(frozen=True)
class LambdaCertificate:
    """An exact partition of the lambda range on which every row and every
    alpha piece of a family is positive, built by Family.certificate, and
    the family's rows, alpha pieces, forms and cut polynomials."""

    pieces: tuple[CertifiedPiece, ...]
    rows: tuple
    alpha_pieces: tuple
    forms: tuple
    cuts: tuple

    @functools.cached_property
    def _lookup(self):
        """(nums, dens, slots): the finite piece ends as integer pairs, in
        order, and for each gap between them the polynomial whose sign
        decides it, or None where no piece decides."""
        ends, slots = [], []
        for piece in self.pieces:
            if piece.lo is not None:
                ends.append(piece.lo)
                if not slots:
                    slots.append(None)
            slots.append({"feasible": (1,), "infeasible": (0,),
                          "endpoint": piece.poly}.get(piece.verdict))
        if self.pieces and self.pieces[-1].hi is not None:
            ends.append(self.pieces[-1].hi)
            slots.append(None)
        return (tuple(e.numerator for e in ends), tuple(e.denominator for e in ends),
                tuple(slots) or (None,))

    def feasible_pair(self, p: int, q: int) -> bool:
        """Whether some scale passes all three conditions at lambda = p/q, q > 0
        (any multiple): the polynomial of its piece, found by a binary search
        by cross-multiplication, or the pointwise rule where none decides."""
        nums, dens, slots = self._lookup
        lo, hi = 0, len(nums)
        while lo < hi:
            mid = (lo + hi) // 2
            if nums[mid] * q < p * dens[mid]:
                lo = mid + 1
            else:
                hi = mid
        poly = None if lo < len(nums) and nums[lo] * q == p * dens[lo] else slots[lo]
        return self._pointwise(Fraction(p, q)) if poly is None else _value(poly, p, q) > 0

    def grid_flags(self, grid: range, d: int) -> list:
        """[feasible_pair(x, d) for x in grid] for a step > 0, piece by piece:
        one floor division counts the points below each piece end, a
        feasible or infeasible piece fills its run at once, and feasible_pair
        decides the other points, in grid order."""
        nums, dens, slots = self._lookup
        flags = []
        for i, slot in enumerate(slots):
            # the least k with grid[k] / d >= end i; past the last end, all of them
            stop = len(grid) if i == len(nums) else min(len(grid), max(0, -(
                (grid.start * dens[i] - nums[i] * d) // (grid.step * dens[i]))))
            if slot is not None and len(slot) == 1:
                flags += [slot[0] > 0] * (stop - len(flags))
            else:
                flags += [self.feasible_pair(x, d) for x in grid[len(flags):stop]]
            if stop < len(grid) and i < len(nums) and grid[stop] * dens[i] == nums[i] * d:
                flags.append(self.feasible_pair(grid[stop], d))
        return flags

    def _pointwise(self, lam: Fraction) -> bool:
        """A row B q + S p <= 0 makes lambda = p/q infeasible, an alpha piece
        <= 0 or M L^2 <= 0 raises, and otherwise lambda is feasible when
        every cut polynomial is positive there."""
        p, q = lam.numerator, lam.denominator
        if min(b * q + s * p for b, s, _ in self.rows) <= 0:
            return False
        _alpha_denominator(self.alpha_pieces, lam)
        _forms_at(self.forms, lam)
        return all(_value(c, p, q) > 0 for c in self.cuts)


def _value(c, p, q) -> int:
    """q^d P(p/q) for P = c[0] + c[1] x + ... + c[d] x^d and q > 0, which has
    the sign of P(p/q)."""
    v, qk = c[-1], 1
    for ci in c[-2::-1]:
        qk *= q
        v = v * p + ci * qk
    return v


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _cut_polynomials(family):
    """[(coefficients, (row label, condition, alpha piece)), ...], one per
    distinct primitive polynomial, in the rows' tie order.

    At an ample lambda where every alpha piece is positive, the probe's cut
    loop (_lower_cut against the alpha cap) calls lambda feasible exactly
    when every cut c of conditions (2) and (3) and every alpha piece
    e + f lambda have n c (e + f lambda) < (n+1) den.
    With l = B + S lambda > 0, Q = M L^2 > 0 and K = M K.L, the cuts are
    -k / l and (-n K l + (n-1) k Q) / (Q l); cleared of those positive
    denominators, the comparisons are P > 0 for the linear and cubic
      condition (2):  (n+1) den l + n k (e + f lambda),
      condition (3):  (n+1) den Q l + n (e + f lambda)(n K l - (n-1) k Q)."""
    n = family.dim
    labels, rows = family.pairing_data
    a0, a1, a2, k0, k1 = family.forms
    den, pieces = family.alpha_pieces
    l_sq, k_dot_l = (a0, a1, a2), (k0, k1)
    polys = {}
    for label, (b, s, k) in zip(labels, rows):
        row = (b, s)
        q_l = _poly_mul(l_sq, row)
        inner = [n * x - (n - 1) * k * y for x, y in zip(_poly_mul(k_dot_l, row), l_sq)]
        for e, f in pieces:
            cond2 = [(n + 1) * den * x + n * k * y for x, y in zip(row, (e, f))]
            cond3 = [(n + 1) * den * x + n * y for x, y in zip(q_l, _poly_mul((e, f), inner))]
            for cond, poly in ((2, cond2), (3, cond3)):
                polys.setdefault(_primitive_poly(poly), (label, cond, (e, f)))
    return list(polys.items())


def _primitive_poly(c) -> tuple:
    """c without its trailing zeros, divided by the gcd of its coefficients."""
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    g = math.gcd(*c) or 1
    return tuple(x // g for x in c)


def _certified_range(family):
    """(lo, hi) of the open set where every row B + S lambda and every alpha
    piece e + f lambda is positive, None for an unbounded end, or None when
    the set is empty."""
    _, rows = family.pairing_data
    lo = hi = None
    for b, s in [row[:2] for row in rows] + list(family.alpha_pieces[1]):
        if s == 0:
            if b <= 0:
                return None
        elif s > 0:
            lo = Fraction(-b, s) if lo is None else max(lo, Fraction(-b, s))
        else:
            hi = Fraction(-b, s) if hi is None else min(hi, Fraction(-b, s))
    if lo is not None and hi is not None and lo >= hi:
        return None
    return lo, hi


def _certify(family) -> LambdaCertificate:
    """The certificate over the family's certified range, by Descartes
    bisection (Vincent's theorem, as in Collins-Akritas): a polynomial whose
    Moebius transform to (0, oo) has no sign variation has no root on the
    piece and the sign of its coefficients there.  M L^2 leads the list of
    polynomials to prove positive, and a piece where it is negative
    raises.  The pieces are then held to the checker by _check_pieces."""
    cuts = _cut_polynomials(family)
    bounds = _certified_range(family)
    out = []
    if bounds is not None:
        a0, a1, a2, _, _ = family.forms
        active = [(_primitive_poly((a0, a1, a2)), None)] + cuts
        active = [_Poly(poly, triple, poly + (0,) * (4 - len(poly))) for poly, triple in active]
        _certify_piece(family, active, *bounds, 0, out)
        _check_pieces(family, out)
    return LambdaCertificate(tuple(out), family.pairing_data[1], family.alpha_pieces,
                             family.forms, tuple(poly for poly, _ in cuts))


def _check_pieces(family, pieces):
    """Probe one point inside each feasible and infeasible piece at epsilon
    = 1 (the verdicts do not depend on it) with feasible_scale_interval,
    which reads no cut polynomial; a probe that disagrees raises."""
    for piece in pieces:
        if piece.verdict in ("feasible", "infeasible"):
            lam = _split_point(piece.lo, piece.hi)
            if feasible_scale_interval(family, lam).is_empty == (piece.verdict == "feasible"):
                raise GeometryError(
                    f"internal inconsistency: the exact probe at lambda = "
                    f"{format_rational(lam)} disagrees with the certificate's "
                    f"{piece.verdict} piece"
                )


class _Poly(NamedTuple):
    poly: tuple
    # the triple it comes from; None for M L^2
    triple: tuple | None
    # poly padded to a cubic, which leaves its sign variations as they are
    padded: tuple


def _certify_piece(family, active, lo, hi, depth, out):
    """Append the pieces of (lo, hi) to out: active holds the polynomials
    not yet proved positive on it, M L^2 first while it is one of them."""
    if lo is None and hi is None:
        # no Moebius map covers the whole line; split it at 0
        signs = [(1, 0)] * len(active)
    else:
        signs = _descartes(active, lo, hi)
    negative, rest = None, []
    for p, (variations, sign) in zip(active, signs):
        if variations:
            rest.append((p, variations))
        elif sign <= 0:
            if p.triple is None:
                _forms_at(family.forms, _split_point(lo, hi))
            negative = negative or p
    open_l_sq = bool(rest) and rest[0][0].triple is None
    if negative and not open_l_sq:
        out.append(CertifiedPiece(lo, hi, "infeasible", negative.triple, negative.poly))
        return
    if not rest:
        out.append(CertifiedPiece(lo, hi, "feasible"))
        return
    root = None
    if depth < CERTIFICATE_MAX_DEPTH:
        roots = (_rational_root(p.poly, lo, hi) for p, _ in rest)
        root = next((r for r in roots if r is not None), None)
    if root is None and not negative and len(rest) == 1 and rest[0][1] == 1 and not open_l_sq:
        p = rest[0][0]
        out.append(CertifiedPiece(lo, hi, "endpoint", p.triple, p.poly))
        return
    if depth == CERTIFICATE_MAX_DEPTH:
        out.append(CertifiedPiece(lo, hi, "uncertified"))
        return
    cut = _split_point(lo, hi) if root is None else root
    active = [p for p, _ in rest] + ([negative] if negative else [])
    _certify_piece(family, active, lo, cut, depth + 1, out)
    _certify_piece(family, active, cut, hi, depth + 1, out)


def _split_point(lo, hi) -> Fraction:
    """A point of (lo, hi): the midpoint of a bounded piece; an unbounded end
    doubles the distance from the finite one (or from 0)."""
    if lo is not None and hi is not None:
        return (lo + hi) / 2
    if lo is not None:
        return lo + max(1, abs(lo))
    if hi is not None:
        return hi - max(1, abs(hi))
    return Fraction(0)


def _descartes(active, lo, hi):
    """(sign variations, sign of the last nonzero coefficient) of each cubic
    P's Moebius transform for (lo, hi), in integers: (1 + x)^3 P((lo + hi x)
    / (1 + x)) on a bounded piece, P(lo + x) or P(hi - x) on an unbounded
    one, each times a positive integer."""
    a, w = (lo, 1) if hi is None else (hi, -1) if lo is None else (lo, hi - lo)
    an, ad = a.numerator, a.denominator
    w = Fraction(w)
    wn, wd = ad * w.numerator, w.denominator
    # P(a + w x) = P((an + wn x / wd) / ad), cleared: shift ad^3 P(y / ad) by an
    a_scale = (ad**3, ad**2, ad, 1)
    w_scale = (wd**3, wn * wd**2, wn * wn * wd, wn**3)
    bounded = lo is not None and hi is not None
    out = []
    for p in active:
        c = _taylor_shift([x * s for x, s in zip(p.padded, a_scale)], an)
        c = [x * s for x, s in zip(c, w_scale)]
        if bounded:
            c = _taylor_shift(c[::-1], 1)
        out.append(_variations(c))
    return out


def _taylor_shift(c, s):
    """The coefficients of P(x + s), by repeated synthetic division."""
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += s * c[j + 1]
    return c


def _variations(c):
    """(sign changes along c, its last nonzero entry), zeros skipped."""
    variations, last = 0, 0
    for x in c:
        if x:
            if (x > 0) != (last > 0) and last:
                variations += 1
            last = x
    return variations, last


def _rational_root(poly, lo, hi) -> Fraction | None:
    """A rational root of poly inside (lo, hi), when one is cheap to find.

    By the rational root theorem a root p/q in lowest terms has q dividing
    the leading coefficient c, so c times the root is an integer: a linear
    poly's root is read off, and a higher one's candidates m / c are tried
    once the bounded piece holds at most two of them."""
    if len(poly) == 2:
        root = Fraction(-poly[0], poly[1])
    elif lo is None or hi is None:
        return None
    else:
        lead = abs(poly[-1])
        first = (lead * lo.numerator) // lo.denominator + 1
        last = -((-lead * hi.numerator) // hi.denominator) - 1
        if last - first > 1:
            return None
        root = next((Fraction(m, lead) for m in range(first, last + 1)
                     if _value(poly, m, lead) == 0), None)
    inside = root is not None and (lo is None or lo < root) and (hi is None or root < hi)
    return root if inside else None


# ---------------------------------------------------------------------------
# lambda sweeps

# The grid inside a feasible or infeasible piece of the certificate is one
# list fill; each other grid point is one LambdaCertificate.feasible_pair
# decision (a few microseconds).
MAX_GRID_POINTS = 100_000
# Each bisection step is one more decision, and halving one grid step down
# to refine_tol takes ceil(log2(step / refine_tol)) of them (about 14 at the
# acceptance settings); each step also adds a bit to the bracket ends.
MAX_BISECTION_STEPS = 64
# Each conjectured endpoint costs three exact probes.
MAX_CONJECTURED_ENDPOINTS = 100


@dataclass(frozen=True)
class FeasibleWindow:
    lo_bracket: tuple[Fraction, Fraction]
    hi_bracket: tuple[Fraction, Fraction]
    witness_lambda: Fraction
    witness_a: Fraction


@dataclass(frozen=True)
class EndpointCheck:
    endpoint: Fraction
    side: str
    empty_at_endpoint: bool
    feasible_inside: bool
    infeasible_outside: bool

    @property
    def confirmed(self) -> bool:
        return self.empty_at_endpoint and self.feasible_inside and self.infeasible_outside


@dataclass(frozen=True)
class FeasibilityReport:
    family: str
    epsilon: Fraction
    lambda_min: Fraction
    lambda_max: Fraction
    step: Fraction
    refine_tol: Fraction
    windows: tuple[FeasibleWindow, ...]
    endpoint_checks: tuple[EndpointCheck, ...]
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "diagnostics", dict(self.diagnostics))


def sweep_lambda(
    family,
    lambda_min,
    lambda_max,
    step,
    refine_tol,
    epsilon=Fraction(1),
    conjectured_endpoints=(),
) -> FeasibilityReport:
    """Scan the family parameter on an exact rational grid, then bisect each
    feasible/infeasible transition down to the requested bracket width.

    Points where the class is not ample count as infeasible; any other
    error propagates.  The family's certificate alone decides the grid, piece
    by piece (LambdaCertificate.grid_flags), and each bisection point, by the
    decide of _feasibility.  Both ends of every bracket and the witness are
    then run through the exact, certified feasible_scale_interval probe, and
    a probe that disagrees with the decision raises.  So the emitted brackets
    are certificates: the bracket interior contains the true endpoint of the
    feasible window.  Conjectured exact endpoints are verified by exact
    probes at the endpoint itself and on both sides at distance refine_tol.

    The grid may hold at most MAX_GRID_POINTS points, one grid step may
    need at most MAX_BISECTION_STEPS halvings to reach refine_tol, and at
    most MAX_CONJECTURED_ENDPOINTS endpoints may be conjectured; larger
    requests, epsilon <= 0 and families without alpha pieces are rejected
    before any decision.
    """
    lambda_min, lambda_max, step, refine_tol, epsilon = map(
        as_fraction, (lambda_min, lambda_max, step, refine_tol, epsilon))
    if step <= 0 or refine_tol <= 0:
        raise InputError("step and refine_tol must be positive")
    if lambda_min > lambda_max:
        raise InputError("empty grid: lambda_min exceeds lambda_max")
    points = math.floor((lambda_max - lambda_min) / step) + 1
    if points > MAX_GRID_POINTS:
        # str() refuses ints of more than a few thousand digits
        size = points if points.bit_length() <= 64 else f"over 2^{points.bit_length() - 1}"
        raise InputError(
            f"the grid would hold {size} points; the cap is {MAX_GRID_POINTS} "
            "(raise step or narrow the lambda range)"
        )
    # the least k with step / 2**k <= refine_tol
    halvings = (math.ceil(step / refine_tol) - 1).bit_length()
    if halvings > MAX_BISECTION_STEPS:
        raise InputError(
            f"bisecting one grid step down to refine_tol would take {halvings} steps; "
            f"the cap is {MAX_BISECTION_STEPS} (raise refine_tol or lower step)"
        )
    conjectured_endpoints = tuple(map(as_fraction, conjectured_endpoints))
    if len(conjectured_endpoints) > MAX_CONJECTURED_ENDPOINTS:
        raise InputError(
            f"{len(conjectured_endpoints)} conjectured endpoints, at three exact probes "
            f"each; the cap is {MAX_CONJECTURED_ENDPOINTS}"
        )
    # grid point k is the pair (a + k b, d); Fractions only for brackets and witness
    d, (a, b) = clear_denominators((lambda_min, step))
    grid = range(a, a + points * b, b)
    decide, probe = _feasibility(family, epsilon)
    flags = family.certificate.grid_flags(grid, d)
    windows = []
    diagnostics = {"grid_points": str(points),
                   "alpha_scope": SCOPE_G if family.alpha is None else family.alpha.scope}
    i = 0
    while i < points:
        if not flags[i]:
            i += 1
            continue
        j = i
        while j + 1 < points and flags[j + 1]:
            j += 1
        lo_bracket = (_bisect(grid[i - 1], grid[i], d, decide, refine_tol) if i > 0
                      else (Fraction(grid[0], d),) * 2)
        hi_bracket = (_bisect(grid[j + 1], grid[j], d, decide, refine_tol) if j + 1 < points
                      else (Fraction(grid[-1], d),) * 2)
        for lam in (*lo_bracket, *hi_bracket):
            if probe(lam) != decide(lam.numerator, lam.denominator):
                raise GeometryError(
                    f"internal inconsistency: the exact probe at lambda = "
                    f"{format_rational(lam)} disagrees with the sweep's decision"
                )
        witness_lambda = Fraction(grid[(i + j) // 2], d)
        interval, lo_label, hi_label = _scale_interval_with_bindings(
            family, witness_lambda, epsilon
        )
        if interval.is_empty:
            raise GeometryError(
                "internal inconsistency: the exact probe at the witness is empty"
            )
        if not windows:
            diagnostics["witness_scale_interval"] = (
                f"({format_rational(interval.lo)}, {format_rational(interval.hi)})"
            )
            diagnostics["witness_binding_lower"] = lo_label
            diagnostics["witness_binding_upper"] = hi_label
        windows.append(
            FeasibleWindow(
                lo_bracket=lo_bracket,
                hi_bracket=hi_bracket,
                witness_lambda=witness_lambda,
                witness_a=interval.midpoint,
            )
        )
        i = j + 1
    checks = []
    for e in conjectured_endpoints:
        side = _endpoint_side(e, windows)
        inside = e + refine_tol if side == "lower" else e - refine_tol
        outside = e - refine_tol if side == "lower" else e + refine_tol
        checks.append(
            EndpointCheck(
                endpoint=e,
                side=side,
                empty_at_endpoint=not probe(e),
                feasible_inside=probe(inside),
                infeasible_outside=not probe(outside),
            )
        )
    return FeasibilityReport(
        family=family.name,
        epsilon=epsilon,
        lambda_min=lambda_min,
        lambda_max=lambda_max,
        step=step,
        refine_tol=refine_tol,
        windows=tuple(windows),
        endpoint_checks=tuple(checks),
        diagnostics=diagnostics,
    )


def _feasibility(family, epsilon):
    """(decide, probe): whether some scale a passes all three conditions at
    epsilon > 0, decide(p, q) at lambda = p/q and probe(lambda).  A lambda
    outside the ample range is infeasible; every other error propagates,
    and decide raises wherever probe does.

    probe runs the certified feasible_scale_interval, which tests ampleness
    first, and tests it again only where that raises; the probe's alpha cap
    is checked against the family's alpha pieces.  decide is the family's
    LambdaCertificate.feasible_pair, which never runs the probe's cut loop,
    so a probe at a bracket end checks the decision there: a lookup inside a
    piece, the signs of the family's rows, alpha pieces and cut polynomials
    elsewhere.  The certificate refuses a family without alpha pieces."""
    # a threefold family fails here, before its alpha is looked at
    family.pairing_data
    epsilon = _positive_slack(epsilon)

    def probe(lam: Fraction) -> bool:
        try:
            return not feasible_scale_interval(family, lam, epsilon).is_empty
        except GeometryError:
            if family.is_ample_at(lam):
                raise
            return False

    return family.certificate.feasible_pair, probe


def _alpha_denominator(pieces, lam: Fraction) -> int:
    """max(e q + f p) at lambda = p/q, where alpha = den q / max(e q + f p)
    for the alpha pieces (den, ((e, f), ...))."""
    p, q = lam.numerator, lam.denominator
    values = [e * q + f * p for e, f in pieces[1]]
    if min(values) <= 0:
        raise GeometryError(
            f"the alpha pieces e + f lambda are not all positive at lambda = "
            f"{format_rational(lam)}"
        )
    return max(values)


def _bisect(bad, good, den, decide, tol):
    """Halve [bad, good] / den (either order) to width <= tol, keeping a good
    end that decide(p, q) calls feasible, in integers over den times 2^k."""
    # the least k with |good - bad| / 2^k <= tol
    k = max(-(-abs(good - bad) * tol.denominator // (tol.numerator * den)) - 1, 0).bit_length()
    b, g, den = bad << k, good << k, den << k
    for _ in range(k):
        mid = (b + g) // 2
        if decide(mid, den):
            g = mid
        else:
            b = mid
    return (Fraction(min(b, g), den), Fraction(max(b, g), den))


def _endpoint_side(e, windows) -> str:
    """The side of the bracket whose centre (a + b) / 2 lies nearest e, the
    first on ties; each distance is |2e - a - b| / 2, an integer pair, and
    distances are compared by cross-multiplication."""
    (n, d), best, side = e.as_integer_ratio(), None, "lower"
    for w in windows:
        for candidate_side, (a, b) in (("lower", w.lo_bracket), ("upper", w.hi_bracket)):
            (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
            dist = (abs(2 * n * ad * bd - (an * bd + bn * ad) * d), d * ad * bd)
            if best is None or dist[0] * best[1] < best[0] * dist[1]:
                best, side = dist, candidate_side
    return side
