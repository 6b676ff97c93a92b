"""Smooth complete toric varieties from fan data.

A fan is a list of primitive integer ray generators together with the index
sets of its maximal cones.  Torus-invariant divisors D = sum a_i D_i carry a
piecewise linear support function with value -a_i on the i-th ray, and all
positivity notions reduce to exact linear algebra on that function:

* on surfaces, intersection numbers come from the cyclic wall relation
  u_{i-1} + u_{i+1} = c_i u_i with integer c_i, which also encodes
  D_i . D_i = -c_i; the wall pairings are D . D_i = a_{i-1} + a_{i+1} - c_i a_i;
* D is ample iff the support function is strictly concave.  On a surface
  this is the toric Kleiman criterion: every wall pairing D . D_i is
  positive (nef: nonnegative).  wall_table keeps these pairings, and K's,
  as the class's ConstraintTable.  In dimension 3 ampleness is checked cone
  by cone through the linear functional m_sigma with <m_sigma, u_i> = -a_i;
* the moment polytope is P_D = {m : <m, u_i> >= -a_i}.  For an ample class
  on a smooth surface its vertices are the cone functionals, one per
  maximal cone, and they run counterclockwise in the angular order of the
  rays, so the polygon is built in boundary order without vertex
  enumeration.  It is built in integers: a class is stored cleared, as
  N > 0 and the integers N a, so each N m_sigma solves a unimodular 2x2
  system over the integers, and the polygon keeps its vertices as integer
  points over N and its half-planes as the rays with N a, made HalfSpaces
  when read.  The class keeps it, and its wall pairings N D.D_i, which
  every surface question reads; the last few polygons are memoized by
  divisor.

Mixed volumes of moment polytopes provide an independent route to
intersection numbers for nef classes (n <= 3) and serve as a cross-check of
the wall formula in the tests.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .polytope import (
    Polytope, _angle_cmp, boundary_measure, make_polytope, polygon_from_cycle, volume,
)
from .rationals import (
    ClearedClass,
    ConstraintTable,
    Frozen,
    GeometryError,
    InputError,
    ValidationError,
    clear_denominators,
    det,
    dot,
    exact_integer,
    identity_matrix,
    primitive,
    solve_exact,
)

# fan_automorphisms tries (#rays)^dim integer maps at 25-60 us each in
# dimensions 2 to 4 (Python 3.11, one core), so a search takes at most about
# 0.25 s ((P^1)^4 tries 4096 in 0.24 s); no fan of dimension 5 passes.
MAX_AUTOMORPHISM_CANDIDATES = 4096


class Fan(Frozen):
    """A complete simplicial fan given by primitive rays and maximal cones."""

    _fields = ("dim", "rays", "max_cones")

    def __init__(self, dim: int, rays, max_cones):
        if dim < 1:
            raise ValidationError("fan dimension must be positive")
        rays = tuple(tuple(map(exact_integer, r)) for r in rays)
        if not rays:
            raise ValidationError("fan needs at least one ray")
        for r in rays:
            if len(r) != dim:
                raise ValidationError(f"ray {r} has wrong dimension (expected {dim})")
            if all(x == 0 for x in r):
                raise ValidationError("zero vector is not a valid ray")
            if primitive(r) != r:
                raise ValidationError(f"ray {r} is not primitive")
        if len(set(rays)) != len(rays):
            raise ValidationError("duplicate rays in fan")
        cones = []
        for cone in max_cones:
            idx = tuple(sorted(map(exact_integer, cone)))
            if len(idx) != dim or len(set(idx)) != dim:
                raise ValidationError(f"maximal cone {cone} must have {dim} distinct rays")
            if any(i < 0 or i >= len(rays) for i in idx):
                raise ValidationError(f"maximal cone {cone} references a missing ray")
            cones.append(idx)
        if len(set(cones)) != len(cones):
            raise ValidationError("duplicate maximal cones in fan")
        vars(self).update(dim=dim, rays=rays, max_cones=tuple(sorted(cones)))

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def cone_matrix(self, cone) -> tuple:
        """Rows are the ray generators of the cone."""
        return tuple(self.rays[i] for i in cone)


class FanValidation(NamedTuple):
    smooth: bool
    complete: bool


@functools.lru_cache(maxsize=None)
def angular_order(fan: Fan) -> tuple[int, ...]:
    """Ray indices of a 2d fan sorted counterclockwise by angle."""
    if fan.dim != 2:
        raise GeometryError("angular order is defined for surface fans only")
    return tuple(
        sorted(range(fan.n_rays), key=functools.cmp_to_key(
            lambda i, j: _angle_cmp(fan.rays[i], fan.rays[j])
        ))
    )


@functools.lru_cache(maxsize=None)
def validate_fan(fan: Fan) -> FanValidation:
    """Smoothness (unimodular cones) and completeness of the fan.

    Completeness for surfaces: the counterclockwise-consecutive ray pairs
    are exactly the maximal cones and every consecutive determinant is
    positive (equivalently the rays positively span the plane).  In
    dimension 3 the check is combinatorial: every facet of a maximal cone
    is shared by exactly two maximal cones and every ray is used.
    """
    smooth = all(abs(det(fan.cone_matrix(c))) == 1 for c in fan.max_cones)
    complete = _is_complete(fan)
    return FanValidation(smooth=smooth, complete=complete)


def _is_complete(fan: Fan) -> bool:
    if fan.dim == 1:
        return set(fan.rays) == {(1,), (-1,)} and len(fan.max_cones) == 2
    if fan.dim == 2:
        if fan.n_rays < 3:
            return False
        order = angular_order(fan)
        expected = set()
        for p in range(len(order)):
            i, j = order[p], order[(p + 1) % len(order)]
            if det((fan.rays[i], fan.rays[j])) <= 0:
                return False
            expected.add(tuple(sorted((i, j))))
        return expected == set(fan.max_cones)
    facets: dict[tuple[int, ...], int] = {}
    for cone in fan.max_cones:
        for facet in itertools.combinations(cone, fan.dim - 1):
            facets[facet] = facets.get(facet, 0) + 1
    used = {i for cone in fan.max_cones for i in cone}
    return bool(fan.max_cones) and used == set(range(fan.n_rays)) and all(
        v == 2 for v in facets.values()
    )


def _require_valid(fan: Fan) -> None:
    check = validate_fan(fan)
    if not (check.smooth and check.complete):
        raise GeometryError(
            f"operation requires a smooth complete fan (smooth={check.smooth}, "
            f"complete={check.complete})"
        )


@functools.lru_cache(maxsize=None)
def fan_automorphisms(fan: Fan) -> tuple:
    """All g in GL(n, Z) permuting the rays and preserving the cone set.

    Candidates are generated by sending one lattice basis chosen among the
    rays to every ordered tuple of rays, which bounds the search at
    (#rays)^n integer maps; a candidate is kept when it permutes the rays
    (so it is unimodular) and maps maximal cones to maximal cones.  Fans
    with more than MAX_AUTOMORPHISM_CANDIDATES candidates are rejected first.
    """
    n, m = fan.dim, fan.n_rays
    count = m**n
    if count > MAX_AUTOMORPHISM_CANDIDATES:
        # str() refuses ints of more than a few thousand digits
        size = count if count.bit_length() <= 64 else f"over 2^{count.bit_length() - 1}"
        raise InputError(
            f"the fan automorphism search would try {size} candidate maps "
            f"({m} rays to the power {n}); the cap is {MAX_AUTOMORPHISM_CANDIDATES}"
        )
    base = next(
        (idx for idx in itertools.permutations(range(m), n)
         if abs(det(tuple(fan.rays[i] for i in idx))) == 1),
        None,
    )
    if base is None:
        raise GeometryError("fan rays contain no lattice basis")
    # B has the basis rays as columns; it is unimodular, so B^{-1} is integral
    base_cols = tuple(zip(*(fan.rays[i] for i in base)))
    inverse_cols = tuple(
        tuple(map(exact_integer, solve_exact(base_cols, col))) for col in identity_matrix(n)
    )
    ray_index = {r: i for i, r in enumerate(fan.rays)}
    cone_set = set(fan.max_cones)
    found = set()
    for image in itertools.product(range(m), repeat=n):
        # the map with g u_{base_k} = u_{image_k} is g = C B^{-1}, where C has
        # the image rays as columns: row i of g is (B^{-1})^T applied to row i of C
        img_rows = tuple(zip(*(fan.rays[j] for j in image)))
        g = tuple(_apply(inverse_cols, row) for row in img_rows)
        # a g that permutes the rays, which hold a lattice basis, is unimodular
        perm = [ray_index.get(_apply(g, r)) for r in fan.rays]
        if None in perm or len(set(perm)) != m:
            continue
        if all(tuple(sorted(perm[i] for i in cone)) in cone_set for cone in fan.max_cones):
            found.add(g)
    if identity_matrix(n) not in found:
        raise GeometryError("internal inconsistency: the identity is not a fan automorphism")
    return tuple(sorted(found))


def _apply(g, v) -> tuple[int, ...]:
    """The integer vector g v, for an integer matrix g given by its rows."""
    return tuple(sum(a * b for a, b in zip(row, v)) for row in g)


def ray_permutation(fan: Fan, g) -> tuple[int, ...]:
    """The ray permutation induced by a fan automorphism: i -> index of g(u_i)."""
    ray_index = {r: i for i, r in enumerate(fan.rays)}
    return tuple(ray_index[_apply(g, r)] for r in fan.rays)


@functools.lru_cache(maxsize=16)
def ray_permutations(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """The ray permutation of each fan automorphism, in the order of
    fan_automorphisms, once per fan."""
    return tuple(ray_permutation(fan, g) for g in fan_automorphisms(fan))


# ---------------------------------------------------------------------------
# divisors


class ToricDivisor(ClearedClass):
    """A T-invariant rational divisor sum a_i D_i on a fixed fan, built from
    the rationals a_i and stored cleared: den = N > 0, their least common
    denominator, and nums, the integers N a_i.  Equality and hashing read
    (fan, N, N a), and `coeffs` builds the a_i as Fractions on request."""

    _home, _apart = "fan", "divisors live on different fans"
    # derived from the value on first use: the wall ConstraintTable (wall_table),
    # N D.D_i on a surface fan (_cleared_walls) and an ample surface class's
    # moment polygon (moment_polytope)
    _table = _walls = _polygon = None

    def __init__(self, fan: Fan, coeffs):
        den, nums = clear_denominators(coeffs)
        if len(nums) != fan.n_rays:
            raise ValidationError(f"divisor needs {fan.n_rays} coefficients, got {len(nums)}")
        vars(self).update(fan=fan, den=den, nums=nums)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __repr__(self) -> str:
        return f"ToricDivisor(fan={self.fan!r}, coeffs={self.coeffs!r})"


def canonical_divisor(fan: Fan) -> ToricDivisor:
    """K = -sum D_i."""
    return ToricDivisor(fan, (-1,) * fan.n_rays)


@functools.lru_cache(maxsize=16)
def anticanonical_divisor(fan: Fan) -> ToricDivisor:
    """-K = sum D_i, one per fan, so its walls are built once."""
    return ToricDivisor(fan, (1,) * fan.n_rays)


def _cone_functionals(d: ToricDivisor):
    """For each maximal cone, N m for the m with <m, u_i> = -a_i on its
    generators, solved against the integers -N a_i."""
    out = []
    for cone in d.fan.max_cones:
        m = solve_exact(d.fan.cone_matrix(cone), tuple(-d.nums[i] for i in cone))
        if m is None:
            raise GeometryError(
                f"internal inconsistency: the rays of maximal cone {cone} are not a basis"
            )
        out.append((cone, m))
    return out


def _positivity(d: ToricDivisor, strict: bool) -> bool:
    _require_valid(d.fan)
    if d.fan.dim == 2:
        walls = _cleared_walls(d)
        return all(x > 0 for x in walls) if strict else all(x >= 0 for x in walls)
    # <N m_sigma, u_j> + N a_j for each ray u_j off each maximal cone
    gaps = (dot(m, ray) + d.nums[j] for cone, m in _cone_functionals(d)
            for j, ray in enumerate(d.fan.rays) if j not in cone)
    return all(x > 0 for x in gaps) if strict else all(x >= 0 for x in gaps)


def is_ample(d: ToricDivisor) -> bool:
    """Strict concavity of the support function across every wall.

    On a surface this is positivity of every wall pairing D . D_i (toric
    Kleiman); in dimension 3 it is tested cone by cone.
    """
    return _positivity(d, strict=True)


def is_nef(d: ToricDivisor) -> bool:
    return _positivity(d, strict=False)


@functools.lru_cache(maxsize=8)
def moment_polytope(d: ToricDivisor) -> Polytope:
    """P_D = {m : <m, u_i> >= -a_i}; may be empty for non-effective classes.

    Memoized by divisor, so callers share one polytope and its vertex list.
    For an ample class on a smooth surface the vertices are the cone
    functionals m_sigma, and the cones taken in the angular order of their
    rays list them counterclockwise (Cox-Little-Schenck, ch. 6).  The
    divisor's stored N D = sum (N a_i) D_i has integer coefficients, so each
    cone functional N m_sigma is the integer solution of a unimodular 2x2
    system and the polygon keeps its vertices as integers over N; its
    half-planes are the primitive rays with N a, built on first read.  The class
    keeps that polygon.  Nef-only classes and threefolds fall back to vertex
    enumeration.
    """
    if d._polygon is not None:
        return d._polygon
    fan = d.fan
    check = validate_fan(fan)
    if not check.complete:
        raise GeometryError("moment polytope requires a complete fan")
    if fan.dim == 2 and check.smooth and all(x > 0 for x in _cleared_walls(d)):
        rays, order, a = fan.rays, angular_order(fan), d.nums
        cycle = [
            solve_exact((rays[i], rays[j]), (-a[i], -a[j]))
            for i, j in zip(order, order[1:] + order[:1])
        ]
        vars(d)["_polygon"] = polygon_from_cycle(rays, a, d.den, cycle)
        return d._polygon
    return make_polytope(fan.dim, [(r, -a) for r, a in zip(fan.rays, d.coeffs)])


@functools.lru_cache(maxsize=None)
def _wall_data(fan: Fan) -> tuple[tuple[int, int, int], ...]:
    """Per ray, in ray order, the cyclic neighbors and the integer c_i with
    u_{i-1} + u_{i+1} = c_i u_i (so D_i . D_i = -c_i on the surface)."""
    _require_valid(fan)
    if fan.dim != 2:
        raise GeometryError(
            "surface formula only (use mixed_volume_intersection for nef classes in n <= 3)"
        )
    order = angular_order(fan)
    m = len(order)
    data = {}
    for p in range(m):
        i = order[p]
        prev_i, next_i = order[(p - 1) % m], order[(p + 1) % m]
        total = tuple(a + b for a, b in zip(fan.rays[prev_i], fan.rays[next_i]))
        k = 0 if fan.rays[i][0] != 0 else 1
        c, rest = divmod(total[k], fan.rays[i][k])
        if rest or tuple(c * x for x in fan.rays[i]) != total:
            raise GeometryError(
                f"internal inconsistency: no integer wall relation at ray {i} of a smooth fan"
            )
        data[i] = (prev_i, next_i, c)
    return tuple(data[i] for i in range(m))


def _cleared_walls(d: ToricDivisor) -> tuple[int, ...]:
    """N D.D_i = N a_{i-1} + N a_{i+1} - c_i N a_i for every ray i of a
    surface fan, in ray order, over the class's own N; once per class."""
    if d._walls is None:
        a = d.nums
        walls = tuple(a[p] + a[n] - c * a[i] for i, (p, n, c) in enumerate(_wall_data(d.fan)))
        vars(d)["_walls"] = walls
    return d._walls


def wall_pairings(d: ToricDivisor) -> tuple[Fraction, ...]:
    """D . D_i = a_{i-1} + a_{i+1} - c_i a_i for every ray i of a surface
    fan, in ray order.  Every surface positivity question reads their
    signs: D is ample (nef) iff all are positive (nonnegative)."""
    return tuple(Fraction(x, d.den) for x in _cleared_walls(d))


def wall_table(d: ToricDivisor) -> ConstraintTable:
    """The class against the walls of its surface fan, N D.D_i over N in
    least terms, once per class, rows sorted by label so that ties go to the
    smaller label ("wall at ray 10" before "wall at ray 2").  With K =
    -sum D_i, K.D_i = c_i - 2, L^2 = sum a_i (L.D_i) and K.L = -sum L.D_i."""
    if d._table is None:
        den, a, walls = d.den, d.nums, _cleared_walls(d)
        labels, order = zip(*sorted((f"wall at ray {i}", i) for i in range(d.fan.n_rays)))
        data, g = _wall_data(d.fan), gcd(den, *walls)
        table = ConstraintTable(
            labels,
            tuple(walls[i] // g for i in order),
            tuple((data[i][2] - 2) * (den // g) for i in order),
            den // g,
            Fraction(sum(map(operator.mul, a, walls)), den * den),
            Fraction(-sum(walls), den),
        )
        vars(d)["_table"] = table
    return d._table


def intersection_number(d: ToricDivisor, e: ToricDivisor) -> Fraction:
    """Exact surface intersection product via the cyclic wall relation.

    Valid for arbitrary rational coefficients (no nefness needed), which is
    what makes the canonical class usable here.
    """
    if d.fan is not e.fan and d.fan != e.fan:
        raise ValidationError("divisors live on different fans")
    return Fraction(sum(map(operator.mul, e.nums, _cleared_walls(d))), d.den * e.den)


def mixed_volume_intersection(divisors) -> Fraction:
    """D_1 ... D_n for nef divisors via moment polytope volumes.

    Uses the polarization of D^n = n! Vol(P_D): the alternating sum of
    volumes of moment polytopes of subset sums (Minkowski sums of the
    individual polytopes, since nef support functions add).
    """
    divisors = list(divisors)
    if not divisors:
        raise ValidationError("mixed volume needs at least one divisor")
    fan = divisors[0].fan
    n = fan.dim
    if n > 3:
        raise GeometryError("mixed volume unsupported for n > 3")
    if len(divisors) != n:
        raise ValidationError(f"mixed volume needs exactly {n} divisors on this fan")
    for d in divisors:
        if d.fan != fan:
            raise ValidationError("divisors live on different fans")
        if not is_nef(d):
            raise GeometryError("mixed volume requires nef divisors")
    total = Fraction(0)
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            s = divisors[subset[0]]
            for i in subset[1:]:
                s = s + divisors[i]
            total += (-1) ** (n - size) * volume(moment_polytope(s))
    return total


class SlopeQuantities(NamedTuple):
    mu: Fraction
    rbar: Fraction | None


def slope_quantities(d: ToricDivisor) -> SlopeQuantities:
    """The slope mu = -K.D^{n-1} / D^n, and for surfaces the mean scalar
    curvature rbar = 2 mu, cross-checked against the Donaldson boundary
    measure of the moment polytope divided by its volume."""
    fan = d.fan
    if not is_ample(d):
        raise GeometryError("slope quantities require an ample divisor")
    minus_k = anticanonical_divisor(fan)
    if fan.dim == 2:
        d_sq = intersection_number(d, d)
        if d_sq == 0:
            raise GeometryError("slope undefined: D^n = 0")
        mu = intersection_number(minus_k, d) / d_sq
        rbar = 2 * mu
        p = moment_polytope(d)
        if rbar != boundary_measure(p) / volume(p):
            raise GeometryError(
                "internal inconsistency: 2 mu differs from the boundary measure over "
                "the area of the moment polygon"
            )
        return SlopeQuantities(mu=mu, rbar=rbar)
    if fan.dim == 3:
        if not is_nef(minus_k):
            raise GeometryError("slope in dimension 3 needs a nef anticanonical class")
        d_cube = mixed_volume_intersection([d, d, d])
        if d_cube == 0:
            raise GeometryError("slope undefined: D^n = 0")
        mu = mixed_volume_intersection([minus_k, d, d]) / d_cube
        return SlopeQuantities(mu=mu, rbar=None)
    raise GeometryError("slope quantities implemented for n in {2, 3}")


# ---------------------------------------------------------------------------
# builtin fans, each built and validated once per process


@functools.cache
def p2_fan() -> Fan:
    """The projective plane: rays e1, e2, -e1-e2."""
    return Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))


@functools.cache
def dp6_fan() -> Fan:
    """The hexagonal fan of the degree 6 del Pezzo surface (P^2 blown up at
    the three torus-fixed points).

    Rays are listed counterclockwise; note u_4 = (-1, 0), the unique choice
    for which all six boundary divisors are (-1)-curves with
    D_i . D_{i+1} = 1 cyclically.
    """
    rays = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
    cones = tuple((i, (i + 1) % 6) for i in range(6))
    return Fan(2, rays, cones)


BUILTIN_FANS = {"p2": p2_fan, "dp6": dp6_fan}
