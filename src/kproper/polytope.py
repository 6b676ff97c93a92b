"""Exact convex polytopes in dimension <= 3.

A polytope is stored by its H-representation, a list of half-planes
``<m, normal> >= offset`` with primitive integer normals and rational
offsets, plus an optional list of linear equations for lower-dimensional
polytopes (fixed-point sets of finite linear groups).  Vertex enumeration,
volumes, the lattice boundary measure, barycenters and lattice points are
all computed in exact rational arithmetic; no square root or float is ever
taken.

A polygon keeps its vertices as a counterclockwise cycle of integer
points over one positive denominator; the public vertex list (sorted
Fraction tuples) is built from it only when asked for.  Areas, centroids,
boundary measures and symmetry tests read the integer cycle, so each
polygon is put in boundary order at most once.  Callers that already know
the cycle supply it (`polygon_from_cycle`): the moment polygon of an ample
class on a smooth toric surface has the cone functionals as its vertices,
in the angular order of the rays, and a translate carries the cycle over
in integers.  Such a polygon keeps its half-planes <m, u_i> >= -a_i / N
as the integers a_i over N and builds the HalfSpaces only when its
`hrep` is read.  Polygons, translates and fixed subpolytopes are
assembled from parts already in canonical form, so their half-planes are
not canonicalized again; the fixed subpolytope of a group that fixes only
the origin is that point, without enumeration.

Otherwise the vertices come from the fallback enumeration, which is
deliberately unsophisticated: candidate vertices are intersections of
dim-many facet hyperplanes, filtered by feasibility.  Inputs here are
desk-scale (a few dozen facets), where this is both fast and easy to trust;
larger inputs are rejected before it starts (MAX_VERTEX_CANDIDATES).  The
same enumeration, on polytopes with one more equality, decides emptiness
and boundedness (see `vertices`).  A solid 3D polytope is cut into
tetrahedra facet by facet; each facet's vertices are put in cyclic order by
the polygon sort, applied to their projection onto a coordinate plane.
Symmetry tests (`fixed_subpolytope`, the stabilizer of a class) compare
integer images of the cleared vertex set.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

from .rationals import (
    GeometryError,
    InputError,
    ValidationError,
    as_fraction,
    clear_denominators,
    det,
    dot,
    exact_integer,
    identity_matrix,
    is_unimodular,
    mat_vec,
    solve_exact,
    solve_linear_system,
    transpose,
    vec_add,
    vec_scale,
    vec_sub,
)

# The fallback enumeration solves one system for each of the C(m, dim) subsets
# of the m half-spaces and tests each solution against all m; at this cap a
# polygon with 100 edges takes about 1.9 s and a 3D polytope with 31 facets 1 s.
MAX_VERTEX_CANDIDATES = 5000


@dataclass(frozen=True)
class HalfSpace:
    """The closed half-space <m, normal> >= offset."""

    normal: tuple[int, ...]
    offset: Fraction


@dataclass(frozen=True)
class LinearEquation:
    """The hyperplane <m, coeffs> = rhs."""

    coeffs: tuple[int, ...]
    rhs: Fraction


def _canonical_halfspace(normal, offset) -> HalfSpace:
    normal = tuple(map(exact_integer, normal))
    if all(x == 0 for x in normal):
        raise ValidationError("half-space normal must be nonzero")
    g = gcd(*normal)
    if g == 1:
        return HalfSpace(normal, as_fraction(offset))
    return HalfSpace(tuple(x // g for x in normal), as_fraction(offset) / g)


def _canonical_equation(coeffs, rhs) -> LinearEquation | None:
    coeffs = tuple(map(exact_integer, coeffs))
    rhs = as_fraction(rhs)
    if all(x == 0 for x in coeffs):
        if rhs != 0:
            raise ValidationError("inconsistent equation 0 = nonzero")
        return None
    g = gcd(*coeffs)
    coeffs = tuple(x // g for x in coeffs)
    rhs = rhs / g
    # fix an overall sign so equal hyperplanes serialize identically
    lead = next(x for x in coeffs if x != 0)
    if lead < 0:
        coeffs = tuple(-x for x in coeffs)
        rhs = -rhs
    return LinearEquation(coeffs, rhs)


@dataclass(frozen=True)
class Polytope:
    dim: int
    hrep: tuple[HalfSpace, ...]
    equalities: tuple[LinearEquation, ...] = ()
    _vertex_cache: object = field(default=None, compare=False, repr=False)
    # polygons only: (den, cycle), the vertices counterclockwise as integer
    # points over the positive integer den; the cycle is () when the polygon
    # is not full-dimensional
    _cycle_cache: object = field(default=None, compare=False, repr=False)
    # a polygon from polygon_from_cycle: (normals u_i, integers a_i, den) for its
    # half-planes <m, u_i> >= -a_i / den, built into hrep on first read
    _planes: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.dim < 1 or self.dim > 3:
            raise ValidationError(f"polytope dimension {self.dim} unsupported (need 1 <= n <= 3)")
        seen: dict[tuple[int, ...], Fraction] = {}
        for hs in self.hrep:
            if len(hs.normal) != self.dim:
                raise ValidationError("half-space dimension mismatch")
            canon = _canonical_halfspace(hs.normal, hs.offset)
            prev = seen.get(canon.normal)
            # parallel constraints: keep only the tightest offset
            if prev is None or canon.offset > prev:
                seen[canon.normal] = canon.offset
        object.__setattr__(
            self, "hrep", tuple(HalfSpace(n, c) for n, c in sorted(seen.items()))
        )
        eqs = []
        for eq in self.equalities:
            if len(eq.coeffs) != self.dim:
                raise ValidationError("equation dimension mismatch")
            canon = _canonical_equation(eq.coeffs, eq.rhs)
            if canon is not None and canon not in eqs:
                eqs.append(canon)
        object.__setattr__(self, "equalities", tuple(sorted(eqs, key=lambda e: (e.coeffs, e.rhs))))

    def __getattr__(self, name):
        if name != "hrep" or self._planes is None:
            raise AttributeError(name)
        normals, nums, den = self._planes
        hrep = tuple(HalfSpace(u, Fraction(-x, den)) for u, x in sorted(zip(normals, nums)))
        object.__setattr__(self, "hrep", hrep)
        return hrep


def make_polytope(dim, halfspaces, equalities=()) -> Polytope:
    """Build a polytope from (normal, offset) pairs and (coeffs, rhs) pairs."""
    hs = tuple(HalfSpace(tuple(n), as_fraction(c)) for n, c in halfspaces)
    eqs = tuple(LinearEquation(tuple(a), as_fraction(r)) for a, r in equalities)
    return Polytope(dim, hs, eqs)


def _assembled(dim, hrep, equalities=(), vertex_cache=None, cycle_cache=None,
               planes=None) -> Polytope:
    """A Polytope from parts that are already canonical (primitive, distinct
    normals in sorted order; canonical equations, sorted), built without the
    canonicalizing pass of __post_init__.  With hrep None, the half-planes
    are built from planes when read."""
    p = object.__new__(Polytope)
    vars(p).update(dim=dim, equalities=equalities, _vertex_cache=vertex_cache,
                   _cycle_cache=cycle_cache, _planes=planes)
    if hrep is not None:
        vars(p)["hrep"] = hrep
    return p


# ---------------------------------------------------------------------------
# boundedness


def _is_bounded(p: Polytope) -> bool:
    """Whether the recession cone C = {d : <d, n_i> >= 0} of p is {0}, for
    normals n_i that span.

    Every nonzero d in C then has <d, s> > 0 for the sum s of the normals,
    so C is {0} exactly when its bounded section <d, s> = 1 has no vertex.
    """
    s = tuple(map(sum, zip(*(hs.normal for hs in p.hrep))))
    if not any(s):
        return True
    cone = tuple(HalfSpace(hs.normal, Fraction(0)) for hs in p.hrep)
    return not vertices(Polytope(p.dim, cone, (LinearEquation(s, Fraction(1)),)))


# ---------------------------------------------------------------------------
# vertex enumeration


def _candidate_vertices(dim: int, constraints):
    found = set()
    if dim == 1:
        for (n,), c in constraints:
            if n != 0:
                found.add((Fraction(c, n),))
    else:
        for subset in itertools.combinations(constraints, dim):
            matrix = tuple(n for n, _ in subset)
            rhs = tuple(c for _, c in subset)
            point = solve_exact(matrix, rhs)
            if point is not None:
                found.add(point)
    return [p for p in found if all(dot(p, n) >= c for n, c in constraints)]


def _reduce_by_equalities(p: Polytope):
    """Project an equality-carrying polytope onto its affine hull.

    Returns None when the equalities are inconsistent, otherwise
    (origin, basis, sub) with ``sub`` a pure-inequality polytope in the
    parameter space, or (origin, (), None) when the hull is a single point.
    """
    rows = [list(eq.coeffs) for eq in p.equalities]
    rhs = [eq.rhs for eq in p.equalities]
    solution = solve_linear_system(rows, rhs)
    if solution is None:
        return None
    origin, basis = solution
    if not basis:
        return origin, (), None
    sub_constraints = []
    for hs in p.hrep:
        coeffs = tuple(dot(b, hs.normal) for b in basis)
        offset = hs.offset - dot(origin, hs.normal)
        if all(x == 0 for x in coeffs):
            if offset > 0:
                return None
            continue
        nums = clear_denominators((*coeffs, offset))[1]
        sub_constraints.append((nums[:-1], nums[-1]))
    return origin, basis, make_polytope(len(basis), sub_constraints)


def vertices(p: Polytope) -> tuple:
    """Exact vertex set, sorted lexicographically; () for an empty polytope.

    Raises GeometryError when the feasible region is unbounded, since an
    unbounded region is not described by vertices alone.  A feasible
    candidate vertex means the normals span, so p is pointed and bounded
    exactly when a section of its recession cone is empty (`_is_bounded`).
    With no candidate, p = (p & L^perp) + L for the null space L of the
    normals: p is empty when p & L^perp has no vertex, else it holds lines.
    """
    if p._vertex_cache is not None:
        return p._vertex_cache
    if p._cycle_cache is not None and p._cycle_cache[1]:
        den, cycle = p._cycle_cache
        result = tuple(tuple(Fraction(x, den) for x in v) for v in sorted(cycle))
    elif p.equalities:
        reduced = _reduce_by_equalities(p)
        if reduced is None:
            result = ()
        else:
            origin, basis, sub = reduced
            if not basis:
                result = (tuple(origin),) if all(
                    dot(origin, hs.normal) >= hs.offset for hs in p.hrep
                ) else ()
            else:
                cols = transpose(basis)
                result = tuple(
                    sorted(tuple(vec_add(origin, mat_vec(cols, t))) for t in vertices(sub))
                )
    else:
        count = comb(len(p.hrep), p.dim)
        if count > MAX_VERTEX_CANDIDATES:
            raise InputError(
                f"the vertex enumeration would try {count} candidate vertices "
                f"({len(p.hrep)} half-spaces choose {p.dim}); the cap is {MAX_VERTEX_CANDIDATES}"
            )
        constraints = [(hs.normal, hs.offset) for hs in p.hrep]
        cands = _candidate_vertices(p.dim, constraints)
        if cands:
            if not _is_bounded(p):
                raise GeometryError("polytope is unbounded")
            result = tuple(sorted(cands))
        else:
            # with L = 0 the normals span, so a nonempty p would have a vertex
            lines = (
                solve_linear_system([hs.normal for hs in p.hrep], [0] * len(p.hrep))[1]
                if p.hrep else identity_matrix(p.dim)
            )
            perp = tuple(LinearEquation(clear_denominators(v)[1], Fraction(0)) for v in lines)
            if perp and vertices(Polytope(p.dim, p.hrep, perp)):
                raise GeometryError("polytope is unbounded")
            result = ()
    object.__setattr__(p, "_vertex_cache", result)
    return result


def affine_dimension(p: Polytope) -> int:
    """Dimension of the affine hull of the vertex set; -1 when empty."""
    verts = vertices(p)
    if not verts:
        return -1
    if len(verts) == 1:
        return 0
    rows = [list(vec_sub(v, verts[0])) for v in verts[1:]]
    _, nullspace = solve_linear_system(rows, [0] * len(rows))
    return p.dim - len(nullspace)


# ---------------------------------------------------------------------------
# measures


def polygon_from_cycle(normals, nums, den: int, cycle) -> Polytope:
    """The full-dimensional polygon {m : <m, u_i> >= -a_i / den} for
    primitive, distinct normals u_i and integers a_i, whose vertices are
    the integer points of `cycle` over den > 0, listed counterclockwise.

    The caller vouches for all of it, so nothing is canonicalized,
    enumerated or sorted; the half-planes become HalfSpaces only when
    `hrep` is read, and the vertices Fractions only when `vertices` is
    asked for them."""
    return _assembled(2, None, (), None, (den, tuple(cycle)), (tuple(normals), tuple(nums), den))


def _polygon_cycle(p: Polytope) -> tuple:
    """(den, cycle): the vertices of a polygon counterclockwise, as integer
    points over den; the cycle is () when p is empty or not
    full-dimensional.  Sorted at most once per polygon."""
    if p._cycle_cache is None:
        verts = vertices(p)
        full = len(verts) >= 3 and affine_dimension(p) == 2
        denom, points = _cleared(verts) if full else (1, [])
        object.__setattr__(p, "_cycle_cache", (denom, tuple(_order_ccw_2d(points))))
    return p._cycle_cache


def _cleared(points) -> tuple[int, list]:
    """(L, [L * v as integer tuples]) with L the lcm of all denominators."""
    denom = lcm(*(x.denominator for v in points for x in v)) if points else 1
    return denom, [tuple(x.numerator * (denom // x.denominator) for x in v) for v in points]


def _cycle_edges(cycle):
    """Consecutive pairs (a, b) of integer points around a closed cycle."""
    return zip(cycle, cycle[1:] + cycle[:1])


def _angle_cmp(u, v) -> int:
    """Order plane vectors counterclockwise by angle from the positive x-axis."""
    hu = 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1
    hv = 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1
    if hu != hv:
        return -1 if hu < hv else 1
    cross = u[0] * v[1] - u[1] * v[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


def _order_ccw_2d(points):
    """The points sorted counterclockwise by angle about their centroid
    s / n; the angles are read off n v - s, so integer points stay integers."""
    n = len(points)
    sx, sy = (sum(v[i] for v in points) for i in range(2))
    return sorted(points, key=functools.cmp_to_key(
        lambda a, b: _angle_cmp((n * a[0] - sx, n * a[1] - sy), (n * b[0] - sx, n * b[1] - sy))
    ))


def _facets_3d(p: Polytope, verts):
    facets = []
    seen = set()
    for hs in p.hrep:
        on = tuple(v for v in verts if dot(v, hs.normal) == hs.offset)
        if len(on) >= 3 and on not in seen:
            seen.add(on)
            facets.append((hs.normal, on))
    return facets


def _facet_cycle(normal, points):
    """The vertices of a facet in cyclic order: dropping a coordinate where
    the normal is nonzero maps the facet plane injectively to a plane, so
    the angular order of the projections is a cycle of the facet, up to
    orientation."""
    k = next(i for i, x in enumerate(normal) if x)
    lift = {v[:k] + v[k + 1:]: v for v in points}
    return [lift[q] for q in _order_ccw_2d(list(lift))]


def _solid(p: Polytope, verts) -> bool:
    """Whether p, not a polygon, has positive volume."""
    return len(verts) > p.dim and affine_dimension(p) == p.dim


def _tetrahedra(p: Polytope, verts):
    """(six times the volume, the four corners) of each tetrahedron of one
    triangulation of a solid 3D polytope: every facet that misses the first
    vertex is fanned from its first cycle point and coned to that vertex."""
    base = verts[0]
    for normal, on in _facets_3d(p, verts):
        if dot(base, normal) == dot(on[0], normal):
            continue
        cycle = _facet_cycle(normal, on)
        anchor = cycle[0]
        for a, b in zip(cycle[1:], cycle[2:]):
            six = abs(det((vec_sub(anchor, base), vec_sub(a, base), vec_sub(b, base))))
            yield six, (base, anchor, a, b)


def volume(p: Polytope) -> Fraction:
    """Euclidean volume, exact; 0 for empty or lower-dimensional polytopes."""
    if p.dim == 2:
        # shoelace on the cleared cycle: twice the area, times denom^2
        denom, cycle = _polygon_cycle(p)
        twice = sum(a[0] * b[1] - a[1] * b[0] for a, b in _cycle_edges(cycle))
        return Fraction(twice, 2 * denom * denom)
    verts = vertices(p)
    if not _solid(p, verts):
        return Fraction(0)
    if p.dim == 1:
        return verts[-1][0] - verts[0][0]
    return sum((six for six, _ in _tetrahedra(p, verts)), Fraction(0)) / 6


def boundary_measure(p: Polytope) -> Fraction:
    """Total lattice length of the boundary of a full-dimensional polygon.

    Each edge contributes its length measured against the primitive integer
    vector in the edge direction (Donaldson's boundary measure on moment
    polygons).  This is a rational number; no Euclidean norm appears.
    """
    if p.dim != 2:
        raise GeometryError("boundary measure is defined for polygons only")
    denom, cycle = _polygon_cycle(p)
    if not cycle:
        raise GeometryError("boundary measure requires a full-dimensional polygon")
    # an edge b - a = (x, y) / denom has lattice length gcd(x, y) / denom
    return Fraction(sum(gcd(b[0] - a[0], b[1] - a[1]) for a, b in _cycle_edges(cycle)), denom)


def cleared_barycenter(p: Polytope) -> tuple[int, tuple[int, ...]]:
    """The barycenter as integer numerators over their least positive
    denominator; a polygon's is read off its integer cycle."""
    if p.dim != 2:
        return clear_denominators(barycenter(p))
    denom, cycle = _polygon_cycle(p)
    if not cycle:
        raise GeometryError("barycenter requires a polytope of positive volume")
    # fan the cleared cycle from the origin: the triangle (0, a, b) has
    # signed double area w = a x b and centroid (a + b) / 3
    twice = sx = sy = 0
    for a, b in _cycle_edges(cycle):
        w = a[0] * b[1] - a[1] * b[0]
        twice += w
        sx += w * (a[0] + b[0])
        sy += w * (a[1] + b[1])
    g = gcd(3 * twice * denom, sx, sy)
    return 3 * twice * denom // g, (sx // g, sy // g)


def barycenter(p: Polytope) -> tuple:
    """Exact centroid via triangulation; requires positive volume."""
    if p.dim == 2:
        den, nums = cleared_barycenter(p)
        return tuple(Fraction(x, den) for x in nums)
    verts = vertices(p)
    if not _solid(p, verts):
        raise GeometryError("barycenter requires a polytope of positive volume")
    if p.dim == 1:
        return ((verts[0][0] + verts[-1][0]) / 2,)
    total = Fraction(0)
    acc = (Fraction(0), Fraction(0), Fraction(0))
    for six, corners in _tetrahedra(p, verts):
        vol = six / 6
        centroid = tuple(sum(c[i] for c in corners) / 4 for i in range(3))
        acc = vec_add(acc, vec_scale(vol, centroid))
        total += vol
    return tuple(c / total for c in acc)


# ---------------------------------------------------------------------------
# transformations


def translate(p: Polytope, t) -> Polytope:
    """The polytope p + t, exactly, in the canonical form of p.

    t is cleared to integers over one denominator, so each offset takes one
    Fraction.  A known polygon cycle is carried over in integers, over the
    lcm of the two denominators, and other known vertices as v + t, so the
    translate never enumerates or sorts its vertices again.
    """
    if len(t) != p.dim:
        raise ValidationError("translation vector dimension mismatch")
    tden, tnum = clear_denominators(t)

    def moved(c, normal):
        # c + <t, normal>, as one Fraction
        return Fraction(
            c.numerator * tden + c.denominator * sum(map(mul, tnum, normal)), c.denominator * tden
        )

    hs = tuple(HalfSpace(h.normal, moved(h.offset, h.normal)) for h in p.hrep)
    eqs = tuple(LinearEquation(e.coeffs, moved(e.rhs, e.coeffs)) for e in p.equalities)
    # a translation keeps the lexicographic order and the orientation
    cycle = p._cycle_cache
    if cycle is not None and cycle[1]:
        den, points = cycle
        m = lcm(den, tden)
        a, b = m // den, m // tden
        cycle = (m, tuple(tuple([x * a + y * b for x, y in zip(v, tnum)]) for v in points))
        return _assembled(p.dim, hs, eqs, None, cycle)
    verts = p._vertex_cache
    if verts is not None:
        verts = tuple(vec_add(v, t) for v in verts)
    return _assembled(p.dim, hs, eqs, verts, cycle)


def fixed_subpolytope(p: Polytope, group) -> Polytope:
    """Intersection of p with the fixed subspace of a finite linear group.

    The matrices in ``group`` act on the dual lattice side; the induced
    action on the polytope's ambient space is by transposes, so a point y is
    fixed when (g^T - I) y = 0 for every g.  Every group element must map
    the vertex set of p onto itself (the polytope must already be centered),
    otherwise this raises.  A tuple group must hold tuple matrices.
    """
    if type(group) is not tuple:
        group = tuple(tuple(tuple(row) for row in g) for g in group)
    fixed, fixed_dim = _fixed_space(group, p.dim)
    cleared = cleared_vertices(p)
    for g in group:
        if not preserves_vertices(g, cleared):
            raise GeometryError("group does not preserve polytope")
    if fixed_dim == p.dim:
        return p
    if p.equalities:
        return Polytope(p.dim, p.hrep, p.equalities + fixed)
    if fixed_dim:
        return _assembled(p.dim, vars(p).get("hrep"), fixed, planes=p._planes)
    # the group fixes the average of the vertex set, which lies in p; with
    # no other fixed point, the fixed subpolytope is that point, the origin
    origin = ((Fraction(0),) * p.dim,) if cleared else ()
    cycle = (1, ()) if p.dim == 2 else None
    return _assembled(p.dim, vars(p).get("hrep"), fixed, origin, cycle, p._planes)


@functools.lru_cache(maxsize=64)
def _fixed_space(group: tuple, dim: int) -> tuple[tuple[LinearEquation, ...], int]:
    """(equations, dimension) of the fixed space of the group: the nonzero
    rows of g^T - I over the group in canonical form, with the group checked
    unimodular, once per group."""
    rows = []
    eye = identity_matrix(dim)
    for g in group:
        if not is_unimodular(g):
            raise ValidationError("group elements must be unimodular integer matrices")
        for row_g, row_i in zip(transpose(g), eye):
            coeffs = tuple(a - b for a, b in zip(row_g, row_i))
            if any(coeffs):
                rows.append(coeffs)
    if not rows:
        return (), dim
    eqs = {_canonical_equation(row, 0) for row in rows}
    _, basis = solve_linear_system(rows, [0] * len(rows))
    return tuple(sorted(eqs, key=lambda e: (e.coeffs, e.rhs))), len(basis)


def integer_vertices(p: Polytope) -> tuple[int, tuple]:
    """(den, points): the vertices of p as integers over one positive den,
    the polygon's cycle when it is known, else cleared by their lcm."""
    cycle = p._cycle_cache
    return cycle if cycle is not None and cycle[1] else _cleared(vertices(p))


def cleared_vertices(p: Polytope) -> frozenset:
    """The points of integer_vertices(p) as a set.  A linear map preserves
    the vertex set exactly when it preserves this integer copy, so symmetry
    tests never multiply fractions."""
    return frozenset(integer_vertices(p)[1])


def preserves_vertices(g, cleared: frozenset) -> bool:
    """Whether g^T maps a cleared vertex set (see cleared_vertices) onto
    itself, that is, whether the set of its images is the set itself."""
    if len(g) == 2:
        (a, b), (c, d) = g
        return {(a * x + c * y, b * x + d * y) for x, y in cleared} == cleared
    gt = tuple(zip(*g))
    return {tuple([sum(map(mul, row, w)) for row in gt]) for w in cleared} == cleared


def lattice_points(p: Polytope, k: int = 1) -> tuple:
    """The integer points of the dilate k*p as int tuples, sorted.

    Scanline: the first dim - 1 coordinates run over the integer bounding
    box of k*p, read off the vertices cleared to integers once (the
    polygon's cycle when it is known), and for each prefix the last
    coordinate takes an interval read off the half-spaces
    <z, den*n> >= k*num, whose offsets are cleared to one denominator den
    once per call, by floor and ceiling division, pinned by the equalities
    through a divisibility test.  Points come out in lexicographic order,
    so nothing is sorted.  Unbounded input raises.
    """
    if not isinstance(k, int) or k < 1:
        raise GeometryError("lattice refinement k must be a positive integer")
    vden, cleared = integer_vertices(p)
    if not cleared:
        return ()
    last = p.dim - 1
    lo = [-(-min(col) * k // vden) for col in zip(*cleared)]
    hi = [max(col) * k // vden for col in zip(*cleared)]
    normals = [hs.normal for hs in p.hrep] + [e.coeffs for e in p.equalities]
    den, nums = clear_denominators([hs.offset for hs in p.hrep] + [e.rhs for e in p.equalities])
    # <z, den*n> >= k*num for a half-space, = for an equality
    rows = [(tuple(den * x for x in n), k * num) for n, num in zip(normals, nums)]
    ineqs, eqs = rows[:len(p.hrep)], rows[len(p.hrep):]
    points = []
    for prefix in itertools.product(*(range(lo[i], hi[i] + 1) for i in range(last))):
        z_lo, z_hi = lo[last], hi[last]
        for n, num in ineqs:
            # n_last * z_last >= num - <prefix, n>
            rest = num - sum(map(mul, prefix, n))
            step = n[last]
            if step > 0:
                z_lo = max(z_lo, -(-rest // step))
            elif step < 0:
                z_hi = min(z_hi, rest // step)
            elif rest > 0:
                z_hi = z_lo - 1
        for c, num in eqs:
            rest = num - sum(map(mul, prefix, c))
            step = c[last]
            if step and not rest % step:
                z_lo = max(z_lo, rest // step)
                z_hi = min(z_hi, rest // step)
            elif step or rest:
                z_hi = z_lo - 1
        points.extend(zip(*map(itertools.repeat, prefix), range(z_lo, z_hi + 1)))
    return tuple(points)
