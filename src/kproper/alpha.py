"""Tian's alpha invariant of an ample toric class, for the compact group
generated by the real torus and the finite stabilizer of the class.

After translating the moment polytope so its barycenter is the origin (the
class-level normalization; the shift is an exact rational translation), the
invariant is a finite minimization over polytope data:

    alpha = min over rays i, min over y in the fixed polytope P^K of
            1 / (<y, u_i> + a_i')

where a_i' are the recentered coefficients and P^K is the subpolytope fixed
by the stabilizer (the full centered polytope in torus-only mode).  The
inner quantity is linear in y, so only vertices of P^K matter.  The route
runs in integers: a class is stored as N a over N and its moment polygon
keeps integer vertices over N, whose barycenter gives a' over M, the lcm of
N and its denominator.  The centered polygon is built from a' (half-planes
<m, u_i> >= -a_i'/M, the cycle shifted over M), the stabilizer is read off
a' (an explicit group is checked on the integer vertex set) and the vertex
formula is one integer maximum over the integer vertices of P^K, the whole
cycle when P^K is the polygon.  A Fraction is built only for the
barycenter that is checked, alpha and offsets that are read; threefolds
translate by -beta.

`alpha_oracle` is the independent brute-force route: the minimum of the
exact log-canonical thresholds of the invariant orbit sections on the
lattice points of dilates k P, an upper bound for the invariant that
decreases in the search depth.  Summing an orbit is linear in the point:
with G acting on k P by z -> g^T z - k tau_g, the images g.z cover the
orbit of z |G_z| times each, so the orbit section of z has

    lct = k |G| / max_i f_i(z),   f_i(z) = sum_g (<g^T z - k tau_g, u_i> + k a_i),

and f_i, an integer linear form, depends only on the ray orbit of i.
The oracle clears the coefficient denominators (alpha scales by 1/t under
D -> tD), checks per element that g^T maps the integer vertex set of P
onto itself plus tau_g, keeps one form per distinct ray orbit, and
evaluates each form on all lattice points of k P at once, over their
coordinate columns in integers: no value may be negative, and the greatest
is the worst vanishing order; the best threshold stays an integer pair
until one Fraction is built at the end.  Its work
is capped before any enumeration: the integer bounding boxes of k P for
k = 1..depth may hold at most MAX_ORACLE_POINTS points in all.
The two routes are kept separate on purpose; the tests play them against
each other.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import lcm, prod
from operator import add, mul, sub
from typing import NamedTuple

from .polytope import (
    Polytope,
    barycenter,
    cleared_barycenter,
    cleared_vertices,
    fixed_subpolytope,
    integer_vertices,
    lattice_points,
    polygon_from_cycle,
    preserves_vertices,
    translate,
    vertices,
)
from .rationals import (
    GeometryError,
    InputError,
    exact_integer,
    identity_matrix,
    mat_mul,
    transpose,
)
from .toric import (
    ToricDivisor,
    fan_automorphisms,
    is_ample,
    moment_polytope,
    ray_permutations,
)

GROUP_MODES = ("full", "torus", "explicit")

# The oracle visits the lattice points of k P for k = 1..depth, about
# depth^3 / 3 times the area of P in all, so the depth is capped before any
# enumeration starts.
MAX_ORACLE_DEPTH = 64
# The class size is not bounded by the depth: the bounding boxes of k P for
# k = 1..depth may hold at most this many integer points in all.  The
# anticanonical dp6 class at depth 64 needs about 366k.
MAX_ORACLE_POINTS = 1_000_000


class SymmetryContext(NamedTuple):
    """An ample divisor with its recentered polytope, its recentered class
    sum a_i' D_i and its class stabilizer."""

    divisor: ToricDivisor
    stabilizer: tuple
    centered_polytope: Polytope
    centered: ToricDivisor


def _stabilizer_of(fan, shifted: tuple[int, ...]) -> tuple:
    """The fan automorphisms that preserve the centered polytope of an
    ample class, read off the integers of its recentered class (see
    _centered).

    g^T maps {m : <m, u_i> >= -a_i'} onto {m : <m, u_i> >= -a'_perm(i)},
    where perm is g's ray permutation.  Every ray of an ample class gives a
    facet, in any dimension, so g fixes the polytope exactly when perm
    keeps the coefficients."""
    return tuple(
        g for g, perm in zip(fan_automorphisms(fan), ray_permutations(fan))
        if tuple([shifted[j] for j in perm]) == shifted
    )


def _centered(d: ToricDivisor):
    """(P - beta, sum a_i' D_i) for the moment polytope P with barycenter
    beta: the recentered coefficients a_i' = a_i + <beta, u_i> are built as
    integers over M, the lcm of the denominators N of a and of beta.  A
    moment polygon's translate is built from a': half-planes <m, u_i> >=
    -a_i'/M, kept in integers, and P's cycle (integers over N) shifted in
    integers over M."""
    p = moment_polytope(d)
    bden, bnums = cleared_barycenter(p)
    m = lcm(d.den, bden)
    a, b = m // d.den, m // bden
    shift = [-x * b for x in bnums]
    shifted = tuple(x * a - sum(map(mul, shift, u)) for x, u in zip(d.nums, d.fan.rays))
    centered = d._with_integers(m, shifted)
    if p.dim != 2:
        return translate(p, [Fraction(x, m) for x in shift]), centered
    cycle = [(x * a + shift[0], y * a + shift[1]) for x, y in integer_vertices(p)[1]]
    return polygon_from_cycle(d.fan.rays, shifted, m, cycle), centered


def _close_under_products(generators, bound: int):
    elements = {identity_matrix(len(generators[0]))} if generators else set()
    elements |= {tuple(tuple(map(exact_integer, row)) for row in g) for g in generators}
    frontier = list(elements)
    while frontier:
        g = frontier.pop()
        for h in list(elements):
            for prod in (mat_mul(g, h), mat_mul(h, g)):
                if prod not in elements:
                    elements.add(prod)
                    frontier.append(prod)
        if len(elements) > bound:
            raise GeometryError("explicit group does not generate a finite subgroup")
    return tuple(sorted(elements))


def symmetry_context(
    d: ToricDivisor, group_mode: str = "full", explicit_group=None
) -> SymmetryContext:
    if group_mode not in GROUP_MODES:
        raise InputError(f'unknown group mode "{group_mode}"; expected one of {GROUP_MODES}')
    if not is_ample(d):
        raise GeometryError("alpha invariant requires an ample class")
    polygon, centered = _centered(d)
    if group_mode == "full":
        stabilizer = _stabilizer_of(d.fan, centered.nums)
    elif group_mode == "torus":
        stabilizer = ()
    else:
        if not explicit_group:
            raise InputError("explicit group mode needs a nonempty matrix list")
        autos = set(fan_automorphisms(d.fan))
        closure = _close_under_products(explicit_group, bound=len(autos))
        cleared = cleared_vertices(polygon)
        for g in closure:
            if g not in autos:
                raise GeometryError("explicit group element is not a fan automorphism")
            if not preserves_vertices(g, cleared):
                raise GeometryError("explicit group element does not preserve the class")
        stabilizer = closure
    if any(x != 0 for x in barycenter(polygon)):
        raise GeometryError(
            "internal inconsistency: the recentered polytope has a nonzero barycenter"
        )
    return SymmetryContext(
        divisor=d, stabilizer=stabilizer, centered_polytope=polygon, centered=centered,
    )


def fixed_polytope(ctx: SymmetryContext) -> Polytope:
    if not ctx.stabilizer:
        return ctx.centered_polytope
    return fixed_subpolytope(ctx.centered_polytope, ctx.stabilizer)


def alpha_invariant(ctx: SymmetryContext) -> Fraction:
    """The invariant via the vertex formula on the fixed subpolytope,
    evaluated in integers: the vertices and the recentered coefficients
    over one common denominator m, so alpha = m / max(<v, u_i> + a_i')."""
    vden, points = integer_vertices(fixed_polytope(ctx))
    if not points:
        raise GeometryError("fixed subpolytope is empty")
    c = ctx.centered
    m = lcm(vden, c.den)
    a, b = m // vden, m // c.den
    rows = [(ray, x * b) for ray, x in zip(c.fan.rays, c.nums)]
    worst = max(sum(map(mul, v, ray)) * a + x for v in points for ray, x in rows)
    if worst <= 0:
        raise GeometryError(
            "internal inconsistency: the alpha vertex formula has no positive denominator"
        )
    return Fraction(m, worst)


def alpha_oracle(ctx: SymmetryContext, k_max: int = 12) -> Fraction:
    """Brute-force upper bound from invariant linear systems up to depth k_max.

    Checks per element that g^T maps the integer vertex set of the integral
    model P onto itself plus tau_g.  The images of a lattice point z of k P
    then cover its orbit |G_z| times each, so its orbit section has lct
    k |G| / max_i f_i(z), with one integer form f_i per ray orbit (see the
    module docstring), evaluated over the columns of the points of each
    k P.  Nonincreasing in k_max, never below alpha_invariant.
    The depth may be at most MAX_ORACLE_DEPTH, and the bounding boxes of
    the dilates may hold at most MAX_ORACLE_POINTS points in all.
    """
    if not isinstance(k_max, int) or k_max < 1:
        raise InputError("oracle depth must be a positive integer")
    if k_max > MAX_ORACLE_DEPTH:
        raise InputError(f"oracle depth {k_max} exceeds the cap of {MAX_ORACLE_DEPTH}")
    d = ctx.divisor
    p_int = moment_polytope(ToricDivisor(d.fan, d.nums))
    verts = [tuple(map(exact_integer, v)) for v in vertices(p_int)]
    # the integer bounding box of k P has k * width + 1 points per axis
    widths = [max(col) - min(col) for col in zip(*verts)]
    work = sum(prod(k * w + 1 for w in widths) for k in range(1, k_max + 1))
    if work > MAX_ORACLE_POINTS:
        raise InputError(
            f"the oracle would visit up to {work} lattice points to depth {k_max}, "
            f"over the cap of {MAX_ORACLE_POINTS}"
        )
    # torus mode is the trivial group; every mode hands over a group
    group = ctx.stabilizer or (identity_matrix(d.fan.dim),)
    anchor = min(verts)
    shift = (0,) * d.fan.dim
    for g in group:
        images = {tuple([sum(map(mul, row, v)) for row in transpose(g)]) for v in verts}
        tau = tuple(map(sub, min(images), anchor))
        if images != {tuple(map(add, v, tau)) for v in verts}:
            raise GeometryError(
                "internal inconsistency: a stabilizer element moves a lattice point "
                "out of the dilated polytope"
            )
        shift = tuple(map(add, shift, tau))
    # f_i(z) = <z, w_i> + k c_i with w_i = sum_g g u_i and c_i = |G| a_i - <sum_g tau_g, u_i>;
    # equal forms (one per ray orbit) are kept once
    total = [tuple(map(sum, zip(*rows))) for rows in zip(*group)]
    forms = dict.fromkeys(
        (tuple([sum(map(mul, row, u)) for row in total]),
         len(group) * a - sum(map(mul, shift, u)))
        for u, a in zip(d.fan.rays, d.nums)
    )
    # the least threshold k |G| / M_k so far is best_num / best_den; none while best_den is 0
    best_num, best_den = 0, 0
    for k in range(1, k_max + 1):
        # the points of k P as coordinate columns, read once for every form
        columns = tuple(zip(*lattice_points(p_int, k)))
        worst = 0
        for w, c in forms:
            # <z, w> over the columns: |G_z| times the vanishing orders minus k c
            dots = map(mul, columns[0], repeat(w[0]))
            for column, x in zip(columns[1:], w[1:]):
                dots = map(add, dots, map(mul, column, repeat(x)))
            dots = list(dots)
            if min(dots) + k * c < 0:
                raise GeometryError(
                    "internal inconsistency: an orbit section has a negative vanishing order"
                )
            worst = max(worst, max(dots) + k * c)
        if worst > 0 and (best_den == 0 or k * best_den < best_num * worst):
            best_num, best_den = k, worst
    if best_den == 0:
        raise GeometryError("internal inconsistency: no orbit section gives a finite threshold")
    return d.den * Fraction(best_num * len(group), best_den)
