"""Serializers, lattice transforms, a slice and a Fraction reference that
only the tests use.

The CLI reads fans, divisors, polytopes and Picard classes from JSON files;
these write them back, so the tests can check the readers by round trips.
`reference_symmetry` is the Fraction route to the alpha invariant that the
integer path in `alpha.py` replaced, `decide_by_cuts` is the cut loop
that sweeps once ran where the lambda certificate had no piece,
`reference_pairing` is the intersection form one Fraction product at a
time, `reference_block_pairings` pairs a class with its table's rows one
dot product at a time, as the packed multiply-add of `picard._pairings`
replaced, `reference_bisect` is the Fraction bisection that the sweep's
integer halving replaced, and `reference_endpoint_side` picks an endpoint
check's side by Fraction distances to the bracket centres; the tests play
each against the code that replaced it.  `reference_vertices` finds a
bounded polytope's vertices by brute force, each equality read as two
opposite half-spaces.  `DERVAN` is the alpha that the test families on a
blowup are given, and `counting` records the calls of a function.
`hyperplane`, `exceptional`, `anticanonical`, `scaled` and `feasible_at`
build the classes, intervals and certificate lookups that only the tests
ask for, and `mat_vec` multiplies a matrix by a vector.
"""

import itertools
import sys
from fractions import Fraction

from kproper.picard import PicardClass, cone_curves, curve_matrix
from kproper.polytope import (
    LinearEquation,
    Polytope,
    _canonical_halfspace,
    make_polytope,
    vertices,
)
from kproper.properness import (
    AbstractSlice,
    OpenInterval,
    _alpha_denominator,
    _forms_at,
    _lower_cut,
    abstract_slice,
    dp1_family,
)
from kproper.rationals import (
    ValidationError,
    dot,
    format_rational,
    identity_matrix,
    is_unimodular,
    solve_exact,
    solve_linear_system,
    transpose,
    vec_sub,
)
from kproper.toric import Fan, ToricDivisor, angular_order, fan_automorphisms

# Dervan's bound min{1, 1/(2 - lambda)}, with the pieces ((1, 0), (2, -1)):
# the alpha of dp1_family
DERVAN = dp1_family().alpha


def mat_vec(m, v) -> tuple:
    """The product of a matrix (a tuple of rows) with a vector."""
    return tuple(dot(row, v) for row in m)


def reference_vertices(p: Polytope) -> tuple:
    """The vertices of a bounded polytope by brute force: every dim of its
    rows, with each equality read as two opposite half-spaces, solved by
    Fraction elimination, kept where every row holds."""
    rows = [(hs.normal, hs.offset) for hs in p.hrep]
    for e in p.equalities:
        rows += [(e.coeffs, e.rhs), (tuple(-x for x in e.coeffs), -e.rhs)]
    points = set()
    for subset in itertools.combinations(rows, p.dim):
        point = _eliminate([[*map(Fraction, n), Fraction(c)] for n, c in subset])
        if point is not None and all(dot(point, n) >= c for n, c in rows):
            points.add(point)
    return tuple(sorted(points))


def _eliminate(aug):
    """The solution of a square system given by its augmented rows, or None
    when it is singular."""
    n = len(aug)
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                aug[r] = [x - aug[r][col] * y for x, y in zip(aug[r], aug[col])]
    return tuple(row[n] for row in aug)


def counting(monkeypatch, original, calls):
    """Replace every kproper binding of a function, in a module or in a
    class of one, by one that records its positional arguments."""

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    name = original.__name__
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("kproper"):
            for owner in (module, *(v for v in vars(module).values() if isinstance(v, type))):
                if vars(owner).get(name) is original:
                    monkeypatch.setattr(owner, name, wrapper)


def fan_to_json(fan: Fan) -> dict:
    return {
        "dim": fan.dim,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
    }


def divisor_to_json(d: ToricDivisor) -> dict:
    return {"coeffs": [format_rational(c) for c in d.coeffs]}


def polytope_to_json(p: Polytope, include_vrep: bool = False) -> dict:
    data = {
        "dim": p.dim,
        "hrep": [
            {"normal": list(h.normal), "offset": format_rational(h.offset)} for h in p.hrep
        ],
    }
    if p.equalities:
        data["equalities"] = [
            {"coeffs": list(e.coeffs), "rhs": format_rational(e.rhs)} for e in p.equalities
        ]
    if include_vrep:
        data["vrep"] = [[format_rational(x) for x in v] for v in vertices(p)]
    return data


def picard_class_to_json(d: PicardClass) -> dict:
    return {"r": d.surface.r, "coords": [format_rational(c) for c in d.coords]}


def hyperplane(surface) -> PicardClass:
    """The class H of a line on a blowup of P^2."""
    return surface.cls((1,) + (0,) * surface.r)


def exceptional(surface, i: int) -> PicardClass:
    """The exceptional class E_i, 1 <= i <= r."""
    return surface.cls((0,) + tuple(-1 if j == i else 0 for j in range(1, surface.r + 1)))


def anticanonical(surface) -> PicardClass:
    """-K = 3H - E_1 - ... - E_r."""
    return surface.cls((3,) + (1,) * surface.r)


def scaled(interval: OpenInterval, t: Fraction) -> OpenInterval:
    return OpenInterval(interval.lo * t, interval.hi * t)


def feasible_at(certificate, lam: Fraction) -> bool:
    """The certificate's verdict at lambda."""
    return certificate.feasible_pair(lam.numerator, lam.denominator)


def apply_unimodular(p: Polytope, g) -> Polytope:
    """The image g(p) of the polytope under a unimodular integer matrix."""
    if not is_unimodular(g):
        raise ValidationError("polytope transformations must be unimodular")
    # <g m, n> >= c  iff  <m, g^T n> >= c, so the image has normals (g^{-1})^T n
    n = len(g)
    cols = [solve_exact(g, tuple(1 if i == j else 0 for i in range(n))) for j in range(n)]
    git = transpose(tuple(tuple(int(cols[j][i]) for j in range(n)) for i in range(n)))
    hs = tuple(_canonical_halfspace(mat_vec(git, h.normal), h.offset) for h in p.hrep)
    eqs = tuple(
        LinearEquation(tuple(int(x) for x in mat_vec(git, e.coeffs)), e.rhs)
        for e in p.equalities
    )
    return Polytope(p.dim, hs, eqs)


def transform_fan(fan: Fan, g) -> Fan:
    """The fan with rays g(u_i) for a unimodular g, same cone combinatorics."""
    if not is_unimodular(g):
        raise ValidationError("fan transformations must be unimodular")
    return Fan(fan.dim, tuple(mat_vec(g, r) for r in fan.rays), fan.max_cones)


def canonical_polarization_slice(n: int, volume=1) -> AbstractSlice:
    """The slice of (X, K) with K ample: L = K, so all pairings coincide."""
    return abstract_slice(n, volume, volume, [("canonical test curve", 1, 1)])


def reference_symmetry(d: ToricDivisor, mode: str = "full", explicit_group=()):
    """(alpha, stabilizer, centered coefficients, centered vertex cycle) of an
    ample class on a smooth surface fan, all in Fractions.

    The vertices are the cone functionals by Fraction elimination, in the
    angular order of the rays; the barycenter is the triangle-fan formula
    from the first vertex; the stabilizer is tested by Fraction
    matrix-vector products; the fixed subpolytope is enumerated from its
    half-planes and the equations (g^T - I) y = 0; alpha is 1 over the
    largest <v, u_i> + a_i' on its vertices."""
    fan = d.fan
    order = angular_order(fan)
    cycle = []
    for i, j in zip(order, order[1:] + order[:1]):
        point, null = solve_linear_system([fan.rays[i], fan.rays[j]], [-d.coeffs[i], -d.coeffs[j]])
        assert not null
        cycle.append(point)
    base = cycle[0]
    area, acc = Fraction(0), [Fraction(0), Fraction(0)]
    for a, b in zip(cycle[1:], cycle[2:]):
        u, v = vec_sub(a, base), vec_sub(b, base)
        part = (u[0] * v[1] - u[1] * v[0]) / 2
        area += part
        for k in range(2):
            acc[k] += part * (base[k] + a[k] + b[k]) / 3
    beta = (acc[0] / area, acc[1] / area)
    centered = tuple(vec_sub(v, beta) for v in cycle)
    coeffs = tuple(a + dot(beta, u) for a, u in zip(d.coeffs, fan.rays))
    if mode == "torus":
        group = ()
    elif mode == "full":
        group = tuple(g for g in fan_automorphisms(fan) if _preserves(g, centered))
    else:
        group = group_closure(explicit_group)
    eye = identity_matrix(fan.dim)
    equations = [
        (tuple(a - b for a, b in zip(row_g, row_i)), 0)
        for g in group
        for row_g, row_i in zip(transpose(g), eye)
        if row_g != row_i
    ]
    fixed = make_polytope(fan.dim, [(u, -a) for u, a in zip(fan.rays, coeffs)], equations)
    worst = max(dot(v, u) + a for v in vertices(fixed) for u, a in zip(fan.rays, coeffs))
    return 1 / worst, group, coeffs, centered


def _preserves(g, points) -> bool:
    gt = transpose(g)
    return {tuple(mat_vec(gt, v)) for v in points} == set(points)


def group_closure(generators) -> tuple:
    """The finite matrix group generated by integer matrices, sorted."""
    gens = [tuple(tuple(int(x) for x in row) for row in g) for g in generators]
    group = {identity_matrix(len(gens[0]))} | set(gens)
    while True:
        products = {
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*h)) for row in g)
            for g in group
            for h in group
        }
        if products <= group:
            return tuple(sorted(group))
        group |= products


def family_mu(family, lam: Fraction) -> Fraction:
    """mu = -K.L / L^2 of L_lambda from the family's integer forms."""
    l_sq, lk = _forms_at(family.forms, lam)
    return Fraction(-lk, l_sq)


def decide_by_cuts(family, lam: Fraction) -> bool:
    """The cut loop against the alpha pieces, in integers, with no
    certificate."""
    if not family.is_ample_at(lam):
        return False
    den, n = family.alpha_pieces[0], family.dim
    num, cut_den, _ = _lower_cut(family, lam)
    # num / cut_den < (n+1)/n * alpha, cleared of the positive denominators
    return (n * num * _alpha_denominator(family.alpha_pieces, lam)
            < (n + 1) * den * lam.denominator * cut_den)


def reference_pairing(a: PicardClass, b: PicardClass) -> Fraction:
    """d d' - sum m_i m_i' on the blowup of P^2, one Fraction at a time."""
    if a.surface != b.surface:
        raise ValidationError("pairing requires classes on the same surface")
    (d, *m), (e, *n) = a.coords, b.coords
    return Fraction(d) * Fraction(e) - sum(
        (Fraction(x) * Fraction(y) for x, y in zip(m, n)), Fraction(0)
    )


def reference_block_pairings(r: int, blocks, reps, den: int):
    """(row . reps, den K.C) over the cone curves' rows reduced to the
    blocks, one dot product per row, with equal rows merged in first
    occurrence order; K.C is the Fraction pairing with the canonical class."""
    k = cone_curves(r)[0].surface.canonical()
    rows: dict = {}
    for row, curve in zip(curve_matrix(r), cone_curves(r)):
        reduced = (row[0], *(sum(row[1 + i] for i in block) for block in blocks))
        rows.setdefault(reduced, reference_pairing(k, curve))
    return (tuple(sum(a * b for a, b in zip(row, reps)) for row in rows),
            tuple(int(den * kc) for kc in rows.values()))


def reference_bisect(bad, good, feasible, tol):
    """Halve [bad, good] (in either order) in Fractions until it is at most
    tol wide, keeping a feasible good end."""
    while abs(good - bad) > tol:
        mid = (good + bad) / 2
        if feasible(mid):
            good = mid
        else:
            bad = mid
    return (min(bad, good), max(bad, good))


def reference_endpoint_side(e, windows) -> str:
    """The side of the bracket whose Fraction centre is nearest e, the first
    on ties."""
    best = None
    side = "lower"
    for w in windows:
        lo_center = (w.lo_bracket[0] + w.lo_bracket[1]) / 2
        hi_center = (w.hi_bracket[0] + w.hi_bracket[1]) / 2
        for candidate_side, center in (("lower", lo_center), ("upper", hi_center)):
            dist = abs(e - center)
            if best is None or dist < best:
                best, side = dist, candidate_side
    return side
