"""Serializers, lattice transforms and a slice that only the tests use.

The CLI reads fans, divisors, polytopes and Picard classes from JSON files;
these write them back, so the tests can check the readers by round trips.
"""

from kproper.picard import PicardClass
from kproper.polytope import (
    LinearEquation,
    Polytope,
    _canonical_halfspace,
    vertices,
)
from kproper.properness import AbstractSlice, abstract_slice
from kproper.rationals import (
    ValidationError,
    format_rational,
    is_unimodular,
    mat_vec,
    solve_exact,
    transpose,
)
from kproper.toric import Fan, ToricDivisor


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
