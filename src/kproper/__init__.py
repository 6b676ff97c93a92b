"""Exact-arithmetic properness checks for the K-energy.

Backends: smooth complete toric surfaces (fans, wall pairings, moment
polytopes) and blowups of the projective plane at general points (Picard
lattices, exceptional curves).  All verdicts are decided in rational
arithmetic; see the README for the library tour and the CLI.
"""

from .alpha import (
    SymmetryContext,
    alpha_invariant,
    alpha_oracle,
    symmetry_context,
)
from .picard import (
    BlowupSurface,
    PicardClass,
    curve_census,
    dp1_surface,
    exceptional_curves,
    is_ample_picard,
    pairing,
)
from .polytope import (
    Polytope,
    barycenter,
    boundary_measure,
    fixed_subpolytope,
    lattice_points,
    make_polytope,
    translate,
    vertices,
    volume,
)
from .properness import (
    AbstractSlice,
    Family,
    FamilyAlpha,
    FeasibilityReport,
    PropernessReport,
    StabilizerAlpha,
    SuppliedAlpha,
    abstract_slice,
    check_fano,
    check_negative_c1,
    check_properness,
    dp1_family,
    dp6_family,
    feasible_scale_interval,
    sweep_lambda,
)
from .rationals import (
    GeometryError,
    InputError,
    KProperError,
    ValidationError,
    format_rational,
    is_unimodular,
    parse_rational,
    primitive,
    solve_exact,
)
from .toric import (
    Fan,
    ToricDivisor,
    anticanonical_divisor,
    canonical_divisor,
    dp6_fan,
    fan_automorphisms,
    intersection_number,
    is_ample,
    is_nef,
    mixed_volume_intersection,
    moment_polytope,
    p2_fan,
    slope_quantities,
    validate_fan,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
