"""Every record and value class of the package keeps its repr, its equality
and its hash, whatever idiom builds the class.

One instance of each of the 22 classes is pinned: its repr, its == with an
equal instance built anew, its read-only fields, and its hash, which is the
hash of the tuple of its compared fields (a record that holds a dict has
none).  The caches that
a class fills on first use take no part in any of them.  A record that
takes a dict keeps its own copy, so a caller who mutates the dict after
building the record does not change it.

No class is built with `dataclasses`, which compiles its methods with
`exec` and imports `inspect`: a fresh `kproper` command imports neither.
"""

import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from kproper.alpha import SymmetryContext, symmetry_context
from kproper.picard import BlowupSurface, PicardClass, curve_table
from kproper.polytope import HalfSpace, LinearEquation, Polytope, make_polytope, vertices
from kproper.properness import (
    AbstractSlice,
    CertifiedPiece,
    ConditionCheck,
    EndpointCheck,
    Family,
    FeasibilityReport,
    FeasibleWindow,
    LambdaCertificate,
    OpenInterval,
    PropernessReport,
    StabilizerAlpha,
    SuppliedAlpha,
    abstract_slice,
    check_properness,
)
from kproper.rationals import ConstraintTable, constraint_table
from kproper.toric import (
    Fan,
    FanValidation,
    SlopeQuantities,
    ToricDivisor,
    moment_polytope,
    wall_table,
)

P2_RAYS, P2_CONES = ((1, 0), (0, 1), (-1, -1)), ((0, 1), (0, 2), (1, 2))
P2 = "Fan(dim=2, rays=((1, 0), (0, 1), (-1, -1)), max_cones=((0, 1), (0, 2), (1, 2)))"


def p2():
    return Fan(2, P2_RAYS, P2_CONES)


def fill_divisor(d):
    wall_table(d)
    moment_polytope.__wrapped__(d)


def fill_certificate(c):
    c.feasible_pair(1, 2)
    c.grid_flags(range(0, 3), 2)


def certificate():
    return LambdaCertificate((CertifiedPiece(F(0), F(1), "feasible"),), ((1, 1, -1),),
                             (1, ((1, 0),)), (1, 0, 0, -1, 0), ())


# name: (class, a builder of a fresh instance, its compared fields, its repr,
# and what fills its caches, if it has any)
CASES = {
    "ConstraintTable": (
        ConstraintTable,
        lambda: constraint_table(("a", "b"), (1, F(1, 2)), (-1, -2), F(3), F(-2)),
        ("labels", "nums", "k_nums", "den", "l_sq", "k_dot_l"),
        "ConstraintTable(labels=('a', 'b'), nums=(2, 1), k_nums=(-2, -4), den=2, "
        "l_sq=Fraction(3, 1), k_dot_l=Fraction(-2, 1))",
        None,
    ),
    "HalfSpace": (
        HalfSpace,
        lambda: HalfSpace((1, 0), F(-1)),
        ("normal", "offset"),
        "HalfSpace(normal=(1, 0), offset=Fraction(-1, 1))",
        None,
    ),
    "LinearEquation": (
        LinearEquation,
        lambda: LinearEquation((1, -2), F(1, 3)),
        ("coeffs", "rhs"),
        "LinearEquation(coeffs=(1, -2), rhs=Fraction(1, 3))",
        None,
    ),
    "FanValidation": (
        FanValidation,
        lambda: FanValidation(smooth=True, complete=False),
        ("smooth", "complete"),
        "FanValidation(smooth=True, complete=False)",
        None,
    ),
    "SlopeQuantities": (
        SlopeQuantities,
        lambda: SlopeQuantities(F(1, 2), None),
        ("mu", "rbar"),
        "SlopeQuantities(mu=Fraction(1, 2), rbar=None)",
        None,
    ),
    "SymmetryContext": (
        SymmetryContext,
        lambda: symmetry_context(ToricDivisor(p2(), (1, 1, 1)), "torus"),
        ("divisor", "stabilizer", "centered_polytope", "centered"),
        f"SymmetryContext(divisor=ToricDivisor(fan={P2}, coeffs=(Fraction(1, 1), "
        "Fraction(1, 1), Fraction(1, 1))), stabilizer=(), centered_polytope=Polytope("
        "dim=2, hrep=(HalfSpace(normal=(-1, -1), offset=Fraction(-1, 1)), HalfSpace("
        "normal=(0, 1), offset=Fraction(-1, 1)), HalfSpace(normal=(1, 0), offset="
        f"Fraction(-1, 1))), equalities=()), centered=ToricDivisor(fan={P2}, coeffs=("
        "Fraction(1, 1), Fraction(1, 1), Fraction(1, 1))))",
        None,
    ),
    "StabilizerAlpha": (
        StabilizerAlpha,
        lambda: StabilizerAlpha(),
        ("group_mode",),
        "StabilizerAlpha(group_mode='full')",
        None,
    ),
    "SuppliedAlpha": (
        SuppliedAlpha,
        lambda: SuppliedAlpha(F(2, 3), "bound"),
        ("value", "label", "scope"),
        "SuppliedAlpha(value=Fraction(2, 3), label='bound', scope='all potentials')",
        None,
    ),
    "AbstractSlice": (
        AbstractSlice,
        lambda: abstract_slice(2, 1, F(-3, 2), [("c", 1, -1)]),
        ("n", "table"),
        "AbstractSlice(n=2, table=ConstraintTable(labels=('c',), nums=(1,), k_nums=(-1,), "
        "den=1, l_sq=Fraction(1, 1), k_dot_l=Fraction(-3, 2)))",
        None,
    ),
    "PropernessReport": (
        PropernessReport,
        lambda: check_properness(ToricDivisor(p2(), (1, 1, 1)), F(1, 2),
                                 SuppliedAlpha(F(1, 3), "bound")),
        ("mode", "backend", "scope", "conditions", "alpha", "alpha_provenance", "mu"),
        "PropernessReport(mode='epsilon-criterion', backend='toric divisor (1, 1, 1) on a "
        "3-ray fan', scope='all potentials', conditions=(ConditionCheck(name='condition "
        "(1)', description='epsilon < (n+1)/n * alpha', holds=False, values={'epsilon': "
        "Fraction(1, 2), 'alpha': Fraction(1, 3), 'bound': Fraction(1, 2)}, binding='alpha "
        "bound'), ConditionCheck(name='condition (2)', description='K + epsilon L ample', "
        "holds=False, values={'margin': Fraction(-3, 2)}, binding='wall at ray 0'), "
        "ConditionCheck(name='condition (3)', description='(epsilon - n*mu) L - (n-1) K "
        "ample', holds=False, values={'mu': Fraction(1, 1), 'L-coefficient': Fraction(-3, "
        "2), 'margin': Fraction(-3, 2)}, binding='wall at ray 0')), alpha=Fraction(1, 3), "
        "alpha_provenance='bound', mu=Fraction(1, 1))",
        None,
    ),
    "OpenInterval": (
        OpenInterval,
        lambda: OpenInterval(F(1, 2), F(3)),
        ("lo", "hi"),
        "OpenInterval(lo=Fraction(1, 2), hi=Fraction(3, 1))",
        None,
    ),
    "FeasibleWindow": (
        FeasibleWindow,
        lambda: FeasibleWindow((F(1), F(2)), (F(3), F(4)), F(5, 2), F(1, 2)),
        ("lo_bracket", "hi_bracket", "witness_lambda", "witness_a"),
        "FeasibleWindow(lo_bracket=(Fraction(1, 1), Fraction(2, 1)), hi_bracket=("
        "Fraction(3, 1), Fraction(4, 1)), witness_lambda=Fraction(5, 2), "
        "witness_a=Fraction(1, 2))",
        None,
    ),
    "EndpointCheck": (
        EndpointCheck,
        lambda: EndpointCheck(F(5, 6), "lower", True, True, False),
        ("endpoint", "side", "empty_at_endpoint", "feasible_inside", "infeasible_outside"),
        "EndpointCheck(endpoint=Fraction(5, 6), side='lower', empty_at_endpoint=True, "
        "feasible_inside=True, infeasible_outside=False)",
        None,
    ),
    "ConditionCheck": (
        ConditionCheck,
        lambda: ConditionCheck("c", "d", True, {"x": F(1, 2)}, "row"),
        ("name", "description", "holds", "values", "binding"),
        "ConditionCheck(name='c', description='d', holds=True, values={'x': Fraction(1, 2)}, "
        "binding='row')",
        None,
    ),
    "FeasibilityReport": (
        FeasibilityReport,
        lambda: FeasibilityReport("f", F(1), F(0), F(2), F(1, 2), F(1, 8), (), (),
                                  {"grid_points": "5"}),
        ("family", "epsilon", "lambda_min", "lambda_max", "step", "refine_tol", "windows",
         "endpoint_checks", "diagnostics"),
        "FeasibilityReport(family='f', epsilon=Fraction(1, 1), lambda_min=Fraction(0, 1), "
        "lambda_max=Fraction(2, 1), step=Fraction(1, 2), refine_tol=Fraction(1, 8), "
        "windows=(), endpoint_checks=(), diagnostics={'grid_points': '5'})",
        None,
    ),
    "Fan": (
        Fan,
        p2,
        ("dim", "rays", "max_cones"),
        P2,
        None,
    ),
    "BlowupSurface": (
        BlowupSurface,
        lambda: BlowupSurface(3),
        ("r",),
        "BlowupSurface(r=3)",
        lambda s: s.canonical(),
    ),
    "Polytope": (
        Polytope,
        lambda: make_polytope(2, [((1, 0), 0), ((0, 2), 0), ((-1, -1), -1)], [((2, -2), 0)]),
        ("dim", "hrep", "equalities"),
        "Polytope(dim=2, hrep=(HalfSpace(normal=(-1, -1), offset=Fraction(-1, 1)), "
        "HalfSpace(normal=(0, 1), offset=Fraction(0, 1)), HalfSpace(normal=(1, 0), "
        "offset=Fraction(0, 1))), equalities=(LinearEquation(coeffs=(1, -1), "
        "rhs=Fraction(0, 1)),))",
        vertices,
    ),
    "Family": (
        Family,
        lambda: Family("pencil", ToricDivisor(p2(), (1, 0, 0)), ToricDivisor(p2(), (0, 1, 1))),
        ("name", "base", "slope", "alpha"),
        f"Family(name='pencil', base=ToricDivisor(fan={P2}, coeffs=(Fraction(1, 1), "
        f"Fraction(0, 1), Fraction(0, 1))), slope=ToricDivisor(fan={P2}, coeffs=("
        "Fraction(0, 1), Fraction(1, 1), Fraction(1, 1))), alpha=None)",
        lambda f: (f.pairing_data, f.forms, f.member(F(1))),
    ),
    "LambdaCertificate": (
        LambdaCertificate,
        certificate,
        ("pieces", "rows", "alpha_pieces", "forms", "cuts"),
        "LambdaCertificate(pieces=(CertifiedPiece(lo=Fraction(0, 1), hi=Fraction(1, 1), "
        "verdict='feasible', triple=None, poly=None),), rows=((1, 1, -1),), "
        "alpha_pieces=(1, ((1, 0),)), forms=(1, 0, 0, -1, 0), cuts=())",
        fill_certificate,
    ),
    "ToricDivisor": (
        ToricDivisor,
        lambda: ToricDivisor(p2(), (1, F(1, 2), 2)),
        ("fan", "den", "nums"),
        f"ToricDivisor(fan={P2}, coeffs=(Fraction(1, 1), Fraction(1, 2), Fraction(2, 1)))",
        fill_divisor,
    ),
    "PicardClass": (
        PicardClass,
        lambda: PicardClass(BlowupSurface(2), (3, 1, F(1, 2))),
        ("surface", "den", "nums"),
        "PicardClass(surface=BlowupSurface(r=2), coords=(Fraction(3, 1), Fraction(1, 1), "
        "Fraction(1, 2)))",
        curve_table,
    ),
}


def test_every_class_is_pinned_once():
    assert len(CASES) == 22
    assert len({case[0] for case in CASES.values()}) == 22
    assert all(cls.__name__ == name for name, (cls, *_) in CASES.items())


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr_equality_and_hash_are_kept(name):
    cls, build, fields, shown, fill = CASES[name]
    a, b = build(), build()
    assert type(a) is type(b) is cls
    assert repr(a) == repr(b) == shown
    assert a == b and not a != b
    # every field is read-only
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    key = tuple(getattr(a, field) for field in fields)
    try:
        expected = hash(key)
    except TypeError:
        expected = None
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected
    if fill is not None:
        fill(a)
        # a filled cache tells no two equal instances apart
        assert repr(a) == shown and a == b and b == a
        if expected is not None:
            assert hash(a) == hash(b)


def test_a_condition_keeps_its_own_values():
    values = {"x": F(1, 2)}
    check = ConditionCheck("c", "d", True, values, "row")
    values["y"] = F(1)
    del values["x"]
    assert check.values == {"x": F(1, 2)}
    assert check == ConditionCheck("c", "d", True, {"x": F(1, 2)}, "row")
    # each condition built without values gets its own empty dict
    bare, other = ConditionCheck("c", "d", True), ConditionCheck("c", "d", False)
    assert bare.values == other.values == {} and bare.values is not other.values
    assert bare.binding is None


def test_a_sweep_report_keeps_its_own_diagnostics():
    diagnostics = {"grid_points": "5"}
    report = FeasibilityReport("f", F(1), F(0), F(2), F(1, 2), F(1, 8), (), (), diagnostics)
    diagnostics["grid_points"] = "6"
    diagnostics["extra"] = "x"
    assert report.diagnostics == {"grid_points": "5"}
    bare = FeasibilityReport("f", F(1), F(0), F(2), F(1, 2), F(1, 8), (), ())
    other = FeasibilityReport("g", F(1), F(0), F(2), F(1, 2), F(1, 8), (), ())
    assert bare.diagnostics == other.diagnostics == {}
    assert bare.diagnostics is not other.diagnostics


def test_a_fresh_command_imports_neither_dataclasses_nor_inspect():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import kproper.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "[]\n")
