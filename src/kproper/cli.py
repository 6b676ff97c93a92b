"""Batch command line interface.

Subcommands mirror the library: fan validation and symmetries, divisor
positivity, moment polytope data, alpha invariants, intersection numbers,
properness checks and certified parameter sweeps.  All rational values are
read and written in canonical "p/q" form; verdicts are data, so the exit
code is 0 for any completed analysis and nonzero only for input or
processing errors.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import operator
import os
import sys
from fractions import Fraction

from . import alpha as alpha_mod
from . import picard as picard_mod
from . import polytope as polytope_mod
from . import properness as prop_mod
from . import toric as toric_mod
from .rationals import (
    InputError,
    KProperError,
    format_ratio,
    format_rational,
    parse_rational,
)


# ---------------------------------------------------------------------------
# input: every JSON file and inline value is read here, by the readers below.
# A reader takes a value and its key path (like "rays[2][0]") and returns
# the value, or raises InputError naming the path and what was expected.
# A reader whose values are not JSON as they are has a `write` of them back
# to JSON, which render_report uses.


def _read_json(path: str):
    # escaped, so a newline in the path cannot split the error line
    shown = path.encode("unicode_escape").decode("ascii")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise InputError(f"no such file: {shown}")
    except OSError as exc:
        # a directory, or a file without read permission
        raise InputError(f"cannot read {shown}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:
        # a syntax error (its message gives the line and column), bytes that
        # are not UTF-8, an integer with too many digits, or nesting too deep
        raise InputError(f"invalid JSON in {shown}: {exc}") from None


def _describe(value) -> str:
    """A JSON value as an error line shows it: arrays and objects by kind only."""
    return {list: "a JSON array", dict: "a JSON object"}.get(type(value)) or json.dumps(value)


def _fault(where: str, expected: str, value) -> InputError:
    return InputError(f'"{where}" must be {expected}, got {_describe(value)}')


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fault(where, "an integer", value)
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise _fault(where, "a string", value)
    return value


def _bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise _fault(where, "true or false", value)
    return value


def _rational(value, where: str) -> Fraction:
    if not isinstance(value, str):
        raise _fault(where, 'a string like "p/q"', value)
    return parse_rational(value, where=where)


_rational.write = format_rational


def _interval(text: str, where: str) -> tuple:
    ends = text[1:-1].split(", ")
    if text[:1] + text[-1:] != "()" or len(ends) != 2:
        raise _fault(where, 'a string like "(p, q)"', text)
    return tuple(_rational(end, where) for end in ends)


def _optional(item):
    """A reader of null, or of a value read by `item`."""

    def read(value, where: str):
        return None if value is None else item(value, where)

    if hasattr(item, "write"):
        read.write = lambda value: None if value is None else item.write(value)
    return read


def _list(item, size=None):
    """A reader of a list, each entry read by `item`; of `size` entries, if given."""

    def read(value, where: str) -> tuple:
        if not isinstance(value, list) or size not in (None, len(value)):
            raise _fault(where, "a list" if size is None else f"a list of {size}", value)
        return tuple(item(x, f"{where}[{i}]") for i, x in enumerate(value))

    if hasattr(item, "write"):
        read.write = lambda value: [item.write(x) for x in value]
    return read


def _dict(item):
    """A reader of an object into a dict, each value read by `item`."""

    def read(value, where: str) -> dict:
        if not isinstance(value, dict):
            raise _fault(where, "a JSON object", value)
        return {key: item(x, f"{where}.{key}") for key, x in value.items()}

    if hasattr(item, "write"):
        read.write = lambda value: {key: item.write(x) for key, x in value.items()}
    return read


def _path(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _object(*keys):
    """A reader of an object into the tuple of its values under `keys`, each
    given as (key, reader) or, when the key may be left out, (key, reader,
    default).  A key not among `keys` is refused, once they have been read."""
    known = {key for key, *_ in keys}

    def read(value, where: str) -> tuple:
        if not isinstance(value, dict):
            raise _fault(where, "a JSON object", value)
        values = []
        for key, item, *default in keys:
            path = _path(where, key)
            if key in value:
                values.append(item(value[key], path))
            elif default:
                values.append(default[0])
            else:
                raise InputError(f'missing key "{path}"')
        for key in value:
            if key not in known:
                # JSON-quoted, so a newline in the key cannot split the error line
                raise InputError(f"unknown key {json.dumps(_path(where, key))}")
        return tuple(values)

    return read


def _document(data, what: str, *keys) -> tuple:
    """The values under `keys`, given as for `_object`, of the JSON document
    `data`, which must be an object."""
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object, got {_describe(data)}")
    return _object(*keys)(data, "")


_INTEGER_VECTORS = _list(_list(_int))
_RATIONALS = _list(_rational)


def _inline(source: str, key: str) -> tuple:
    """A comma-separated command-line list of rationals, read as the list under `key`."""
    return _RATIONALS([s.strip() for s in source.split(",")], key)


def _dump_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def load_fan(source: str) -> toric_mod.Fan:
    if source in toric_mod.BUILTIN_FANS:
        return toric_mod.BUILTIN_FANS[source]()
    if os.path.exists(source):
        rays, cones, dim = _document(
            _read_json(source), "fan JSON",
            ("rays", _INTEGER_VECTORS), ("max_cones", _INTEGER_VECTORS), ("dim", _int, None),
        )
        if dim is None:
            dim = len(rays[0]) if rays else 0
        return toric_mod.Fan(dim, rays, cones)
    raise InputError(f"unknown fan {_describe(source)}: not a builtin (p2, dp6) and not a file")


def load_coeffs(fan: toric_mod.Fan, source: str) -> toric_mod.ToricDivisor:
    if os.path.exists(source):
        (coeffs,) = _document(_read_json(source), "divisor JSON", ("coeffs", _RATIONALS))
    else:
        coeffs = _inline(source, "coeffs")
    return toric_mod.ToricDivisor(fan, coeffs)


def load_picard_class(source: str) -> picard_mod.PicardClass:
    if os.path.exists(source):
        r, coords = _document(
            _read_json(source), "Picard class JSON", ("r", _int), ("coords", _RATIONALS)
        )
    else:
        coords = _inline(source, "coords")
        r = len(coords) - 1
    return picard_mod.PicardClass(picard_mod.BlowupSurface(r), coords)


def load_polytope(path: str) -> polytope_mod.Polytope:
    hrep, equalities, dim = _document(
        _read_json(path), "polytope JSON",
        ("hrep", _list(_object(("normal", _list(_int)), ("offset", _rational)))),
        ("equalities", _list(_object(("coeffs", _list(_int)), ("rhs", _rational))), ()),
        ("dim", _int, None),
    )
    if dim is None:
        dim = len(hrep[0][0]) if hrep else 0
    return polytope_mod.make_polytope(dim, hrep, equalities)


def load_slice(path: str) -> prop_mod.AbstractSlice:
    # K^n is optional and read by no decision, but a value given must parse
    n, l_pow_n, k_dot_l_nm1, _, curves = _document(
        _read_json(path), "slice JSON",
        ("n", _int),
        ("l_pow_n", _rational),
        ("k_dot_l_nm1", _rational),
        ("k_pow_n", _rational, None),
        ("test_curves", _list(_object(
            ("name", _string, None), ("L", _rational), ("K", _rational),
        ))),
    )
    curves = [(f"test curve {i}" if name is None else name, l, k)
              for i, (name, l, k) in enumerate(curves)]
    return prop_mod.abstract_slice(n, l_pow_n, k_dot_l_nm1, curves)


def load_group_matrices(path: str) -> tuple:
    return _document(_read_json(path), "group JSON", ("matrices", _list(_INTEGER_VECTORS)))[0]


# six significant digits with an exponent of any size
_WIDE = decimal.Context(prec=6, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _approx(value: Fraction) -> str:
    # a float loses digits below the normal range and fails above it; there,
    # where exponents have three digits, decimal writes them as float would
    if not value or sys.float_info.min <= abs(value) <= sys.float_info.max:
        return f"{float(value):.6g}"
    wide = _WIDE.divide(decimal.Decimal(value.numerator), decimal.Decimal(value.denominator))
    return f"{wide.normalize(_WIDE):.6g}"


def _fmt_value(value: Fraction, approx: bool) -> str:
    text = format_rational(value)
    return f"{text} (~{_approx(value)})" if approx else text


# ---------------------------------------------------------------------------
# reports: each record of a check or sweep report (the report, a condition,
# a window, an endpoint check) is a _Record, its class and the table of its
# keys in the order they are read.  render_report writes the JSON by the
# tables, and parse_report reads it back by them and builds each record by
# keyword.  The text form is written by hand from the record's attributes.


def _retired(value, where: str) -> None:
    """The reader of a key that only older reports carry: read, then ignored."""


class _Key:
    """A key of a record's table, read by `read`; one with a `default` may be
    left out.  It holds the record's attribute of its name, or `attr`; or,
    read by a _Record of no class, a group of the record's attributes in one
    object.  With `why`, it holds the property of its name instead, or with
    `value`, that constant: written, and read back only to be checked
    against the record built, as `why` says."""

    def __init__(self, key, read, *default, attr=None, why=None, value=None):
        self.key, self.read, self.default, self.why = key, read, default, why
        self.group = isinstance(read, _Record)
        # the field that the key is read into, if it is a field of the record
        self.field = None if self.group or why or value or read is _retired else attr or key
        # the key's value got off the record, and its writer if it is not JSON
        if self.group:
            self.get, self.write = read.write, None
        else:
            self.get = (lambda record: value) if value else operator.attrgetter(self.field or key)
            self.write = getattr(read, "write", None)


class _Record:
    """A reader of a record of class `cls` from an object with `keys`, and by
    `write`, its writer; with no class, of a group of attributes into a dict."""

    def __init__(self, cls, *keys):
        self.cls, self.keys = cls, keys
        self.read = _object(*((k.key, k.read, *k.default) for k in keys))
        self.writes = [(k.key, k.get, k.write) for k in keys if k.read is not _retired]

    def write(self, record) -> dict:
        return {key: get(record) if write is None else write(get(record))
                for key, get, write in self.writes}

    def __call__(self, value, where: str):
        values, fields = self.read(value, where), {}
        for k, got in zip(self.keys, values):
            if k.group:
                fields.update(got)
            elif k.field:
                fields[k.field] = got
        if self.cls is None:
            return fields
        record = self.cls(**fields)
        for k, got in zip(self.keys, values):
            if k.why and got not in (None, getattr(record, k.key)):
                want = json.dumps(getattr(record, k.key))
                raise _fault(_path(where, k.key), f"{want}, {k.why}", got)
        return record


def _diagnostics(value, where: str) -> dict:
    """A sweep's diagnostics, strings by name, of which the witness scale
    interval must read as an interval."""
    diagnostics, key = _dict(_string)(value, where), "witness_scale_interval"
    if key in diagnostics:
        _interval(diagnostics[key], f"{where}.{key}")
    return diagnostics


_BRACKET = _list(_rational, size=2)
_REPORTS = {
    "properness-report": _Record(
        prop_mod.PropernessReport,
        _Key("kind", _string, value="properness-report"),
        _Key("mode", _string),
        _Key("backend", _string),
        _Key("verdict", _string, why="the conjunction of the conditions"),
        _Key("scope", _string),
        _Key("conditions", _list(_Record(
            prop_mod.ConditionCheck,
            _Key("name", _string),
            _Key("description", _string),
            _Key("holds", _bool),
            _Key("values", _dict(_rational)),
            _Key("binding", _optional(_string), None),
        ))),
        _Key("alpha", _optional(_rational), None),
        _Key("alpha_provenance", _optional(_string), None),
        _Key("mu", _optional(_rational), None),
        _Key("notes", _retired, None),
    ),
    "feasibility-report": _Record(
        prop_mod.FeasibilityReport,
        _Key("kind", _string, value="feasibility-report"),
        _Key("family", _string),
        _Key("epsilon", _rational),
        _Key("lambda_min", _rational),
        _Key("lambda_max", _rational),
        _Key("step", _rational),
        _Key("refine_tol", _rational),
        _Key("intervals", _list(_Record(
            prop_mod.FeasibleWindow,
            _Key("lo_bracket", _BRACKET),
            _Key("hi_bracket", _BRACKET),
            _Key("witness", _Record(None, _Key("lambda", _rational, attr="witness_lambda"),
                                    _Key("a", _rational, attr="witness_a"))),
        )), attr="windows"),
        _Key("endpoint_checks", _list(_Record(
            prop_mod.EndpointCheck,
            _Key("endpoint", _rational),
            _Key("side", _string),
            _Key("empty_at_endpoint", _bool),
            _Key("feasible_inside", _bool),
            _Key("infeasible_outside", _bool),
            _Key("confirmed", _bool, None, why="the conjunction of the three checks"),
        ))),
        _Key("diagnostics", _diagnostics, {}),
    ),
}
_KINDS = {record.cls: kind for kind, record in _REPORTS.items()}


def render_report(report, fmt: str = "json", approx: bool = False) -> str:
    """Render a properness or feasibility report; JSON output round-trips
    through parse_report; text output formats the exact values."""
    kind = _KINDS.get(type(report))
    if kind is None:
        raise InputError(f"cannot render {type(report).__name__}")
    if fmt == "json":
        return _dump_json(_REPORTS[kind].write(report))
    value = functools.partial(_fmt_value, approx=approx)
    if kind == "properness-report":
        lines = [f"mode: {report.mode}", f"backend: {report.backend}"]
        if report.alpha is not None:
            lines.append(f"alpha: {value(report.alpha)} [{report.alpha_provenance}]")
        if report.mu is not None:
            lines.append(f"mu: {value(report.mu)}")
        for c in report.conditions:
            line = f"{c.name}: {'PASS' if c.holds else 'FAIL'}  {c.description}"
            if c.values:
                values = sorted(c.values.items())
                line += f"  [{', '.join(f'{k}={value(v)}' for k, v in values)}]"
            if c.binding and not c.holds:
                line += f"  binding: {c.binding}"
            lines.append(line)
        lines += [f"verdict: {report.verdict}", f"scope: {report.scope}"]
    else:
        lines = [
            f"family: {report.family}  epsilon: {value(report.epsilon)}",
            f"grid: [{value(report.lambda_min)}, {value(report.lambda_max)}] step "
            f"{value(report.step)} refine_tol {value(report.refine_tol)}",
        ]
        if not report.windows:
            lines.append("no feasible lambda window found")
        for w in report.windows:
            (lo0, lo1), (hi0, hi1) = map(value, w.lo_bracket), map(value, w.hi_bracket)
            lines.append(
                f"feasible window: lo in [{lo0}, {lo1}], hi in [{hi0}, {hi1}],"
                f" witness (lambda={value(w.witness_lambda)}, a={value(w.witness_a)})"
            )
        for c in report.endpoint_checks:
            status = "confirmed" if c.confirmed else "NOT confirmed"
            lines.append(f"conjectured {c.side} endpoint {value(c.endpoint)}: {status}")
        diagnostics, key = dict(report.diagnostics), "witness_scale_interval"
        if approx and key in diagnostics:
            diagnostics[key] = "({}, {})".format(*map(value, _interval(diagnostics[key], key)))
        lines += [f"{name}: {text}" for name, text in sorted(diagnostics.items())]
    return "\n".join(lines) + "\n"


def parse_report(text: str):
    """The report whose JSON render_report wrote as `text`.  A malformed
    report raises one InputError that names the key path."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid report JSON: {exc}") from None
    if not isinstance(data, dict) or "kind" not in data:
        _document(data, "report JSON", ("kind", _string))  # raises, as for any document
    kind = _string(data["kind"], "kind")
    if kind not in _REPORTS:
        raise _fault("kind", " or ".join(map(json.dumps, _REPORTS)), kind)
    return _REPORTS[kind](data, "")


def _emit(args, data: dict, text_lines) -> None:
    if args.format == "json":
        sys.stdout.write(_dump_json(data))
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_fan_validate(args) -> int:
    fan = load_fan(args.fan)
    check = toric_mod.validate_fan(fan)
    _emit(
        args,
        {"smooth": check.smooth, "complete": check.complete},
        [f"smooth: {check.smooth}", f"complete: {check.complete}"],
    )
    return 0


def _cmd_fan_autos(args) -> int:
    fan = load_fan(args.fan)
    autos = toric_mod.fan_automorphisms(fan)
    data = {"order": len(autos), "matrices": [[list(row) for row in g] for g in autos]}
    _emit(args, data, [f"order: {len(autos)}"] + [str([list(r) for r in g]) for g in autos])
    return 0


def _cmd_divisor_ample(args) -> int:
    fan = load_fan(args.fan)
    d = load_coeffs(fan, args.coeffs)
    data = {"ample": toric_mod.is_ample(d), "nef": toric_mod.is_nef(d)}
    _emit(args, data, [f"ample: {data['ample']}", f"nef: {data['nef']}"])
    return 0


def _cmd_polytope_info(args) -> int:
    if args.coeffs is None:
        p = load_polytope(args.source)
    else:
        p = toric_mod.moment_polytope(load_coeffs(load_fan(args.source), args.coeffs))
    verts = polytope_mod.vertices(p)
    vol = polytope_mod.volume(p)
    measure = polytope_mod.boundary_measure(p) if p.dim == 2 and vol > 0 else None
    center = polytope_mod.barycenter(p) if vol > 0 else None
    data = {
        "vertices": [[format_rational(x) for x in v] for v in verts],
        "volume": format_rational(vol),
        "affine_dim": polytope_mod.affine_dimension(p),
        "boundary_measure": None if measure is None else format_rational(measure),
        "barycenter": None if center is None else [format_rational(x) for x in center],
    }
    value = functools.partial(_fmt_value, approx=args.approx)
    lines = [
        f"vertices: {[[value(x) for x in v] for v in verts]}",
        f"volume: {value(vol)}",
        f"affine_dim: {data['affine_dim']}",
        f"boundary_measure: {None if measure is None else value(measure)}",
        f"barycenter: {None if center is None else [value(x) for x in center]}",
    ]
    _emit(args, data, lines)
    return 0


def _cmd_alpha(args) -> int:
    if args.group != "explicit" and args.group_file is not None:
        raise InputError(f"alpha --group {args.group} does not read --group-file")
    fan = load_fan(args.fan)
    d = load_coeffs(fan, args.coeffs)
    explicit = None
    if args.group == "explicit":
        if args.group_file is None:
            raise InputError("--group explicit needs --group-file with the matrix list")
        explicit = load_group_matrices(args.group_file)
    ctx = alpha_mod.symmetry_context(d, args.group, explicit_group=explicit)
    value = alpha_mod.alpha_invariant(ctx)
    data = {
        "alpha": format_rational(value),
        "group_mode": args.group,
        "stabilizer_order": len(ctx.stabilizer) if ctx.stabilizer else 1,
        "scope": prop_mod.SCOPE_G,
        "oracle": None,
        "oracle_depth": None,
    }
    if args.oracle_depth is not None:
        oracle = alpha_mod.alpha_oracle(ctx, args.oracle_depth)
        data["oracle"] = format_rational(oracle)
        data["oracle_depth"] = args.oracle_depth
    lines = [
        f"alpha: {_fmt_value(value, args.approx)}",
        f"group_mode: {args.group} (stabilizer order {data['stabilizer_order']})",
    ]
    if data["oracle"] is not None:
        lines.append(
            f"oracle (depth {args.oracle_depth}): {_fmt_value(oracle, args.approx)}"
        )
    _emit(args, data, lines)
    return 0


def _cmd_intersect(args) -> int:
    fan = load_fan(args.fan)
    d = load_coeffs(fan, args.coeffs)
    minus_k = toric_mod.anticanonical_divisor(fan)
    d_sq = toric_mod.intersection_number(d, d)
    kd = toric_mod.intersection_number(minus_k, d)
    slopes = toric_mod.slope_quantities(d) if toric_mod.is_ample(d) else None
    mu, rbar = (slopes.mu, slopes.rbar) if slopes else (None, None)
    data = {
        "self_intersection": format_rational(d_sq),
        "anticanonical_pairing": format_rational(kd),
        "mu": None if mu is None else format_rational(mu),
        "rbar": None if rbar is None else format_rational(rbar),
    }
    value = functools.partial(_fmt_value, approx=args.approx)
    lines = [
        f"D.D: {value(d_sq)}",
        f"-K.D: {value(kd)}",
        f"mu: {None if mu is None else value(mu)}",
        f"rbar: {None if rbar is None else value(rbar)}",
    ]
    _emit(args, data, lines)
    return 0


def _make_backend(args):
    source = args.builtin or args.fan
    if source is None:
        raise InputError("check needs --builtin or --fan")
    if source == "dp1":
        if args.coeffs is None:
            raise InputError("check on a Picard backend needs --coeffs (d, m_1, ..., m_r)")
        return load_picard_class(args.coeffs)
    fan = load_fan(source)
    if args.coeffs is None:
        raise InputError("check on a toric backend needs --coeffs")
    return load_coeffs(fan, args.coeffs)


def _alpha_source(args):
    if args.alpha is not None:
        return prop_mod.SuppliedAlpha(
            parse_rational(args.alpha, where="--alpha"), label="supplied value (CLI)"
        )
    return prop_mod.StabilizerAlpha(group_mode=args.group or "full")


# the flags each check mode reads besides the class, which is --builtin or
# --fan with --coeffs, or a --slice in the negative-c1 mode
_MODE_FLAGS = {
    "epsilon-criterion": ("epsilon", "alpha", "group"),
    "fano": ("alpha", "group"),
    "negative-c1": (),
}


def _refuse_unread_flags(args) -> None:
    """A flag that the request would not read ends in an error, not in a
    report that looks as if it had been read."""
    if args.builtin is not None and args.fan is not None:
        raise InputError("check reads --builtin or --fan, not both")
    if args.alpha is not None and args.group is not None:
        raise InputError("check with --alpha does not read --group")
    request = f"check --mode {args.mode}"
    reads = ("builtin", "fan", "coeffs", *_MODE_FLAGS[args.mode])
    if args.mode == "negative-c1" and args.slice is not None:
        request, reads = f"{request} --slice", ("slice",)
    unread = [
        f"--{name}" for name in ("builtin", "fan", "coeffs", "slice", "epsilon", "alpha", "group")
        if getattr(args, name) is not None and name not in reads
    ]
    if unread:
        raise InputError(f"{request} does not read {', '.join(unread)}")


def _cmd_check(args) -> int:
    _refuse_unread_flags(args)
    if args.mode == "negative-c1":
        backend = _make_backend(args) if args.slice is None else load_slice(args.slice)
        report = prop_mod.check_negative_c1(backend)
    elif args.mode == "fano":
        backend = _make_backend(args)
        report = prop_mod.check_fano(backend, _alpha_source(args))
    else:
        epsilon = "1" if args.epsilon is None else args.epsilon
        report = prop_mod.check_properness(
            backend=_make_backend(args),
            epsilon=parse_rational(epsilon, where="--epsilon"),
            alpha_source=_alpha_source(args),
        )
    sys.stdout.write(render_report(report, args.format, args.approx))
    return 0


def _family(value, where: str):
    if not isinstance(value, str) or value not in prop_mod.BUILTIN_FAMILIES:
        names = sorted(prop_mod.BUILTIN_FAMILIES)
        raise InputError(f"unknown family {_describe(value)}; expected one of {names}")
    return prop_mod.BUILTIN_FAMILIES[value]()


def _cmd_sweep(args) -> int:
    # a fault in conjectured_endpoints is named before a missing key; the
    # other keys are the parameters of sweep_lambda, in its order
    endpoints, *config = _document(
        _read_json(args.config), "sweep config",
        ("conjectured_endpoints", _RATIONALS, ()),
        ("family", _family),
        ("lambda_min", _rational),
        ("lambda_max", _rational),
        ("step", _rational),
        ("refine_tol", _rational),
        ("epsilon", _rational, Fraction(1)),
    )
    report = prop_mod.sweep_lambda(*config, conjectured_endpoints=endpoints)
    sys.stdout.write(render_report(report, args.format, args.approx))
    return 0


def _cmd_picard_curves(args) -> int:
    curves = picard_mod.exceptional_curves(args.r)
    census = picard_mod.curve_census(args.r)
    data = {
        "r": args.r,
        "count": len(curves),
        "census": {str(d): census[d] for d in sorted(census)},
        "classes": [[format_ratio(x, c.den) for x in c.nums] for c in curves],
    }
    lines = [f"r: {args.r}", f"count: {len(curves)}", f"census by degree: {data['census']}"]
    _emit(args, data, lines)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Usage errors end like every other input error: one line, exit 1.
    Subcommand parsers are built from the same class."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing keeps no state between calls."""
    parser = _Parser(
        prog="kproper",
        description="Exact properness checks for the K-energy on toric surfaces "
        "and blowups of the projective plane.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument(
        "--approx",
        action="store_true",
        help="add non-authoritative decimal approximations to text output",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fan = sub.add_parser("fan", help="fan validation and symmetries")
    fan_sub = fan.add_subparsers(dest="fan_command", required=True)
    fv = fan_sub.add_parser("validate")
    fv.add_argument("fan", help="builtin name (p2, dp6) or fan JSON file")
    fv.set_defaults(handler=_cmd_fan_validate)
    fa = fan_sub.add_parser("autos")
    fa.add_argument("fan")
    fa.set_defaults(handler=_cmd_fan_autos)

    da = sub.add_parser("divisor", help="divisor positivity")
    da_sub = da.add_subparsers(dest="divisor_command", required=True)
    amp = da_sub.add_parser("ample")
    amp.add_argument("fan")
    amp.add_argument("--coeffs", required=True, help="inline list or divisor JSON file")
    amp.set_defaults(handler=_cmd_divisor_ample)

    pi = sub.add_parser("polytope", help="moment polytope data")
    pi_sub = pi.add_subparsers(dest="polytope_command", required=True)
    info = pi_sub.add_parser("info")
    info.add_argument("source", help="fan (with --coeffs) or polytope JSON file")
    info.add_argument("--coeffs")
    info.set_defaults(handler=_cmd_polytope_info)

    al = sub.add_parser("alpha", help="alpha invariant of an ample toric class")
    al.add_argument("fan")
    al.add_argument("--coeffs", required=True)
    al.add_argument("--group", choices=("full", "torus", "explicit"), default="full")
    al.add_argument("--group-file", dest="group_file", help="matrix list for --group explicit")
    al.add_argument("--oracle-depth", type=int, dest="oracle_depth")
    al.set_defaults(handler=_cmd_alpha)

    it = sub.add_parser("intersect", help="intersection numbers and slopes")
    it.add_argument("fan")
    it.add_argument("--coeffs", required=True)
    it.set_defaults(handler=_cmd_intersect)

    ck = sub.add_parser("check", help="properness criteria")
    ck.add_argument("--builtin", choices=("p2", "dp6", "dp1"))
    ck.add_argument("--fan", help="fan JSON file (toric backend)")
    ck.add_argument("--coeffs")
    ck.add_argument("--slice", help="abstract slice JSON file (negative-c1 mode)")
    ck.add_argument("--epsilon", help="slack of the epsilon criterion (default 1)")
    ck.add_argument("--alpha", help="supplied alpha value for the class")
    ck.add_argument("--group", choices=("full", "torus"),
                    help="symmetry group of the stabilizer formula (default full)")
    ck.add_argument(
        "--mode", choices=("epsilon-criterion", "fano", "negative-c1"),
        default="epsilon-criterion",
    )
    ck.set_defaults(handler=_cmd_check)

    sw = sub.add_parser("sweep", help="certified lambda sweep from a JSON config")
    sw.add_argument("--config", required=True)
    sw.set_defaults(handler=_cmd_sweep)

    pc = sub.add_parser("picard", help="Picard lattice data")
    pc_sub = pc.add_subparsers(dest="picard_command", required=True)
    curves = pc_sub.add_parser("curves")
    curves.add_argument("--r", type=int, required=True)
    curves.set_defaults(handler=_cmd_picard_curves)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except KProperError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
