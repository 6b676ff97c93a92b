"""A mutated report either reads back exactly or ends in one InputError.

`parse_report` reads the JSON that `render_report` writes for `check` and
`sweep`.  Each run takes one such report and mutates it once: a key is
dropped, a value is swapped for arbitrary JSON, a boolean becomes the
string "false" or "true", or an endpoint check's `confirmed` stops being
the conjunction of its three checks.  The result must either raise
`InputError` (any other exception fails the test) or read back to a report
that renders to the same bytes, with every key that the mutated report
still has written back with the same value and type.
"""

import functools
import json
import re
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from helpers import canonical_polarization_slice  # noqa: E402
from test_sweep_config_fuzz import json_values  # noqa: E402

from kproper.cli import parse_report, render_report  # noqa: E402
from kproper.picard import dp1_surface  # noqa: E402
from kproper.properness import (  # noqa: E402
    StabilizerAlpha,
    SuppliedAlpha,
    check_negative_c1,
    check_properness,
    dp1_family,
    dp6_family,
    sweep_lambda,
)
from kproper.rationals import InputError  # noqa: E402
from kproper.toric import anticanonical_divisor, dp6_fan  # noqa: E402

F = Fraction


@functools.cache
def reports() -> tuple:
    """The JSON of proper and failing checks, a negative-c1 check (no alpha)
    and a dp6 and a dp1 sweep with their conjectured endpoints."""
    dp1 = dp1_surface().cls((F(15, 4),) + (F(5, 4),) * 8)
    checks = [
        check_properness(F(5, 4) * anticanonical_divisor(dp6_fan()), F(1),
                         StabilizerAlpha("full")),
        check_properness(dp1, F(1, 10), SuppliedAlpha(F(4, 5))),
        check_negative_c1(canonical_polarization_slice(2)),
    ]
    sweeps = [
        sweep_lambda(dp6_family(), F(1, 2), F(2), F(1, 10), F(1, 100), F(1), (F(5, 6), F(6, 5))),
        sweep_lambda(dp1_family(), F(0), F(4, 3), F(1, 10), F(1, 100), F(1), (F(4, 5), F(1))),
    ]
    return tuple(json.loads(render_report(r)) for r in checks + sweeps)


def dump(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def paths(value, prefix=()):
    """The key path of every value inside `value`, `value` itself first."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(
        value, list) else ()
    for key, child in items:
        yield from paths(child, prefix + (key,))


def get(data, path):
    for key in path:
        data = data[key]
    return data


def agrees(given, written) -> bool:
    """Every key of `given` is in `written`, with the same value and type."""
    if isinstance(given, dict):
        return isinstance(written, dict) and all(
            key in written and agrees(value, written[key]) for key, value in given.items()
        )
    if isinstance(given, list):
        return isinstance(written, list) and len(given) == len(written) and all(
            map(agrees, given, written)
        )
    return type(given) is type(written) and given == written


@st.composite
def mutated(draw):
    """(kind of mutation, the mutated JSON)."""
    kind = draw(st.sampled_from(["drop", "swap", "string", "confirmed"]))
    # only the sweeps have endpoint checks
    data = json.loads(dump(draw(st.sampled_from(reports()[3:] if kind == "confirmed" else reports()))))
    every = list(paths(data))
    if kind == "drop":
        path = draw(st.sampled_from([p for p in every if p and isinstance(p[-1], str)]))
        del get(data, path[:-1])[path[-1]]
    elif kind == "swap":
        path = draw(st.sampled_from(every))
        if not path:
            return kind, draw(json_values)
        get(data, path[:-1])[path[-1]] = draw(json_values)
    elif kind == "string":
        path = draw(st.sampled_from([p for p in every if isinstance(get(data, p), bool)]))
        get(data, path[:-1])[path[-1]] = draw(st.sampled_from(["false", "true"]))
    else:
        check = draw(st.sampled_from(data["endpoint_checks"]))
        check["confirmed"] = not check["confirmed"]
    return kind, data


@settings(max_examples=400, deadline=None)
@given(mutated())
def test_a_mutated_report_reads_back_exactly_or_raises_input_error(case):
    kind, data = case
    text = dump(data)
    try:
        report = parse_report(text)
    except InputError:
        return
    out = render_report(report)
    assert agrees(data, json.loads(out))
    assert render_report(parse_report(out)) == out
    if kind != "drop":
        assert out == text
    # the text form of a report that reads back renders too
    render_report(report, "text", approx=True)


def _with(index, path, value):
    data = json.loads(dump(reports()[index]))
    get(data, path[:-1])[path[-1]] = value
    return dump(data)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1]", "report JSON must be a JSON object, got a JSON array"),
        ("{", "invalid report JSON"),
        ('{"kind": "sweep"}', '"kind" must be "properness-report" or "feasibility-report"'),
        ('{"kind": "feasibility-report"}', 'missing key "family"'),
        (_with(1, ("conditions", 2, "holds"), 1), '"conditions[2].holds" must be true'),
        (_with(0, ("verdict",), "criterion not satisfied"), '"verdict" must be "proper"'),
        (_with(3, ("intervals",), 5), '"intervals" must be a list, got 5'),
        (_with(3, ("intervals", 0, "lo_bracket"), ["1"]), '"intervals[0].lo_bracket" must be a '
                                                         "list of 2"),
        (_with(3, ("endpoint_checks", 0, "confirmed"), False),
         '"endpoint_checks[0].confirmed" must be true, the conjunction'),
        (_with(4, ("endpoint_checks", 1, "confirmed"), True),
         '"endpoint_checks[1].confirmed" must be false, the conjunction'),
        (_with(4, ("diagnostics", "grid_points"), 14), '"diagnostics.grid_points" must be a string'),
        (_with(2, ("mu",), "2/4"), 'non-canonical rational "2/4" in mu'),
        *((_with(3, ("diagnostics", "witness_scale_interval"), text),
           f'"diagnostics.witness_scale_interval" must be a string like "(p, q)", got "{text}"')
          for text in ("", "(1)", "(1, 2, 3)")),
    ],
    ids=["array", "not-json", "kind", "missing-key", "holds-int", "verdict", "intervals",
         "bracket", "confirmed-false", "confirmed-true", "diagnostics", "rational",
         "interval-empty", "interval-one-end", "interval-three-ends"],
)
def test_a_malformed_report_raises_one_input_error(text, message):
    with pytest.raises(InputError, match=re.escape(message)):
        parse_report(text)


def test_holds_false_as_a_string_is_rejected():
    # a string is not a boolean, whatever it says: read as truthy, this
    # report would parse as proper although it says condition (1) fails
    text = _with(0, ("conditions", 0, "holds"), "false")
    message = '"conditions[0].holds" must be true or false, got "false"'
    with pytest.raises(InputError, match=re.escape(message)):
        parse_report(text)
