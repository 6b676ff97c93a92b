"""Any check or sweep report reads back through its key table.

`render_report` writes a report's JSON by the key table of its kind, and
`parse_report` reads it back by the same table.  The reports here are
built from the dataclasses directly, with arbitrary rationals and unicode
text, empty lists and `None` in every optional field, so the tables are
tested on values that no check or sweep computes.  Each report must read
back equal, write the same bytes again, and render its `--approx` text.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kproper.cli import parse_report, render_report  # noqa: E402
from kproper.properness import (  # noqa: E402
    ConditionCheck,
    EndpointCheck,
    FeasibilityReport,
    FeasibleWindow,
    PropernessReport,
)

rationals = st.fractions()
texts = st.text()


def optional(values):
    return st.none() | values


conditions = st.builds(
    ConditionCheck,
    name=texts,
    description=texts,
    holds=st.booleans(),
    values=st.dictionaries(texts, rationals, max_size=4),
    binding=optional(texts),
)
check_reports = st.builds(
    PropernessReport,
    mode=texts,
    backend=texts,
    scope=texts,
    conditions=st.lists(conditions, max_size=4).map(tuple),
    alpha=optional(rationals),
    alpha_provenance=optional(texts),
    mu=optional(rationals),
)
windows = st.builds(
    FeasibleWindow,
    lo_bracket=st.tuples(rationals, rationals),
    hi_bracket=st.tuples(rationals, rationals),
    witness_lambda=rationals,
    witness_a=rationals,
)
endpoint_checks = st.builds(
    EndpointCheck,
    endpoint=rationals,
    side=texts,
    empty_at_endpoint=st.booleans(),
    feasible_inside=st.booleans(),
    infeasible_outside=st.booleans(),
)
sweep_reports = st.builds(
    FeasibilityReport,
    family=texts,
    epsilon=rationals,
    lambda_min=rationals,
    lambda_max=rationals,
    step=rationals,
    refine_tol=rationals,
    windows=st.lists(windows, max_size=3).map(tuple),
    endpoint_checks=st.lists(endpoint_checks, max_size=3).map(tuple),
    # a witness scale interval must read as one, which arbitrary text does not
    diagnostics=st.dictionaries(
        texts.filter(lambda name: name != "witness_scale_interval"), texts, max_size=4
    ),
)


@settings(max_examples=300, deadline=None)
@given(check_reports | sweep_reports)
def test_a_report_reads_back_by_its_key_table(report):
    text = render_report(report)
    assert parse_report(text) == report
    assert render_report(parse_report(text)) == text
    render_report(report, "text", approx=True)
