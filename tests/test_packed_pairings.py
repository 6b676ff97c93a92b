"""The packed pairings of a Picard class and the constant-K binding rule
against plain references.

`picard._pairings` pairs a class with every row of its table by one packed
integer multiply-add, in slots of 1, 2, 4 or more 64-bit words; here it
must give the same integers as one dot product per row
(`reference_block_pairings`), for every r, every block partition, classes
that are not ample and numerators up to 2^300.  `_combo_positive` finds
the binding row of a table whose rows share one K.C from min or max of
L.C; here it must name the same row and margin as a scan of every value,
the first row winning a tie.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from helpers import counting, reference_block_pairings  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kproper import picard  # noqa: E402
from kproper.picard import BlowupSurface, _block_rows, _pairings, curve_tables  # noqa: E402
from kproper.properness import AbstractSlice, _combo_positive  # noqa: E402
from kproper.rationals import ConstraintTable  # noqa: E402

F = Fraction

# slot sizes of 1 word (up to 62 bits), 2 words and 4 or more words
BITS = (4, 40, 60, 64, 100, 130, 300)


def blocks_of(block_of) -> tuple:
    """The blocks of positions with one label, in first-occurrence order,
    as curve_tables builds them."""
    positions: dict = {}
    for i, label in enumerate(block_of):
        positions.setdefault(label, []).append(i)
    return tuple(map(tuple, positions.values()))


@st.composite
def partitions(draw, r):
    return blocks_of(draw(st.lists(st.integers(0, r - 1), min_size=r, max_size=r)))


@st.composite
def cases(draw):
    """(r, blocks, reps, den) with numerators of a drawn bit size."""
    r = draw(st.integers(1, 8))
    blocks = draw(partitions(r))
    bits = draw(st.sampled_from(BITS))
    size = st.integers(-(2**bits), 2**bits)
    reps = tuple(draw(st.lists(size, min_size=len(blocks) + 1, max_size=len(blocks) + 1)))
    return r, blocks, reps, draw(st.integers(1, 2**bits))


@settings(max_examples=300, deadline=None)
@given(cases())
@example((8, tuple((i,) for i in range(8)), (3 * 10**20 + 117,) + (10**20,) * 8, 10**20 + 39))
@example((8, ((0, 1, 2, 3, 4, 5, 6, 7),), (-(2**300), 2**299), 2**300 + 1))
@example((1, ((0,),), (2**62 - 1, -(2**62 - 1)), 1))
@example((1, ((0,),), (2**62, -(2**62)), 1))
def test_packed_pairings_match_one_dot_product_per_row(case):
    r, blocks, reps, den = case
    assert _pairings(r, blocks, reps, den) == list(reference_block_pairings(r, blocks, reps, den))


@pytest.mark.parametrize("bits, words", [(8, 1), (58, 1), (59, 2), (122, 2), (123, 4), (300, 8)])
def test_the_slot_holds_the_largest_pairing(monkeypatch, bits, words):
    # r = 8 with one block per point: the rows' largest 1-norm is 6 + 3 + 7 * 2 = 23,
    # and the degree-6 rows pair to nearly 23 (2^bits - 1), which W = 64 words must
    # hold below 2^(W - 1); words is a power of two
    blocks = tuple((i,) for i in range(8))
    assert _block_rows(8, blocks)[2] == 23
    calls = []
    counting(monkeypatch, picard._packed_columns, calls)
    reps = (2**bits - 1,) + tuple(-(2**bits - 1) + i for i in range(8))
    assert _pairings(8, blocks, reps, 1) == list(reference_block_pairings(8, blocks, reps, 1))
    assert calls == [(8, blocks, words)]


@st.composite
def families(draw):
    """Two or three classes of one surface, not necessarily ample, with
    numerators of a drawn bit size and some equal multiplicities."""
    r = draw(st.integers(1, 8))
    bits = draw(st.sampled_from(BITS))
    value = st.fractions(min_value=-(2**bits), max_value=2**bits, max_denominator=2**(bits // 2))
    classes = []
    for _ in range(draw(st.integers(2, 3))):
        block_of = draw(st.lists(st.integers(0, 2), min_size=r, max_size=r))
        values = draw(st.lists(value, min_size=3, max_size=3))
        classes.append(BlowupSurface(r).cls([draw(value)] + [values[b] for b in block_of]))
    return classes


@settings(max_examples=150, deadline=None)
@given(families())
def test_family_tables_pair_each_class_with_the_shared_rows(classes):
    tables = curve_tables(*classes)
    r = classes[0].surface.r
    blocks = blocks_of(zip(*(c.nums[1:] for c in classes)))
    for c, table in zip(classes, tables):
        assert table.labels == tables[0].labels == _block_rows(r, blocks)[0]
        reps = (c.nums[0], *(c.nums[1 + block[0]] for block in blocks))
        assert (table.nums, table.k_nums) == reference_block_pairings(r, blocks, reps, c.den)
        assert table.den == c.den


# ---------------------------------------------------------------------------
# the binding row of a table whose rows share one K.C


def full_scan(table, x, y, strict):
    """(holds, binding, margin) from every row's value, the first row at the
    least value binding."""
    xl, yk = x.numerator * y.denominator, y.numerator * x.denominator
    values = [xl * a + yk * b for a, b in zip(table.nums, table.k_nums)]
    low = min(values)
    margin = F(low, x.denominator * y.denominator * table.den)
    return (margin > 0 if strict else margin >= 0), table.labels[values.index(low)], margin


def slice_of(nums, k_nums, den=1):
    labels = tuple(f"row {i}" for i in range(len(nums)))
    return AbstractSlice(2, ConstraintTable(labels, tuple(nums), tuple(k_nums), den, F(1), F(1)))


coefficients = st.one_of(st.integers(-3, 3).map(F),
                         st.fractions(min_value=-5, max_value=5, max_denominator=12))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=12), st.integers(-3, 3),
       st.booleans(), st.integers(1, 7), coefficients, coefficients, st.booleans())
def test_one_k_row_rule_matches_the_full_scan(nums, k, one_k, den, x, y, strict):
    # small entries make tied minima and maxima common; one_k False gives
    # every row its own K.C, the scanned branch
    k_nums = [k] * len(nums) if one_k else [k + i % 3 for i in range(len(nums))]
    table = slice_of(nums, k_nums, den)
    assert _combo_positive(table, x, y, strict) == full_scan(table.table, x, y, strict)


@pytest.mark.parametrize("x, y, binding", [
    (F(1), F(1), "row 1"),    # x > 0: the first row at min L.C, not the later tie
    (F(2, 3), F(-5), "row 1"),
    (F(-1), F(1), "row 2"),   # x < 0: the first row at max L.C
    (F(-7, 2), F(-1), "row 2"),
    (F(0), F(1), "row 0"),    # x = 0: every row ties, the first binds
    (F(0), F(-1), "row 0"),
])
def test_the_first_row_wins_a_tie_in_the_one_k_rule(x, y, binding):
    table = slice_of((2, 1, 3, 1, 3), (-1,) * 5)
    assert _combo_positive(table, x, y, True) == full_scan(table.table, x, y, True)
    assert _combo_positive(table, x, y, True)[1] == binding
