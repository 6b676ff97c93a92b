"""Picard lattices of blowups of the projective plane at general points.

Classes are written in the basis (H, E_1, ..., E_r) with intersection form
diag(1, -1, ..., -1); the canonical class is K = -3H + sum E_i.  Ampleness
is Kleiman's test against the curves that span the cone of curves.  For
r >= 2 these are the exceptional curves (the classes with C.C = C.K = -1);
on one blowup E_1 alone does not span it, and the fiber class H - E_1
(C.C = 0, K.C = -2) joins it.  A class positive on all of them has D.D > 0.

The exceptional curves are found by bounded search: C.K = -1 pins the
degree d = C.H through 3d - 1 = sum m_i, and C.C = -1 gives
sum m_i^2 = d^2 + 1, which by Cauchy-Schwarz forces d <= 6 for r <= 8.
The enumeration also probes d = 7 and raises if anything is found there.

Every positivity question reads one ConstraintTable per class
(curve_table, built at most once and kept on the class), the same table
type that holds the walls of a toric surface and the test curves of a
slice: the pairings D.C_i as integer numerators, over the lcm of the
coordinate denominators; K.C_i (-1 on every exceptional curve, -2 on the
fiber row) on the same denominator; and D.D and K.D.  The rows are the
distinct pairing vectors of the cone curves with the class: curve_matrix(r)
holds one row (d, -m_1, ..., -m_r) per cone curve, and where the class has
equal multiplicities m_i the curves that differ only inside such a block
pair alike with every class of those blocks, so they are merged into one
row (d_C, the block sums of -m_C, K.C) under the label of the first of
them.  The dp1 classes 3H - E_1 - ... - E_7 - lambda E_8 keep 15 of the 240
rows.  Ampleness, nefness and the slope mu = -K.D / D.D are read off the
table here, and the checker reads every combination x D + y K off its
rows.  A class is stored cleared, as N and the integers N coords;
pairing() sums D.D over them and K.D = (sum m_i - 3d) / N reads them
directly.

A class pairs with all its rows by one packed multiply-add (Kronecker
substitution) in slots of W = 64 words bits, with max(|N coords|, 3N)
times the rows' largest 1-norm below 2^(W-1).  For r >= 2 every row has
K.C = -1, and the binding row is the first at min or max L.C (ConstraintTable).
"""

from __future__ import annotations

import functools
import operator
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .rationals import (
    ClearedClass,
    ConstraintTable,
    GeometryError,
    ValidationError,
    clear_denominators,
    format_ratio,
)


@dataclass(frozen=True)
class BlowupSurface:
    """The blowup of P^2 at r general points, 1 <= r <= 8."""

    r: int

    def __post_init__(self):
        if not isinstance(self.r, int) or not 1 <= self.r <= 8:
            raise ValidationError("blowup surface needs 1 <= r <= 8 points")

    @property
    def rank(self) -> int:
        return self.r + 1

    def cls(self, coords) -> "PicardClass":
        return PicardClass(self, coords)

    @functools.lru_cache(maxsize=8)
    def canonical(self) -> "PicardClass":
        return self.cls((-3,) + (-1,) * self.r)


@dataclass(frozen=True, init=False, repr=False)
class PicardClass(ClearedClass):
    """The class d H - sum m_i E_i, built from the rationals coords = (d,
    m_1, ..., m_r) and stored cleared: den = N > 0, their least common
    denominator, and nums, the integers N coords.  Equality and hashing
    read (surface, N, N coords), and `coords` builds Fractions on request."""

    _home, _apart = "surface", "classes live on different surfaces"

    surface: BlowupSurface
    den: int = field(init=False)
    nums: tuple[int, ...] = field(init=False)
    # the class's ConstraintTable, filled by curve_table() on first use
    _table: object = field(default=None, init=False, compare=False)

    def __init__(self, surface: BlowupSurface, coords):
        den, nums = clear_denominators(coords)
        if len(nums) != surface.rank:
            raise ValidationError(f"class needs {surface.rank} coordinates, got {len(nums)}")
        vars(self).update(surface=surface, den=den, nums=nums)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __repr__(self) -> str:
        return f"PicardClass(surface={self.surface!r}, coords={self.coords!r})"


def pairing(a: PicardClass, b: PicardClass) -> Fraction:
    """Signature (1, r) intersection form d d' - sum m_i m_i', in integers."""
    if a.surface != b.surface:
        raise ValidationError("pairing requires classes on the same surface")
    (d, *m), (e, *n) = a.nums, b.nums
    return Fraction(d * e - sum(map(operator.mul, m, n)), a.den * b.den)


def _multiplicity_vectors(r: int, target_sum: int, target_sq: int):
    """Integer vectors m of length r with given sum and sum of squares."""
    bound = isqrt(target_sq)
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], remaining_sum: int, remaining_sq: int, slots: int):
        if slots == 0:
            if remaining_sum == 0 and remaining_sq == 0:
                out.append(tuple(prefix))
            return
        for value in range(-bound, bound + 1):
            sq = value * value
            if sq > remaining_sq:
                continue
            rest_sum = remaining_sum - value
            rest_sq = remaining_sq - sq
            k = slots - 1
            if abs(rest_sum) > k * bound:
                continue
            if k == 0:
                if rest_sum == 0 and rest_sq == 0:
                    out.append(tuple(prefix + [value]))
                continue
            # Cauchy-Schwarz: (sum rest)^2 <= k * sum rest^2
            if rest_sum * rest_sum > k * rest_sq:
                continue
            prefix.append(value)
            extend(prefix, rest_sum, rest_sq, k)
            prefix.pop()

    extend([], target_sum, target_sq, r)
    return out


@functools.lru_cache(maxsize=None)
def exceptional_curves(r: int) -> tuple[PicardClass, ...]:
    """All integral classes with C.C = -1 and C.K = -1, lexicographically sorted."""
    surface = BlowupSurface(r)
    found = []
    for d in range(0, 8):
        solutions = _multiplicity_vectors(r, 3 * d - 1, d * d + 1)
        if d == 7:
            if solutions:
                raise GeometryError("degree bound d <= 6 violated")
            continue
        for m in solutions:
            found.append(surface.cls((d,) + m))
    curves = tuple(sorted(found, key=lambda c: c.nums))
    for c in curves:
        if pairing(c, c) != -1 or pairing(c, surface.canonical()) != -1:
            coords = ", ".join(format_ratio(x, c.den) for x in c.nums)
            raise GeometryError(f"enumerated class ({coords}) is not an exceptional curve")
    return curves


@functools.lru_cache(maxsize=None)
def cone_curves(r: int) -> tuple[PicardClass, ...]:
    """The curves that span the cone of curves, lexicographically sorted:
    the exceptional curves, and on one blowup also the fiber H - E_1,
    which sorts after E_1."""
    if r == 1:
        return (*exceptional_curves(1), BlowupSurface(1).cls((1, 1)))
    return exceptional_curves(r)


@functools.lru_cache(maxsize=None)
def curve_matrix(r: int) -> tuple[tuple[int, ...], ...]:
    """Rows (d, -m_1, ..., -m_r) of the cone curves, in table order.

    The row dotted with a class's coordinates is its pairing with the curve."""
    return tuple((c.nums[0], *(-m for m in c.nums[1:])) for c in cone_curves(r))


@functools.lru_cache(maxsize=None)
def curve_labels(r: int) -> tuple[str, ...]:
    """The report label of each cone curve, in table order."""
    return tuple(
        "curve (" + ", ".join(format_ratio(x, c.den) for x in c.nums) + ")"
        for c in cone_curves(r)
    )


@functools.lru_cache(maxsize=64)
def _block_rows(r: int, blocks: tuple[tuple[int, ...], ...]):
    """(labels, rows, their largest 1-norm) of the cone curves reduced to the
    blocks, which partition the positions 0..r-1 of the multiplicities: a
    row is (d_C, the sum of -m_C over each block), so K.C = -3 d_C minus
    its other entries, and equal rows merge under the label of the first."""
    first: dict = {}
    for label, row in zip(curve_labels(r), curve_matrix(r)):
        first.setdefault((row[0], *(sum(row[1 + i] for i in block) for block in blocks)), label)
    return tuple(first.values()), tuple(first), max(sum(map(abs, row)) for row in first)


@functools.lru_cache(maxsize=64)
def _packed_columns(r: int, blocks: tuple[tuple[int, ...], ...], words: int):
    """(columns, offset): each column of the _block_rows rows, then K.C, as
    one int with a W = 64 words bit slot per row, and 2^(W-1) in each slot."""
    rows, width = _block_rows(r, blocks)[1], 64 * words
    columns = [sum(v << width * i for i, v in enumerate(col)) for col in zip(*rows)]
    offset = sum(1 << width * i + width - 1 for i in range(len(rows)))
    return (*columns, -3 * columns[0] - sum(columns[1:])), offset


def _pairings(r: int, blocks: tuple[tuple[int, ...], ...], reps, den: int):
    """(row . reps, den K.C) over the _block_rows rows, each one packed
    multiply-add; flipping each slot's top bit leaves its two's complement."""
    _, rows, norm = _block_rows(r, blocks)
    words = 1 << ((max(*map(abs, reps), 3 * den) * norm).bit_length() // 64).bit_length()
    columns, offset = _packed_columns(r, blocks, words)
    size, out = 8 * words, []
    for packed in (sum(map(operator.mul, reps, columns)), den * columns[-1]):
        data = ((packed + offset) ^ offset).to_bytes(size * len(rows), "little")
        if words == 1:
            values = array("q", data)
            if sys.byteorder == "big":
                values.byteswap()
        else:
            values = [int.from_bytes(data[i:i + size], "little", signed=True)
                      for i in range(0, len(data), size)]
        out.append(tuple(values))
    return out


def curve_tables(*classes: PicardClass) -> tuple[ConstraintTable, ...]:
    """The tables of classes of one surface against one list of rows.

    The multiplicities are grouped into the blocks of positions where every
    class has equal values, in first-occurrence order, and each row pairs
    with (d, one multiplicity per block).  The rows keep the cone curves'
    order with the later members of a merged row left out, so the first row
    at a minimum carries the label of the first cone curve there: that
    curve's merged row starts at it, and an earlier member would be an
    earlier curve at the minimum.  The tables of several classes have the
    same labels row by row."""
    r = classes[0].surface.r
    positions: dict = {}
    for i, key in enumerate(zip(*(c.nums[1:] for c in classes))):
        positions.setdefault(key, []).append(i)
    blocks = tuple(map(tuple, positions.values()))
    labels = _block_rows(r, blocks)[0]
    return tuple(ConstraintTable(
        labels, *_pairings(r, blocks, (c.nums[0], *(c.nums[1 + b[0]] for b in blocks)), c.den),
        c.den, pairing(c, c), Fraction(sum(c.nums[1:]) - 3 * c.nums[0], c.den),
    ) for c in classes)


def curve_table(d: PicardClass) -> ConstraintTable:
    """The class against the distinct rows of the cone curves (curve_tables),
    computed once per class."""
    if d._table is None:
        object.__setattr__(d, "_table", curve_tables(d)[0])
    return d._table


def curve_census(r: int) -> dict[int, int]:
    """Number of exceptional curves by degree d = C.H."""
    return Counter(c.nums[0] for c in exceptional_curves(r))


def is_ample_picard(d: PicardClass) -> bool:
    """Kleiman positivity against all cone curves."""
    return min(curve_table(d).nums) > 0


def slope_picard(d: PicardClass) -> Fraction:
    """mu = -K.D / D.D for an ample class on the blowup surface."""
    if not is_ample_picard(d):
        raise GeometryError("slope requires an ample class")
    table = curve_table(d)
    if table.l_sq <= 0:
        raise GeometryError("internal inconsistency: an ample class has D.D <= 0")
    return -table.k_dot_l / table.l_sq


def dp1_surface() -> BlowupSurface:
    """The degree 1 del Pezzo surface: P^2 blown up at eight general points."""
    return BlowupSurface(8)
