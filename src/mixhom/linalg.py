"""Exact sparse linear algebra over the rationals.

Everything downstream (homology of complexes, operation tables on
homology bases, ranks) reduces to the routines here.  There is no
floating point anywhere.  An :class:`ExactMatrix` stores integer entries
over one positive denominator, and elimination, matrix products,
transposes and the u-stacking in ``mixed`` run on those integers: rows are
combined by cross-multiplication and divided by their content after each
step (fraction-free Gauss-Jordan elimination; cf. Bareiss 1968), in one
written-out loop (``_cancel``), and the echelon is a dict indexed by pivot,
so each step costs one lookup (``_row_echelon``).  Rational
input (the ``ExactMatrix`` constructor and ``from_rows``, sparse vectors)
is scaled to integer rows over one denominator on the way in
(``_over_one_denominator``, called nowhere else in the package), so no
routine here does ``Fraction`` arithmetic, and a ``Fraction`` is built only
where a value leaves: ``ExactMatrix.entries`` and the ``reduce`` of a
homology presentation.  Outputs are
deterministic: row reduction produces the (unique) reduced row echelon
form, so kernels, images and homology presentations are canonical.

Vectors that cross a module boundary are sparse, {index: coefficient}, and
``_accumulate`` is the one sparse sum, on ints and Fractions alike.  A
coefficient held in the package is an ``int`` wherever its value is an
integer, and a ``Fraction`` only where it is not (a relation whose normal
form divides) or where a value leaves through the edges above; ints and
Fractions hash and compare equal, so a matrix or memo key built from either
is the same.  A vector inside the package is a ``Row``: integer
coefficients {key: int} over one positive denominator, in lowest terms.  A
chain-level vector is one keyed by basis index: a presentation's ``cycle``
hands out its stored representative that way, ``ExactMatrix.apply`` takes
and returns one, and a cochain or chain built from a row's numerators is
read back over its denominator.  A homology class vector is one keyed by
class, and ``_iexpand`` sums those.  A homology presentation is factored
once, when it is built, and keeps the integer echelon rows the elimination
produced: its boundary and representative bases stay in reduced row echelon
form, so reading the coordinates of a cycle over a denominator
(``HomologyPresentation._read``) is one pass on integers, a pivot lookup per
entry and no new row reduction.  ``mixed._classes`` relabels that integer
row into a class row, and ``reduce`` is its ``Fraction`` edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence


class NotAComplexError(Exception):
    """d_out o d_in != 0; carries the offending column index."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"composition nonzero on column {column}: not a complex")


class DimensionMismatchError(Exception):
    pass


def _accumulate(acc: dict, terms: dict, scale=1) -> dict:
    """acc += scale · terms for sparse vectors of ints or Fractions, dropping entries that cancel; returns acc.

    The one sparse sum of the package.  Four innermost loops write theirs out instead, to save a call per
    term: ``ExactMatrix.matmul``, ``ExactMatrix.apply``, the elimination step ``_cancel`` (fused with its
    content division) and the columns of ``poisson._bracket_columns``.
    """
    for k, v in terms.items():
        s = acc.get(k)
        s = scale * v if s is None else s + scale * v
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)
    return acc


def _expand(table, step):
    """Σ v·step(k) over the entries k: v of table; None if table or any step is None."""
    if table is None:
        return None
    out: dict = {}
    for k, v in table.items():
        got = step(k)
        if got is None:
            return None
        _accumulate(out, got, v)
    return out


def _pullback(phi: dict, sources: Iterable, apply, sign: int) -> dict:
    """The signed transpose of an operator on a functional: {s: sign·φ(apply(s))} over sources, zeros dropped.

    ``apply(s)`` is a sparse vector {label: coefficient}; only its labels in
    φ's support count, and no matrix is built.
    """
    out = {}
    for s in sources:
        v = sum(phi[t] * c for t, c in apply(s).items() if t in phi)
        if v:
            out[s] = sign * v
    return out


# -- the integer kernel ----------------------------------------------------
#
# A sparse integer row {column: int} (no zeros) stands for the rational row it is proportional to; a
# forward echelon is {pivot column: row} and a reduced one a list of (pivot column, row) sorted by pivot.
# A rational vector held inside the package is a pair (num, den): a sparse integer row over one positive
# denominator (see ``_lowest``).

Row = tuple[Mapping, int]  # (num, den): integer entries {key: int} without zeros over a positive den
ZERO_ROW: Row = (MappingProxyType({}), 1)  # read-only: the one zero row many memos share


def _denominator(values: Iterable) -> int:
    """The lcm of the denominators of some rationals."""
    return lcm(*{v.denominator for v in values})


def _iaccumulate_over(acc: dict, den: int, terms: dict, terms_den: int, scale: int) -> int:
    """acc/den += scale·terms/terms_den for sparse integer vectors over positive denominators, in place.

    acc is first brought to the lcm of the two denominators; returns that lcm, acc's denominator now.
    """
    if den % terms_den:
        common = lcm(den, terms_den)
        up = common // den
        for k in acc:
            acc[k] *= up
        den = common
    _accumulate(acc, terms, scale * (den // terms_den))
    return den


def _lowest(num: dict, den: int) -> Row:
    """The sparse rational vector num / den as an integer row over one positive denominator in lowest terms.

    The zero vector is the shared, read-only ``ZERO_ROW``.
    """
    if not num:
        return ZERO_ROW
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            return {k: v // g for k, v in num.items()}, den // g
    return num, den


def _iexpand(row: Row | None, step) -> Row | None:
    """Σ v·step(k) over the entries k: v of an integer row, in lowest terms; None if row or any step is None.

    ``step`` maps a key to an integer row over its denominator; this is ``_expand`` on class rows.  A zero
    step costs no accumulate.
    """
    if row is None:
        return None
    acc, den = {}, 1
    for k, v in row[0].items():
        got = step(k)
        if got is None:
            return None
        if got[0]:
            den = _iaccumulate_over(acc, den, got[0], got[1], v)
    return _lowest(acc, den * row[1])


def _fractions(num: dict, den: int) -> dict:
    """The Fractions {key: v / den} of an integer row over a denominator."""
    return {k: Fraction(v, den) for k, v in num.items()}


def _primitive(r: dict[int, int]) -> None:
    """Divide r in place by the gcd of its entries."""
    g = gcd(*r.values())
    if g > 1:
        for j, v in r.items():
            r[j] = v // g


def _integer_row(row: dict) -> dict[int, int]:
    """The primitive integer row proportional to a sparse rational row, zeros dropped."""
    r = _over_one_denominator(row)[0]
    _primitive(r)
    return r


def _cancel(r: dict[int, int], row: dict[int, int], p: int) -> None:
    """Set r in place to the primitive integer row proportional to row[p]·r − r[p]·row (zero at p), written out."""
    a, c = row[p], r[p]
    g = gcd(a, c)
    a, c = a // g, c // g
    if a != 1:
        for j, v in r.items():
            r[j] = a * v
    for j, v in row.items():
        s = r.get(j, 0) - c * v
        if s:
            r[j] = s
        else:
            del r[j]
    g = gcd(*r.values())
    if g > 1:
        for j, v in r.items():
            r[j] = v // g


def _row_echelon(rows: Iterable[dict[int, int]], echelon: dict | None = None) -> dict[int, dict[int, int]]:
    """Forward elimination of integer rows (consumed), as {pivot: row}; a given ``echelon`` is extended in place.

    A row is cancelled at its least column while that column is a pivot, then kept under its new least column:
    every pivot is its row's least column, and a step costs one lookup, not a scan of the echelon.  A step that
    leaves the least column in place raises AssertionError instead of looping.
    """
    echelon = {} if echelon is None else echelon
    for r in rows:
        while r:
            p = min(r)
            pr = echelon.get(p)
            if pr is None:
                echelon[p] = r
                break
            _cancel(r, pr, p)
            if p in r:  # the new least column is p again (no key of r or pr is below p): an equality, not an order
                raise AssertionError(f"a cancellation left the pivot entry at column {p!r}")
    return echelon


def _integer_rref(rows: Iterable[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """The reduced row echelon form of integer rows (consumed), as (pivot, row) sorted by pivot.

    Row i, divided by its pivot entry, is row i of the rational RREF.  From the last pivot up, a row is
    cancelled only at the other pivots in its own support, whose rows are reduced already.
    """
    echelon = _row_echelon(rows)
    out = sorted(echelon.items())
    for p, r in reversed(out):
        for q in [q for q in r if q != p and q in echelon]:
            _cancel(r, echelon[q], q)
    return out


def _positive(p: int, r: dict[int, int]) -> tuple[int, dict[int, int]]:
    """(p, ±r) with a positive entry at the pivot p and the keys in ascending order."""
    s = 1 if r[p] > 0 else -1
    return p, {j: s * r[j] for j in sorted(r)}


class ExactMatrix:
    """Sparse matrix over Q: integer entries over one positive denominator.

    ``num`` is {(row, col): int} without zeros and ``den`` a positive int,
    kept in lowest terms (the gcd of ``den`` and every entry is 1), so the
    stored form is canonical and ``==`` compares the rational matrices
    ``num / den``.  The constructor and ``from_rows`` accept rationals;
    products, transposes, eliminations, stacking and ``apply`` (an integer
    row in, one out) read the integers, and a ``Fraction`` is built only in
    the rational view ``entries``.
    """

    __slots__ = ("rows", "cols", "num", "den", "_by_col")

    def __init__(self, rows: int, cols: int, entries: dict[tuple[int, int], Fraction] | None = None):
        entries = entries or {}
        for (i, j) in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i},{j}) out of range for {rows}x{cols}")
        self.rows, self.cols, self.num, self.den = rows, cols, *_over_one_denominator(entries)
        self._by_col = None

    @classmethod
    def _integers(cls, rows: int, cols: int, num: dict[tuple[int, int], int], den: int) -> "ExactMatrix":
        """The matrix num / den from integer entries without zeros over a positive den, brought to lowest terms."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {k: v // g for k, v in num.items()}
                den //= g
        M = object.__new__(cls)
        M.rows, M.cols, M.num, M.den, M._by_col = rows, cols, num, den, None
        return M

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "ExactMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise DimensionMismatchError("ragged rows")
            for j, v in enumerate(row):
                if v != 0:
                    entries[(i, j)] = v
        return cls(rows, cols, entries)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls._integers(rows, cols, {}, 1)

    @property
    def entries(self) -> dict[tuple[int, int], Fraction]:
        """The rational entries {(row, col): Fraction}, a fresh dict."""
        return _fractions(self.num, self.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.num == other.num
        )

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols}, {len(self.num)} nonzero)"

    def is_zero(self) -> bool:
        return not self.num

    def row_dicts(self) -> list[dict[int, int]]:
        """The rows of den·M as sparse integer rows {col: int}: each is proportional to the rational row."""
        rows: list[dict[int, int]] = [dict() for _ in range(self.rows)]
        for (i, j), v in self.num.items():
            rows[i][j] = v
        return rows

    def transpose(self, sign: int = 1) -> "ExactMatrix":
        """The transpose, every entry multiplied by sign."""
        return ExactMatrix._integers(self.cols, self.rows, {(j, i): sign * v for (i, j), v in self.num.items()},
                                     self.den)

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        # group other's entries by row for sparse accumulation
        by_row: dict[int, list[tuple[int, int]]] = {}
        for (k, j), b in other.num.items():
            by_row.setdefault(k, []).append((j, b))
        acc: dict[tuple[int, int], int] = {}
        for (i, k), a in self.num.items():
            for j, b in by_row.get(k, ()):
                key = (i, j)
                s = acc.get(key, 0) + a * b
                if s:
                    acc[key] = s
                else:
                    del acc[key]
        return ExactMatrix._integers(self.rows, other.cols, acc, self.den * other.den)

    def apply(self, row: Row) -> Row:
        """M·(num / den) for an integer row (num, den), as an integer row in lowest terms.

        The entries are indexed by column on the first call (a matrix is not changed once built), so a call walks
        only the columns in the row's support.  Raises DimensionMismatchError on an index outside the columns.
        """
        vec, dv = row
        if any(not 0 <= j < self.cols for j in vec):
            raise DimensionMismatchError("vector index outside the columns")
        if self._by_col is None:
            by_col = [[] for _ in range(self.cols)]
            for (i, j), v in self.num.items():
                by_col[j] += i, v
            self._by_col = [tuple(entries) for entries in by_col]  # (row, value, row, value, ...) per column
        out: dict[int, int] = {}
        for j, c in vec.items():
            entries = iter(self._by_col[j])
            for i, v in zip(entries, entries):
                out[i] = out.get(i, 0) + v * c
        return _lowest({i: c for i, c in out.items() if c}, self.den * dv)

    def rank(self) -> int:
        return len(_row_echelon(self.row_dicts()))


def _over_one_denominator(entries: dict) -> tuple[dict, int]:
    """(num, den) in lowest terms for rational entries, zeros dropped: den is the lcm of their denominators."""
    den = _denominator(entries.values())
    return {k: v.numerator * (den // v.denominator) for k, v in entries.items() if v}, den


def _sparse_rank(vectors: Iterable[dict]) -> int:
    """The rank of sparse vectors {key: coefficient} with ordered keys of any kind, by the integer kernel."""
    return len(_row_echelon(_integer_row(v) for v in vectors))


def operator_matrix(src_labels: Sequence, tgt_labels: Sequence, apply, den: int = 1, escape=KeyError) -> ExactMatrix:
    """The matrix of a linear operator from one labelled basis to another, over the denominator ``den``.

    Column j holds den times the operator on ``src_labels[j]``:
    ``apply(src_labels[j])`` is a sparse combination {target label:
    coefficient}, integer or rational, taken as it comes.  A nonzero
    coefficient on a label outside ``tgt_labels`` raises ``escape``: the
    operator leaves the window.
    """
    index = {t: i for i, t in enumerate(tgt_labels)}
    entries = {}
    for j, s in enumerate(src_labels):
        for t, c in apply(s).items():
            if c:
                i = index.get(t)
                if i is None:
                    raise escape(f"operator image {t!r} of {s!r} leaves the target basis")
                entries[(i, j)] = c
    num, d = _over_one_denominator(entries)
    return ExactMatrix._integers(len(tgt_labels), len(src_labels), num, d * den)


def _kernel_rows(rows: Iterable[dict[int, int]], ncols: int) -> list[tuple[int, dict[int, int]]]:
    """The canonical basis of the null space of sparse integer rows (consumed) on ncols columns, as (free column, row).

    One vector per free column f of the rows' RREF, ordered by f: 1 at f
    and, at each pivot, minus that pivot row's entry at f, scaled to a
    primitive integer row.
    """
    reduced = _integer_rref(rows)
    pivot_set = {p for p, _ in reduced}
    at: dict[int, list] = {}  # free column -> the (pivot, row) pairs with an entry there, in pivot order
    for p, row in reduced:
        for j in row:
            if j != p:
                at.setdefault(j, []).append((p, row))
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        hits = at.get(f, ())
        scale = lcm(*(row[p] for p, row in hits))
        vec = {f: scale}
        for p, row in hits:
            vec[p] = -row[f] * (scale // row[p])
        _primitive(vec)
        basis.append((f, vec))
    return basis


def _image_rows(M: ExactMatrix) -> list[tuple[int, dict[int, int]]]:
    """The RREF basis of the column space of M, as integer (pivot, row) pairs, each row primitive."""
    columns: list[dict[int, int]] = [dict() for _ in range(M.cols)]
    for (i, j), v in M.num.items():
        columns[j][i] = v
    for c in columns:
        _primitive(c)
    return _integer_rref(columns)


@dataclass(frozen=True)
class HomologyPresentation:
    """A chosen basis of ker(d_out)/im(d_in) with a deterministic reduction.

    ``boundaries`` is the canonical image basis and ``reps`` the homology
    representatives, each a (pivot, primitive integer row) pair with a
    positive entry at the pivot and its keys in ascending order; the
    rational vector is the row divided by its pivot entry.  Both bases are
    in reduced row echelon form and every representative vanishes on the
    boundary pivots: a boundary row is zero at the other boundary pivots,
    and a representative at every other pivot, which ``_read`` relies on.
    The stored form is canonical, so ``==`` compares presentations.
    """

    ambient_dim: int
    boundaries: tuple[tuple[int, dict[int, int]], ...]
    reps: tuple[tuple[int, dict[int, int]], ...]

    @property
    def dim(self) -> int:
        return len(self.reps)

    @cached_property
    def _pivots(self) -> tuple[dict, dict]:
        """({boundary pivot: row}, {representative pivot: (basis index, row)}), built on the first read."""
        return dict(self.boundaries), {p: (i, r) for i, (p, r) in enumerate(self.reps)}

    def cycle(self, i: int) -> Row:
        """Representative i, 1 at its pivot, as a read-only integer row over its pivot entry (primitive, so lowest)."""
        p, r = self.reps[i]
        return MappingProxyType(r), r[p]

    def _read(self, vec: dict, den: int) -> Row:
        """The coordinates of the sparse cycle vec / den in the homology basis, as an integer row {basis index: int}.

        vec holds ints, or Fractions where a constant is not integral.  The cycle, scaled to an integer row t over one
        denominator, is cleared at each boundary pivot in its support, then read and cleared at each representative
        pivot in it, each found by a lookup; a step is t ← a·t − c·row with c/a = t[p]/row[p] in lowest terms.
        Raises DimensionMismatchError on an index outside the ambient dimension, and ValueError if a remainder is
        left (vec is not a cycle of this presentation).
        """
        if any(not 0 <= j < self.ambient_dim for j in vec):
            raise DimensionMismatchError("vector index outside the ambient dimension")
        t, d = _over_one_denominator(vec)
        den *= d
        boundary_at, rep_at = self._pivots
        for p in [p for p in t if p in boundary_at]:
            row = boundary_at[p]
            g = gcd(t[p], row[p])
            den *= _iaccumulate_over(t, 1, row, row[p] // g, -(t[p] // g))
        hits = sorted(p for p in t if p in rep_at)  # ascending pivots: ascending basis indices
        coords = {rep_at[p][0]: t[p] for p in hits}  # over den: a representative is 1 at its pivot
        for p in hits:
            row = rep_at[p][1]
            g = gcd(t[p], row[p])
            _iaccumulate_over(t, 1, row, row[p] // g, -(t[p] // g))
        if t:
            raise ValueError("vector is not a cycle of this presentation")
        return _lowest(coords, den)

    def reduce(self, vec: dict) -> tuple[Fraction, ...]:
        """Coordinates of a sparse cycle in the homology basis, as Fractions: ``_read`` where it leaves the package."""
        num, den = self._read(vec, 1)
        return tuple(Fraction(num.get(i, 0), den) for i in range(self.dim))


def _check_complex(d_in: ExactMatrix, d_out: ExactMatrix) -> None:
    """Raise unless d_out o d_in = 0 (``matmul`` raises if d_in does not land in d_out's source)."""
    comp = d_out.matmul(d_in)
    if not comp.is_zero():
        raise NotAComplexError(min(j for (_, j) in comp.num))


def homology_presentation(d_in: ExactMatrix, d_out: ExactMatrix) -> HomologyPresentation:
    """Presentation of ker(d_out)/im(d_in); precondition, not checked here: d_in, d_out form a complex."""
    dim = d_out.cols
    kernel = _kernel_rows(d_out.row_dicts(), dim)
    boundaries = _image_rows(d_in)
    # representatives: kernel vectors reduced mod boundaries, then RREF'd for
    # canonical, mutually reduced output
    pivots = dict(boundaries)
    candidates = []
    for _, r in kernel:
        for p in [p for p in r if p in pivots]:
            _cancel(r, pivots[p], p)
        if r:
            candidates.append(r)
    reps = _integer_rref(candidates)
    if len(reps) != len(kernel) - len(boundaries):
        raise AssertionError("homology dimension bookkeeping failed")
    return HomologyPresentation(
        dim, tuple(_positive(p, r) for p, r in boundaries), tuple(_positive(p, r) for p, r in reps)
    )
