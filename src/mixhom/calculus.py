"""Differential calculi on homology bases, duality data and BV operators.

A :class:`CalculusBundle` packages, for one of the four sources, the
cohomology ring (basis per (degree, weight-shift) piece with cup and
bracket tables), the homology side (a mixed-complex slice with its B
matrices) and the contraction action between them, everything tabulated on
chosen homology bases in exact arithmetic.  Every table entry, B on a class,
PD, PD⁻¹ and Δ is a read-only class row (``linalg.Row``); the verifiers sum
rows with ``linalg._iexpand``.

Attaching a volume class inverts Poincaré duality piece by piece and gives
the operator Δ = PD⁻¹∘B∘PD, the transported product on the homology side, and
the bracket generated by Δ; the generated bracket is compared entry by
entry against the native Gerstenhaber/Schouten table.

The cohomology side has one interface, ``_CochainOps``, which writes
coordinates, the δ matrices and δ into a piece once; Hochschild cochains
and polyvector fields give only what differs.

Both verifiers read every identity instance by one rule, ``_count``: an
instance is a signed sum of terms, checked when every term is available
and failed when the sum is nonzero.  ``tests/test_calculus.py`` keeps the
hand-counted verifiers it replaced as the oracle.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, product as iproduct, starmap
from types import MappingProxyType
from typing import Iterator

from .algebra import GradedAlgebra, WindowError, koszul_sign
from .hochschild import (
    Cochain,
    _bar_tuples,
    cap,
    coboundary,
    cup,
    gerstenhaber_bracket,
    unit_cochain,
)
from .linalg import (
    ZERO_ROW,
    ExactMatrix,
    HomologyPresentation,
    Row,
    _check_complex,
    _expand,
    _iaccumulate_over,
    _iexpand,
    _integer_rref,
    _lowest,
    _positive,
    _pullback,
    homology_presentation,
    operator_matrix,
)
from .mixed import ClassKey, MixedComplexSlice, Piece, _classes, _coordinates
from . import poisson as po


class DualityError(Exception):
    pass


# -- cochain-side operation providers -----------------------------------------


class _CochainOps:
    """What both cochain sides share: coordinates, the δ matrices and the incoming restriction.

    A side gives its labelled ``_pieces``, the ``_pieces_ext`` that δ lands in, ``_delta_den`` times δ on one
    label (``_delta``), the (label, coefficient) terms of an element (``_labels``), and ``rep``, ``cup``,
    ``bracket`` and ``unit``.
    """

    _delta_den = 1

    def pieces(self) -> Mapping[Piece, list]:
        return self._pieces

    def vector(self, piece: Piece, element) -> dict:
        """Coordinates of an element in the piece's basis; WindowError on a term off it."""
        return _coordinates(self._pieces.get(piece, []), self._labels(element), WindowError)

    def delta_matrix(self, piece: Piece) -> ExactMatrix:
        """δ out of the piece, into the extended basis of (D - 1, ω)."""
        D, om = piece
        return operator_matrix(self._pieces.get(piece, []), self._pieces_ext.get((D - 1, om), []), self._delta,
                               self._delta_den, escape=WindowError)

    def incoming(self, piece: Piece, above: ExactMatrix) -> ExactMatrix:
        """δ into the piece, from ``above`` = δ out of (D + 1, ω), on the rows of the piece's own basis.

        A column with every row off that basis (a source at the arity ceiling) bounds nothing in it and is
        dropped; a column with rows on and off it raises WindowError.
        """
        rows = {lab: i for i, lab in enumerate(self._pieces.get(piece, []))}
        ext = self._pieces_ext.get(piece, [])
        entries, dropped = {}, set()
        for (i, j), v in above.num.items():
            if ext[i] in rows:
                entries[(rows[ext[i]], j)] = v
            else:
                dropped.add(j)
        if any(j in dropped for _, j in entries):
            raise WindowError("restricted incoming differential escapes the piece")
        return ExactMatrix._integers(len(rows), above.cols, entries, above.den)


class _CochainPieces(Mapping):
    """The sorted (input tuple, value index) labels of each (D, ω) cochain piece of arity <= q_top, built on first read.

    The keys come from the (arity, chain weight, shifted degree) triples that
    bar tuples of arity <= q_top and chain weight <= v_max reach, found
    without listing a tuple.  A piece's labels are listed when it is first
    read, by indexing, ``get`` or iteration over values: for each value
    index, the tuples of its arities and chain weight, pruned by weight and
    filtered by shifted degree.  ``_built`` holds the pieces read so far.
    """

    def __init__(self, A: GradedAlgebra, q_top: int, v_max: int):
        self.A = A
        aug = A.augmentation_indices()
        self._arities: dict[tuple[int, int], list[int]] = {}  # (chain weight, shifted degree) -> arities
        layer = {(0, 0)}
        for q in range(q_top + 1):
            for ws in layer:
                self._arities.setdefault(ws, []).append(q)
            layer = {(w + A.weights[i], s + A.degrees[i] + 1) for w, s in layer for i in aug
                     if w + A.weights[i] <= v_max}
        self._values = [k for k in range(A.dim) if A.weight_cutoff is None or A.weights[k] <= A.weight_cutoff]
        self._keys = {(A.degrees[k] - s, A.weights[k] - w) for w, s in self._arities for k in self._values}
        self._built: dict[Piece, list] = {}

    def __getitem__(self, piece: Piece) -> list:
        if piece not in self._built:
            if piece not in self._keys:
                raise KeyError(piece)
            A, aug = self.A, self.A.augmentation_indices()
            D, om = piece
            labels = []
            for k in self._values:
                w, s = A.weights[k] - om, A.degrees[k] - D
                for q in self._arities.get((w, s), ()):
                    tuples: list[tuple[int, ...]] = []
                    _bar_tuples(A, aug, (), w, q, tuples)
                    labels += [(t, k) for t in tuples if sum(A.degrees[i] + 1 for i in t) == s]
            self._built[piece] = sorted(labels)
        return self._built[piece]

    def __contains__(self, piece) -> bool:
        return piece in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


class HochschildCochainOps(_CochainOps):
    """Mode-A Hochschild cochains of a graded algebra, windowed by arity/weight.

    Pieces are indexed by (total degree D, weight shift ω); the basis of a
    piece is the sorted list of elementary cochains (input tuple, value
    index) with matching invariants, arity <= q_max and chain weight <=
    v_max.  Each list is built the first time the piece is read
    (``_CochainPieces``), so a bundle lists only the labels of the pieces
    its window reads, and δ is evaluated on those labels only.
    """

    def __init__(self, A: GradedAlgebra, q_max: int, v_max: int | None = None):
        self.A = A
        self.q_max = q_max
        if v_max is None:
            # finite-dimensional algebras admit complete tables
            if A.weight_cutoff is None:
                v_max = (q_max + 1) * max(A.weights)
            else:
                v_max = A.weight_cutoff
        # one window for the coboundary and the bracket: chain weight <= v_max at every arity
        self.v_max = v_max
        # the coboundary raises arity by exactly one, so each (degree, shift)
        # piece splits by arity; kernels at the arity ceiling are computed
        # against an extended basis that includes arity q_max + 1
        self._pieces = _CochainPieces(A, q_max, v_max)
        self._pieces_ext = _CochainPieces(A, q_max + 1, v_max)

    def _labels(self, f: Cochain):
        return (((t, k), c) for t, val in f.table.items() for k, c in val.items())

    def _delta(self, label) -> dict:
        t, k = label
        D = self.A.degrees[k] - sum(self.A.degrees[i] + 1 for i in t)
        return dict(self._labels(coboundary(Cochain(self.A, len(t), D, {t: {k: 1}}), self.v_max)))

    def rep(self, piece: Piece, num: Mapping[int, int]) -> Cochain:
        D, om = piece
        labels = self._pieces[piece]
        table: dict = {}
        for j, c in num.items():
            t, k = labels[j]
            table.setdefault(t, {})[k] = c
        arities = {len(t) for t in table}
        if len(arities) > 1:
            raise WindowError("mixed-arity representative; refine the piece")
        return Cochain(self.A, arities.pop() if arities else 0, D, table)

    def cup(self, f: Cochain, g: Cochain) -> Cochain:
        return cup(f, g)

    def bracket(self, f: Cochain, g: Cochain) -> Cochain:
        return gerstenhaber_bracket(f, g, self.v_max)

    def unit(self) -> tuple[Piece, Cochain]:
        return (0, 0), unit_cochain(self.A)


class MultivectorOps(_CochainOps):
    """Polyvector fields with the Lichnerowicz coboundary δ = [π, -], for either side.

    δ is read off the integer columns of ``po._bracket_columns``, which tabulates π once here for every δ
    matrix, over the denominator of π.
    """

    def __init__(self, ctx: po.PoissonContext, pi, w_shift_min: int, w_shift_max: int, coeff_wmax: int):
        self.ctx = ctx
        self.pi = pi
        self._delta_den, self._delta = po._bracket_columns(ctx, pi)
        V = ctx.vectors
        theta_cap = max(2, ctx.n, ctx.n - w_shift_min)
        self._pieces: dict[Piece, list] = {}
        for m in V.monomials([coeff_wmax] * ctx.n + [theta_cap] * ctx.n, w_shift_min, w_shift_max):
            self._pieces.setdefault((V.degree(m), V.weight(m)), []).append(m)
        for labels in self._pieces.values():
            labels.sort()
        self._pieces_ext = self._pieces  # δ stays in the window

    def delta_matrix(self, piece: Piece) -> ExactMatrix:
        """δ out of the piece on its polyvectors' words; a δ that leaves the window names its labels."""
        D, om = piece
        src, tgt = self._pieces.get(piece, []), self._pieces_ext.get((D - 1, om), [])
        V = self.ctx.vectors
        try:
            return operator_matrix(V.words(src), V.words(tgt), self._delta, self._delta_den, escape=WindowError)
        except WindowError:
            # the first escape again, on labels: the element-level bracket lists its terms in the columns' order
            inside = set(tgt)
            s, t = next((s, t) for s in src for t in po.schouten(self.ctx, self.pi, {s: 1}) if t not in inside)
            raise WindowError(f"operator image {t!r} of {s!r} leaves the target basis") from None

    def _labels(self, P):
        return P.items()

    def rep(self, piece: Piece, num: Mapping[int, int]):
        labels = self._pieces[piece]
        return {labels[j]: c for j, c in num.items()}

    def cup(self, P, Q_):
        return self.ctx.vectors.multiply(P, Q_)

    def bracket(self, P, Q_):
        return po.schouten(self.ctx, P, Q_)

    def unit(self):
        return (0, 0), {self.ctx.vectors.one: 1}


def delta_pairs(ops, pieces) -> Iterator[tuple[Piece, ExactMatrix, ExactMatrix]]:
    """(piece, incoming, outgoing) differentials for each piece, in sorted order.

    Each δ is built once: δ out of (D + 1, ω) is the incoming map of (D, ω)
    and, kept until then, the outgoing map of (D + 1, ω).  No slice validates
    a δ, so each pair is checked here: NotAComplexError unless d∘d = 0.
    """
    above: dict[Piece, ExactMatrix] = {}
    for piece in sorted(pieces):
        D, om = piece
        d_out = above.pop(piece) if piece in above else ops.delta_matrix(piece)
        up = ops.delta_matrix((D + 1, om))
        if (D + 1, om) in pieces:
            above[(D + 1, om)] = up
        d_in = ops.incoming(piece, up)
        _check_complex(d_in, d_out)
        yield piece, d_in, d_out


# -- identity instances -----------------------------------------------------------

# a failure list stops growing after this many entries
_FAILURE_LIMIT = 6


def _available(fn, *args):
    """fn(*args), or None where a product, PD or PD⁻¹ leaves the window on the way."""
    try:
        return fn(*args)
    except (WindowError, DualityError):
        return None


def _signed_sum(terms) -> Row | None:
    """Σ s·t over the (row, s) pairs, taken in order; None at the first t that is None, before later terms are read.

    A zero term costs no accumulate.
    """
    total, den = {}, 1
    for t, s in terms:
        if t is None:
            return None
        if t[0]:
            den = _iaccumulate_over(total, den, t[0], t[1], s)
    return _lowest(total, den)


def _count(instances, failures: list[str], limit: int | None = None, most: int | None = None) -> int:
    """The number of checked instances among (terms, what, key) triples, in order.

    An instance is checked when every term of its signed sum is available,
    and fails when that sum is nonzero: "<what> on <key>", the classes of
    ``key`` joined by commas, is appended to ``failures``.  The walk stops
    once ``limit`` failures are listed or ``most`` instances are checked.
    """
    checked = 0
    for terms, what, key in instances:
        if most is not None and checked >= most:
            break
        total = _signed_sum(terms)
        if total is None:
            continue
        checked += 1
        if total[0]:
            failures.append(f"{what} on {', '.join(map(str, key))}")
            if limit is not None and len(failures) >= limit:
                break
    return checked


# -- the bundle -----------------------------------------------------------------


@dataclass
class AxiomReport:
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


class CalculusBundle:
    """Cohomology/homology operation tables over one mixed-complex slice.

    ``act(cochain_rep, label)`` is the primal contraction of one basis chain,
    a {label: coefficient} combination.  ``weight_sign`` is +1 when the
    homology side is the chains, where ι_f adds the cochain's weight shift.
    It is -1 on a functional (dual) side, whose labels stand for the dual
    basis functionals of chains of complementary weight: there the action
    is not applied but pulled back, as the signed transpose
    ι_f φ = (-1)^{|f||φ|} φ∘ι_f (see ``cap_classes``).
    """

    def __init__(self, name: str, ops, slice_: MixedComplexSlice, act, coh_window=None,
                 weight_sign: int = 1):
        self.name = name
        self.ops = ops
        self.slice = slice_
        self.act = act
        self.weight_sign = weight_sign
        pieces = {p for p in ops.pieces() if coh_window is None or coh_window(p)}
        self.coh_pres: dict[Piece, HomologyPresentation] = {
            piece: homology_presentation(d_in, d_out) for piece, d_in, d_out in delta_pairs(ops, pieces)
        }
        self._cup: dict[tuple[ClassKey, ClassKey], Row | None] = {}
        self._bracket: dict[tuple[ClassKey, ClassKey], Row | None] = {}
        self._cap: dict[tuple[ClassKey, ClassKey], Row | None] = {}
        self._rep: dict[ClassKey, object] = {}

    # -- bases -------------------------------------------------------------

    def coh_classes(self) -> list[ClassKey]:
        return [(p, i) for p in sorted(self.coh_pres) for i in range(self.coh_pres[p].dim)]

    def hom_classes(self) -> list[ClassKey]:
        return [
            (p, i)
            for p in sorted(self.slice.pieces)
            for i in range(self.slice.hh(p).dim)
        ]

    def coh_rep(self, key: ClassKey) -> tuple[object, int]:
        """(cochain of the cycle row's numerators, den) of a class, memoized; a mixed-arity WindowError raises again."""
        if key not in self._rep:
            piece, i = key
            num, den = self.coh_pres[piece].cycle(i)
            self._rep[key] = self.ops.rep(piece, num), den
        return self._rep[key]

    def unit_class(self) -> ClassKey:
        classes = self._reduce_coh(*self.ops.unit(), 1)
        if classes is None or classes[1] != 1 or list(classes[0].values()) != [1]:
            raise WindowError("unit class is not a basis vector of a piece in the window")
        return next(iter(classes[0]))

    # -- tables ------------------------------------------------------------

    def _reduce_coh(self, piece: Piece, cochain, den: int) -> Row | None:
        """The class row of cochain / den in a piece: zero when it is zero, None when it escapes the piece or window."""
        vec = _available(self.ops.vector, piece, cochain)
        if vec == {}:
            return ZERO_ROW
        pres = self.coh_pres.get(piece)
        return None if vec is None or pres is None else _classes(piece, pres, vec, den)

    def _product_classes(self, memo: dict, op, degree: int, a: ClassKey, b: ClassKey):
        """op(a, b) of degree |a| + |b| + ``degree`` on homology classes, memoized; None on a window escape."""
        key = (a, b)
        if key not in memo:
            (D1, o1), (D2, o2) = a[0], b[0]
            try:
                (fa, da), (fb, db) = self.coh_rep(a), self.coh_rep(b)
                val = op(fa, fb)
            except WindowError:
                memo[key] = None
            else:
                memo[key] = self._reduce_coh((D1 + D2 + degree, o1 + o2), val, da * db)
        return memo[key]

    def cup_classes(self, a: ClassKey, b: ClassKey) -> Row | None:
        return self._product_classes(self._cup, self.ops.cup, 0, a, b)

    def bracket_classes(self, a: ClassKey, b: ClassKey) -> Row | None:
        return self._product_classes(self._bracket, self.ops.bracket, 1, a, b)

    def cap_classes(self, f: ClassKey, z: ClassKey) -> Row | None:
        """ι_f on a homology class, memoized; None on a window escape.

        On chains (``weight_sign == 1``) the action is applied to the
        representative of z.  On a functional side the representative is
        φ, and ι_f φ = (-1)^{|f||φ|} φ∘ι_f is φ pulled back through the
        primal action over the one piece of chains that ι_f sends onto φ's.
        """
        key = (f, z)
        if key not in self._cap:
            (D1, o1), (dz, wz) = f[0], z[0]
            target = (dz + D1, wz + self.weight_sign * o1)
            rep_f, df = self.coh_rep(f)
            act = partial(self.act, rep_f)
            labels = self.slice.pieces[z[0]]
            z_num, z_den = self.slice.hh(z[0]).cycle(z[1])
            z_rep = {labels[j]: c for j, c in z_num.items()}
            try:
                if self.weight_sign == 1:
                    out = _expand(z_rep, act)
                else:
                    out = _pullback(z_rep, self.slice.pieces.get(target, ()), act, -1 if (D1 * dz) % 2 else 1)
            except WindowError:
                out = None
            if out and self.slice.dim(target):
                out = _classes(target, self.slice.hh(target), self.slice.element_vector(target, out), df * z_den)
            elif out is not None:
                out = None if out else ZERO_ROW
            self._cap[key] = out
        return self._cap[key]

    # -- Def-style axiom verification --------------------------------------

    def verify_calculus_axioms(self, max_classes: int = 64) -> AxiomReport:
        """Exhaustive checks of the calculus axioms on basis classes, by ``_count``.

        Cup associativity and graded commutativity, bracket antisymmetry
        and Jacobi, the biderivation rule, the contraction composition rule
        (recorded as ι_f ι_g = (-1)^{|f||g|} ι_{g∪f}), the unit acting as the
        identity, where an unavailable action counts as checked and failed,
        and the Lie-derivative compatibility [L_f, L_g] = L_{{f,g}}.
        """
        coh = self.coh_classes()[:max_classes]
        hom = self.hom_classes()[:max_classes]
        deg = {k: k[0][0] for k in coh}
        cup, bracket, cap, B = self.cup_classes, self.bracket_classes, self.cap_classes, self.slice.B_class
        small = coh[: max(6, len(coh) // 3)]

        def lie_derivative(f, z):
            """The terms of L_f z = Bι_f z + (-1)^{|f|} ι_f B z."""
            yield _iexpand(cap(f, z), B), 1
            yield _iexpand(B(z), lambda k: cap(f, k)), koszul_sign(f[0][0], 1)

        def L(f: ClassKey, z: ClassKey):
            return _signed_sum(lie_derivative(f, z))

        def associativity(a, b, c):
            yield _iexpand(cup(a, b), lambda k: cup(k, c)), 1
            yield _iexpand(cup(b, c), lambda k: cup(a, k)), -1

        def jacobi(a, b, c):
            yield _iexpand(bracket(a, b), lambda k: bracket(k, c)), -1
            yield _iexpand(bracket(b, c), lambda k: bracket(a, k)), 1
            yield _iexpand(bracket(a, c), lambda k: bracket(b, k)), -koszul_sign(deg[a] + 1, deg[b] + 1)

        def biderivation(a, b, c):
            # {a, b∪c} = {a,b}∪c + (-1)^{(|a|+1)|b|} b∪{a,c}
            yield _iexpand(cup(b, c), lambda k: bracket(a, k)), 1
            yield _iexpand(bracket(a, b), lambda k: cup(k, c)), -1
            yield _iexpand(bracket(a, c), lambda k: cup(b, k)), -koszul_sign(deg[a] + 1, deg[b])

        def composition(a, b, z):
            yield _iexpand(cup(b, a), lambda k: cap(k, z)), -koszul_sign(deg[a], deg[b])
            yield _iexpand(cap(b, z), lambda k: cap(a, k)), 1

        def lie(a, b, z):
            yield _iexpand(bracket(a, b), lambda k: L(k, z)), -1
            yield _iexpand(L(b, z), lambda k: L(a, k)), 1
            yield _iexpand(L(a, z), lambda k: L(b, k)), -koszul_sign(deg[a] + 1, deg[b] + 1)

        def rules():
            for a, b in iproduct(coh, repeat=2):
                yield ((cup(a, b), 1), (cup(b, a), -koszul_sign(deg[a], deg[b]))), "cup not graded-commutative", (a, b)
            for a, b, c in iproduct(coh[: max(8, len(coh) // 2)], repeat=3):
                yield associativity(a, b, c), "cup not associative", (a, b, c)
            for a, b in iproduct(coh, repeat=2):
                s = koszul_sign(deg[a] + 1, deg[b] + 1)
                yield ((bracket(a, b), 1), (bracket(b, a), s)), "bracket not antisymmetric", (a, b)
            for a, b, c in iproduct(small, repeat=3):
                yield jacobi(a, b, c), "bracket Jacobi fails", (a, b, c)
            for a, b, c in iproduct(small, repeat=3):
                yield biderivation(a, b, c), "biderivation fails", (a, b, c)
            for a, b, z in iproduct(coh, coh, hom):
                yield composition(a, b, z), "ι_f ι_g ≠ ±ι_(g∪f)", (a, b, z)

        rep = AxiomReport()
        rep.checked = _count(rules(), rep.failures)
        try:
            u = self.unit_class()
        except WindowError:
            rep.failures.append("unit class not identifiable")
        else:
            # an unavailable action reads as zero: checked, and failed
            rep.checked += _count(((((cap(u, z) or ZERO_ROW, 1), (({z: 1}, 1), -1)), "unit does not act as identity",
                                    (z,)) for z in hom), rep.failures)
        rep.checked += _count(((lie(a, b, z), "[L_f, L_g] ≠ L_(f,g)", (a, b, z))
                               for a, b, z in iproduct(small, small, hom[: max(8, len(hom) // 2)])), rep.failures)
        return rep


# -- duality -------------------------------------------------------------------


@dataclass
class DualityData:
    bundle: CalculusBundle
    eta: ClassKey
    # per cohomology piece where PD is invertible: column i of PD⁻¹, the
    # cohomology class that PD sends to homology class i of the target piece,
    # as a read-only class row
    pd: dict[Piece, list[Row]] = field(default_factory=dict)
    pd_twist: object = None  # callable(piece) -> ±1 normalization of PD
    # per-class memo tables of read-only class rows; only successful results
    # are stored, so a failing class raises again and no caller can edit one
    _delta: dict[ClassKey, Row] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _pd: dict[ClassKey, Row] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def _twist(self, piece: Piece):
        return 1 if self.pd_twist is None else self.pd_twist(piece)

    def pd_of(self, key: ClassKey) -> Row:
        """The twisted PD image of a cohomology class, as a read-only class row; memoized."""
        got = self._pd.get(key)
        if got is None:
            img = self.bundle.cap_classes(key, self.eta)
            if img is None:
                raise WindowError(f"PD image of {key} escapes the window")
            t = self._twist(key[0])
            if t != 1:
                num, den = _lowest({k: t.numerator * v for k, v in img[0].items()}, t.denominator * img[1])
                img = MappingProxyType(num), den
            got = self._pd[key] = img
        return got

    def pd_inverse(self, key: ClassKey) -> Row:
        """Homology class -> cohomology class with PD(result) = key: one column of PD⁻¹, a read-only class row."""
        (d, w), i = key
        (de, we) = self.eta[0]
        src = (d - de, self.bundle.weight_sign * (w - we))
        inverse = self.pd.get(src)
        if inverse is None:
            raise DualityError(f"PD not invertible into piece {src}")
        return inverse[i]

    def dot(self, a: ClassKey, b: ClassKey) -> Row:
        """The transported product PD(PD⁻¹a ∪ PD⁻¹b) on the homology side, as a class row."""
        fa, da = self.pd_inverse(a)
        fb, db = self.pd_inverse(b)
        out: dict[ClassKey, int] = {}
        den = 1
        for ka, va in fa.items():
            for kb, vb in fb.items():
                cupt = self.bundle.cup_classes(ka, kb)
                if cupt is None:
                    raise WindowError(f"transported product escapes window on {a}·{b}")
                for kc, vc in cupt[0].items():
                    num, d = self.pd_of(kc)
                    den = _iaccumulate_over(out, den, num, d * cupt[1], va * vb * vc)
        return _lowest(out, den * da * db)

    def delta_classes(self, key: ClassKey) -> Row:
        """Δ = PD⁻¹ ∘ B ∘ PD on cohomology classes, as a read-only class row; memoized per class."""
        got = self._delta.get(key)
        if got is None:
            num, den = _iexpand(self.pd_of(key), lambda kz: _iexpand(self.bundle.slice.B_class(kz), self.pd_inverse))
            got = self._delta[key] = (MappingProxyType(num), den) if num else ZERO_ROW
        return got


def attach_duality(bundle: CalculusBundle, eta: ClassKey, pd_twist=None) -> DualityData:
    """Validate and attach duality data for a volume class η.

    Checks η∩1 = η, B(η) = 0, and invertibility of PD on every cohomology
    piece whose target piece lies in the window; failures are raised as
    DualityError naming the violated axiom.  ``pd_twist`` is an optional
    per-piece unit normalizing the volume identification.  It is applied
    only by ``DualityData.pd_of``, which gives the rows inverted here, and
    after the axiom checks, so a -1 at the unit's piece is allowed: it
    rescales the volume class itself, as the derived dual twist does.
    """
    try:
        u = bundle.unit_class()
    except WindowError as exc:
        raise DualityError(str(exc))
    got = bundle.cap_classes(u, eta)
    if got != ({eta: 1}, 1):
        raise DualityError("η∩1 ≠ η")
    if bundle.slice.B_class(eta)[0]:
        raise DualityError("volume class is not closed under B")
    # a -1 at the unit's piece rescales the volume class itself (PD of the
    # unit becomes -η); Δ is conjugation-invariant under that gauge
    data = DualityData(bundle, eta, pd_twist=pd_twist)
    (de, we) = eta[0]
    for piece, pres in sorted(bundle.coh_pres.items()):
        target = (piece[0] + de, we + bundle.weight_sign * piece[1])
        tgt_dim = bundle.slice.hh(target).dim if bundle.slice.dim(target) else 0
        m = pres.dim
        # row i of [PDᵀ | I] times den, for the twisted PD image num / den of class i: num, then den in column m + i
        rows = []
        for i in range(m):
            try:
                num, den = data.pd_of((piece, i))
            except WindowError:
                break
            if any(tp != target for tp, _ in num):
                raise DualityError(f"PD image off-piece at {piece}")
            rows.append({m + i: den} | {j: v for (_, j), v in num.items()})
        else:
            if m != tgt_dim:
                raise DualityError(f"PD singular in piece {piece}: dim {m} vs {tgt_dim}")
            # the RREF is [I | (PDᵀ)⁻¹], whose row j is column j of PD⁻¹,
            # unless PD is singular: then a pivot falls in the identity block
            reduced = _integer_rref(rows)
            if any(p >= m for p, _ in reduced):
                raise DualityError(f"PD singular in piece {piece}")
            columns = (_lowest({(piece, j - m): c for j, c in r.items() if j >= m}, r[p])
                       for p, r in starmap(_positive, reduced))
            data.pd[piece] = [(MappingProxyType(num), den) for num, den in columns]
    return data


@dataclass
class BVReport:
    delta_squared_zero: bool
    seven_term_checked: int
    seven_term_failures: list[str]
    quartic_checked: int
    quartic_failures: list[str]
    bracket_matches_native: bool
    bracket_failures: list[str]

    @property
    def passed(self) -> bool:
        return (
            self.delta_squared_zero
            and not self.seven_term_failures
            and not self.quartic_failures
            and self.bracket_matches_native
        )


def verify_bv_axioms(data: DualityData, max_classes: int = 48, quartic_limit: int = 2000) -> BVReport:
    """BV diagnostics: Δ² = 0, the seven-term second-order identity on all basis triples in window, the
    quartic expansion of Δ on 4-fold products, and agreement of the generated bracket with the native
    bracket table, each instance counted by ``_count``: one where a product, PD or PD⁻¹ leaves the window
    is skipped, and a failure list stops at ``_FAILURE_LIMIT`` entries.

    Δa is read once per class, and a∪b, Δ(a∪b) and Δa∪b once per pair, through ``cup_classes`` and
    ``delta_classes``.  Per triple, the seven-term identity reads six of those pair rows and expands only
    a nonzero one against the third class; a None row makes the instance unavailable.  The quartic
    expansion reads its Δ(x_i∪x_j) rows from the same pair table, and the bracket generated by Δ,
    (-1)^{|a|+1} (Δ(a∪b) - Δa∪b - (-1)^{|a|} a∪Δb), its first two terms.
    """
    bundle = data.bundle
    coh = [k for k in bundle.coh_classes() if k[0] in data.pd][:max_classes]
    deg = {k: k[0][0] for k in coh}
    cup = bundle.cup_classes
    delta = partial(_available, data.delta_classes)

    # table ∪ b and a ∪ table
    def times(table, b):
        return _iexpand(table, lambda k: cup(k, b))

    def left_times(a, table):
        return _iexpand(table, lambda k: cup(a, k))

    def delta_of(table):
        return _iexpand(table, delta)

    D = {a: delta(a) for a in coh}
    d2_ok = not any((delta_of(row) or ZERO_ROW)[0] for row in D.values())
    AB = {(a, b): cup(a, b) for a, b in iproduct(coh, repeat=2)}
    DAB = {p: delta_of(row) for p, row in AB.items()}
    DL = {(a, b): times(D[a], b) for a, b in AB}

    def second_order(a, b, c):
        # a None row gives an unavailable term, a zero row a zero term, which is left out
        sa, sb = koszul_sign(deg[a], 1), koszul_sign(deg[a] + 1, deg[b])
        for x, row, s in ((None, DAB[a, b], -1), (None, DL[a, b], 1), (a, DAB[b, c], -sa), (b, DAB[a, c], -sb),
                          (a, DL[b, c], sa)):
            if row is None or row[0]:
                yield (times(row, c) if x is None else left_times(x, row)), s
        ab = AB[a, b]
        if ab is None or ab[0]:
            yield delta_of(times(ab, c)), 1
            yield _iexpand(ab, lambda k: left_times(k, D[c])), koszul_sign(deg[a] + deg[b], 1)

    def quartic(x):
        degs = [deg[k] for k in x]
        yield delta_of(times(times(AB[x[0], x[1]], x[2]), x[3])), 1
        for i, j in combinations(range(4), 2):
            term = DAB[x[i], x[j]]
            for r in (x[t] for t in range(4) if t not in (i, j)):
                term = times(term, r)
            yield term, -(koszul_sign(sum(degs[:i]), degs[i]) * koszul_sign(sum(degs[:j]), degs[j])
                          * koszul_sign(degs[i], degs[j]))
        # the single-Δ terms enter with multiplicity n - 2 (= 2 here); the
        # unit quartet (1,1,1,a) pins the coefficient
        for i in range(4):
            term = D[x[i]]
            for t in range(i - 1, -1, -1):
                term = left_times(x[t], term)
            for t in range(i + 1, 4):
                term = times(term, x[t])
            yield term, 2 * koszul_sign(sum(degs[:i]), 1)

    def bracket(a, b):
        # the native bracket against the generated one
        lead = koszul_sign(deg[a] + 1, 1)
        yield bundle.bracket_classes(a, b), -1
        yield DAB[a, b], lead
        yield DL[a, b], -lead
        yield left_times(a, D[b]), -lead * koszul_sign(deg[a], 1)

    seven_failures, quartic_failures, br_failures = [], [], []
    seven_checked = _count(((second_order(a, b, c), "second-order identity fails", (a, b, c))
                            for a, b, c in iproduct(coh, repeat=3)), seven_failures, limit=_FAILURE_LIMIT)
    pool = sorted(coh, key=lambda k: (abs(k[0][0]) + abs(k[0][1]), k))[:10]
    # the key is the quartet as a list, which is how a failure names it
    quartic_checked = _count(((quartic(x), "quartic expansion fails", (list(x),)) for x in iproduct(pool, repeat=4)),
                             quartic_failures, limit=_FAILURE_LIMIT, most=quartic_limit)
    _count(((bracket(a, b), "generated ≠ native bracket", (a, b)) for a, b in iproduct(coh, repeat=2)),
           br_failures, limit=_FAILURE_LIMIT)
    return BVReport(d2_ok, seven_checked, seven_failures, quartic_checked, quartic_failures, not br_failures,
                    br_failures)


# -- bundle builders for the four sources ----------------------------------------


def _cap_label(f: Cochain, label) -> dict:
    """The cap action on one basis chain; the primal action of both Hochschild bundles."""
    return cap(f, {label: 1})


def hochschild_bundle(A: GradedAlgebra, slice_, q_max: int, v_max: int | None = None,
                      coh_window=None) -> CalculusBundle:
    """Calculus of (HH^•, HH_•) over the Hochschild chain slice."""
    return CalculusBundle(f"hochschild({A.name})", HochschildCochainOps(A, q_max, v_max), slice_, _cap_label,
                          coh_window)


def hochschild_dual_bundle(A: GradedAlgebra, slice_, q_max: int, coh_window=None) -> CalculusBundle:
    """Calculus of (HH^•(A), HH^•(A; A*)) over the dual cochain slice."""
    return CalculusBundle(f"hochschild-dual({A.name})", HochschildCochainOps(A, q_max), slice_, _cap_label,
                          coh_window, weight_sign=-1)


def poisson_bundle(ctx: po.PoissonContext, pi, slice_, w_shift_min: int, w_shift_max: int,
                   coeff_wmax: int) -> CalculusBundle:
    """Calculus of (HP^•, HP_•) over the Poisson chain slice."""
    ops = MultivectorOps(ctx, pi, w_shift_min, w_shift_max, coeff_wmax)
    return CalculusBundle(f"poisson({ctx.n})", ops, slice_, po._contraction_of(ctx))


def poisson_dual_bundle(dual: po.DualSide, slice_, w_shift_min: int, w_shift_max: int,
                        coeff_wmax: int) -> CalculusBundle:
    """Calculus of (HP^•(A^!), HP^•(A^!; A^¡)) over the dual Poisson slice."""
    ops = MultivectorOps(dual.ctx, dual.pi, w_shift_min, w_shift_max, coeff_wmax)
    return CalculusBundle(f"poisson-dual({dual.ctx.n})", ops, slice_, po._contraction_of(dual.ctx),
                          weight_sign=-1)


def polyvector_pd_twist(weight_sign: int = 1):
    """Per-piece unit for the Poisson volume identification.

    The contraction convention used here composes innermost-first, which
    differs from the order implicit in the commuting-diagram form of the
    duality by the unit ``poisson._orientation(p)`` on polyvector degree p;
    folding that unit into PD makes the derived operator the honest
    divergence class, so the generated bracket reproduces the Schouten table.
    """

    def twist(piece: Piece) -> int:
        D, om = piece
        return po._orientation(-D if weight_sign == 1 else -D - om)

    return twist
