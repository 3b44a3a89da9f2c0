"""Mixed complexes and their cyclic homologies.

A :class:`MixedComplexSlice` is a finite bigraded window (degree, weight) of
a mixed complex with its b and B matrices; the axioms b² = B² = bB + Bb = 0
are checked exhaustively at construction.  All four sources used here
(Hochschild chains, dual Hochschild cochains of a Frobenius algebra,
Poisson chains, dual Poisson cochains) preserve the weight, and each
weight-w sub-slice is a complete bounded complex, so homology within the
window is exact.  Each chain source has one raw builder (``_hochschild_complex``,
``_poisson_complex``): its labelled pieces and the b and B matrices, each
operator applied to each basis chain once, not validated; the Poisson one
reads ∂ and d off the integer form columns that the chain-map squares read
too (``poisson._form_columns``).  A cochain source is the dual of
that triple, its signed transpose (``_transpose``), validated once as the
dual; :class:`~mixhom.poisson.DualSide` holds the dual Poisson triple.

Negative cyclic, cyclic and periodic homology are the homology of one
u-stacked complex (C ⊗ u-powers, b + uB) over the u-ranges [0, N], [-K, 0]
and [-N, N]; b-homology is the u-range [0, 0].  Every dimension comes from
ranks, with no matrix made: a stacked degree's rank depends only on the
slice degrees its window covers, so one elimination from a start degree
gives, block by block, the rank of every window starting there.  The slice
memoizes these prefix ranks for HH, HC⁻ at N and N + 1, HC and HP alike.  A
b-homology or HC⁻ piece gets a presentation only when a class in it is read.
The connecting map β follows the chain-level recipe: lift a b-cycle, apply
b + uB, divide by u.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from math import lcm
from types import MappingProxyType

from .algebra import GradedAlgebra, WindowError
from .hochschild import boundary_b, chain_basis, connes_B, shifted_degree
from .linalg import (
    ExactMatrix,
    HomologyPresentation,
    ZERO_ROW,
    Row,
    _denominator,
    _iaccumulate_over,
    _iexpand,
    _row_echelon,
    _sparse_rank,
    homology_presentation,
    operator_matrix,
)
from . import poisson as po

Piece = tuple[int, int]  # (degree, weight)
ClassKey = tuple[Piece, int]  # (piece, index within the piece's homology basis)
RawComplex = tuple[dict[Piece, list], dict[Piece, ExactMatrix], dict[Piece, ExactMatrix]]  # (pieces, b, B)


class SliceAxiomError(Exception):
    def __init__(self, identity: str, piece: Piece, label):
        self.identity = identity
        self.piece = piece
        self.label = label
        super().__init__(f"{identity} fails at {piece} on basis element {label!r}")


class MixedComplexSlice:
    """Finite bigraded window of a mixed complex with b (deg -1) and B (deg +1)."""

    def __init__(self, pieces: dict[Piece, list], b_mats: dict[Piece, ExactMatrix],
                 B_mats: dict[Piece, ExactMatrix], name: str = "mixed"):
        self.pieces = {k: list(v) for k, v in pieces.items() if v}
        self.b_mats = b_mats
        self.B_mats = B_mats
        self.name = name
        self._hh: dict[Piece, HomologyPresentation] = {}
        self._B: dict[ClassKey, Row] = {}  # B on a b-homology class, as a class row
        self._B_image: dict[ClassKey, Row] = {}  # B on its representative, as a chain row
        self._ranks: dict[tuple[int, int], list[int]] = {}  # (weight, start degree): prefix ranks (``_u_dims``)
        self._validate()

    def dim(self, piece: Piece) -> int:
        return len(self.pieces.get(piece, ()))

    def degrees(self) -> list[int]:
        return sorted({d for (d, _w) in self.pieces})

    def weights(self) -> list[int]:
        return sorted({w for (_d, w) in self.pieces})

    def b_matrix(self, piece: Piece) -> ExactMatrix:
        return self._matrix(self.b_mats, piece, -1)

    def B_matrix(self, piece: Piece) -> ExactMatrix:
        return self._matrix(self.B_mats, piece, +1)

    def _matrix(self, mats: dict[Piece, ExactMatrix], piece: Piece, shift: int) -> ExactMatrix:
        """The stored matrix out of a piece, or the zero map into the piece ``shift`` degrees away."""
        got = mats.get(piece)
        return got if got is not None else ExactMatrix.zero(self.dim((piece[0] + shift, piece[1])), self.dim(piece))

    def _validate(self):
        for (d, w) in self.pieces:
            b1 = self.b_matrix((d, w))
            B1 = self.B_matrix((d, w))
            bb = self.b_matrix((d - 1, w)).matmul(b1)
            BB = self.B_matrix((d + 1, w)).matmul(B1)
            bB = self.b_matrix((d + 1, w)).matmul(B1)
            Bb = self.B_matrix((d - 1, w)).matmul(b1)
            anti = dict(bB.num)
            _iaccumulate_over(anti, bB.den, Bb.num, Bb.den, 1)
            for identity, comp in (("b²=0", bb.num), ("B²=0", BB.num), ("bB+Bb=0", anti)):
                if comp:
                    bad = min(j for (_, j) in comp)
                    raise SliceAxiomError(identity, (d, w), self.pieces[(d, w)][bad])

    # -- b-homology ---------------------------------------------------------

    def hh(self, piece: Piece) -> HomologyPresentation:
        if piece not in self._hh:
            self._hh[piece] = homology_presentation(self.b_matrix((piece[0] + 1, piece[1])), self.b_matrix(piece))
        return self._hh[piece]

    def hh_dims(self) -> dict[Piece, int]:
        """The b-homology dimension of every piece, from ranks: the u-range [0, 0] of ``_u_dims``."""
        degrees = self.degrees() or [0]  # an empty slice has no weights: ``_u_dims`` reads nothing
        return dict(sorted(_u_dims(self, 0, 0, min(degrees), max(degrees))[1].items()))

    def B_image(self, key: ClassKey) -> Row:
        """B on a b-homology basis class's representative, as an integer chain row; kept until ``B_class`` reads it."""
        if key not in self._B_image:
            self._B_image[key] = self.B_matrix(key[0]).apply(self.hh(key[0]).cycle(key[1]))
        return self._B_image[key]

    def B_class(self, key: ClassKey) -> Row:
        """B on one b-homology basis class, as a read-only class row; memoized."""
        got = self._B.get(key)
        if got is None:
            (d, w), _ = key
            img = self.B_image(key)
            del self._B_image[key]  # β reads the image first, if at all (``les_check``); the class row is kept here
            got = self._B[key] = _classes((d + 1, w), self.hh((d + 1, w)), *img) if img[0] else ZERO_ROW
        return got

    def element_vector(self, piece: Piece, element: dict) -> dict:
        """A {label: coefficient} element of a piece as a sparse vector over its basis; KeyError off the basis."""
        return _coordinates(self.pieces.get(piece, []), element.items(), KeyError)


def _coordinates(labels, terms, escape) -> dict:
    """(label, coefficient) terms as a sparse vector over ``labels``; a nonzero term off them raises ``escape``."""
    idx = {t: i for i, t in enumerate(labels)}
    vec = {}
    for t, c in terms:
        if c:
            if t not in idx:
                raise escape(f"label {t!r} is not in the basis of its piece")
            vec[idx[t]] = c
    return vec


# -- slice builders ------------------------------------------------------------


def _mats_from_operator(pieces: dict[Piece, list], apply_op, shift: int, den: int = 1) -> dict[Piece, ExactMatrix]:
    """The matrix of apply_op / den out of each piece into the one ``shift`` degrees away, where that has chains.

    The pieces hold every chain of their weights, so a map into no chains is zero and is not built.
    """
    return {
        (d, w): operator_matrix(labels, pieces[(d + shift, w)], apply_op, den)
        for (d, w), labels in pieces.items()
        if (d + shift, w) in pieces
    }


def _hochschild_complex(A: GradedAlgebra, w_max: int) -> RawComplex:
    """Reduced Hochschild chains of weight <= w_max: labelled pieces and the b and B matrices out of each."""
    pieces: dict[Piece, list] = {}
    for w in range(w_max + 1):
        for p in range(w + 1):
            for t in chain_basis(A, p, w):
                pieces.setdefault((shifted_degree(A, t), w), []).append(t)
    for labels in pieces.values():
        labels.sort()
    b_mats = _mats_from_operator(pieces, lambda t: boundary_b(A, {t: 1}), -1)
    B_mats = _mats_from_operator(pieces, lambda t: connes_B(A, {t: 1}), +1)
    return pieces, b_mats, B_mats


def _poisson_complex(ctx: po.PoissonContext, pi: dict, w_max: int) -> RawComplex:
    """Forms of weight <= w_max on either side with ∂ and d out of each piece; π need not be Poisson.

    The integer columns of ``po._form_columns`` are the matrices, as they come: d, and den·∂ over the lcm
    den of π's denominators.  They take and give packed words, so each weight layer's labels are packed
    once (``FreeGCA.words``) and ``operator_matrix`` indexes the words.  d and ∂ preserve the weight, so
    each weight gets fresh columns, as in ``po._square``: ι_π and d meet a form once, and no column
    outlives its weight.
    """
    F = ctx.forms
    pieces: dict[Piece, list] = {}
    # odd generators are capped at exponent 1, so this lists either side's forms
    for m in F.monomials([w_max] * (2 * ctx.n), 0, w_max):
        pieces.setdefault((F.degree(m), F.weight(m)), []).append(m)
    for labels in pieces.values():
        labels.sort()
    den = _denominator(pi.values())
    b_mats, B_mats = {}, {}
    for w in range(w_max + 1):
        layer = {piece: F.words(labels) for piece, labels in pieces.items() if piece[1] == w}
        d, boundary = po._form_columns(ctx, pi, den)
        B_mats.update(_mats_from_operator(layer, d, +1))
        b_mats.update(_mats_from_operator(layer, boundary, -1, den))
    return pieces, b_mats, B_mats


def _transpose(pieces: dict[Piece, list], b_mats: dict[Piece, ExactMatrix],
               B_mats: dict[Piece, ExactMatrix]) -> RawComplex:
    """The dual of a raw (pieces, b, B) triple: functionals on its chains.

    The dual piece (-d, w) carries the labels of the chain piece (d, w), its
    dual basis functionals φ of degree -d.  The dual operators are the twisted
    transposes T*(φ) = (-1)^{|T||φ|} φ∘T of the odd b and B: with
    s_d = (-1)^d, b* out of (-d, w) is s_d·b(d+1, w)ᵀ and B* is s_d·B(d-1, w)ᵀ.

    Validating the dual checks the primal too.  As s_d·s_{d±1} = -1 and
    (XY)ᵀ = YᵀXᵀ, out of the dual piece (-d, w)
      b*b* = -(b(d+1)·b(d+2))ᵀ,  B*B* = -(B(d-1)·B(d-2))ᵀ,
      b*B* + B*b* = -(B(d-1)·b(d) + b(d+1)·B(d))ᵀ:
    -1 times the transposes of b² and B² into the chain piece (d, w) and of
    bB + Bb on it.  A primal identity that fails is nonzero in some chain
    piece it lands in, so it fails exactly when a dual one does.
    """
    b_dual, B_dual = {}, {}
    for (d, w) in pieces:
        sign = -1 if d % 2 else 1
        if (d + 1, w) in b_mats:
            b_dual[(-d, w)] = b_mats[(d + 1, w)].transpose(sign)
        if (d - 1, w) in B_mats:
            B_dual[(-d, w)] = B_mats[(d - 1, w)].transpose(sign)
    return {(-d, w): labels for (d, w), labels in pieces.items()}, b_dual, B_dual


def slice_from_hochschild(A: GradedAlgebra, w_max: int) -> MixedComplexSlice:
    """Mixed complex of reduced Hochschild chains, weights <= w_max."""
    return MixedComplexSlice(*_hochschild_complex(A, w_max), f"hochschild({A.name})")


def slice_from_hochschild_dual(A: GradedAlgebra, w_max: int) -> MixedComplexSlice:
    """Mixed complex of dual Hochschild cochains: the transposed chain triple, validated once."""
    return MixedComplexSlice(*_transpose(*_hochschild_complex(A, w_max)), f"hochschild-dual({A.name})")


def slice_from_poisson(ctx: po.PoissonContext, pi: dict, w_max: int) -> MixedComplexSlice:
    """Mixed Poisson chain complex (Ω, ∂, d) of a structure on either side."""
    po.check_jacobi(ctx, pi)
    return MixedComplexSlice(*_poisson_complex(ctx, pi, w_max), f"poisson({ctx.n})")


def slice_from_poisson_dual(dual: po.DualSide) -> MixedComplexSlice:
    """Mixed dual Poisson cochain complex: the transposed triple ``dual`` holds, Jacobi-checked and validated."""
    po.check_jacobi(dual.ctx, dual.pi)
    return MixedComplexSlice(dual.pieces, dual.b_mats, dual.B_mats, f"poisson-dual({dual.ctx.n})")


# -- negative cyclic homology ----------------------------------------------------


@dataclass
class NegativeCyclic:
    """HC⁻ of a slice via the u-truncated complex, with π* and β.

    A degree-d class has components x_i in degree d + 2i for u-powers
    i <= N; the truncated differential drops the u^{N+1} overflow, and the
    stabilization report marks the (degree, weight) pieces whose dimension
    changes between truncation orders N and N+1; both come from the slice's
    prefix ranks (``_u_dims``), shared with HH, HC and HP on it.  A piece's
    presentation is built the first time a class in it is read.

    π* and β of the long exact sequence HC⁻ → HH → HC⁻ are taken on one
    basis class at a time and memoized here as read-only class rows
    (``_classes``), so ``les_check`` and every gravity structure over this
    HC⁻ share them.
    """

    slice: MixedComplexSlice
    N: int
    stable: dict[Piece, bool] = field(default_factory=dict, init=False)
    _dims: dict[Piece, int] = field(default_factory=dict, init=False, repr=False, compare=False)
    _pres: dict[Piece, HomologyPresentation] = field(default_factory=dict, init=False, repr=False, compare=False)
    _pi: dict[ClassKey, Row] = field(default_factory=dict, init=False, repr=False, compare=False)
    _beta: dict[ClassKey, Row] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        degrees = self.slice.degrees() or [0]  # an empty slice has no weights: ``_u_dims`` reads nothing
        self._dims, upper = _u_dims(self.slice, 0, self.N + 1, min(degrees) - 2 * (self.N + 1), max(degrees))
        self.stable = {piece: dim == upper[piece] for piece, dim in self._dims.items()}

    def presentation(self, piece: Piece) -> HomologyPresentation:
        """The HC⁻ presentation of a piece, built on first read; WindowError if it has no chains at N."""
        if piece not in self._pres:
            if piece not in self._dims:
                raise WindowError(f"no HC⁻ presentation at {piece}")
            d, w = piece
            self._pres[piece] = homology_presentation(_u_complex(self.slice, d + 1, w, 0, self.N),
                                                      _u_complex(self.slice, d, w, 0, self.N))
        return self._pres[piece]

    def stacked_basis(self, d: int, w: int, N: int | None = None) -> list[tuple[int, int]]:
        """The basis of the truncated complex in degree d: pairs (i, index into piece), i <= N (default self.N)."""
        return [(i, k) for i in range((self.N if N is None else N) + 1) for k in range(self.slice.dim((d + 2 * i, w)))]

    def dims(self) -> dict[Piece, int]:
        return dict(sorted(self._dims.items()))

    def stable_dims(self) -> dict[Piece, int]:
        return {p: v for p, v in sorted(self._dims.items()) if self.stable[p]}

    # -- the long exact sequence maps ---------------------------------------

    def pi_star(self, key: ClassKey) -> Row:
        """HC⁻ basis class -> b-homology class of its u⁰ component, as a class row; memoized.

        Raises WindowError if the class's piece has no HC⁻ presentation.
        """
        got = self._pi.get(key)
        if got is None:
            piece, i = key
            num, den = self.presentation(piece).cycle(i)
            n0 = self.slice.dim(piece)  # the u⁰ component comes first in the stacked basis
            got = self._pi[key] = _classes(piece, self.slice.hh(piece), {j: c for j, c in num.items() if j < n0}, den)
        return got

    def beta(self, key: ClassKey) -> Row:
        """b-homology basis class -> HC⁻ class of B(representative) one degree up, as a class row; memoized.

        The chain-level recipe: lift the cycle, apply b + uB, divide by u;
        on a b-cycle x that is (b + uB)(x) = u·B(x), so the class of B(x)
        viewed as the constant term of an HC⁻ cycle in degree d + 1.
        """
        got = self._beta.get(key)
        if got is None:
            (d, w), _ = key
            img = self.slice.B_image(key)
            # the u⁰ component comes first in the stacked basis
            got = self._beta[key] = _classes((d + 1, w), self.presentation((d + 1, w)), *img) if img[0] else ZERO_ROW
        return got


def _classes(piece: Piece, pres: HomologyPresentation, vec: dict, den: int) -> Row:
    """The class row of the cycle vec / den of a piece in its presentation: the one place a class vector is made.

    ``pres._read``'s integer row relabelled {(piece, j): int}, read-only, over its one positive denominator in
    lowest terms; zero is ``ZERO_ROW``.
    """
    num, den = pres._read(vec, den)
    return (MappingProxyType({(piece, j): v for j, v in num.items()}), den) if num else ZERO_ROW


@dataclass
class LESReport:
    beta_after_pi_zero: bool
    pi_after_beta_is_B: bool
    kernel_beta_is_image_pi: bool
    failures: list[str]

    @property
    def passed(self) -> bool:
        return self.beta_after_pi_zero and self.pi_after_beta_is_B and self.kernel_beta_is_image_pi


def les_check(hc: NegativeCyclic) -> LESReport:
    """Long-exact-sequence diagnostics on every stable piece.

    β∘π* = 0, π*∘β = B (on b-homology classes), and rank bookkeeping
    ker β = im π* per piece, all read off the memoized π* and β class
    rows of the basis classes.  A piece is checked when it is stable and the piece
    one degree up is stable too, or has no chains at truncation N or N + 1
    (there HC⁻ is 0, so β = 0 and π* must be onto HH): pieces flagged
    unstable by the truncation comparison are excluded, since their
    coordinates are truncation artifacts.
    """
    sl = hc.slice
    failures: list[str] = []
    ok_bp = ok_pb = ok_rank = True
    for piece, dim in hc.stable_dims().items():
        d, w = piece
        if not hc.stable.get((d + 1, w), not hc.stacked_basis(d + 1, w, hc.N + 1)):
            continue
        hh_dim = sl.hh(piece).dim
        pi_cols = [hc.pi_star((piece, i)) for i in range(dim)]
        beta_cols = [hc.beta((piece, i)) for i in range(hh_dim)]
        # β∘π* on every HC⁻ basis class
        for i, col in enumerate(pi_cols):
            if _iexpand(col, hc.beta)[0]:
                ok_bp = False
                failures.append(f"β∘π* ≠ 0 at {piece} class {i}")
        # π*∘β = B on every HH basis class; both rows are in lowest terms
        for i, col in enumerate(beta_cols):
            if _iexpand(col, hc.pi_star) != sl.B_class((piece, i)):
                ok_pb = False
                failures.append(f"π*∘β ≠ B at {piece} class {i}")
        # rank bookkeeping: dim ker β = rank π* on HH at this piece
        rank_beta, rank_pi = _sparse_rank(num for num, _ in beta_cols), _sparse_rank(num for num, _ in pi_cols)
        if hh_dim - rank_beta != rank_pi:
            ok_rank = False
            failures.append(f"ker β ≠ im π* at {piece}: dim HH {hh_dim}, rk β {rank_beta}, rk π* {rank_pi}")
    return LESReport(ok_bp, ok_pb, ok_rank, failures)


# -- the u-stacked complex ----------------------------------------------------------


def _u_rows(sl: MixedComplexSlice, d: int, w: int, lo: int, hi: int) -> tuple[list[dict[int, int]], int, int]:
    """(rows, cols, den): the integer rows of den·(b + uB) from the stacked degree-d chains to the degree-(d-1) ones.

    Component i (lo <= i <= hi) is the slice piece (d + 2i, w), stacked in order of i: b acts on the diagonal
    and B sends component i to i + 1; B out of component hi is dropped.  Rows come in the order of their target
    components.  HC⁻ stacks [0, N], HC [-K, 0] and HP [-N, N].
    """
    n_rows = cols = 0  # where component i starts in the target and source bases
    blocks = []  # (first row, first column, block)
    for i in range(lo, hi + 1):
        piece = (d + 2 * i, w)
        blocks.append((n_rows, cols, sl.b_mats.get(piece)))
        n_rows += sl.dim((d - 1 + 2 * i, w))
        if i < hi:
            blocks.append((n_rows, cols, sl.B_mats.get(piece)))
        cols += sl.dim(piece)
    blocks = [block for block in blocks if block[2] is not None]  # no stored map: a zero block
    den = lcm(*(M.den for _, _, M in blocks))
    rows: list[dict[int, int]] = [{} for _ in range(n_rows)]
    for r0, c0, M in blocks:
        scale = den // M.den
        for (r, c), v in M.num.items():
            rows[r0 + r][c0 + c] = scale * v
    return rows, cols, den


def _u_complex(sl: MixedComplexSlice, d: int, w: int, lo: int, hi: int) -> ExactMatrix:
    """b + uB from the stacked degree-d chains to the stacked degree-(d-1) ones: the matrix of ``_u_rows``."""
    rows, cols, den = _u_rows(sl, d, w, lo, hi)
    return ExactMatrix._integers(len(rows), cols, {(i, j): v for i, r in enumerate(rows) for j, v in r.items()}, den)


def _u_dims(
    sl: MixedComplexSlice, lo: int, hi: int, d_from: int, d_to: int
) -> tuple[dict[Piece, int], dict[Piece, int]]:
    """Homology dimensions cols − rank(d_out) − rank(d_in) of the u-stacked complex over [lo, hi - 1] and [lo, hi].

    Out of stacked degree d over [lo, top], let s be the first slice degree d + 2i (lo <= i <= top) with chains
    in the weight and T the top one of its parity.  Row blocks below s or past T + 2 are zero, and dropping B out
    of an empty top component is keeping B out of T, so the rank is that of the rows out of s, s + 2, …, t, with
    t = min(d + 2·top, T + 2).  ``_u_rows`` from s puts row block j (b out of s + 2j, B out of s + 2j − 2) before
    block j + 1 and sends nothing to a lower block, so len(echelon) after each block of one elimination from s
    is the rank at each t.  The slice memoizes these prefix ranks per (weight, s); a call collects its windows
    first and runs each start it lacks once, as far as its longest window.
    d∘d = 0 needs no check: out of component i, (b + uB)² has the blocks b², bB + Bb and B², each zero by
    ``_validate`` (or out of a piece with no chains).  Truncation drops only B out of the top component: it
    deletes whole blocks (bB with Bb) and makes none, on every u-range.
    """
    lower, upper = {}, {}  # {piece: dimension} over [lo, hi - 1] and over [lo, hi]
    for w in sl.weights():
        chains = [d for d, v in sorted(sl.pieces) if v == w]
        windows = {}  # (d, top): (cols, s, prefix length) of the stacked degree-d chains over [lo, top]
        for d in range(d_from, d_to + 2):
            degs = [e for e in chains if (e - d) % 2 == 0]
            for top in (hi - 1, hi):
                inside = [e for e in degs if d + 2 * lo <= e <= d + 2 * top]
                length = (min(d + 2 * top, degs[-1] + 2) - inside[0]) // 2 + 1 if inside else 0
                windows[(d, top)] = sum(sl.dim((e, w)) for e in inside), inside[0] if inside else 0, length
        for _, s, n in sorted(windows.values(), key=lambda window: -window[2]):  # longest first
            if n > len(sl._ranks.get((w, s), ())):
                rows, echelon = iter(_u_rows(sl, s, w, 0, n - 1)[0]), {}
                blocks = (islice(rows, sl.dim((s - 1 + 2 * j, w))) for j in range(n))  # block j: into s − 1 + 2j
                sl._ranks[(w, s)] = [len(_row_echelon(block, echelon)) for block in blocks]
        rank = {at: sl._ranks[(w, s)][n - 1] if n else 0 for at, (_, s, n) in windows.items()}
        for (d, top), (cols, _, _) in windows.items():
            if cols and d <= d_to:
                (upper if top == hi else lower)[(d, w)] = cols - rank[(d, top)] - rank[(d + 1, top)]
    return lower, upper


def cyclic_homology(sl: MixedComplexSlice) -> dict[Piece, int]:
    """HC of the slice: (C[u,u⁻¹]/uC[u], b + uB), exact since C is bounded."""
    degrees = sl.degrees() or [0]  # an empty slice has no weights: ``_u_dims`` reads nothing
    d_lo, d_hi = min(degrees), max(degrees)
    d_top = d_hi + 2 * (d_hi - d_lo)
    # u-powers down to -K reach the lowest degree from every degree up to d_top + 1
    K = (d_top + 1 - d_lo) // 2
    return _u_dims(sl, -K, 0, d_lo, d_top)[1]


def periodic_homology(sl: MixedComplexSlice, N: int) -> tuple[dict[Piece, int], list[int]]:
    """Periodic cyclic homology on the Laurent window u^{-N}..u^{N}.

    Returns (dims, unreliable_degrees): degrees within 2 of the window edge
    are reported as unreliable, since the full periodic complex uses
    unbounded Laurent series.
    """
    degrees = sl.degrees()
    if not degrees:
        return {}, []
    d_lo, d_hi = min(degrees), max(degrees)
    edge = [d for d in range(d_lo - 2 * N, d_hi + 2 * N + 1) if abs(d - d_lo) <= 2 or abs(d - d_hi) <= 2]
    return _u_dims(sl, -N, N, d_lo - 2 * N, d_hi + 2 * N)[1], edge


def default_truncation(sl: MixedComplexSlice) -> int:
    degrees = sl.degrees() or [0]
    height = max(degrees) - min(degrees)
    return (height + 1) // 2 + 1
