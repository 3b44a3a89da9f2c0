"""Integer structure constants against the Fraction oracle.

A coefficient inside the package is an ``int`` wherever its value is an
integer.  The oracle here is the representation that rule replaced: every
table constant, every b and B seed and every U-row entry a ``Fraction``.
Each algebra is rebuilt that way and must give the same b and B matrices,
HH and HC⁻ dimensions, U rows, Koszul verdicts and small-model dimensions
as the integer builders.  The integral algebras must hold no ``Fraction``,
and a presentation whose normal form divides must keep one.

A chain-level vector is an integer row too: a representative, B applied to
it and a cochain built from it hold ints, and the BV checks and the LES
reads of the benchmark workloads build almost no ``Fraction``.
"""

from fractions import Fraction
from itertools import starmap

import pytest

from mixhom import koszul as ko
from mixhom import mixed
from mixhom.algebra import (
    QuadraticPresentation,
    build_algebra,
    make_exterior_algebra,
    make_truncated_polynomial_algebra,
)
from mixhom.hochschild import boundary_b, connes_B
from mixhom.calculus import verify_bv_axioms
from mixhom.linalg import _fractions, _integer_rref, _positive
from test_koszul import CLI_BATCH_PRESENTATIONS
from test_linalg import _bv_check_bundles
from test_mixed import CLI_BATCH_SLICES

# relation 2·e1e2 − e2e1: the echelon row of (R) has pivot entry 2, so e1e2 reduces to ½·e2e1
HALF = (lambda: QuadraticPresentation(2, (0, 0), ((0, 2, -1, 0),), name="half"), 4)
PRESENTATIONS = {**CLI_BATCH_PRESENTATIONS, "half": HALF}


def fraction_algebra(A):
    """A rebuilt with every table constant a Fraction."""
    assert A.unit == 0

    def product(i, j):
        return {k: Fraction(c) for k, c in A.table[(i, j)].items()}

    return build_algebra(list(A.labels), list(A.degrees), list(A.weights), product, A.weight_cutoff,
                         A.commutativity, A.name)


def fraction_complex(A, w_max):
    """The reduced Hochschild chains of A with b and B seeded by Fraction(1) on the Fraction table."""
    Af = fraction_algebra(A)
    pieces = mixed._hochschild_complex(A, w_max)[0]
    b = mixed._mats_from_operator(pieces, lambda t: boundary_b(Af, {t: Fraction(1)}), -1)
    B = mixed._mats_from_operator(pieces, lambda t: connes_B(Af, {t: Fraction(1)}), +1)
    return pieces, b, B


def fraction_echelon_basis(rows):
    """``koszul._echelon_basis`` with every entry a Fraction."""
    return [_fractions(r, r[p]) for p, r in starmap(_positive, _integer_rref(rows))]


def table_constants(A):
    return [c for prod in A.table.values() if isinstance(prod, dict) for c in prod.values()]


def koszul_pair(name):
    """The Koszul data of a presentation from the integer builders and from the Fraction oracle."""
    make, W = PRESENTATIONS[name]
    data = ko.koszul_dual_algebra(make(), W)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ko, "_echelon_basis", fraction_echelon_basis)
        oracle = ko.koszul_dual_algebra(make(), W)
        oracle.quotient  # built under the oracle's echelon basis too
    return data, oracle


def algebras():
    """(id, algebra, Hochschild weight) for Λ(1..3), k[x1..x3]/(w>4) and TV/R and A^! of each presentation."""
    out = [(f"ext{n}", make_exterior_algebra(n), 4) for n in (1, 2, 3)]
    out.append(("poly3w4", make_truncated_polynomial_algebra(3, 4), 4))
    for name in sorted(PRESENTATIONS):
        data = ko.koszul_dual_algebra(PRESENTATIONS[name][0](), PRESENTATIONS[name][1])
        w = min(data.cutoff, 4)
        out.append((f"TV/R({name})", data.quotient[0], w))
        out.append((f"dual({name})", data.dual_algebra, w))
    return out


ALGEBRAS = {name: (A, w) for name, A, w in algebras()}
INTEGRAL = [name for name in ALGEBRAS if "half" not in name]


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_b_and_B_and_the_homology_match_the_fraction_oracle(name):
    A, w = ALGEBRAS[name]
    pieces, b, B = mixed._hochschild_complex(A, w)
    want = fraction_complex(A, w)
    assert all(type(c) is Fraction for c in table_constants(fraction_algebra(A)))
    assert (pieces, b, B) == want
    assert sum(len(m.num) for m in [*b.values(), *B.values()]) > 0
    got_slice = mixed.MixedComplexSlice(pieces, b, B, "integer")
    want_slice = mixed.MixedComplexSlice(*want, "fraction")
    assert got_slice.hh_dims() == want_slice.hh_dims()
    N = mixed.default_truncation(got_slice)
    assert mixed.NegativeCyclic(got_slice, N).dims() == mixed.NegativeCyclic(want_slice, N).dims()


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_koszul_rows_verdicts_and_small_models_match_the_fraction_oracle(name):
    data, oracle = koszul_pair(name)
    assert all(type(c) is Fraction for rows in oracle.dual_weight_pieces.values() for u in rows for c in u.values())
    # the U rows as rationals, key order included
    assert {w: [list(map(Fraction, u.values())) for u in rows] for w, rows in data.dual_weight_pieces.items()} == {
        w: [list(u.values()) for u in rows] for w, rows in oracle.dual_weight_pieces.items()}
    assert data.dual_weight_pieces == oracle.dual_weight_pieces
    assert data.dual_algebra.table == oracle.dual_algebra.table
    assert data.quotient[0].table == oracle.quotient[0].table
    assert data.verdict.per_weight == oracle.verdict.per_weight
    assert data.verdict.koszul_up_to_cutoff
    got, want = ko.small_hochschild_models(data), ko.small_hochschild_models(oracle)
    assert (got.chain_dims, got.cochain_dims) == (want.chain_dims, want.cochain_dims)
    assert got.chain_dims


@pytest.mark.parametrize("name", INTEGRAL)
def test_an_integral_algebra_holds_ints(name):
    A, w = ALGEBRAS[name]
    assert table_constants(A) and all(type(c) is int for c in table_constants(A))
    assert all(type(c) is int for c in A.one().values())
    for labels in mixed._hochschild_complex(A, w)[0].values():
        for t in labels:
            assert all(type(c) is int for c in boundary_b(A, {t: 1}).values())
            assert all(type(c) is int for c in connes_B(A, {t: 1}).values())


@pytest.mark.parametrize("name", sorted(CLI_BATCH_PRESENTATIONS))
def test_integral_koszul_rows_hold_ints(name):
    data, _ = koszul_pair(name)
    assert all(type(c) is int for rows in data.dual_weight_pieces.values() for u in rows for c in u.values())


def test_a_normal_form_that_divides_keeps_its_fraction():
    data, _ = koszul_pair("half")
    A = data.quotient[0]
    halves = [c for c in table_constants(A) if type(c) is Fraction]
    assert halves and all(c.denominator > 1 for c in halves)
    assert Fraction(1, 2) in halves
    assert any(type(c) is Fraction for rows in data.dual_weight_pieces.values() for u in rows for c in u.values())


# -- representatives and what is built from them --------------------------------


def fractions_built(monkeypatch, run):
    """The number of ``Fraction`` objects constructed while ``run()`` runs."""
    count, new = [0], Fraction.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(Fraction, "__new__", counting)
        run()
    return count[0]


def test_the_bv_checks_and_the_les_reads_build_almost_no_fraction(monkeypatch):
    # a representative read as Fractions and scaled back to integers made ~3,000 per bv-check
    # op and 420 per LES check of the cli-batch poly3 slice; what is left is the reduce edge
    # that finds each volume class
    def bv():
        for duality in _bv_check_bundles():
            assert verify_bv_axioms(duality, max_classes=12, quartic_limit=60).passed

    sl = CLI_BATCH_SLICES["poly3"]()
    assert fractions_built(monkeypatch, bv) <= 50
    assert fractions_built(monkeypatch, lambda: mixed.les_check(mixed.NegativeCyclic(sl, mixed.default_truncation(sl)))) == 0


def test_representatives_and_their_images_hold_ints():
    frobenius, _ = _bv_check_bundles()  # Λ(2)
    bundle, sl = frobenius.bundle, frobenius.bundle.slice
    rows = 0
    for piece in sl.pieces:
        for i in range(sl.hh(piece).dim):
            for num, den in (sl.hh(piece).cycle(i), sl.B_matrix(piece).apply(sl.hh(piece).cycle(i))):
                assert type(den) is int and all(type(c) is int for c in num.values())
                rows += 1
    for key in bundle.coh_classes():
        cochain, den = bundle.coh_rep(key)
        assert type(den) is int and all(type(c) is int for val in cochain.table.values() for c in val.values())
    assert rows and bundle.coh_classes()


def test_a_representative_row_is_read_only():
    sl = _bv_check_bundles()[0].bundle.slice
    num, _ = sl.hh((2, 2)).cycle(0)
    with pytest.raises(TypeError):
        num[next(iter(num))] = 0
