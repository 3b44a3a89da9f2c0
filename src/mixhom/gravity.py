"""Higher brackets on truncated negative cyclic homology.

The n-ary bracket of classes x_1..x_n is the connecting map applied to the
product of their projections:

    {x_1,..,x_n} = (-1)^{(n-1)|x_1| + (n-2)|x_2| + .. + |x_{n-1}|}
                   β(π*(x_1) · π*(x_2) · .. · π*(x_n)),

where the product on the b-homology side is the one transported through
Poincaré duality.  Tables are built over the stable HC⁻ basis; entries
whose intermediate products escape the computed window are recorded as
unavailable rather than silently zero.

Every class vector here, from π* and β to the table entries, the iso map
and the sums the checks form, is a class row: integer coefficients over one
positive denominator (``linalg.Row``), as every layer above ``linalg``
holds one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct
from types import MappingProxyType

from .calculus import ClassKey, DualityData, WindowError, _FAILURE_LIMIT, _available
from .linalg import ZERO_ROW, Row, _iaccumulate_over, _iexpand, _lowest, _sparse_rank
from .mixed import NegativeCyclic, Piece

HCKey = tuple[Piece, int]


class GravityStructure:
    """Bracket evaluator over a stable HC⁻ basis, with memoized sparse tables.

    Degrees entering every sign are the volume-shifted ones (the class
    degree minus the volume degree): the transported product on the
    b-homology side is graded commutative exactly in that shifted grading.

    Every class vector here is a class row, (num, den) in lowest terms
    (``linalg.Row``): ``bracket``, ``table_lookup``, ``bracket_combo`` and
    ``entries`` return rows, and a bracket, which the tables keep, is
    read-only.  π* and β are the ``hc`` object's rows, memoized there per
    basis class, so structures over one HC⁻ share them; the transported
    product of each pair of b-homology classes is memoized here
    (``dot_pair``).  The left-associated products π*(x_1)·…·π*(x_k) are
    memoized per prefix (``None`` where the product escapes the window), so a
    bracket costs one product with its last argument, and a row whose prefix
    product is zero is zero throughout; a row whose prefix product is nonzero
    is extended only by the memoized reaches of its support (``_extensions``),
    as every other entry is a sum of available zero products.  Every ordered
    tuple is computed from its own prefix; none is filled in from a
    permutation.  A table of arity n holds only its nonzero and unavailable
    (``None``) entries, keyed by tuples of basis indices (a class outside the
    basis stands for itself); an entry it lacks is zero once its row is
    filled.  No zero row is copied: a zero product or bracket is the shared
    ``ZERO_ROW``, and a zero prefix is memoized as the zero row it extends.
    """

    def __init__(self, hc: NegativeCyclic, duality: DualityData, basis: list[HCKey] | None = None):
        self.hc = hc
        self.duality = duality
        self.degree_shift = duality.eta[0][0]
        if basis is None:
            basis = [(piece, i) for piece, dim in hc.stable_dims().items() for i in range(dim)]
        self.basis = basis
        self.index = {k: i for i, k in enumerate(basis)}
        self._dot: dict[tuple[ClassKey, ClassKey], Row] = {}
        self._prefixes: dict[tuple, Row | None] = {}
        self._reaches: dict[ClassKey, frozenset[int]] = {}
        self._tables: dict[int, dict[tuple, Row | None]] = {}
        self._filled: set[tuple] = set()  # the rows whose every entry is tabled

    def degree(self, key: HCKey) -> int:
        return key[0][0] - self.degree_shift

    def _key(self, t) -> HCKey:
        return self.basis[t] if type(t) is int else t

    # -- ingredients ---------------------------------------------------------

    def dot_pair(self, a: ClassKey, b: ClassKey) -> Row:
        """The transported product a·b (``DualityData.dot``), memoized."""
        key = (a, b)
        got = self._dot.get(key)
        if got is None:
            got = self._dot[key] = self.duality.dot(a, b)
        return got

    def _dot_combo(self, left: Row, right: Row) -> Row:
        """The transported product of two combinations of b-homology classes; a zero pair product costs no multiply."""
        dot = self._dot
        out: dict[ClassKey, int] = {}
        den = 1
        for ka, va in left[0].items():
            for kb, vb in right[0].items():
                got = dot.get((ka, kb)) or self.dot_pair(ka, kb)
                if got[0]:
                    den = _iaccumulate_over(out, den, got[0], got[1], va * vb)
        return _lowest(out, den * left[1] * right[1])

    def _prefix(self, tk: tuple) -> Row | None:
        """π*(x_1)·…·π*(x_k) for a nonempty tuple of basis indices; None on escape."""
        if tk not in self._prefixes:
            if len(tk) == 1:
                prod = _available(self.hc.pi_star, self._key(tk[0]))
            else:
                # a zero or unavailable prefix stays zero or unavailable
                head = self._prefix(tk[:-1])
                prod = head if head is None or not head[0] else _available(
                    lambda: self._dot_combo(head, self.hc.pi_star(self._key(tk[-1]))))
            self._prefixes[tk] = prod
        return self._prefixes[tk]

    def _reach(self, a: ClassKey) -> frozenset[int]:
        """The basis indices t for which a·π*(x_t) is nonzero or unavailable; memoized."""
        if a not in self._reaches:
            self._reaches[a] = frozenset(t for t, k in enumerate(self.basis) if not _is_zero(
                _available(lambda k: self._dot_combo(({a: 1}, 1), self.hc.pi_star(k)), k)))
        return self._reaches[a]

    def _extensions(self, head: tuple):
        """The basis indices that can give a row with this prefix a nonzero or unavailable entry, in order:
        all of them for an empty or unavailable prefix, else the union of the reaches of its support."""
        prod = self._prefix(head) if head else None
        if prod is None:
            return range(len(self.basis))
        return sorted(frozenset().union(*map(self._reach, prod[0])))

    # -- brackets -------------------------------------------------------------

    def bracket(self, keys: list[HCKey]) -> Row:
        """The n-ary bracket of classes: one product of the memoized (n-1)-prefix with π* of the last class.

        Raises WindowError on escape.
        """
        n = len(keys)
        if n < 2:
            raise ValueError("brackets have arity >= 2")
        exp = 0
        for i, k in enumerate(keys[:-1]):
            exp += (n - 1 - i) * self.degree(k)
        head = self._prefix(tuple(self.index.get(k, k) for k in keys[:-1]))
        if head is None:
            raise WindowError("a prefix product of the bracket escapes the window")
        if not head[0]:
            return ZERO_ROW
        num, den = _iexpand(self._dot_combo(head, self.hc.pi_star(keys[-1])), self.hc.beta)
        if not num:
            return ZERO_ROW
        return MappingProxyType({k: -v for k, v in num.items()} if exp % 2 else num), den

    def bracket_combo(self, rows: list[Row]) -> Row | None:
        """Multilinear extension over class rows of basis classes: None where an entry it reads is unavailable."""
        out: dict[HCKey, int] = {}
        den = 1
        for picks in iproduct(*(row[0].items() for row in rows)):
            coeff = 1
            keys = []
            for k, c in picks:
                coeff *= c
                keys.append(k)
            got = self.table_lookup(keys)
            if got is None:
                return None
            if got[0]:
                den = _iaccumulate_over(out, den, got[0], got[1], coeff)
        for row in rows:
            den *= row[1]
        return _lowest(out, den)

    def _tabulate(self, table: dict, tk: tuple, keys: list[HCKey]) -> Row | None:
        """Evaluate one entry; keep it in ``table`` unless it is zero."""
        got = _available(self.bracket, keys)
        if got is None or got[0]:
            table[tk] = got
        return got

    def table_lookup(self, keys: list[HCKey]) -> Row | None:
        """One table entry: the bracket, ``ZERO_ROW`` if zero, ``None`` if unavailable.

        Intermediate classes (bracket outputs) may lie outside the chosen
        basis; the evaluator works for any class with a presentation, so such
        keys are memoized by the key itself.  An entry the table holds is
        returned from it; a zero entry is not stored, and is known to be
        zero once its row is filled or its prefix product is zero.
        """
        tk = tuple(self.index.get(k, k) for k in keys)
        table = self._tables.setdefault(len(tk), {})
        if tk in table:
            return table[tk]
        row = tk[:-1]
        if row and (row in self._filled or _is_zero(self._prefix(row))):
            return ZERO_ROW
        return self._tabulate(table, tk, list(keys))

    def _rows(self, head: tuple, length: int):
        """The rows of the given length extending ``head`` whose prefix product
        is not zero, in lexicographic order, each extended by its ``_extensions``."""
        if head and _is_zero(self._prefix(head)):
            return
        if len(head) == length:
            yield head
            return
        for i in self._extensions(head):
            yield from self._rows(head + (i,), length)

    def entries(self, arity: int, first: HCKey | None = None) -> dict[tuple[int, ...], Row | None]:
        """The nonzero and the unavailable (``None``) entries of a table.

        Without ``first``, every tuple of basis indices of the given arity is
        a candidate; with it, only the rows whose first argument is that
        class, keyed by the basis indices of the remaining arguments.  The
        rows are filled prefix by prefix, skipping every row whose prefix
        product is zero, and a row only by its ``_extensions``, since every
        other entry is zero; the result is what the table then holds for
        those tuples, in lexicographic order.
        """
        table = self._tables.setdefault(arity, {})
        head = () if first is None else (self.index.get(first, first),)
        for row in self._rows(head, arity - 1):
            if row not in self._filled:
                keys = [self._key(t) for t in row]
                for i in self._extensions(row):
                    if row + (i,) not in table:
                        self._tabulate(table, row + (i,), keys + [self.basis[i]])
                self._filled.add(row)
        h = len(head)
        return dict(sorted(
            (tk[h:], v)
            for tk, v in table.items()
            if tk[:h] == head and all(type(t) is int for t in tk[h:])
        ))


def _is_zero(row: Row | None) -> bool:
    """Whether an available row is zero (an unavailable one, None, is not)."""
    return row is not None and not row[0]


@dataclass
class GravityReport:
    skew_checked: int = 0
    skew_failures: list[str] = field(default_factory=list)
    jacobi_checked: int = 0
    jacobi_failures: list[str] = field(default_factory=list)
    window_skips: int = 0
    nonzero_brackets: dict[int, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.skew_failures and not self.jacobi_failures


# verdicts besides a failure message and None (checked, holds)
_SKIP = object()  # an entry the check needs is unavailable: a window skip
_ABSENT = object()  # the skew check's own tuple is unavailable: not counted


def _rank(tup: tuple[int, ...], K: int) -> int:
    """Position of a tuple of basis indices in lexicographic order."""
    r = 0
    for t in tup:
        r = r * K + t
    return r


def _tally(size: int, verdicts, failures: list[str]) -> tuple[int, int, bool]:
    """Counts over one block of ``size`` instances in enumeration order.

    ``verdicts`` yields (position, verdict) for the candidate instances only,
    by increasing position; every other instance is checked and holds.  The
    walk stops at the failure that brings ``failures`` to ``_FAILURE_LIMIT``
    entries and then counts only the instances up to it.  Returns
    (checked, skipped, stopped).
    """
    skipped = absent = 0
    for pos, verdict in verdicts:
        if verdict is _SKIP:
            skipped += 1
        elif verdict is _ABSENT:
            absent += 1
        elif verdict:
            failures.append(verdict)
            if len(failures) >= _FAILURE_LIMIT:
                return pos + 1 - skipped - absent, skipped, True
    return size - skipped - absent, skipped, False


def verify_gravity_axioms(g: GravityStructure, n_max: int = 4, check_max: int = 5) -> GravityReport:
    """Skew-symmetry and generalized Jacobi over every tuple of basis classes.

    The tables of arity 2..n_max are filled first.  Their nonzero entries
    are counted per arity, and their unavailable (``None``) entries, whose
    brackets escape the window, are counted as window skips.

    Skew-symmetry is checked at every adjacent transposition of every tuple
    with arity <= n_max whose own entry is available; the generalized Jacobi
    identity on every instance (xs, ys) with n + m <= check_max (including
    the m = 0 vanishing case).  A check counts as *checked* when every entry
    it reads is available, and then fails exactly when its signed sum is
    nonzero; otherwise it is a window skip.

    The tables are sparse, so the checks are a join over their nonzero and
    unavailable entries rather than an enumeration of instances.  A skew
    check can fail or skip only where the tuple or its transposition has
    such an entry.  A Jacobi sum receives terms only from a nonzero binary
    entry joined with the table rows led by a class in its output, or from a
    nonzero entry on xs joined with the rows led by a class in its output,
    and it skips only where an entry it reads is unavailable; these
    instances are found from the sparse entries.  Every other instance is
    an empty sum and is counted as checked without being visited.  Failures
    are listed in enumeration order (arity, tuple, slot for skew; n, m, xs,
    ys for Jacobi).  After the sixth, the report returns with the counts of
    the instances enumerated up to it.
    """
    rep = GravityReport()
    K = len(g.basis)
    deg = [g.degree(k) for k in g.basis]
    support: dict = {}

    def entries(arity: int, first: HCKey | None = None):
        if (arity, first) not in support:
            support[(arity, first)] = g.entries(arity, first)
        return support[(arity, first)]

    # nonzero census per arity
    for n in range(2, n_max + 1):
        unavailable = sum(1 for v in entries(n).values() if v is None)
        rep.window_skips += unavailable
        rep.nonzero_brackets[n] = len(entries(n)) - unavailable

    # skew-symmetry under adjacent transpositions
    for n in range(2, n_max + 1):
        table = entries(n)
        candidates = {}
        for tup in table:
            for i in range(n - 1):
                for t in (tup, _swap(tup, i)):
                    candidates[_rank(t, K) * (n - 1) + i] = (t, i)
        verdicts = (
            (pos, _skew_verdict(table, deg, *candidates[pos])) for pos in sorted(candidates)
        )
        checked, skipped, stopped = _tally(K**n * (n - 1), verdicts, rep.skew_failures)
        rep.skew_checked += checked
        rep.window_skips += skipped
        if stopped:
            return rep

    # generalized Jacobi; the m = 0 case needs n >= 3 (an inner bracket of
    # arity n + m - 1 = 1 is not defined)
    for n in range(2, check_max + 1):
        for m in range(0, check_max - n + 1):
            if m == 0 and n < 3:
                continue
            sums = _jacobi_sums(g, n, m, deg, entries)
            verdicts = (
                (_rank(flat, K), _jacobi_verdict(flat, n, sums[flat])) for flat in sorted(sums)
            )
            checked, skipped, stopped = _tally(K ** (n + m), verdicts, rep.jacobi_failures)
            rep.jacobi_checked += checked
            rep.window_skips += skipped
            if stopped:
                return rep
    return rep


def _swap(tup: tuple[int, ...], i: int) -> tuple[int, ...]:
    return tup[:i] + (tup[i + 1], tup[i]) + tup[i + 2 :]


def _skew_verdict(table, deg, tup: tuple[int, ...], i: int):
    """Skew-symmetry of one tuple at one slot, against its sparse table."""
    base = table.get(tup, ZERO_ROW)
    if base is None:
        return _ABSENT
    other = table.get(_swap(tup, i), ZERO_ROW)
    if other is None:
        return _SKIP
    s = -1 if ((deg[tup[i]] + 1) % 2) and ((deg[tup[i + 1]] + 1) % 2) else 1
    if not _cancels(base, other, s):
        return f"skew fails on {tup} at slot {i}"
    return None


def _cancels(a: Row, b: Row, s: int) -> bool:
    """Whether a + s·b = 0, by cross-multiplication (neither row need be in lowest terms)."""
    (na, da), (nb, db) = a, b
    return len(na) == len(nb) and all(nb.get(k, 0) * s * da == -v * db for k, v in na.items())


def _jacobi_verdict(flat: tuple[int, ...], n: int, total: dict | None):
    if total is None:
        return _SKIP
    if total:
        return f"Jacobi fails on xs={flat[:n]}, ys={flat[n:]}"
    return None


def _pull_sign(deg, xs: tuple[int, ...], i: int, j: int) -> int:
    """The frozen sign ε_{ij} of the generalized Jacobi identity.

    ε_{ij} is the cost of pulling x_i then x_j to the front, one adjacent
    transposition at a time, where swapping homogeneous arguments costs
    exactly the table's skew sign -(-1)^{(d+1)(d'+1)}; with that dictionary
    the double sum closes onto (-1)^n {{x_1..x_n}, y_1..y_m} (and vanishes
    for m = 0), as verified exhaustively on every computed structure.
    """
    ds = [deg[x] for x in xs]
    eps = 0
    for t in range(i):
        eps += (ds[i] + 1) * (ds[t] + 1) + 1
    for t in range(j):
        if t != i:
            eps += (ds[j] + 1) * (ds[t] + 1) + 1
    return -1 if eps % 2 else 1


def _jacobi_sums(g: GravityStructure, n: int, m: int, deg, entries):
    """The generalized-Jacobi instances of shape (n, m) that skip or carry terms.

    An instance is the flat tuple xs + ys of basis indices.  Its sum is

        Σ_{i<j} ε_{ij} {{x_i, x_j}, x_1..x̂_i..x̂_j..x_n, y_1..y_m}
            - (-1)^n {{x_1..x_n}, y_1..y_m}        (the last term if m > 0),

    and it skips when any entry that sum reads is unavailable.  Joining the
    nonzero and unavailable table entries finds every instance that skips
    (mapped to None) or receives a term (mapped to the integer entries of its
    sum, which may have cancelled to {}); every other instance sums to zero.
    Each sum accumulates in place over the lcm of its terms' denominators.
    """
    K = len(g.basis)
    skips: set[tuple[int, ...]] = set()
    sums: dict[tuple[int, ...], dict[HCKey, int]] = {}
    dens: dict[tuple[int, ...], int] = {}  # the denominator of a sum, where it is not 1

    def add(flat, got: Row, den: int, scale: int):
        """The sum of ``flat`` += scale·got / den."""
        d = dens.get(flat, 1)
        d_sum = _iaccumulate_over(sums.setdefault(flat, {}), d, got[0], got[1] * den, scale)
        if d_sum != d:
            dens[flat] = d_sum

    def place(rest, i, a, j, b):
        xs = list(rest[: n - 2])
        xs.insert(i, a)
        xs.insert(j, b)
        return tuple(xs) + rest[n - 2 :]

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (a, b), inner in entries(2).items():
        for i, j in pairs:
            if inner is None:
                skips.update(place(r, i, a, j, b) for r in iproduct(range(K), repeat=n + m - 2))
                continue
            for key_in, c_in in inner[0].items():
                for rest, got in entries(n + m - 1, key_in).items():
                    flat = place(rest, i, a, j, b)
                    if got is None:
                        skips.add(flat)
                    else:
                        add(flat, got, inner[1], _pull_sign(deg, flat, i, j) * c_in)
    if m:
        rhs_sign = -1 if n % 2 else 1
        for xs, outer in entries(n).items():
            if outer is None:
                skips.update(xs + ys for ys in iproduct(range(K), repeat=m))
                continue
            for key_out, c_out in outer[0].items():
                for ys, got in entries(m + 1, key_out).items():
                    if got is None:
                        skips.add(xs + ys)
                    else:
                        add(xs + ys, got, outer[1], -rhs_sign * c_out)
    return {**sums, **dict.fromkeys(skips)}


@dataclass
class IsoReport:
    compared: int = 0
    mismatches: list[str] = field(default_factory=list)
    skipped: int = 0

    @property
    def passed(self) -> bool:
        return not self.mismatches


def compare_across_iso(
    g1: GravityStructure,
    g2: GravityStructure,
    iso,
    arity_max: int = 4,
) -> IsoReport:
    """Check that a degree-preserving map intertwines the bracket tables.

    ``iso`` maps a g1 basis key to a class row of g2 keys, as
    ``koszul.poisson_hc_iso`` gives it; it must be invertible on the
    compared window (checked by rank).  A tuple of g1 basis classes with
    arity <= arity_max is *compared* when its g1 entry, the images of its
    classes and of its entry's output, and every g2 entry its image reads
    are available; otherwise it is *skipped*.  Compared
    tuples whose two images differ are listed as mismatches, in enumeration
    order, and after the sixth the report returns with the counts of the
    tuples enumerated up to it.

    Only tuples with a nonzero or unavailable g1 entry, tuples that are
    preimages of a nonzero or unavailable g2 entry (taken from
    ``g2.entries``), and tuples with a class outside the map's domain are
    compared one by one: on every other tuple both sides are zero.
    """
    rep = IsoReport()
    K = len(g1.basis)
    images = [iso.get(k) for k in g1.basis]

    # invertibility on the window: the pushed basis vectors must be
    # linearly independent
    cols = [img[0] for img in images if img is not None]
    if _sparse_rank(cols) != len(cols):
        raise ValueError("iso is not injective on the compared basis")

    def verdict(tup: tuple[int, ...]):
        t1 = g1.table_lookup([g1.basis[i] for i in tup])
        if t1 is None:
            return _SKIP
        lhs = _iexpand(t1, iso.get)
        combos = [images[i] for i in tup]
        if lhs is None or any(c is None for c in combos):
            return _SKIP
        rhs = g2.bracket_combo(combos)
        if rhs is None:
            return _SKIP
        if not _cancels(lhs, rhs, -1):
            return f"bracket images differ on {tup}"
        return None

    # the g2 classes a combination of images can pick, with their preimages
    preimages: dict[HCKey, list[int]] = {}
    for i, img in enumerate(images):
        for k in img[0] if img else ():
            preimages.setdefault(k, []).append(i)
    outside = {i for i, img in enumerate(images) if img is None}

    for n in range(2, arity_max + 1):
        candidates = set(g1.entries(n, None))
        for tup in g2.entries(n, None):
            picks = [g2.basis[t] for t in tup]
            if all(k in preimages for k in picks):
                candidates.update(iproduct(*(preimages[k] for k in picks)))
        if outside:
            candidates.update(
                t for t in iproduct(range(K), repeat=n) if outside.intersection(t)
            )
        verdicts = ((_rank(t, K), verdict(t)) for t in sorted(candidates))
        compared, skipped, stopped = _tally(K**n, verdicts, rep.mismatches)
        rep.compared += compared
        rep.skipped += skipped
        if stopped:
            return rep
    return rep
