"""Weight-multiplicity bookkeeping: partition functions, Verma-type and
module characters, tensor factorization checks, and support classification.

Characters are exact within an explicit bounding box rather than generating
functions; every identity verified here is a finite multiplicity comparison.
Offsets are stored in doubled eps-coordinates (an offset o stands for the
weight  reference + o/2), so the ubiquitous half-integer shifts between
reference weights of different modules stay on the integer lattice.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations, product as _cartesian
from math import prod
from operator import add, mul, sub
from types import MappingProxyType

from .combination import checked_int
from .liealg import Weight, root_system
from .scalars import ParseError
from .weyl import ModuleDescriptor, ShaleWeil

_HALF = Fraction(1, 2)


class CharTable:
    """Finite exact window of a character.

    ``box`` is a per-coordinate (lo, hi) pair in doubled eps-coordinates and
    the table is exact there: every absent offset inside the box has
    multiplicity zero in the module, not merely in the table.  Tables are
    values: ``entries`` is never changed in place, and the tables that
    ``char_module`` builds share one read-only mapping per shape.
    """

    __slots__ = ("ref", "box", "entries")

    def __init__(self, ref, box, entries=None):
        self.ref = ref
        self.box = _check_box(box, ref.n)
        clean = {}
        for off, mult in (entries or {}).items():
            off = tuple(checked_int(c, "offset coordinate") for c in off)
            mult = checked_int(mult, "multiplicity")
            if len(off) != ref.n:
                raise ValueError(f"offset {off} does not match the rank {ref.n}")
            if mult < 0:
                raise ValueError("multiplicities are nonnegative")
            if not self.contains(off):
                raise ValueError(f"offset {off} outside the box {self.box}")
            if mult:
                clean[off] = mult
        self.entries = clean

    @classmethod
    def _trusted(cls, ref, box, entries):
        """A table from an already valid box and entries: integer offsets of
        the right rank inside the box, positive integer multiplicities."""
        out = object.__new__(cls)
        out.ref = ref
        out.box = box
        out.entries = entries
        return out

    @property
    def n(self):
        return self.ref.n

    def contains(self, off):
        return all(lo <= c <= hi for c, (lo, hi) in zip(off, self.box))

    def get(self, off):
        off = tuple(off)
        if not self.contains(off):
            raise ValueError(f"offset {off} outside the exact box {self.box}")
        return self.entries.get(off, 0)

    def sorted_entries(self):
        return sorted(self.entries.items())

    def aligned_to(self, new_ref):
        """The same character re-expressed around another reference weight.

        The references must differ by a half-integer vector and share the
        central charge, otherwise the two weight lattices never meet.
        """
        if self.ref.zdot != new_ref.zdot:
            raise ValueError("central charges differ; characters not comparable")
        shift = []
        for a, b in zip(self.ref.values, new_ref.values):
            d = (a - b) * 2
            if not d.is_integer():
                raise ValueError("reference weights differ by a non-half-integer")
            shift.append(int(d.as_fraction()))
        box = tuple((lo + s, hi + s) for (lo, hi), s in zip(self.box, shift))
        entries = {
            tuple(c + s for c, s in zip(off, shift)): m
            for off, m in self.entries.items()
        }
        return CharTable._trusted(new_ref, box, entries)

    def crop(self, box):
        box = _check_box(box, self.n)
        for (lo, hi), (slo, shi) in zip(box, self.box):
            if lo < slo or hi > shi:
                raise ValueError("cannot crop beyond the exact box")
        entries = {
            off: m
            for off, m in self.entries.items()
            if all(lo <= c <= hi for c, (lo, hi) in zip(off, box))
        }
        return CharTable._trusted(self.ref, box, entries)

    def shifted_ref(self, vec, denom=1, zdot=None):
        ref = self.ref.shift(vec, denom)
        if zdot is not None:
            ref = Weight(ref.ctx, ref.values, zdot)
        return CharTable._trusted(ref, self.box, dict(self.entries))

    def __eq__(self, other):
        if not isinstance(other, CharTable):
            return NotImplemented
        return (
            self.ref == other.ref
            and self.box == other.box
            and self.entries == other.entries
        )

    def to_json_dict(self):
        return {
            "reference_weight": {
                "h": [str(v) for v in self.ref.values],
                "z": str(self.ref.zdot),
            },
            "box": [[lo, hi] for lo, hi in self.box],
            "entries": [
                {"offset": list(off), "mult": m} for off, m in self.sorted_entries()
            ],
        }

    @classmethod
    def from_json_dict(cls, data, ctx):
        """Inverse of to_json_dict; input of any other shape is a ParseError."""
        try:
            ref = Weight(
                ctx,
                [ctx.parse(v) for v in data["reference_weight"]["h"]],
                ctx.parse(data["reference_weight"]["z"]),
            )
            entries = {}
            for e in data["entries"]:
                off = tuple(e["offset"])
                if off in entries:
                    raise ValueError(f"offset {list(off)} appears twice")
                entries[off] = e["mult"]
            return cls(ref, data["box"], entries)
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"malformed character table: {e!r}")


def _check_box(box, n):
    """A box of rank n as a tuple of integer (lo, hi) pairs with lo <= hi."""
    box = tuple((checked_int(lo, "box bound"), checked_int(hi, "box bound")) for lo, hi in box)
    if len(box) != n:
        raise ValueError("box rank does not match the reference weight")
    if any(lo > hi for lo, hi in box):
        raise ValueError("empty box")
    return box


def compare_characters(a, b, window=None):
    """Exact comparison of two tables as characters on a common window.

    Aligns ``b`` to ``a``'s reference first.  The window defaults to the
    intersection of the exact boxes and must lie inside both.  Returns
    (ok, mismatches) where each mismatch is (offset, mult_a, mult_b).
    """
    b = b.aligned_to(a.ref)
    inter = tuple(
        (max(al, bl), min(ah, bh)) for (al, ah), (bl, bh) in zip(a.box, b.box)
    )
    if window is None:
        window = inter
    else:
        window = tuple(
            (checked_int(lo, "window bound"), checked_int(hi, "window bound"))
            for lo, hi in window
        )
        for (lo, hi), (il, ih) in zip(window, inter):
            if lo < il or hi > ih:
                raise ValueError("window exceeds the exact boxes")
    mismatches = []
    for off in a.entries.keys() | b.entries.keys():
        if all(lo <= c <= hi for c, (lo, hi) in zip(off, window)):
            ma, mb = a.entries.get(off, 0), b.entries.get(off, 0)
            if ma != mb:
                mismatches.append((off, ma, mb))
    mismatches.sort()
    return not mismatches, mismatches


# ---------------------------------------------------------------------------
# partition functions
# ---------------------------------------------------------------------------

class _Partitions:
    """Kostant partition function of one set of distinct positive roots.

    The roots are checked and sorted by height once.  The memo of partition
    counts of mu by the roots from the k-th on, keyed by (mu, k), lives as
    long as this object, which its builder holds for one call.
    """

    __slots__ = ("weights", "roots", "hts", "memo")

    def __init__(self, roots, n):
        roots = [tuple(checked_int(c, "root coordinate") for c in r) for r in roots]
        if len(set(roots)) != len(roots):
            raise ValueError("roots must be distinct")
        # strictly decreasing positive weights make every root in the
        # supported sets strictly positive, which bounds partition coefficients
        self.weights = tuple(2 * (n - i) - 1 for i in range(n))
        by_height = []
        for r in roots:
            if len(r) != n:
                raise ValueError("root rank mismatch")
            ht = sum(map(mul, self.weights, r))
            if ht <= 0:
                raise ValueError(f"root {r} is not positive for the height functional")
            by_height.append((ht, r))
        by_height.sort(key=lambda pair: -pair[0])
        self.hts = tuple(ht for ht, _ in by_height)
        self.roots = tuple(r for _, r in by_height)
        self.memo = {}

    def __call__(self, mu):
        """P(mu) for an int tuple of the roots' rank."""
        return self._count(mu, sum(map(mul, self.weights, mu)), 0)

    def _count(self, mu, ht_mu, k):
        if ht_mu == 0:
            return 0 if any(mu) else 1
        if ht_mu < 0 or k == len(self.roots):
            return 0
        key = (mu, k)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        root, ht = self.roots[k], self.hts[k]
        total = 0
        while ht_mu >= 0:
            total += self._count(mu, ht_mu, k + 1)
            mu = tuple(map(sub, mu, root))
            ht_mu -= ht
        self.memo[key] = total
        return total


def kostant_partition(mu, roots):
    """Number of ways to write mu as a nonnegative integer combination of the
    given distinct positive int roots; zero outside the cone."""
    mu = tuple(checked_int(c, "weight coordinate") for c in mu)
    return _Partitions(roots, len(mu))(mu)


def positive_roots(n, algebra):
    """Positive roots of the chosen algebra in eps-coordinates."""
    _, plus = root_system(n)
    if algebra == "g":
        return plus
    if algebra == "sp":
        return tuple(r for r in plus if sum(abs(c) for c in r) == 2)
    raise ValueError("algebra must be 'g' or 'sp'")


def lowering_roots(n, algebra):
    """Positive roots whose negatives span the parabolic lowering part:
    e_i + e_j (i <= j), and e_i for the oscillator algebra."""
    return tuple(r for r in positive_roots(n, algebra) if sum(r) > 0)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def verma_char(lam, algebra, depth):
    """Verma character around its highest weight, exact on the whole box.

    The multiplicity at lambda - mu is the partition count of mu over the
    positive roots of the chosen algebra.
    """
    if checked_int(depth, "depth") < 1:
        raise ValueError("depth must be >= 1")
    n = lam.n
    box = ((-2 * depth, 2 * depth),) * n
    return _induced_char(lam, {(0,) * n: 1}, positive_roots(n, algebra), box)


def char_module(m, depth):
    """Character of a Laurent-type Weyl module under h_i -> t_i d_i + 1/2.

    The reference weight is the natural top: a_i + 1/2 at free coordinates,
    -1/2 at quotiented ones (their exponents start at -1).
    """
    if checked_int(depth, "depth") < 1:
        raise ValueError("depth must be >= 1")
    if not isinstance(m, ModuleDescriptor):
        raise TypeError("expected a Weyl module descriptor")
    ctx = m.ctx
    n = m.rank
    values = []
    for i in range(n):
        if (i + 1) in m.quotiented:
            values.append(ctx.rational(-1, 2))
        else:
            values.append(m.base[i] + _HALF)
    ref = Weight(ctx, values, ctx.zdot)
    box = ((-2 * depth, 2 * depth),) * n
    # the offsets depend only on the shape, so the context keeps one read-only
    # entries mapping per shape and every table of that shape shares it
    key = ("laurent offsets", n, m.quotiented, depth)
    if key not in ctx.memo:
        axes = [
            range(-2 * depth, 1 if i + 1 in m.quotiented else 2 * depth + 1, 2)
            for i in range(n)
        ]
        ctx.memo[key] = MappingProxyType({off: 1 for off in _cartesian(*axes)})
    return CharTable._trusted(ref, box, ctx.memo[key])


def convolve(a, b, box=None):
    """Character of a tensor product: (a*b)(nu) = sum over alpha+beta = nu.

    Sums the stored entries only, and only the pairs that land in ``box``
    (default: the Minkowski sum of the two boxes): for each entry of ``a`` it
    visits the offsets of ``b`` in the per-coordinate ranges that reach the
    box.  The result is exact on ``box`` wherever every contributing pair
    lies inside the factor boxes; the factorization verifiers build their
    factors to guarantee that.
    """
    if a.n != b.n:
        raise ValueError("rank mismatch")
    if box is None:
        box = tuple(
            (al + bl, ah + bh) for (al, ah), (bl, bh) in zip(a.box, b.box)
        )
    else:
        box = _check_box(box, a.n)
    # the distinct values each coordinate of b takes, so a range clipped to
    # the box skips the lattice points b never occupies
    coords = [sorted(set(values)) for values in zip(*b.entries)]
    b_get = b.entries.get
    entries = {}
    for oa, ma in a.entries.items():
        axes = [
            vals[bisect_left(vals, lo - c):bisect_right(vals, hi - c)]
            for c, (lo, hi), vals in zip(oa, box, coords)
        ]
        for ob in _cartesian(*axes):
            mb = b_get(ob)
            if mb:
                off = tuple(map(add, oa, ob))
                entries[off] = entries.get(off, 0) + ma * mb
    return CharTable._trusted(a.ref + b.ref, box, entries)


def delta_char(weight):
    """The character of a one-dimensional module concentrated at ``weight``."""
    n = weight.n
    return CharTable._trusted(weight, ((0, 0),) * n, {(0,) * n: 1})


def generalized_verma_char(v_char, algebra, depth):
    """Character of the parabolically induced module with top character v_char.

    Convolves v_char with the exact partition function of the lowering part
    (roots -(e_i+e_j) and, for the oscillator algebra, -e_i); every offset in
    the result box is computed exactly from the cone, with no truncation.
    """
    if checked_int(depth, "depth") < 1:
        raise ValueError("depth must be >= 1")
    box = tuple((lo - 2 * depth, hi + 2 * depth) for lo, hi in v_char.box)
    return _induced_char(
        v_char.ref, v_char.entries, lowering_roots(v_char.n, algebra), box
    )


def _induced_char(ref, top, roots, box):
    """Top entries times the partition function of ``-roots`` on ``box``.

    ``top`` maps offsets to integer, possibly negative, multiplicities.  The
    multiplicity at nu is the sum over top offsets alpha of
    mult(alpha) * P((alpha - nu) / 2), computed exactly from the cone at
    every offset of the box whatever its corners.
    """
    count = _Partitions(roots, len(box))
    by_parity = {}
    for alpha, mult in top.items():
        by_parity.setdefault(tuple(c % 2 for c in alpha), []).append((alpha, mult))
    entries = {}
    for parity, terms in sorted(by_parity.items()):
        axes = [
            range(lo + (p - lo) % 2, hi + 1, 2)
            for p, (lo, hi) in zip(parity, box)
        ]
        for nu in _cartesian(*axes):
            total = 0
            for alpha, mult in terms:
                total += mult * count(tuple((a - x) // 2 for a, x in zip(alpha, nu)))
            if total:
                entries[nu] = total
    return CharTable._trusted(ref, box, entries)


def finite_simple_sp_char(lam, depth):
    """Character of the finite-dimensional simple sp_2n module, exactly.

    The alternating-sum multiplicity formula over the signed-permutation Weyl
    group: the sp Verma construction applied to the signed top entries
    det(w) at 2(w(lambda + rho) - (lambda + rho)).  The highest weight must
    be dominant integral (integers, decreasing, nonnegative).
    """
    if checked_int(depth, "depth") < 1:
        raise ValueError("depth must be >= 1")
    n = lam.n
    vals = []
    for v in lam.values:
        f = v.as_fraction()
        if f.denominator != 1 or f < 0:
            raise ValueError("highest weight must be dominant integral")
        vals.append(int(f))
    if any(vals[i] < vals[i + 1] for i in range(n - 1)):
        raise ValueError("highest weight must be dominant (decreasing)")
    lam_rho = tuple(v + n - i for i, v in enumerate(vals))
    top = {}
    for perm in permutations(range(n)):
        sgn = _perm_sign(perm)
        for signs in _cartesian((1, -1), repeat=n):
            moved = (s * lam_rho[p] for s, p in zip(signs, perm))
            top[tuple(2 * (m - v) for m, v in zip(moved, lam_rho))] = sgn * prod(signs)
    box = ((-2 * depth, 2 * depth),) * n
    table = _induced_char(lam, top, positive_roots(n, "sp"), box)
    if any(m < 0 for m in table.entries.values()):
        raise RuntimeError("negative multiplicity; formula misused")
    return table


def _perm_sign(perm):
    inversions = sum(a > b for a, b in combinations(perm, 2))
    return -1 if inversions % 2 else 1


# ---------------------------------------------------------------------------
# factorization verifiers
# ---------------------------------------------------------------------------

@dataclass
class FactorizationReport:
    kind: str
    n: int
    depth: int
    window: tuple
    refs_match: bool
    mismatches: list = field(default_factory=list)

    @property
    def ok(self):
        return self.refs_match and not self.mismatches

    def to_json_dict(self):
        return {
            "identity": self.kind,
            "rank": self.n,
            "depth": self.depth,
            "window": [list(pair) for pair in self.window],
            "refs_match": self.refs_match,
            "mismatches": [
                {"offset": list(off), "left": a, "right": b}
                for off, a, b in self.mismatches
            ],
        }


def _times_shale_weil(top, roots, upper, margin, window):
    """ch M_sp(top) * ch S on ``window``, both factors built to ``margin``.

    A pair lands in the window only if its sp offset is at least the window's
    low corner minus the largest offset of the S table, so the sp factor is
    computed from that corner (taken from the S table as built) up to
    ``upper`` and nowhere below it.
    """
    n = top.n
    s_table = char_module(ShaleWeil(top.ref.ctx, n), margin)
    s_top = [max(c) for c in zip(*s_table.entries)]
    box = tuple(
        (lo - st, hi) for (lo, _), st, hi in zip(window, s_top, upper)
    )
    return convolve(_induced_char(top.ref, top.entries, roots, box), s_table, window)


def verify_verma_factorization(lam, n, depth):
    """Check ch M(lambda) = ch M_sp(lambda + half_sum) * ch S exactly.

    The central charge is the package convention s^2 (nonzero as a formal
    symbol); the sp-side highest weight is shifted by (1/2, ..., 1/2).
    """
    depth = checked_int(depth, "depth")
    if lam.n != n:
        raise ValueError("weight rank mismatch")
    if lam.zdot != lam.ctx.zdot:
        raise ValueError("the factorization holds at central charge s^2")
    return _report("verma", n, depth, *_verma_sides(lam, n, depth))


def _verma_sides(lam, n, depth):
    """The left side and the window-restricted right side of the identity."""
    ctx = lam.ctx
    lhs = verma_char(lam, "g", depth)
    margin = max(n * depth, depth)
    lam_sp = Weight(ctx, tuple(v + _HALF for v in lam.values), ctx.rational(0))
    rhs = _times_shale_weil(
        delta_char(lam_sp), positive_roots(n, "sp"), (2 * margin,) * n,
        margin, lhs.box,
    )
    return lhs, rhs


def verify_generalized_factorization(v_char, n, depth):
    """Check ch M(V) = ch M_sp(V + half_sum twist) * ch S exactly.

    The sp-side top character is the same finite table with its reference
    shifted by (1/2, ..., 1/2) (the one-dimensional determinant-type twist
    that matches the Shale-Weil top), mirroring the Verma case.
    """
    depth = checked_int(depth, "depth")
    if v_char.n != n:
        raise ValueError("rank mismatch")
    if v_char.ref.zdot != v_char.ref.ctx.zdot:
        raise ValueError("the factorization holds at central charge s^2")
    return _report(
        "generalized-verma", n, depth, *_generalized_sides(v_char, n, depth)
    )


def _generalized_sides(v_char, n, depth):
    """The left side and the window-restricted right side of the identity."""
    lhs = generalized_verma_char(v_char, "g", depth)
    vdiam = max(hi - lo for lo, hi in v_char.box)
    margin = n * depth + vdiam + 1
    v_sp = v_char.shifted_ref((1,) * n, 2, v_char.ref.ctx.rational(0))
    rhs = _times_shale_weil(
        v_sp, lowering_roots(n, "sp"),
        tuple(hi + 2 * margin for _, hi in v_sp.box), margin, lhs.box,
    )
    return lhs, rhs


def _report(kind, n, depth, lhs, rhs):
    ok, mismatches = compare_characters(lhs, rhs)
    return FactorizationReport(
        kind, n, depth, lhs.box, rhs.ref == lhs.ref, mismatches
    )


# ---------------------------------------------------------------------------
# support classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlagSets:
    """Partition of the coordinates by long-root action type.

    ``injective``: both X_{2e_i} and X_{-2e_i} act injectively (support runs
    to the box edge both ways); ``finite``: both locally nilpotent;
    ``plus`` / ``minus``: nilpotent upward / downward respectively.
    """

    injective: frozenset
    finite: frozenset
    plus: frozenset
    minus: frozenset

    def to_json_dict(self):
        return {
            "I": sorted(self.injective),
            "F": sorted(self.finite),
            "F+": sorted(self.plus),
            "F-": sorted(self.minus),
        }


def classify_flags(table, probe_depth):
    """Classify each coordinate by whether the support extends to the box
    edge along +-2e_i rays (step 4 in doubled coordinates).

    A direction "extends" when some occupied ray runs unbroken to the box
    edge with at least probe_depth + 1 in-box points; it "terminates" when no
    such ray exists.  Exact whenever the support is eventually periodic along
    these rays, which holds for every module constructible here.
    """
    D = checked_int(probe_depth, "probe depth")
    if D < 1:
        raise ValueError("probe depth must be >= 1")
    n = table.n
    inj, fin, plus, minus = set(), set(), set(), set()
    for i in range(n):
        lo, hi = table.box[i]
        if hi - lo < 4 * (D + 1):
            raise ValueError(
                f"box too small relative to probe depth {D} in coordinate {i + 1}"
            )
        lines = {}
        for off in table.entries:
            key = (off[:i] + off[i + 1:], off[i] % 4)
            lines.setdefault(key, set()).add(off[i])
        up = down = False
        for (rest, r), vals in lines.items():
            top = hi - ((hi - r) % 4)
            bot = lo + ((r - lo) % 4)
            run, p = 0, top
            while p in vals:
                run += 1
                p -= 4
            if run >= D + 1:
                up = True
            run, p = 0, bot
            while p in vals:
                run += 1
                p += 4
            if run >= D + 1:
                down = True
            if up and down:
                break
        idx = i + 1
        if up and down:
            inj.add(idx)
        elif down:
            plus.add(idx)
        elif up:
            minus.add(idx)
        else:
            fin.add(idx)
    return FlagSets(frozenset(inj), frozenset(fin), frozenset(plus), frozenset(minus))
