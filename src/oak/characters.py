"""Weight-multiplicity bookkeeping: partition functions, Verma-type and
module characters, tensor factorization checks, and support classification.

Characters are exact within an explicit bounding box rather than generating
functions; every identity verified here is a finite multiplicity comparison.
Offsets are stored in doubled eps-coordinates (an offset o stands for the
weight  reference + o/2), so the ubiquitous half-integer shifts between
reference weights of different modules stay on the integer lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product as _cartesian

from .liealg import Weight, root_system
from .scalars import ParseError
from .weyl import ModuleDescriptor, ShaleWeil

_HALF = Fraction(1, 2)


class CharTable:
    """Finite exact window of a character.

    ``box`` is a per-coordinate (lo, hi) pair in doubled eps-coordinates and
    the table is exact there: every absent offset inside the box has
    multiplicity zero in the module, not merely in the table.
    """

    __slots__ = ("ref", "box", "entries")

    def __init__(self, ref, box, entries=None):
        self.ref = ref
        self.box = tuple((int(lo), int(hi)) for lo, hi in box)
        if len(self.box) != ref.n:
            raise ValueError("box rank does not match the reference weight")
        for lo, hi in self.box:
            if lo > hi:
                raise ValueError("empty box")
        clean = {}
        for off, mult in (entries or {}).items():
            off = tuple(int(c) for c in off)
            mult = int(mult)
            if mult < 0:
                raise ValueError("multiplicities are nonnegative")
            if not self.contains(off):
                raise ValueError(f"offset {off} outside the box {self.box}")
            if mult:
                clean[off] = mult
        self.entries = clean

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
        return CharTable(new_ref, box, entries)

    def crop(self, box):
        box = tuple((int(lo), int(hi)) for lo, hi in box)
        for (lo, hi), (slo, shi) in zip(box, self.box):
            if lo < slo or hi > shi:
                raise ValueError("cannot crop beyond the exact box")
        entries = {
            off: m
            for off, m in self.entries.items()
            if all(lo <= c <= hi for c, (lo, hi) in zip(off, box))
        }
        return CharTable(self.ref, box, entries)

    def shifted_ref(self, vec, denom=1, zdot=None):
        ref = self.ref.shift(vec, denom)
        if zdot is not None:
            ref = Weight(ref.ctx, ref.values, zdot)
        return CharTable(ref, self.box, self.entries)

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
            box = [tuple(pair) for pair in data["box"]]
            entries = {tuple(e["offset"]): e["mult"] for e in data["entries"]}
            return cls(ref, box, entries)
        except (KeyError, TypeError) as e:
            raise ParseError(f"malformed character table: {e!r}")


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
        window = tuple((int(lo), int(hi)) for lo, hi in window)
        for (lo, hi), (il, ih) in zip(window, inter):
            if lo < il or hi > ih:
                raise ValueError("window exceeds the exact boxes")
    mismatches = []
    seen = set()
    for off, m in a.entries.items():
        if all(lo <= c <= hi for c, (lo, hi) in zip(off, window)):
            seen.add(off)
            mb = b.entries.get(off, 0)
            if m != mb:
                mismatches.append((off, m, mb))
    for off, mb in b.entries.items():
        if off in seen:
            continue
        if all(lo <= c <= hi for c, (lo, hi) in zip(off, window)):
            ma = a.entries.get(off, 0)
            if ma != mb:
                mismatches.append((off, ma, mb))
    mismatches.sort()
    return not mismatches, mismatches


# ---------------------------------------------------------------------------
# partition functions
# ---------------------------------------------------------------------------

_KOSTANT_MEMO = {}


def _height_weights(n):
    # strictly decreasing positive weights make every root in the supported
    # sets strictly positive, which bounds partition coefficients
    return tuple(2 * (n - i) - 1 for i in range(n))


def kostant_partition(mu, roots):
    """Number of ways to write mu as a nonnegative integer combination of
    the given distinct positive roots; zero outside the cone."""
    mu = tuple(int(c) for c in mu)
    roots = tuple(tuple(int(c) for c in r) for r in roots)
    if len(set(roots)) != len(roots):
        raise ValueError("roots must be distinct")
    n = len(mu)
    w = _height_weights(n)
    hts = []
    for r in roots:
        if len(r) != n:
            raise ValueError("root rank mismatch")
        ht = sum(wi * ci for wi, ci in zip(w, r))
        if ht <= 0:
            raise ValueError(f"root {r} is not positive for the height functional")
        hts.append(ht)
    order = sorted(range(len(roots)), key=lambda k: -hts[k])
    roots = tuple(roots[k] for k in order)
    hts = tuple(hts[k] for k in order)
    return _kostant(mu, sum(wi * ci for wi, ci in zip(w, mu)), roots, hts, 0)


def _kostant(mu, ht_mu, roots, hts, k):
    if ht_mu == 0:
        return 1 if not any(mu) else 0
    if ht_mu < 0 or k == len(roots):
        return 0
    key = (mu, roots, k)
    cached = _KOSTANT_MEMO.get(key)
    if cached is not None:
        return cached
    root, ht = roots[k], hts[k]
    total = 0
    cur, cur_ht, c = mu, ht_mu, 0
    while cur_ht >= 0:
        total += _kostant(cur, cur_ht, roots, hts, k + 1)
        cur = tuple(m - r for m, r in zip(cur, root))
        cur_ht -= ht
        c += 1
    _KOSTANT_MEMO[key] = total
    return total


def positive_roots(n, algebra):
    """Positive roots of the chosen algebra in eps-coordinates."""
    _, plus = root_system(n)
    if algebra == "g":
        return plus
    if algebra == "sp":
        return tuple(r for r in plus if sum(abs(c) for c in r) == 2)
    raise ValueError("algebra must be 'g' or 'sp'")


def lowering_roots(n, algebra):
    """Positive roots whose negatives span the parabolic lowering part."""
    if algebra == "g":
        return tuple(
            r for r in positive_roots(n, "g") if sum(r) > 0
        )  # e_i + e_j (i<=j) and e_i
    if algebra == "sp":
        return tuple(
            r for r in positive_roots(n, "sp") if sum(r) > 0
        )  # e_i + e_j (i<=j)
    raise ValueError("algebra must be 'g' or 'sp'")


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def verma_char(lam, algebra, depth):
    """Verma character around its highest weight, exact on the whole box.

    The multiplicity at lambda - mu is the partition count of mu over the
    positive roots of the chosen algebra.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = lam.n
    roots = positive_roots(n, algebra)
    box = ((-2 * depth, 2 * depth),) * n
    entries = {}
    for mu in _cartesian(range(-depth, depth + 1), repeat=n):
        k = kostant_partition(mu, roots)
        if k:
            entries[tuple(-2 * c for c in mu)] = k
    return CharTable(lam, box, entries)


def char_module(m, depth):
    """Character of a Laurent-type Weyl module under h_i -> t_i d_i + 1/2.

    The reference weight is the natural top: a_i + 1/2 at free coordinates,
    -1/2 at quotiented ones (their exponents start at -1).
    """
    if depth < 1:
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
    axes = []
    for i in range(n):
        if (i + 1) in m.quotiented:
            axes.append(range(-2 * depth, 1, 2))
        else:
            axes.append(range(-2 * depth, 2 * depth + 1, 2))
    entries = {off: 1 for off in _cartesian(*axes)}
    return CharTable(ref, box, entries)


def convolve(a, b):
    """Character of a tensor product: (a*b)(nu) = sum over alpha+beta = nu.

    Sums the stored entries only; the result box is the Minkowski sum, which
    is exact wherever every contributing pair lies inside the factor boxes.
    The factorization verifiers inflate and crop to guarantee that.
    """
    if a.n != b.n:
        raise ValueError("rank mismatch")
    ref = a.ref + b.ref
    box = tuple(
        (al + bl, ah + bh) for (al, ah), (bl, bh) in zip(a.box, b.box)
    )
    entries = {}
    for oa, ma in a.entries.items():
        for ob, mb in b.entries.items():
            off = tuple(x + y for x, y in zip(oa, ob))
            entries[off] = entries.get(off, 0) + ma * mb
    return CharTable(ref, box, entries)


def delta_char(weight):
    """The character of a one-dimensional module concentrated at ``weight``."""
    n = weight.n
    return CharTable(weight, ((0, 0),) * n, {(0,) * n: 1})


def generalized_verma_char(v_char, algebra, depth):
    """Character of the parabolically induced module with top character v_char.

    Convolves v_char with the exact partition function of the lowering part
    (roots -(e_i+e_j) and, for the oscillator algebra, -e_i); every offset in
    the result box is computed exactly from the cone, with no truncation.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = v_char.n
    roots = lowering_roots(n, algebra)
    box = tuple((lo - 2 * depth, hi + 2 * depth) for lo, hi in v_char.box)
    parities = {tuple(c % 2 for c in off) for off in v_char.entries}
    entries = {}
    for parity in sorted(parities):
        axes = [
            range(lo + (parity[i] - lo) % 2, hi + 1, 2)
            for i, (lo, hi) in enumerate(box)
        ]
        for nu in _cartesian(*axes):
            total = 0
            for alpha, mult in v_char.entries.items():
                diff = tuple(a - x for a, x in zip(alpha, nu))
                if any(c % 2 for c in diff):
                    continue
                total += mult * kostant_partition(
                    tuple(c // 2 for c in diff), roots
                )
            if total:
                entries[nu] = entries.get(nu, 0) + total
    return CharTable(v_char.ref, box, entries)


def finite_simple_sp_char(lam, depth):
    """Character of the finite-dimensional simple sp_2n module, exactly.

    Uses the alternating-sum multiplicity formula over the signed-permutation
    Weyl group with the partition function of the positive roots; the highest
    weight must be dominant integral (integers, decreasing, nonnegative).
    """
    n = lam.n
    vals = []
    for v in lam.values:
        f = v.as_fraction()
        if f.denominator != 1 or f < 0:
            raise ValueError("highest weight must be dominant integral")
        vals.append(int(f))
    if any(vals[i] < vals[i + 1] for i in range(n - 1)):
        raise ValueError("highest weight must be dominant (decreasing)")
    rho = tuple(n - i for i in range(n))
    roots = positive_roots(n, "sp")
    group = []
    for perm in permutations(range(n)):
        sgn = _perm_sign(perm)
        for signs in _cartesian((1, -1), repeat=n):
            det = sgn
            for s in signs:
                det *= s
            group.append((perm, signs, det))
    lam_rho = tuple(v + r for v, r in zip(vals, rho))
    box = ((-2 * depth, 2 * depth),) * n
    entries = {}
    for mu in _cartesian(range(-depth, depth + 1), repeat=n):
        target = tuple(v - m + r for v, m, r in zip(vals, mu, rho))
        total = 0
        for perm, signs, det in group:
            moved = tuple(signs[i] * lam_rho[perm[i]] for i in range(n))
            arg = tuple(a - t for a, t in zip(moved, target))
            total += det * kostant_partition(arg, roots)
        if total < 0:
            raise RuntimeError("negative multiplicity; formula misused")
        if total:
            entries[tuple(-2 * c for c in mu)] = total
    return CharTable(lam, box, entries)


def _perm_sign(perm):
    sgn = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sgn = -sgn
    return sgn


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


def verify_verma_factorization(lam, n, depth):
    """Check ch M(lambda) = ch M_sp(lambda + half_sum) * ch S exactly.

    The central charge is the package convention s^2 (nonzero as a formal
    symbol); the sp-side highest weight is shifted by (1/2, ..., 1/2).
    """
    if lam.n != n:
        raise ValueError("weight rank mismatch")
    ctx = lam.ctx
    if lam.zdot != ctx.zdot:
        raise ValueError("the factorization holds at central charge s^2")
    lhs = verma_char(lam, "g", depth)
    margin = max(n * depth, depth)
    lam_sp = Weight(ctx, tuple(v + _HALF for v in lam.values), ctx.rational(0))
    rhs = convolve(
        verma_char(lam_sp, "sp", margin),
        char_module(ShaleWeil(ctx, n), margin),
    ).crop(lhs.box)
    refs_match = rhs.ref == lhs.ref
    ok, mismatches = compare_characters(lhs, rhs)
    return FactorizationReport(
        "verma", n, depth, lhs.box, refs_match, mismatches
    )


def verify_generalized_factorization(v_char, n, depth):
    """Check ch M(V) = ch M_sp(V + half_sum twist) * ch S exactly.

    The sp-side top character is the same finite table with its reference
    shifted by (1/2, ..., 1/2) (the one-dimensional determinant-type twist
    that matches the Shale-Weil top), mirroring the Verma case.
    """
    if v_char.n != n:
        raise ValueError("rank mismatch")
    ctx = v_char.ref.ctx
    if v_char.ref.zdot != ctx.zdot:
        raise ValueError("the factorization holds at central charge s^2")
    lhs = generalized_verma_char(v_char, "g", depth)
    vdiam = max(hi - lo for lo, hi in v_char.box)
    margin = n * depth + vdiam + 1
    v_sp = v_char.shifted_ref((1,) * n, 2, ctx.rational(0))
    rhs = convolve(
        generalized_verma_char(v_sp, "sp", margin),
        char_module(ShaleWeil(ctx, n), margin),
    ).crop(lhs.box)
    refs_match = rhs.ref == lhs.ref
    ok, mismatches = compare_characters(lhs, rhs)
    return FactorizationReport(
        "generalized-verma", n, depth, lhs.box, refs_match, mismatches
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
    D = int(probe_depth)
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
