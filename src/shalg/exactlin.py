"""Exact rational graded linear algebra.

Graded vector spaces over Q with a homological Z-grading, graded maps
stored as sparse exact rational columns per degree, chain complexes
with a degree -1 differential, homology with explicit splitting data,
and a certified linear solver.  Everything is a plain immutable value;
no floating point is used anywhere.

Scalars are Rational, a slotted exact rational with int fast paths,
defined here: the standard library's fractions, which loads decimal
and numbers, costs each process more memory than all of shalg's own
modules, and shalg only ever builds rationals from ints, int pairs and
"p/q" strings.

No differential of a tensor product is built: hom_differential pushes
a map's nonzero columns through each slot's differential, so [f, d]
reads only the degrees where f is nonzero and the degree above each.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections.abc import Callable, Iterable, Mapping, Sequence
from types import MappingProxyType


# ------------------------------------------------------------- rationals

_gcd = math.gcd
_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf
_object_new = object.__new__


def _parts(x):
    """(numerator, denominator) in lowest terms, with a positive
    denominator, of anything with integer numerator and nonzero
    denominator attributes (an int, a Rational, the standard library's
    Fraction), or None."""
    n = getattr(x, "numerator", None)
    d = getattr(x, "denominator", None)
    if type(n) is not int or type(d) is not int or not d:
        return None
    g = _gcd(n, d)
    return (n // g, d // g) if d > 0 else (-n // g, -d // g)


class Rational:
    """An exact rational number, kept as numerator/denominator in lowest
    terms with a positive denominator.

    Rational(n) and Rational(n, d) take ints, or anything with integer
    numerator and denominator attributes (the standard library's
    Fraction too); + - * / and == take the same operands on either side.
    The hash is the interpreter's numeric hash, so a Rational hashes
    like the equal int or Fraction.  Treat it as immutable.
    """

    __slots__ = ("numerator", "denominator")

    def __new__(cls, numerator=0, denominator=1):
        if type(numerator) is int and type(denominator) is int:
            if denominator == 1:
                self = _object_new(cls)
                self.numerator, self.denominator = numerator, 1
                return self
            n, d = numerator, denominator
        elif type(numerator) is Rational and denominator == 1:
            return numerator
        else:
            p, q = _parts(numerator), _parts(denominator)
            if p is None or q is None:
                raise TypeError(
                    f"not a rational: {numerator!r}, {denominator!r}")
            n, d = p[0] * q[1], p[1] * q[0]
        if not d:
            raise ZeroDivisionError(f"Rational({numerator!r}, 0)")
        g = _gcd(n, d)
        if d < 0:
            g = -g
        self = _object_new(cls)
        self.numerator, self.denominator = n // g, d // g
        return self

    def __repr__(self):
        return f"Rational({self.numerator}, {self.denominator})"

    def __bool__(self):
        return self.numerator != 0

    def __hash__(self):
        n, d = self.numerator, self.denominator
        if d == 1:
            return hash(n)
        # CPython's hash of n/d: n * d^-1 modulo the hash modulus
        try:
            h = hash(hash(abs(n)) * pow(d, -1, _HASH_MODULUS))
        except ValueError:  # d is a multiple of the modulus
            h = _HASH_INF
        h = h if n >= 0 else -h
        return -2 if h == -1 else h

    def __eq__(a, b):
        if type(b) is int:
            return a.numerator == b and a.denominator == 1
        if type(b) is Rational:
            return (a.numerator == b.numerator
                    and a.denominator == b.denominator)
        p = _parts(b)
        if p is None:
            return NotImplemented
        return a.numerator == p[0] and a.denominator == p[1]

    def __neg__(a):
        return _new(-a.numerator, a.denominator)

    def __add__(a, b):
        na, da = a.numerator, a.denominator
        if type(b) is Rational:
            nb, db = b.numerator, b.denominator
        elif type(b) is int:
            return _new(na + b * da, da)
        else:
            p = _parts(b)
            if p is None:
                return NotImplemented
            nb, db = p
        if da == 1 and db == 1:
            return _new(na + nb, 1)
        return _add(na, da, nb, db)

    __radd__ = __add__

    def __sub__(a, b):
        na, da = a.numerator, a.denominator
        if type(b) is Rational:
            nb, db = b.numerator, b.denominator
        elif type(b) is int:
            return _new(na - b * da, da)
        else:
            p = _parts(b)
            if p is None:
                return NotImplemented
            nb, db = p
        if da == 1 and db == 1:
            return _new(na - nb, 1)
        return _add(na, da, -nb, db)

    def __rsub__(a, b):
        return -a + b

    def __mul__(a, b):
        na, da = a.numerator, a.denominator
        if type(b) is Rational:
            nb, db = b.numerator, b.denominator
        elif type(b) is int:
            if da == 1:
                return _new(na * b, 1)
            g = _gcd(b, da)
            return _new(na * (b // g), da // g)
        else:
            p = _parts(b)
            if p is None:
                return NotImplemented
            nb, db = p
        if da == 1 and db == 1:
            return _new(na * nb, 1)
        g = _gcd(na, db)
        if g > 1:
            na, db = na // g, db // g
        g = _gcd(nb, da)
        if g > 1:
            nb, da = nb // g, da // g
        return _new(na * nb, da * db)

    __rmul__ = __mul__

    def __truediv__(a, b):
        if type(b) is Rational:
            nb, db = b.numerator, b.denominator
        elif type(b) is int:
            nb, db = b, 1
        else:
            p = _parts(b)
            if p is None:
                return NotImplemented
            nb, db = p
        return _div(a.numerator, a.denominator, nb, db)

    def __rtruediv__(a, b):
        if type(b) is int:
            return _div(b, 1, a.numerator, a.denominator)
        p = _parts(b)
        if p is None:
            return NotImplemented
        return _div(p[0], p[1], a.numerator, a.denominator)


def _new(n, d):
    """The Rational n/d of coprime n and d > 0, unchecked."""
    r = _object_new(Rational)
    r.numerator = n
    r.denominator = d
    return r


def _add(na, da, nb, db):
    """na/da + nb/db of two fractions in lowest terms."""
    g = _gcd(da, db)
    if g == 1:
        return _new(na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = _gcd(t, g)
    if g2 == 1:
        return _new(t, s * db)
    return _new(t // g2, s * (db // g2))


def _div(na, da, nb, db):
    """(na/da) / (nb/db) of two fractions in lowest terms."""
    if not nb:
        raise ZeroDivisionError(f"Rational({na}, {da}) / 0")
    g = _gcd(na, nb)
    if g > 1:
        na, nb = na // g, nb // g
    g = _gcd(db, da)
    if g > 1:
        da, db = da // g, db // g
    n, d = na * db, nb * da
    if d < 0:
        n, d = -n, -d
    return _new(n, d)


# dense rows of Rationals (an int given as an entry is read as one)
Matrix = tuple[tuple[Rational, ...], ...]
# degree k -> source column -> target row -> nonzero Rational coefficient
Columns = dict[int, dict[int, dict[int, Rational]]]

_ZERO = Rational(0)
_ONE = Rational(1)
_MINUS_ONE = Rational(-1)


def make_matrix(rows: Iterable[Iterable], nrows: int, ncols: int) -> Matrix:
    m = tuple(tuple(Rational(x) for x in row) for row in rows)
    if len(m) != nrows or any(len(row) != ncols for row in m):
        raise ValueError(f"expected a {nrows}x{ncols} matrix, got {m!r}")
    return m


def _subtract_multiple(row: dict, f: Rational, pivot_row: dict) -> None:
    """row -= f * pivot_row on sparse rows, dropping entries that cancel."""
    for j, y in pivot_row.items():
        x = row.get(j)
        v = -(f * y) if x is None else x - f * y
        if v:
            row[j] = v
        elif x is not None:
            del row[j]


def _dense_rows(rows: list[dict], ncols: int) -> Matrix:
    out = []
    for row in rows:
        dense = [_ZERO] * ncols
        for j, x in row.items():
            dense[j] = x
        out.append(tuple(dense))
    return tuple(out)


def _sparse_rows(a: Matrix) -> list[dict]:
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def _transpose(vectors: Iterable[tuple[int, Mapping]], n: int) -> list[dict]:
    """n fresh sparse vectors, the i-th holding {j: vec[i]} over the
    (j, vec) pairs given: rows from columns, or columns from rows."""
    out: list[dict] = [{} for _ in range(n)]
    for j, vec in vectors:
        for i, x in vec.items():
            out[i][j] = x
    return out


def _rref_rows(m: list[dict]) -> tuple[list[dict], list[dict], list[int]]:
    """Reduced row echelon form with leftmost pivots, on sparse rows.

    m holds the rows as {column: nonzero value} and is reduced in place,
    so callers pass fresh rows.  Returns (R, T, pivots) as sparse rows
    with T m = R, T invertible, and pivots the pivot column indices in
    order.  Elimination makes the row swaps, pivot divisions and row
    updates of dense Gauss-Jordan elimination in the same order and
    skips only arithmetic that cannot change a value (on zero entries,
    and division by a pivot of 1), so R and T equal the dense results
    entry for entry.  Row updates only bring in columns the pivot row
    holds, so the pivot columns are among those of the input.
    """
    nrows = len(m)
    t = [{i: _ONE} for i in range(nrows)]
    pivots: list[int] = []
    r = 0
    for c in sorted(set().union(*m)):
        if r >= nrows:
            break
        pr = next((i for i in range(r, nrows) if c in m[i]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            t[r], t[pr] = t[pr], t[r]
        piv = m[r][c]
        if piv != 1:
            m[r] = {j: x / piv for j, x in m[r].items()}
            t[r] = {j: x / piv for j, x in t[r].items()}
        for i in range(nrows):
            if i != r and c in m[i]:
                f = m[i][c]
                _subtract_multiple(m[i], f, m[r])
                _subtract_multiple(t[i], f, t[r])
        pivots.append(c)
        r += 1
    return m, t, pivots


def rref(a: Matrix) -> tuple[Matrix, Matrix, list[int]]:
    """Dense adapter of _rref_rows: (R, T, pivots) of the matrix a with
    T a = R, as dense matrices.  Fully deterministic."""
    r, t, pivots = _rref_rows(_sparse_rows(a))
    return (_dense_rows(r, len(a[0]) if a else 0), _dense_rows(t, len(a)),
            pivots)


def mat_rank(rows: Iterable[Mapping]) -> int:
    """Rank of the matrix with the given sparse rows ({column: nonzero
    rational or int}), by forward elimination on integer rows.

    Each row is scaled by the lcm of its denominators, which keeps the
    rank, and is then reduced against the kept rows, one per leading
    column, by integer combinations; every kept or reduced row is
    divided by its content (the gcd of its entries), so entries stay
    small.  Neither T nor a reduced form is built, and the input rows
    are left as they are.
    """
    leading: dict[int, dict[int, int]] = {}
    for row in rows:
        den = math.lcm(*(x.denominator for x in row.values()))
        row = {j: x.numerator * (den // x.denominator)
               for j, x in row.items()}
        while row:
            c = min(row)
            p = leading.get(c)
            if p is None:
                leading[c] = _primitive(row)
                break
            g = math.gcd(row[c], p[c])
            rf, pf = p[c] // g, row[c] // g
            for j in row.keys() | p.keys():
                v = rf * row.get(j, 0) - pf * p.get(j, 0)
                if v:
                    row[j] = v
                else:
                    row.pop(j, None)
            row = _primitive(row)
    return len(leading)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """An integer row divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    return row if g <= 1 else {j: x // g for j, x in row.items()}


def _null_space(r: list[dict], pivots: Sequence[int],
                ncols: int) -> list[dict]:
    """Right null space from the sparse reduced row echelon form r with
    the given pivot columns: one sparse vector per free column, in
    column order."""
    pivot_set = set(pivots)
    basis = []
    for c in range(ncols):
        if c in pivot_set:
            continue
        v = {c: _ONE}
        for row, pc in zip(r, pivots):
            x = row.get(c)
            if x:
                v[pc] = -x
        basis.append(v)
    return basis


def kernel_basis(a: Matrix) -> list[tuple[Rational, ...]]:
    """Deterministic basis of the right null space, one vector per free
    column (a dense adapter of _rref_rows)."""
    ncols = len(a[0]) if a else 0
    r, _, pivots = _rref_rows(_sparse_rows(a))
    return list(_dense_rows(_null_space(r, pivots, ncols), ncols))


def solve_matrix(rows: list[dict], ncols: int, b: Mapping[int, Rational]):
    """Solve a x = b exactly, for the matrix a with the given sparse rows
    (reduced in place, so pass fresh ones) and ncols columns, and the
    sparse right-hand side b ({row: nonzero}).

    Returns ("solution", x) with x sparse and free variables zero
    (leftmost pivots), or ("inconsistent", y) with a sparse certificate
    row vector y satisfying y a = 0 and y b != 0.
    """
    if (any(not 0 <= i < len(rows) for i in b)
            or any(not 0 <= j < ncols for row in rows for j in row)):
        raise ValueError("an entry lies outside the declared shape")
    _, t, pivots = _rref_rows(rows)
    tb = [sum((x * b[j] for j, x in row.items() if j in b), _ZERO)
          for row in t]
    for i in range(len(pivots), len(rows)):
        if tb[i]:
            return ("inconsistent", t[i])
    return ("solution", {pc: v for pc, v in zip(pivots, tb) if v})


class GradedVectorSpace:
    """Finite-dimensional Z-graded Q-vector space with labeled bases.

    factors records the atomic tensor factors when the space was built
    as a tensor product; tensor products always flatten to atomic
    factors so that basis ordering never depends on bracketing.  A
    tensor product space builds its labels, the tuples of its atoms'
    labels, when they are first read.
    """

    def __init__(self, dims: Mapping[int, int], labels=None):
        self.dims = {int(d): int(n) for d, n in dims.items() if n}
        if any(n < 0 for n in self.dims.values()):
            raise ValueError("negative dimension")
        if labels is None:
            labels = {d: tuple(f"e{d}_{i}" for i in range(n))
                      for d, n in self.dims.items()}
        self._labels = {d: tuple(labels[d]) for d in self.dims}
        for d, n in self.dims.items():
            if len(self._labels[d]) != n:
                raise ValueError(f"label count mismatch in degree {d}")
        self.factors = (self,)

    @classmethod
    def _tensor(cls, dims: dict, atoms: tuple) -> "GradedVectorSpace":
        """Tensor product space of two or more atoms with the given
        dims, its labels left to be built when read."""
        space = cls.__new__(cls)
        space.dims, space.factors, space._labels = dims, atoms, None
        return space

    @property
    def labels(self) -> Mapping[int, tuple]:
        """Degree -> basis labels, as a read-only view."""
        if self._labels is None:
            atoms = [a.labels for a in self.factors]
            tuples = tensor_basis_tuples(self.factors)
            self._labels = {d: tuple(tuple(atoms[k][deg][i]
                                           for k, (deg, i) in enumerate(t))
                                     for t in tuples[d])
                            for d in self.dims}
        return MappingProxyType(self._labels)

    def dim(self, degree: int) -> int:
        return self.dims.get(degree, 0)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def degrees(self) -> list[int]:
        return sorted(self.dims)

    def flat_basis(self) -> list[tuple[int, int]]:
        """(degree, index) pairs, degrees ascending then index."""
        return [(d, i) for d in self.degrees() for i in range(self.dims[d])]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, GradedVectorSpace) or self.dims != other.dims:
            return False
        # equal atoms give equal tensor products; an atom is its own
        # only factor, so this test never recurses
        if len(self.factors) > 1 and self.factors == other.factors:
            return True
        return self.labels == other.labels

    def __hash__(self):
        return hash(tuple(sorted(self.dims.items())))

    def __repr__(self):
        return f"GradedVectorSpace({self.dims})"


def _atoms(factors: Sequence[GradedVectorSpace]) -> tuple:
    out = []
    for f in factors:
        out.extend(f.factors)
    return tuple(out)


class _ByDegree(Mapping):
    """Read-only degree -> value mapping over the given degrees, each
    value built by build(degree) when first read and then kept."""

    def __init__(self, degrees: Mapping, build: Callable):
        self._degrees = degrees
        self._build = build
        self._values: dict = {}

    def __getitem__(self, d):
        v = self._values.get(d)
        if v is None:
            if d not in self._degrees:
                raise KeyError(d)
            v = self._values[d] = self._build(d)
        return v

    def __contains__(self, d):
        return d in self._degrees

    def __iter__(self):
        return iter(self._degrees)

    def __len__(self):
        return len(self._degrees)


class _TensorBasis:
    """Basis of the tensor product of a tuple of atomic factors.

    dims comes from a DP over the atoms' degree counts, with no tuple
    enumerated.  tuples[d], the degree-d basis tuples of per-atom
    (degree, index) pairs in lexicographic order of the flat position
    within each atom, is enumerated when degree d is first read;
    index(d), each degree-d tuple's position, is built when first asked
    for; and the space builds its labels when they are read.  So a
    degree nobody reads costs nothing.  Every value is shared by all
    callers, so none of them may be mutated.
    """

    def __init__(self, atoms: tuple):
        self.atoms = atoms
        # counts[k]: degree -> number of tuples over atoms[k:]
        counts = [{0: 1}]
        for a in reversed(atoms):
            acc: dict[int, int] = {}
            for deg, n in a.dims.items():
                for rest, m in counts[-1].items():
                    acc[deg + rest] = acc.get(deg + rest, 0) + n * m
            counts.append(acc)
        counts.reverse()
        self._suffix_counts = counts[1:]
        self.dims = {d: counts[0][d] for d in sorted(counts[0])}
        self.space = (atoms[0] if len(atoms) == 1 else
                      GradedVectorSpace._tensor(self.dims, atoms))
        self.tuples = _ByDegree(self.dims, self._enumerate)
        self._index: dict[int, dict] = {}

    def _enumerate(self, d: int) -> tuple:
        """The degree-d tuples in order: prefixes grow atom by atom, in
        each atom's flat order, and a prefix is kept only while the
        remaining atoms can make up the rest of degree d."""
        level = [((), d)]
        for a, rest in zip(self.atoms, self._suffix_counts):
            steps = [(deg, [((deg, i),) for i in range(a.dims[deg])])
                     for deg in a.degrees()]
            level = [(prefix + pair, r - deg)
                     for prefix, r in level for deg, pairs in steps
                     if r - deg in rest for pair in pairs]
        return tuple(prefix for prefix, _ in level)

    def index(self, d: int) -> dict:
        """Degree-d basis tuple -> its position (a plain dict)."""
        idx = self._index.get(d)
        if idx is None:
            idx = self._index[d] = {
                t: i for i, t in enumerate(self.tuples[d])}
        return idx


@functools.lru_cache(maxsize=256)
def _tensor_basis(atoms: tuple) -> _TensorBasis:
    """The _TensorBasis of a tuple of atoms, made once per tuple of
    atoms (a bounded cache) and shared by every caller."""
    return _TensorBasis(atoms)


def tensor_spaces(factors: Sequence[GradedVectorSpace]) -> GradedVectorSpace:
    """Tensor product, flattened to atomic factors.

    The degree-d basis consists of all tuples of per-atom flat basis
    elements with total degree d, ordered lexicographically by the flat
    position within each atom.  Bracketing never matters: nested tensor
    products flatten to the same space, and equal atoms give the same
    object.
    """
    return _tensor_basis(_atoms(factors)).space


def tensor_basis_tuples(factors: Sequence[GradedVectorSpace]) -> Mapping:
    """Degree -> ordered tuple of per-atom (degree, index) tuples
    (read-only, shared between calls; a degree's tuples are enumerated
    when first read)."""
    return _tensor_basis(_atoms(factors)).tuples


def tensor_basis_index(factors: Sequence[GradedVectorSpace], d: int) -> dict:
    """Degree-d basis tuple -> its position (shared, never mutated)."""
    return _tensor_basis(_atoms(factors)).index(d)


def tensor_power(space: GradedVectorSpace, n: int) -> GradedVectorSpace:
    """n-fold tensor power; basis labels are ordered n-tuples."""
    if n < 1:
        raise ValueError("tensor_power requires n >= 1")
    if n == 1:
        return space
    return tensor_spaces([space] * n)


class GradedMap:
    """Degree-homogeneous linear map between graded spaces.

    Stored column-major and sparse: columns[k][c][r] is the coefficient
    of target basis vector r (degree k + degree) in the image of source
    basis vector c (degree k).  Only nonzero coefficients are stored; a
    column without one, and a degree without a column, is absent, so
    equal maps have equal columns.  columns is shared, never mutated.

    The constructor from dense blocks, and blocks and block(k), are
    dense adapters for literal matrices and test references; code in
    shalg reads and builds columns.  block(k) is the matrix of the
    degree-k component, mapping the source degree-k basis (columns) to
    the target degree-(k+degree) basis (rows), built when read.
    """

    def __init__(self, source: GradedVectorSpace, target: GradedVectorSpace,
                 degree: int, blocks: Mapping[int, Iterable] = ()):
        """Map from dense blocks {k: rows}; missing blocks are zero."""
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.columns: Columns = {}
        for k, mat in dict(blocks).items():
            k = int(k)
            m = make_matrix(mat, target.dim(k + self.degree), source.dim(k))
            cols = {c: col for c, col in enumerate(_transpose(
                enumerate(_sparse_rows(m)), source.dim(k))) if col}
            if cols:
                self.columns[k] = cols

    @classmethod
    def from_columns(cls, source, target, degree, columns: Columns):
        """Map holding columns as its stored form, without copying:
        nonzero coefficients only, and no empty column or degree."""
        m = cls.__new__(cls)
        m.source, m.target, m.degree = source, target, int(degree)
        m.columns = columns
        return m

    def block(self, k: int) -> Matrix:
        """Dense matrix of the degree-k component."""
        rows = _transpose(self.columns.get(k, {}).items(),
                          self.target.dim(k + self.degree))
        return _dense_rows(rows, self.source.dim(k))

    @property
    def blocks(self) -> dict[int, Matrix]:
        """Dense matrices of the nonzero degree components."""
        return {k: self.block(k) for k in sorted(self.columns)}

    @classmethod
    def zero(cls, source, target, degree):
        return cls.from_columns(source, target, degree, {})

    @classmethod
    def identity(cls, space):
        return cls.from_columns(space, space, 0, {
            d: {i: {i: _ONE} for i in range(n)}
            for d, n in space.dims.items()})

    def is_zero(self) -> bool:
        return not self.columns

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other."""
        if other.target != self.source:
            raise ValueError("composition source/target mismatch")
        out: Columns = {}
        for k, ocols in other.columns.items():
            a = self.columns.get(k + other.degree)
            if a is None:
                continue
            blk = {}
            for c, vec in ocols.items():
                if len(vec) == 1:
                    (r, x), = vec.items()
                    acol = a.get(r)
                    if acol is not None:
                        blk[c] = acol if x == 1 else {
                            i: x * y for i, y in acol.items()}
                    continue
                acc: dict[int, Rational] = {}
                for r, x in vec.items():
                    for i, y in a.get(r, {}).items():
                        acc[i] = acc[i] + x * y if i in acc else x * y
                col = {i: v for i, v in acc.items() if v}
                if col:
                    blk[c] = col
            if blk:
                out[k] = blk
        return GradedMap.from_columns(other.source, self.target,
                                      self.degree + other.degree, out)

    def add(self, other: "GradedMap", c1=1, c2=1) -> "GradedMap":
        return map_sum([self, other], [c1, c2])

    def scale(self, c) -> "GradedMap":
        c = Rational(c)
        if c == 1:
            return self
        return GradedMap.from_columns(
            self.source, self.target, self.degree,
            {k: {j: {i: c * x for i, x in col.items()}
                 for j, col in cols.items()}
             for k, cols in self.columns.items()} if c else {})

    def __eq__(self, other):
        return (isinstance(other, GradedMap)
                and self.source == other.source
                and self.target == other.target
                and self.degree == other.degree
                and self.columns == other.columns)

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.columns))))

    def __repr__(self):
        return (f"GradedMap(degree={self.degree}, "
                f"blocks on {sorted(self.columns)})")


def map_sum(maps: Sequence[GradedMap], coeffs=None) -> GradedMap:
    """Linear combination of maps of one type, with coefficients 1 by
    default."""
    if not maps:
        raise ValueError("empty sum needs an explicit zero map")
    first = maps[0]
    if coeffs is None:
        coeffs = [1] * len(maps)
    out: Columns = {}
    for m, c in zip(maps, coeffs):
        if (m.source != first.source or m.target != first.target
                or m.degree != first.degree):
            raise ValueError("can only add maps of equal type and degree")
        c = Rational(c)
        if not c:
            continue
        for k, cols in m.columns.items():
            blk = out.setdefault(k, {})
            for j, col in cols.items():
                acc = blk.get(j)
                if acc is None:
                    blk[j] = (dict(col) if c == 1 else
                              {i: c * x for i, x in col.items()})
                    continue
                for i, x in col.items():
                    v = x if c == 1 else c * x
                    acc[i] = acc[i] + v if i in acc else v
    return GradedMap.from_columns(first.source, first.target, first.degree,
                                  _drop_zeros(out))


def _drop_zeros(out: Columns) -> Columns:
    """out without its zero entries, empty columns and empty degrees."""
    for k in list(out):
        blk = out[k]
        for j in list(blk):
            col = blk[j]
            if not all(col.values()):
                col = {i: v for i, v in col.items() if v}
                if col:
                    blk[j] = col
                else:
                    del blk[j]
        if not blk:
            del out[k]
    return out


def _chunked_images(m: GradedMap) -> dict:
    """Source basis tuple of m (over its atoms) -> (its degree, the
    nonzero entries of its image as (target basis tuple, coefficient)
    pairs).  Every coefficient equal to 1 is the shared _ONE."""
    src_tuples = _tensor_basis(m.source.factors).tuples
    tgt_tuples = _tensor_basis(m.target.factors).tuples
    out = {}
    for k, cols in m.columns.items():
        tuples, rows = src_tuples[k], tgt_tuples[k + m.degree]
        for c, col in cols.items():
            out[tuples[c]] = (k, [(rows[r], _ONE if x == 1 else x)
                                  for r, x in col.items()])
    return out


def tensor_maps_many(factors: Sequence[GradedMap]) -> GradedMap:
    """Koszul-signed tensor product of graded maps.

    On basis tensors, (f_1 x ... x f_k)(x_1 x ... x x_k) picks up the
    sign (-1)^(sum over i<j of |f_j| |x_i|).  Sources and targets are
    the flat tensor products of the factor sources and targets.  Only
    the nonzero entries of each factor's columns are enumerated, so an
    identity factor costs one entry per column.
    """
    factors = list(factors)
    src = _tensor_basis(_atoms([f.source for f in factors]))
    tgt = _tensor_basis(_atoms([f.target for f in factors]))
    degree = sum(f.degree for f in factors)
    out: Columns = {}
    images = [list(_chunked_images(f).items()) for f in factors]
    indexes: dict = {}  # column degree -> (source, target) positions
    # an odd sign negates the image of one factor, one with an entry
    # other than 1 where there is one, so each of its entries is negated
    # once, not once per output entry
    p = next((q for q, img in enumerate(images)
              if any(x is not _ONE for _, (_, im) in img for _, x in im)), 0)
    negated: dict = {}  # chunk of factor p -> its negated image
    for pick in itertools.product(*images):
        # Koszul sign from moving each f_j past the inputs before it
        sign_exp, before, chunks = 0, 0, []
        for f, (chunk, (k, _)) in zip(factors, pick):
            sign_exp += f.degree * before
            before += k
            chunks.extend(chunk)
        # before is now the column's degree
        index = indexes.get(before)
        if index is None:
            index = indexes[before] = (src.index(before),
                                       tgt.index(before + degree))
        cols, rows = index
        col = cols[tuple(chunks)]
        imgs = [img for _, (_, img) in pick]
        if sign_exp % 2:
            chunk = pick[p][0]
            if chunk not in negated:
                negated[chunk] = [(t, _MINUS_ONE if x is _ONE else -x)
                                  for t, x in imgs[p]]
            imgs[p] = negated[chunk]
        entries = {}
        for terms in itertools.product(*imgs):
            coeff, tup = _ONE, []
            for t, x in terms:
                tup.extend(t)
                if x is not _ONE:
                    coeff = x if coeff is _ONE else coeff * x
            entries[rows[tuple(tup)]] = coeff
        out.setdefault(before, {})[col] = entries
    return GradedMap.from_columns(src.space, tgt.space, degree, out)


class ChainComplex:
    """Graded space with a degree -1 differential squaring to zero."""

    def __init__(self, space: GradedVectorSpace, differential: GradedMap):
        if differential.source != space or differential.target != space:
            raise ValueError("differential must be an endomap of the space")
        if differential.degree != -1:
            raise ValueError("differential must have degree -1")
        sq = differential.compose(differential)
        if not sq.is_zero():
            raise ValueError("differential does not square to zero")
        self.space = space
        self.differential = differential

    @classmethod
    def zero_differential(cls, space):
        return cls(space, GradedMap.zero(space, space, -1))

    def __eq__(self, other):
        return (isinstance(other, ChainComplex)
                and self.space == other.space
                and self.differential == other.differential)

    def __repr__(self):
        return f"ChainComplex({self.space.dims})"


def hom_differential(f: GradedMap, source_factors: Sequence[ChainComplex],
                     target: ChainComplex) -> GradedMap:
    """Differential induced on Hom(tensor of sources, target).

    [f, d] = d_target . f - (-1)^|f| f . d_tensor.  Applying it twice
    gives zero.  The source of f must be the declared tensor product of
    the factor complexes.

    f . d_tensor is built from f's nonzero columns: the column at tuple
    t goes, times x and (-1)^(degree of the chunks before slot i), to
    t with chunk i replaced by each s whose d_i(s) holds x t_i.  Only
    the degrees of f's columns and the degree above each are read.
    """
    basis = _tensor_basis(_atoms([c.space for c in source_factors]))
    if f.source != basis.space:
        raise ValueError("source of f is not the declared tensor product")
    if f.target != target.space:
        raise ValueError("target of f does not match the declared complex")
    if f.is_zero():
        return GradedMap.zero(f.source, target.space, f.degree - 1)
    # per factor, chunk t -> (s, x, -x) for each chunk s with x t in d(s)
    transposed: dict = {}
    slots, hi = [], 0  # (lo, hi, transposed d): slot i is tup[lo:hi]
    for c in source_factors:
        lo, hi = hi, hi + len(c.space.factors)
        if id(c) not in transposed:
            pre = transposed[id(c)] = {}
            for s, (_, img) in _chunked_images(c.differential).items():
                for t, x in img:
                    pre.setdefault(t, []).append((s, x, -x))
        slots.append((lo, hi, transposed[id(c)]))
    out = {k: {j: dict(col) for j, col in cols.items()}
           for k, cols in target.differential.compose(f).columns.items()}
    # with every d_i zero there is nothing to push, and nothing is read
    for k, cols in f.columns.items() if any(transposed.values()) else ():
        if k + 1 not in basis.dims:
            continue  # no tuple of degree k + 1 to push a column to
        tuples, index = basis.tuples[k], basis.index(k + 1)
        blk = out.setdefault(k + 1, {})
        for c, col in cols.items():
            tup = tuples[c]
            # -(-1)^|f| times the Koszul sign of the chunks before slot i
            before = f.degree + 1
            for lo, hi, pre in slots:
                chunk = tup[lo:hi]
                for s, x, minus_x in pre.get(chunk, ()):
                    acc = blk.setdefault(index[tup[:lo] + s + tup[hi:]], {})
                    coeff = minus_x if before % 2 else x
                    for r, y in col.items():
                        v = coeff * y
                        acc[r] = acc[r] + v if r in acc else v
                before += sum(deg for deg, _ in chunk)
    return GradedMap.from_columns(f.source, target.space, f.degree - 1,
                                  _drop_zeros(out))


def homotopy_residual(h: GradedMap, a: GradedMap, b: GradedMap,
                      source: ChainComplex, target: ChainComplex) -> GradedMap:
    """[h, d] - (b - a) for maps a, b: source -> target and h of one
    degree higher; zero exactly when h is a homotopy from a to b."""
    return map_sum([hom_differential(h, [source], target), b, a], [1, -1, 1])


class HomologyData:
    """Canonical strong deformation retract of a complex onto its homology,
    and the splitting of the complex it is built from.

    Satisfies projection . inclusion = 1, inclusion . projection - 1 =
    [splitting_homotopy, d], d = 0 on the image of the inclusion, and
    the three side conditions phi phi = 0, phi . inclusion = 0,
    projection . phi = 0.

    The splitting: in degree k the columns of basis.columns[k] are, in
    order, counts[k][0] boundaries (the columns of d_{k+1} at
    pivots[k + 1]), counts[k][1] harmonic cycles (the columns of the
    inclusion), and counts[k][2] preimages (the unit vectors at
    pivots[k], the leftmost pivot columns of d_k; d takes the p-th
    preimage to the p-th boundary of degree k - 1).  coords is the
    inverse of basis, taking a vector to its split coordinates; both
    are degree-0 endomaps of the complex's space.
    """

    def __init__(self, complex: ChainComplex, homology: GradedVectorSpace,
                 inclusion: GradedMap, projection: GradedMap,
                 splitting_homotopy: GradedMap, basis: GradedMap,
                 coords: GradedMap, counts: dict, pivots: dict):
        self.complex = complex
        self.homology = homology
        self.inclusion = inclusion
        self.projection = projection
        self.splitting_homotopy = splitting_homotopy
        self.basis = basis
        self.coords = coords
        self.counts = counts
        self.pivots = pivots


def graded_inverse(m: GradedMap) -> GradedMap | None:
    """Inverse of m, or None unless m has degree 0, its source and
    target have equal dimensions in every degree, and every block is
    invertible.  Each block is inverted by one elimination: its T."""
    if m.degree or m.source.dims != m.target.dims:
        return None
    out: Columns = {}
    for k, n in m.source.dims.items():
        _, t, pivots = _rref_rows(_transpose(m.columns.get(k, {}).items(),
                                             n))
        if len(pivots) != n:
            return None
        out[k] = dict(enumerate(_transpose(enumerate(t), n)))
    return GradedMap.from_columns(m.target, m.source, 0, out)


def _split_coordinate_map(source: GradedVectorSpace,
                          target: GradedVectorSpace, source_counts: Mapping,
                          target_counts: Mapping,
                          harmonic: GradedMap) -> GradedMap:
    """Degree-0 map between split coordinates (see HomologyData): the
    p-th boundary and the p-th preimage coordinate of the source go to
    the p-th ones of the target while p is below both counts, the rest
    of them to zero, and the harmonic coordinates go through harmonic, a
    map between the harmonic parts."""
    out: Columns = {}
    for k, (sb, sh, st) in source_counts.items():
        tb, th, tt = target_counts.get(k, (0, 0, 0))
        cols = {p: {p: _ONE} for p in range(min(sb, tb))}
        for q, vec in harmonic.columns.get(k, {}).items():
            cols[sb + q] = {tb + p: x for p, x in vec.items()}
        for p in range(min(st, tt)):
            cols[sb + sh + p] = {tb + th + p: _ONE}
        if cols:
            out[k] = cols
    return GradedMap.from_columns(source, target, 0, out)


def _split_contraction(space: GradedVectorSpace, counts: Mapping,
                       keep: Mapping) -> GradedMap:
    """Degree +1 map on split coordinates taking the p-th boundary
    coordinate of degree k, for p from keep.get(k, 0) on, to minus the
    p-th preimage coordinate of degree k + 1 (whose image under d is
    that boundary), and every other coordinate to zero."""
    out: Columns = {}
    for k, (nb, _, _) in counts.items():
        if nb > keep.get(k, 0):
            ub, uh, _ = counts[k + 1]
            out[k] = {p: {ub + uh + p: -_ONE}
                      for p in range(keep.get(k, 0), nb)}
    return GradedMap.from_columns(space, space, 1, out)


def homology_with_splitting(c: ChainComplex) -> HomologyData:
    """Homology with explicit splitting witnesses.

    Decomposes each degree as boundaries + harmonic representatives +
    a complement mapped isomorphically onto lower boundaries, using
    row reduction with leftmost pivots throughout, so the output is
    deterministic.
    """
    space, d = c.space, c.differential.columns
    degs = space.degrees()
    # d_k in reduced form; with nothing below, d_k is 0 and all is kernel
    reduced = {k: _rref_rows(_transpose(d.get(k, {}).items(),
                                        space.dim(k - 1)))
               if space.dim(k - 1) else ([], [], []) for k in degs}
    pivots = {k: red[2] for k, red in reduced.items()}
    counts: dict[int, tuple[int, int, int]] = {}
    basis_cols: Columns = {}
    for k in degs:
        n = space.dim(k)
        bound = [d[k + 1][j] for j in pivots.get(k + 1, [])]
        kern = _null_space(reduced[k][0], pivots[k], n)
        # Extend the boundary basis to the kernel: the leftmost pivot
        # columns of [bound | kern] are the greedy leftmost selection,
        # and take every boundary, as those are independent.  Without
        # boundaries, the kernel basis is itself the selection.
        reps = kern
        if bound and kern:
            picked = _rref_rows(_transpose(enumerate(bound + kern), n))[2]
            reps = [kern[j - len(bound)] for j in picked if j >= len(bound)]
        units = [{j: _ONE} for j in pivots[k]]
        cols = bound + reps + units
        if len(cols) != n:
            raise AssertionError("degreewise decomposition dimension mismatch")
        counts[k] = (len(bound), len(reps), len(units))
        basis_cols[k] = dict(enumerate(cols))

    homology = GradedVectorSpace(
        {k: nh for k, (_, nh, _) in counts.items()},
        {k: tuple(f"h{k}_{i}" for i in range(nh))
         for k, (_, nh, _) in counts.items() if nh})
    basis = GradedMap.from_columns(space, space, 0, basis_cols)
    coords = graded_inverse(basis)
    if coords is None:
        raise AssertionError("decomposition columns are not a basis")
    out = HomologyData(c, homology, None, None, None, basis, coords, counts,
                       pivots)
    ident = GradedMap.identity(homology)
    trivial = HomologyData(
        ChainComplex.zero_differential(homology), homology, ident, ident,
        GradedMap.zero(homology, homology, 1), ident, ident,
        {k: (0, n, 0) for k, n in homology.dims.items()}, {})
    out.inclusion, out.projection, out.splitting_homotopy = split_retract(
        out, trivial, ident, ident)
    return out


def split_retract(big: HomologyData, small: HomologyData, alpha: GradedMap,
                  alpha_inv: GradedMap):
    """Retract (nabla, f, phi) of big's complex onto small's, assembled
    from their splittings; alpha maps H(small) to H(big) and alpha_inv
    back.  In split coordinates, nabla and f pair the first boundaries
    and preimages of the two sides and map the harmonic parts by alpha
    and alpha_inv; phi contracts the boundaries of big left unpaired, so
    the three side conditions hold.  None when small has more preimages
    than big in some degree."""
    if any(nt > big.counts.get(k, (0, 0, 0))[2]
           for k, (_, _, nt) in small.counts.items()):
        return None
    B, S = big.complex.space, small.complex.space
    nabla = big.basis.compose(_split_coordinate_map(
        S, B, small.counts, big.counts, alpha)).compose(small.coords)
    f = small.basis.compose(_split_coordinate_map(
        B, S, big.counts, small.counts, alpha_inv)).compose(big.coords)
    paired = {k: nb for k, (nb, _, _) in small.counts.items()}
    phi = big.basis.compose(_split_contraction(
        B, big.counts, paired)).compose(big.coords)
    return nabla, f, phi


class LinearSolveResult:
    """Outcome of an exact linear solve over map entries.

    Either a solution GradedMap, or an inconsistency certificate: a
    linear functional (per-degree row vector over the equation blocks)
    annihilating the operator's image but not the right-hand side.
    """

    def __init__(self, solution=None, certificate=None):
        self.solution = solution
        self.certificate = certificate

    @property
    def consistent(self) -> bool:
        return self.solution is not None


def solve_map_equation(operator: Callable[[GradedMap], GradedMap],
                       rhs: GradedMap,
                       unknown_source: GradedVectorSpace,
                       unknown_target: GradedVectorSpace,
                       unknown_degree: int) -> LinearSolveResult:
    """Solve operator(x) = rhs for a graded map x of the given type.

    The operator must be linear in x.  The solution is the minimal
    (reduced row echelon, leftmost pivot, free variables zero) one, so
    output is deterministic.  Inconsistency yields a certificate.
    """
    def entries(source, target, degree):
        """(degree, row, col) of each entry of a map of the given type."""
        return [(k, r, cc) for k in source.degrees()
                for r in range(target.dim(k + degree))
                for cc in range(source.dim(k))]

    variables = entries(unknown_source, unknown_target, unknown_degree)
    eq_rows = entries(rhs.source, rhs.target, rhs.degree)
    eq_index = {e: i for i, e in enumerate(eq_rows)}

    def flatten(m: GradedMap) -> dict:
        """Sparse vector of m's entries over eq_rows."""
        return {eq_index[(k, r, cc)]: x for k, cols in m.columns.items()
                for cc, col in cols.items() for r, x in col.items()}

    rows: list[dict] = [{} for _ in eq_rows]
    for j, (k, r, cc) in enumerate(variables):
        unit = GradedMap.from_columns(unknown_source, unknown_target,
                                      unknown_degree, {k: {cc: {r: _ONE}}})
        for i, x in flatten(operator(unit)).items():
            rows[i][j] = x
    status, payload = solve_matrix(rows, len(variables), flatten(rhs))
    if status == "solution":
        cols: Columns = {}
        for j in sorted(payload):
            k, r, cc = variables[j]
            cols.setdefault(k, {}).setdefault(cc, {})[r] = payload[j]
        return LinearSolveResult(solution=GradedMap.from_columns(
            unknown_source, unknown_target, unknown_degree, cols))
    return LinearSolveResult(
        certificate={eq_rows[i]: payload[i] for i in sorted(payload)})
