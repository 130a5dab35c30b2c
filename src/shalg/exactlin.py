"""Exact rational graded linear algebra.

Graded vector spaces over Q with a homological Z-grading, graded maps
stored as sparse exact rational columns per degree, chain complexes
with a degree -1 differential, homology with explicit splitting data,
and a certified linear solver.  Everything is a plain immutable value;
no floating point is used anywhere.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence


Matrix = tuple[tuple[Fraction, ...], ...]
# degree k -> source column -> target row -> nonzero coefficient
Columns = dict[int, dict[int, dict[int, Fraction]]]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(x)


def make_matrix(rows: Iterable[Iterable], nrows: int, ncols: int) -> Matrix:
    m = tuple(tuple(_frac(x) for x in row) for row in rows)
    if len(m) != nrows or any(len(row) != ncols for row in m):
        raise ValueError(f"expected a {nrows}x{ncols} matrix, got {m!r}")
    return m


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Dense matrix product (a reference; graded maps multiply sparsely)."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch in product")
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
              for j in range(len(b[0]) if b else 0))
        for i in range(len(a))
    )


def mat_add(a: Matrix, b: Matrix, ca=1, cb=1) -> Matrix:
    """Dense ca a + cb b (a reference; graded maps add sparsely)."""
    ca, cb = _frac(ca), _frac(cb)
    return tuple(
        tuple(ca * a[i][j] + cb * b[i][j] for j in range(len(a[i])))
        for i in range(len(a))
    )


def rref(a: Matrix) -> tuple[Matrix, Matrix, list[int]]:
    """Reduced row echelon form with leftmost pivots.

    Returns (R, T, pivots) with T a = R, T invertible, and pivots the
    pivot column indices in order.  Fully deterministic.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    m = [list(row) for row in a]
    t = [list(row) for row in identity_matrix(nrows)]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            t[r], t[pr] = t[pr], t[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        t[r] = [x / piv for x in t[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
                t[i] = [x - f * y for x, y in zip(t[i], t[r])]
        pivots.append(c)
        r += 1
    return (tuple(tuple(row) for row in m),
            tuple(tuple(row) for row in t),
            pivots)


def mat_rank(a: Matrix) -> int:
    return len(rref(a)[2])


def kernel_basis(a: Matrix) -> list[tuple[Fraction, ...]]:
    """Deterministic basis of the right null space, one vector per free column."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if nrows == 0:
        return [tuple(Fraction(1 if i == j else 0) for i in range(ncols))
                for j in range(ncols)]
    r, _, pivots = rref(a)
    pivot_set = set(pivots)
    basis = []
    for c in range(ncols):
        if c in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -r[row_idx][c]
        basis.append(tuple(v))
    return basis


def solve_matrix(a: Matrix, b: Sequence[Fraction]):
    """Solve a x = b exactly.

    Returns ("solution", x) with free variables set to zero (leftmost
    pivots), or ("inconsistent", y) with a certificate row vector y
    satisfying y a = 0 and y b != 0.
    """
    nrows = len(a)
    b = tuple(_frac(x) for x in b)
    if len(b) != nrows:
        raise ValueError("right-hand side length mismatch")
    r, t, pivots = rref(a)
    tb = tuple(sum((t[i][j] * b[j] for j in range(nrows)), Fraction(0))
               for i in range(nrows))
    ncols = len(a[0]) if nrows else 0
    for i in range(len(pivots), nrows):
        if tb[i] != 0:
            return ("inconsistent", t[i])
    x = [Fraction(0)] * ncols
    for row_idx, pc in enumerate(pivots):
        x[pc] = tb[row_idx]
    return ("solution", tuple(x))


class GradedVectorSpace:
    """Finite-dimensional Z-graded Q-vector space with labeled bases.

    factors records the atomic tensor factors when the space was built
    as a tensor product; tensor products always flatten to atomic
    factors so that basis ordering never depends on bracketing.
    """

    def __init__(self, dims: Mapping[int, int], labels=None, factors=None):
        self.dims = {int(d): int(n) for d, n in dims.items() if n}
        if any(n < 0 for n in self.dims.values()):
            raise ValueError("negative dimension")
        if labels is None:
            labels = {d: tuple(f"e{d}_{i}" for i in range(n))
                      for d, n in self.dims.items()}
        self.labels = {d: tuple(labels[d]) for d in self.dims}
        for d, n in self.dims.items():
            if len(self.labels[d]) != n:
                raise ValueError(f"label count mismatch in degree {d}")
        self.factors = tuple(factors) if factors is not None else (self,)

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
        return (isinstance(other, GradedVectorSpace)
                and self.dims == other.dims and self.labels == other.labels)

    def __hash__(self):
        return hash(tuple(sorted((d, self.labels[d]) for d in self.dims)))

    def __repr__(self):
        return f"GradedVectorSpace({self.dims})"


ZERO_SPACE = GradedVectorSpace({})


def _atoms(factors: Sequence[GradedVectorSpace]) -> tuple:
    out = []
    for f in factors:
        out.extend(f.factors)
    return tuple(out)


@functools.lru_cache(maxsize=256)
def _tensor_basis(atoms: tuple):
    """(space, degree -> basis tuples, basis tuple -> (degree, index))
    of the tensor product of the atomic factors, computed once per
    tuple of atoms; every value is shared by all callers, so none of
    them may be mutated."""
    tuples: dict[int, list] = {}
    for combo in itertools.product(*[a.flat_basis() for a in atoms]):
        tuples.setdefault(sum(deg for deg, _ in combo), []).append(combo)
    tuples = {d: tuple(ts) for d, ts in tuples.items()}
    index = {t: (d, i) for d, ts in tuples.items() for i, t in enumerate(ts)}
    if len(atoms) == 1:
        space = atoms[0]
    else:
        labels = {d: tuple(tuple(atoms[k].labels[deg][i]
                                 for k, (deg, i) in enumerate(t))
                           for t in ts)
                  for d, ts in tuples.items()}
        space = GradedVectorSpace({d: len(ts) for d, ts in tuples.items()},
                                  labels, factors=atoms)
    return space, MappingProxyType(tuples), MappingProxyType(index)


def tensor_spaces(factors: Sequence[GradedVectorSpace]) -> GradedVectorSpace:
    """Tensor product, flattened to atomic factors.

    The degree-d basis consists of all tuples of per-atom flat basis
    elements with total degree d, ordered lexicographically by the flat
    position within each atom.  Bracketing never matters: nested tensor
    products flatten to the same space, and equal atoms give the same
    object.
    """
    return _tensor_basis(_atoms(factors))[0]


def tensor_basis_tuples(factors: Sequence[GradedVectorSpace]) -> Mapping:
    """Degree -> ordered tuple of per-atom (degree, index) tuples
    (read-only, shared between calls)."""
    return _tensor_basis(_atoms(factors))[1]


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

    blocks and block(k) are dense views, built when read: block(k) is
    the matrix of the degree-k component, mapping the source degree-k
    basis (columns) to the target degree-(k+degree) basis (rows).
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
            cols: dict[int, dict[int, Fraction]] = {}
            for r, row in enumerate(m):
                for c, x in enumerate(row):
                    if x:
                        cols.setdefault(c, {})[r] = x
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
        rows = [[_ZERO] * self.source.dim(k)
                for _ in range(self.target.dim(k + self.degree))]
        for c, col in self.columns.get(k, {}).items():
            for r, x in col.items():
                rows[r][c] = x
        return tuple(tuple(row) for row in rows)

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
                acc: dict[int, Fraction] = {}
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
        c = _frac(c)
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
        c = _frac(c)
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
    return GradedMap.from_columns(first.source, first.target, first.degree,
                                  out)


def _chunked_images(m: GradedMap) -> dict:
    """Source basis tuple of m (over its atoms) -> (its degree, the
    nonzero entries of its image as (target basis tuple, coefficient)
    pairs).  Every coefficient equal to 1 is the shared _ONE."""
    _, src_tuples, _ = _tensor_basis(m.source.factors)
    _, tgt_tuples, _ = _tensor_basis(m.target.factors)
    out = {}
    for k, cols in m.columns.items():
        rows = tgt_tuples[k + m.degree]
        for c, col in cols.items():
            out[src_tuples[k][c]] = (k, [(rows[r], _ONE if x == 1 else x)
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
    source, _, src_index = _tensor_basis(_atoms([f.source for f in factors]))
    target, _, tgt_index = _tensor_basis(_atoms([f.target for f in factors]))
    degree = sum(f.degree for f in factors)
    out: Columns = {}
    images = [list(_chunked_images(f).items()) for f in factors]
    for pick in itertools.product(*images):
        # Koszul sign from moving each f_j past the inputs before it
        sign_exp, before, chunks = 0, 0, []
        for f, (chunk, (k, _)) in zip(factors, pick):
            sign_exp += f.degree * before
            before += k
            chunks.extend(chunk)
        d, col = src_index[tuple(chunks)]
        entries = {}
        for terms in itertools.product(*[img for _, (_, img) in pick]):
            coeff, tup = _ONE, []
            for t, x in terms:
                tup.extend(t)
                if x is not _ONE:
                    coeff = x if coeff is _ONE else coeff * x
            entries[tgt_index[tuple(tup)][1]] = (-coeff if sign_exp % 2
                                                 else coeff)
        out.setdefault(d, {})[col] = entries
    return GradedMap.from_columns(source, target, degree, out)


def tensor_maps(f: GradedMap, g: GradedMap) -> GradedMap:
    return tensor_maps_many([f, g])


def _tensor_differential(complexes: Sequence["ChainComplex"]) -> GradedMap:
    """Differential on the tensor product of the complexes: the sum of
    1 x..x d_i x..x 1 with Koszul signs, built column by column.  Term i
    changes only the i-th chunk of a basis tuple, so the terms never
    meet on one entry."""
    space, _, index = _tensor_basis(_atoms([c.space for c in complexes]))
    widths = [len(c.space.factors) for c in complexes]
    images = [_chunked_images(c.differential) for c in complexes]
    out: Columns = {}
    for tup, (d, col) in index.items():
        entries = {}
        pos, before = 0, 0
        for w, img in zip(widths, images):
            chunk = tup[pos:pos + w]
            for t, x in img.get(chunk, (0, ()))[1]:
                row = index[tup[:pos] + t + tup[pos + w:]][1]
                entries[row] = -x if before % 2 else x
            before += sum(deg for deg, _ in chunk)
            pos += w
        if entries:
            out.setdefault(d, {})[col] = entries
    return GradedMap.from_columns(space, space, -1, out)


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
        self._tensor_differentials: dict[int, GradedMap] = {}

    @classmethod
    def zero_differential(cls, space):
        return cls(space, GradedMap.zero(space, space, -1))

    def tensor_power_differential(self, n: int) -> GradedMap:
        """Differential on space^(x n): sum of 1 x..x d x..x 1 with Koszul
        signs, built once per n."""
        if n < 1:
            raise ValueError("n >= 1 required")
        if n == 1:
            return self.differential
        if n not in self._tensor_differentials:
            self._tensor_differentials[n] = _tensor_differential([self] * n)
        return self._tensor_differentials[n]

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
    """
    if f.source != tensor_spaces([c.space for c in source_factors]):
        raise ValueError("source of f is not the declared tensor product")
    if f.target != target.space:
        raise ValueError("target of f does not match the declared complex")
    first = source_factors[0]
    if all(c is first for c in source_factors):
        d_tensor = first.tensor_power_differential(len(source_factors))
    else:
        d_tensor = _tensor_differential(source_factors)
    sign = -1 if f.degree % 2 else 1
    return target.differential.compose(f).add(f.compose(d_tensor), 1, -sign)


class HomologyData:
    """Canonical strong deformation retract of a complex onto its homology.

    Satisfies projection . inclusion = 1, inclusion . projection - 1 =
    [splitting_homotopy, d], d = 0 on the image of the inclusion, and
    the three side conditions phi phi = 0, phi . inclusion = 0,
    projection . phi = 0.
    """

    def __init__(self, complex: ChainComplex, homology: GradedVectorSpace,
                 inclusion: GradedMap, projection: GradedMap,
                 splitting_homotopy: GradedMap):
        self.complex = complex
        self.homology = homology
        self.inclusion = inclusion
        self.projection = projection
        self.splitting_homotopy = splitting_homotopy


def homology_with_splitting(c: ChainComplex) -> HomologyData:
    """Homology with explicit splitting witnesses.

    Decomposes each degree as boundaries + harmonic representatives +
    a complement mapped isomorphically onto lower boundaries, using
    row reduction with leftmost pivots throughout, so the output is
    deterministic.
    """
    space = c.space
    degs = space.degrees()
    # Per degree: columns spanning boundaries B_k, chosen preimage columns
    # A_{k+1} (standard basis vectors at pivot columns of d_{k+1}).
    bound: dict[int, list] = {}      # degree -> list of boundary column vectors
    pre: dict[int, list[int]] = {}   # degree k -> pivot column indices in C_{k+1}
    for k in degs:
        dmat = c.differential.block(k + 1)  # C_{k+1} -> C_k
        if not dmat or not dmat[0]:
            bound[k], pre[k] = [], []
            continue
        _, _, pivots = rref(dmat)
        bound[k] = [tuple(dmat[r][j] for r in range(len(dmat))) for j in pivots]
        pre[k] = list(pivots)

    hom_dims: dict[int, int] = {}
    hom_reps: dict[int, list] = {}
    for k in degs:
        n = space.dim(k)
        dmat = c.differential.block(k)
        if space.dim(k - 1) == 0:
            kern = [tuple(Fraction(1 if i == j else 0) for i in range(n))
                    for j in range(n)]
        else:
            kern = kernel_basis(dmat)
        # Extend the boundary basis to the kernel: greedy leftmost selection.
        chosen = list(bound[k])
        reps = []
        for v in kern:
            cand = chosen + [v]
            mat = tuple(tuple(col[i] for col in cand) for i in range(n))
            if mat_rank(mat) == len(cand):
                chosen.append(v)
                reps.append(v)
        hom_reps[k] = reps
        hom_dims[k] = len(reps)

    homology = GradedVectorSpace(
        hom_dims, {k: tuple(f"h{k}_{i}" for i in range(hom_dims[k]))
                   for k in hom_dims if hom_dims[k]})

    incl_blocks, proj_blocks, phi_blocks = {}, {}, {}
    for k in degs:
        n = space.dim(k)
        a_cols = [tuple(Fraction(1 if i == j else 0) for i in range(n))
                  for j in pre.get(k - 1, [])]
        cols = bound[k] + hom_reps[k] + a_cols
        if len(cols) != n:
            raise AssertionError("degreewise decomposition dimension mismatch")
        nb, nh = len(bound[k]), len(hom_reps[k])
        if n == 0:
            continue
        p_mat = tuple(tuple(col[i] for col in cols) for i in range(n))
        # Invert the change of basis exactly.
        _, t, pivots = rref(p_mat)
        if len(pivots) != n:
            raise AssertionError("decomposition columns are not a basis")
        p_inv = t
        if hom_dims.get(k, 0):
            incl_blocks[k] = tuple(tuple(hom_reps[k][j][i] for j in range(nh))
                                   for i in range(n))
            proj_blocks[k] = tuple(p_inv[nb + j] for j in range(nh))
        # phi on boundaries: minus the chosen preimage in C_{k+1}.
        if nb:
            nk1 = space.dim(k + 1)
            mat = [[Fraction(0)] * n for _ in range(nk1)]
            for j in range(nb):
                src_col = pre[k][j]
                for i in range(nk1):
                    for col in range(n):
                        mat[i][col] += (-Fraction(1) if i == src_col else
                                        Fraction(0)) * p_inv[j][col]
            phi_blocks[k] = mat

    inclusion = GradedMap(homology, space, 0, incl_blocks)
    projection = GradedMap(space, homology, 0, proj_blocks)
    phi = GradedMap(space, space, 1, phi_blocks)
    return HomologyData(c, homology, inclusion, projection, phi)


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
    variables = []  # (degree, row, col)
    for k in unknown_source.degrees():
        ns = unknown_source.dim(k)
        nt = unknown_target.dim(k + unknown_degree)
        for r in range(nt):
            for cc in range(ns):
                variables.append((k, r, cc))

    def from_vector(vec):
        cols: Columns = {}
        for (k, r, cc), val in zip(variables, vec):
            if val:
                cols.setdefault(k, {}).setdefault(cc, {})[r] = val
        return GradedMap.from_columns(unknown_source, unknown_target,
                                      unknown_degree, cols)

    eq_rows = []  # (degree, row, col) of equation entries
    for k in rhs.source.degrees():
        nt = rhs.target.dim(k + rhs.degree)
        ns = rhs.source.dim(k)
        for r in range(nt):
            for cc in range(ns):
                eq_rows.append((k, r, cc))
    eq_index = {e: i for i, e in enumerate(eq_rows)}

    def flatten(m: GradedMap):
        vec = [_ZERO] * len(eq_rows)
        for k, cols in m.columns.items():
            for cc, col in cols.items():
                for r, x in col.items():
                    vec[eq_index[(k, r, cc)]] = x
        return vec

    base = flatten(operator(GradedMap.zero(unknown_source, unknown_target,
                                           unknown_degree)))
    columns = []
    for k, r, cc in variables:
        unit = GradedMap.from_columns(unknown_source, unknown_target,
                                      unknown_degree, {k: {cc: {r: _ONE}}})
        columns.append([a - b for a, b in zip(flatten(operator(unit)), base)])
    amat = tuple(tuple(columns[j][i] for j in range(len(variables)))
                 for i in range(len(eq_rows)))
    bvec = [a - b for a, b in zip(flatten(rhs), base)]
    status, payload = solve_matrix(amat, bvec)
    if status == "solution":
        return LinearSolveResult(solution=from_vector(payload))
    cert = {eq_rows[i]: payload[i] for i in range(len(eq_rows)) if payload[i]}
    return LinearSolveResult(certificate=cert)
