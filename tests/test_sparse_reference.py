"""Sparse kernels against their dense references.

Every operation on GradedMap is recomputed here from the dense blocks
the map was built from, with mat_mul, mat_add and a Kronecker product
over flat bases, and the dense views of the result must agree exactly.
The sparse-row rref must return the (R, T, pivots) of the dense
Gauss-Jordan loop kept here, entry for entry, and the integer rank
kernel must count its pivots.  graded_inverse must return the dense
loop's T of each block, and solve_map_equation the solutions and
certificates of the dense solver it replaced, kept here on that loop.
"""

import itertools
import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from shalg import serialize
from shalg.cli import _map_witness
from shalg.exactlin import (
    ChainComplex,
    GradedMap,
    GradedVectorSpace,
    LinearSolveResult,
    Rational,
    graded_inverse,
    hom_differential,
    kernel_basis,
    make_matrix,
    map_sum,
    mat_rank,
    rref,
    solve_map_equation,
    tensor_maps_many,
    tensor_spaces,
)
from test_transfer import random_chain_complex

DEGREES = (-1, 0, 1, 2)
ENTRIES = (0, 0, 0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-2, 3))
COEFFICIENTS = (0, 1, -1, 2, Fraction(3, 2))
SCALINGS = (1, -1, 2, 3, 6, Fraction(1, 3), Fraction(-5, 2))
SETTINGS = settings(max_examples=40, deadline=None)
# a seeded stream: uniform draws, where hypothesis would favour zeros
rngs = st.integers(0, 2 ** 32 - 1).map(random.Random)


def sparse_rows(a):
    """The rows of a dense matrix as {column: nonzero} dicts."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def zeros(nrows, ncols):
    return tuple((Fraction(0),) * ncols for _ in range(nrows))


def identity_matrix(n):
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n))
                 for i in range(n))


def mat_mul(a, b):
    """Dense matrix product."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch in product")
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
              for j in range(len(b[0]) if b else 0))
        for i in range(len(a)))


def mat_add(a, b, ca=1, cb=1):
    """Dense ca a + cb b."""
    ca, cb = Fraction(ca), Fraction(cb)
    return tuple(tuple(ca * a[i][j] + cb * b[i][j] for j in range(len(a[i])))
                 for i in range(len(a)))


def random_space(rng):
    """Dims may be 0, so spaces get gaps and maps get empty degrees."""
    return GradedVectorSpace({d: rng.choice((0, 1, 1, 2, 2))
                              for d in rng.sample(DEGREES, rng.randint(1, 3))})


def random_degree(rng, source, target):
    """Mostly a degree under which some source degree meets a target
    degree, so that the map can be nonzero."""
    meeting = sorted({b - a for a in source.dims for b in target.dims})
    if meeting and rng.random() < 0.9:
        return rng.choice(meeting)
    return rng.randint(-2, 2)


def random_map(rng, source, target, degree):
    """(map, its dense blocks as given); sometimes the zero map."""
    blocks = {}
    if rng.random() < 0.9:
        for k in source.degrees():
            nr, nc = target.dim(k + degree), source.dim(k)
            if nr:
                blocks[k] = [[rng.choice(ENTRIES) for _ in range(nc)]
                             for _ in range(nr)]
    return GradedMap(source, target, degree, blocks), blocks


def random_typed_map(rng):
    s, t = random_space(rng), random_space(rng)
    deg = random_degree(rng, s, t)
    return (s, t, deg) + random_map(rng, s, t, deg)


def stored(blocks, source, target, degree):
    """The nonzero dense blocks, as the dense representation stored them."""
    out = {}
    for k, mat in blocks.items():
        m = make_matrix(mat, target.dim(k + degree), source.dim(k))
        if any(x for row in m for x in row):
            out[k] = m
    return out


def view(dense, source, target, degree, k):
    return dense.get(k, zeros(target.dim(k + degree), source.dim(k)))


def ref_compose(a, a_spaces, b, b_spaces):
    """Dense blocks of a after b; *_spaces are (source, target, degree)."""
    (bs, _, bd), (_, at, ad) = b_spaces, a_spaces
    out = {}
    for k in bs.degrees():
        nrows, ncols = at.dim(k + bd + ad), bs.dim(k)
        lhs, rhs = view(a, *a_spaces, k + bd), view(b, *b_spaces, k)
        out[k] = mat_mul(lhs, rhs) if rhs else zeros(nrows, ncols)
    return stored(out, bs, at, ad + bd)


def ref_sum(terms, source, target, degree):
    """Dense blocks of sum c * m over (dense m, c) terms."""
    acc = {k: zeros(target.dim(k + degree), source.dim(k))
           for k in source.degrees()}
    for dense, c in terms:
        acc = {k: mat_add(acc[k], view(dense, source, target, degree, k),
                          1, c)
               for k in acc}
    return stored(acc, source, target, degree)


def flat_matrix(dense, source, target, degree):
    """Matrix over the flat bases of source and target, all degrees."""
    rows = {b: i for i, b in enumerate(target.flat_basis())}
    out = [[Fraction(0)] * source.total_dim for _ in rows]
    for j, (k, c) in enumerate(source.flat_basis()):
        blk = view(dense, source, target, degree, k)
        for r in range(target.dim(k + degree)):
            out[rows[(k + degree, r)]][j] = blk[r][c]
    return out


def kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def ref_tensor(factors):
    """Dense blocks of the Koszul-signed tensor product of (dense,
    source, target, degree) factors over atomic spaces: the Kronecker
    product of flat matrices, signed per source column and regraded."""
    big = [[Fraction(1)]]
    for f in factors:
        big = kron(big, flat_matrix(*f))
    src_basis = list(itertools.product(*[f[1].flat_basis() for f in factors]))
    tgt_basis = list(itertools.product(*[f[2].flat_basis() for f in factors]))
    degree = sum(f[3] for f in factors)
    out = {}
    for d in {sum(x for x, _ in t) for t in src_basis}:
        cols = [j for j, t in enumerate(src_basis)
                if sum(x for x, _ in t) == d]
        rows = [i for i, t in enumerate(tgt_basis)
                if sum(x for x, _ in t) == d + degree]
        mat = []
        for i in rows:
            row = []
            for j in cols:
                t = src_basis[j]
                exp = sum(factors[q][3] * t[p][0]
                          for q in range(len(factors)) for p in range(q))
                row.append(big[i][j] * (-1) ** (exp % 2))
            mat.append(row)
        out[d] = mat
    source = tensor_spaces([f[1] for f in factors])
    target = tensor_spaces([f[2] for f in factors])
    return stored(out, source, target, degree)


def random_complex(rng):
    """Random complex: each differential block has columns in the
    kernel of the block one degree below."""
    space = random_space(rng)
    blocks = {}
    for k in sorted(space.dims):
        nr, nc = space.dim(k - 1), space.dim(k)
        if not nr:
            continue
        below = blocks.get(k - 1)
        ker = (kernel_basis(make_matrix(below, len(below), nr)) if below
               else [tuple(Fraction(int(i == j)) for i in range(nr))
                     for j in range(nr)])
        weights = [[rng.randint(-2, 2) for _ in ker] for _ in range(nc)]
        blocks[k] = [[sum(w * v[i] for w, v in zip(weights[j], ker))
                      for j in range(nc)] for i in range(nr)]
    d = GradedMap(space, space, -1, blocks)
    return ChainComplex(space, d), stored(blocks, space, space, -1)


def dense_rref(a):
    """Dense Gauss-Jordan elimination with leftmost pivots: the
    reference for rref, rewriting every entry of every row it touches."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    m = [list(row) for row in a]
    t = [list(row) for row in identity_matrix(nrows)]
    pivots = []
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


def random_rational_matrix(rng):
    """Up to 7 x 7, with zero rows, zero columns and rows that combine
    earlier ones, so the rank often falls below the row count; 0 rows
    now and then."""
    nrows, ncols = rng.randint(0, 7), rng.randint(1, 7)
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            row = [0] * ncols
        elif kind < 0.45 and rows:
            picks = rng.sample(rows, rng.randint(1, len(rows)))
            cs = [rng.choice(COEFFICIENTS) for _ in picks]
            row = [sum(Fraction(c) * p[j] for c, p in zip(cs, picks))
                   for j in range(ncols)]
        else:
            row = [rng.choice(ENTRIES) for _ in range(ncols)]
        rows.append(row)
    for j in rng.sample(range(ncols), rng.randint(0, ncols // 2)):
        for row in rows:
            row[j] = 0
    return make_matrix(rows, nrows, ncols)


# ------------------------------------------------------------------ rref


def check_rref(a):
    r, t, pivots = rref(a)
    assert (r, t, pivots) == dense_rref(a)
    assert mat_mul(t, a) == r
    # rows of T past the rank annihilate a (solve_matrix's certificates)
    assert not any(x for row in r[len(pivots):] for x in row)
    return len(pivots)


@settings(max_examples=150, deadline=None)
@given(rngs)
def test_rref_matches_dense_reference(rng):
    check_rref(random_rational_matrix(rng))


def test_rref_edge_cases_match_dense_reference():
    third = Fraction(1, 3)
    cases = [(), zeros(3, 4), zeros(1, 1),
             make_matrix([[0, 2, 0], [0, 0, 0], [0, 1, 0]], 3, 3),
             make_matrix([[1, 2], [2, 4], [third, 0], [0, 0]], 4, 2),
             make_matrix([[0, 0, 5, 1]], 1, 4)]
    assert [check_rref(a) for a in cases] == [0, 0, 0, 1, 2, 1]
    assert rref(()) == ((), (), [])


# ------------------------------------------------------------------ rank


@settings(max_examples=150, deadline=None)
@given(rngs)
def test_mat_rank_matches_rref(rng):
    """The integer rank kernel counts the pivots of rref, for a matrix
    and for its transpose."""
    a = random_rational_matrix(rng)
    rank = len(rref(a)[2])
    assert mat_rank(sparse_rows(a)) == rank
    if a:
        assert mat_rank(sparse_rows(zip(*a))) == rank
    # nonzero row scalings keep the rank and vary the leading entries
    scaled = tuple(tuple(x * f for x in row)
                   for row, f in zip(a, (rng.choice(SCALINGS) for _ in a)))
    assert mat_rank(sparse_rows(scaled)) == rank


def test_mat_rank_edge_cases():
    half = Fraction(1, 2)
    cases = [(), zeros(3, 4), zeros(1, 1),
             make_matrix([[half, Fraction(1, 3)], [3, 2]], 2, 2),
             make_matrix([[0, 2, 0], [0, 0, 0], [0, 1, 0]], 3, 3),
             make_matrix([[1, 2], [2, 4], [Fraction(1, 3), 0], [0, 0]], 4, 2),
             make_matrix([[6, 4, 2], [3, 2, 1], [0, 0, half]], 3, 3),
             # the second row reduces with a multiplier of 2 on itself
             make_matrix([[2, 0, 1], [3, 1, 0], [0, 2, -3]], 3, 3)]
    assert [mat_rank(sparse_rows(a)) for a in cases] == [0, 0, 0, 1, 1, 2,
                                                         2, 2]


# --------------------------------------------------------------- inverse


def random_invertible(rng, source, target):
    """Degree-0 map with a random invertible block in each degree."""
    blocks = {}
    for k, n in source.dims.items():
        while True:
            mat = [[rng.choice(ENTRIES) for _ in range(n)] for _ in range(n)]
            if len(dense_rref(make_matrix(mat, n, n))[2]) == n:
                break
        blocks[k] = mat
    return GradedMap(source, target, 0, blocks)


def test_graded_inverse_rejects_what_is_not_invertible():
    v, w = GradedVectorSpace({0: 1}), GradedVectorSpace({0: 1, 1: 1})
    # invertible where v lives, but W's degree 1 has nothing to map from
    assert graded_inverse(GradedMap(v, w, 0, {0: [[1]]})) is None
    assert graded_inverse(GradedMap(w, v, 0, {0: [[1]]})) is None
    singular = GradedMap(w, w, 0, {0: [[1]], 1: [[0]]})
    assert graded_inverse(singular) is None
    shifted = GradedVectorSpace({1: 1})
    assert graded_inverse(GradedMap(v, shifted, 1, {0: [[1]]})) is None


@SETTINGS
@given(rngs)
def test_graded_inverse_matches_dense_reference(rng):
    source = random_space(rng)
    target = GradedVectorSpace(source.dims, {
        d: tuple(f"w{d}_{i}" for i in range(n))
        for d, n in source.dims.items()})
    m = random_invertible(rng, source, target)
    inv = graded_inverse(m)
    assert (inv.source, inv.target, inv.degree) == (target, source, 0)
    for k in source.degrees():
        assert inv.block(k) == dense_rref(m.block(k))[1]
    assert m.compose(inv) == GradedMap.identity(target)
    assert inv.compose(m) == GradedMap.identity(source)


# ------------------------------------------------------------------ views


@SETTINGS
@given(rngs)
def test_dense_views_equal_stored_blocks(rng):
    s, t, deg, m, blocks = random_typed_map(rng)
    want = stored(blocks, s, t, deg)
    assert m.blocks == want
    assert m.is_zero() == (not want)
    for k in range(min(DEGREES) - 3, max(DEGREES) + 3):
        blk = m.block(k)
        assert blk == view(want, s, t, deg, k)
        assert isinstance(blk, tuple) and all(
            isinstance(row, tuple) and all(type(x) is Rational for x in row)
            for row in blk)


@SETTINGS
@given(rngs)
def test_serialized_columns_and_witness_match_dense_view(rng):
    s, t, _, m, _ = random_typed_map(rng)
    dense = m.blocks
    out = serialize.map_to_data(m)
    assert out["blocks"] == {
        str(k): [[serialize.dump_fraction(mat[i][j]) for i in range(len(mat))]
                 for j in range(s.dim(k))] for k, mat in dense.items()}
    assert serialize.map_from_data(out, s, t) == m
    first = next(((k, i, j, x) for k in sorted(dense)
                  for i, row in enumerate(dense[k])
                  for j, x in enumerate(row) if x), None)
    want = None if first is None else {
        "degree": first[0], "row": first[1], "column": first[2],
        "value": serialize.dump_fraction(first[3])}
    assert _map_witness(m) == want


# -------------------------------------------------------------- algebra


@SETTINGS
@given(rngs)
def test_compose_matches_dense_product(rng):
    s1, s2, s3 = (random_space(rng) for _ in range(3))
    d1, d2 = random_degree(rng, s1, s2), random_degree(rng, s2, s3)
    g, gb = random_map(rng, s1, s2, d1)
    f, fb = random_map(rng, s2, s3, d2)
    want = ref_compose(stored(fb, s2, s3, d2), (s2, s3, d2),
                       stored(gb, s1, s2, d1), (s1, s2, d1))
    assert f.compose(g).blocks == want


@SETTINGS
@given(rngs)
def test_add_scale_and_sum_match_dense(rng):
    s, t = random_space(rng), random_space(rng)
    deg = random_degree(rng, s, t)
    drawn = [random_map(rng, s, t, deg) for _ in range(3)]
    cs = [rng.choice(COEFFICIENTS) for _ in drawn]
    dense = [stored(b, s, t, deg) for _, b in drawn]
    maps = [m for m, _ in drawn]
    assert maps[0].add(maps[1], cs[0], cs[1]).blocks == ref_sum(
        [(dense[0], cs[0]), (dense[1], cs[1])], s, t, deg)
    assert maps[0].add(maps[0], 1, -1).is_zero()
    assert maps[2].scale(cs[2]).blocks == ref_sum([(dense[2], cs[2])],
                                                  s, t, deg)
    assert map_sum(maps, cs).blocks == ref_sum(list(zip(dense, cs)),
                                               s, t, deg)


@SETTINGS
@given(rngs)
def test_tensor_product_matches_signed_kronecker(rng):
    factors, maps = [], []
    for _ in range(rng.randint(1, 3)):
        s, t, deg, m, b = random_typed_map(rng)
        maps.append(m)
        factors.append((stored(b, s, t, deg), s, t, deg))
    got = tensor_maps_many(maps)
    assert got.source == tensor_spaces([f[1] for f in factors])
    assert got.target == tensor_spaces([f[2] for f in factors])
    assert got.blocks == ref_tensor(factors)


def random_factor(rng):
    """A random complex, or sometimes one whose differential is zero."""
    if rng.random() < 0.3:
        return ChainComplex.zero_differential(random_space(rng)), {}
    return random_complex(rng)


@SETTINGS
@given(rngs)
def test_hom_differential_matches_dense_leibniz(rng):
    n = rng.randint(1, 4)
    while True:  # keep the dense Kronecker products small
        if rng.random() < 0.5:
            sources = [random_factor(rng)] * n
        else:
            sources = [random_factor(rng) for _ in range(n)]
        if math.prod(c.space.total_dim for c, _ in sources) <= 144:
            break
    target, target_d = random_factor(rng)
    cxs = [c for c, _ in sources]
    src = tensor_spaces([c.space for c in cxs])
    deg = random_degree(rng, src, target.space)
    f, fb = random_map(rng, src, target.space, deg)
    # d on the tensor product: sum of 1 x .. x d_i x .. x 1
    d_terms = []
    for i in range(n):
        facs = []
        for j, (c, dd) in enumerate(sources):
            ident = {k: [[int(r == q) for q in range(c.space.dim(k))]
                         for r in range(c.space.dim(k))]
                     for k in c.space.degrees()}
            facs.append((dd, c.space, c.space, -1) if i == j else
                        (stored(ident, c.space, c.space, 0),
                         c.space, c.space, 0))
        d_terms.append((ref_tensor(facs), 1))
    d_tensor = ref_sum(d_terms, src, src, -1)
    fd = stored(fb, src, target.space, deg)
    want = ref_sum(
        [(ref_compose(target_d, (target.space, target.space, -1),
                      fd, (src, target.space, deg)), 1),
         (ref_compose(fd, (src, target.space, deg),
                      d_tensor, (src, src, -1)), -(-1) ** (deg % 2))],
        src, target.space, deg - 1)
    assert hom_differential(f, cxs, target).blocks == want


# ----------------------------------------------------------------- solve


SMALL_COMPLEXES = ({0: 1, 1: 1}, {0: 2, 1: 1}, {-1: 1, 0: 1, 1: 1},
                   {0: 1, 1: 2, 2: 1})


def dense_solve_map_equation(operator, rhs, unknown_source, unknown_target,
                             unknown_degree):
    """solve_map_equation as a dense solve: every probe of the operator
    is a dense column of the equation matrix, reduced by dense_rref."""
    variables = [(k, r, cc) for k in unknown_source.degrees()
                 for r in range(unknown_target.dim(k + unknown_degree))
                 for cc in range(unknown_source.dim(k))]
    eq_rows = [(k, r, cc) for k in rhs.source.degrees()
               for r in range(rhs.target.dim(k + rhs.degree))
               for cc in range(rhs.source.dim(k))]
    eq_index = {e: i for i, e in enumerate(eq_rows)}

    def flatten(m):
        vec = [Fraction(0)] * len(eq_rows)
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
                                      unknown_degree,
                                      {k: {cc: {r: Fraction(1)}}})
        columns.append([a - b for a, b in zip(flatten(operator(unit)), base)])
    amat = tuple(tuple(columns[j][i] for j in range(len(variables)))
                 for i in range(len(eq_rows)))
    bvec = [a - b for a, b in zip(flatten(rhs), base)]
    _, t, pivots = dense_rref(amat)
    tb = [sum((x * y for x, y in zip(row, bvec)), Fraction(0)) for row in t]
    for i in range(len(pivots), len(eq_rows)):
        if tb[i]:
            return LinearSolveResult(certificate={
                e: y for e, y in zip(eq_rows, t[i]) if y})
    cols = {}
    for (k, r, cc), x in zip((variables[pc] for pc in pivots), tb):
        if x:
            cols.setdefault(k, {}).setdefault(cc, {})[r] = x
    return LinearSolveResult(solution=GradedMap.from_columns(
        unknown_source, unknown_target, unknown_degree, cols))


@SETTINGS
@given(rngs)
def test_solve_map_equation_matches_dense_reference(rng):
    """Bracket equations [x, d] = rhs over small complexes, with rhs a
    boundary [y, d] (always solvable) or a random map (unsolvable when
    it is not a cycle): the sparse and dense solves agree exactly."""
    c = random_chain_complex(rng, rng.choice(SMALL_COMPLEXES))
    n = 2 if c.space.total_dim <= 3 and rng.random() < 0.5 else 1
    target = (random_chain_complex(rng, rng.choice(SMALL_COMPLEXES))
              if rng.random() < 0.5 else c)
    src = tensor_spaces([c.space] * n)

    def bracket(x):
        return hom_differential(x, [c] * n, target)

    boundary = rng.random() < 0.5
    if boundary:
        deg = random_degree(rng, src, target.space)
        rhs = bracket(random_map(rng, src, target.space, deg)[0])
    else:
        deg = random_degree(rng, src, target.space) + 1
        rhs = random_map(rng, src, target.space, deg - 1)[0]
    got = solve_map_equation(bracket, rhs, src, target.space, deg)
    want = dense_solve_map_equation(bracket, rhs, src, target.space, deg)
    assert (got.solution, got.certificate) == (want.solution,
                                               want.certificate)
    if boundary:
        assert got.consistent and bracket(got.solution) == rhs
    elif not hom_differential(rhs, [c] * n, target).is_zero():
        assert not got.consistent
