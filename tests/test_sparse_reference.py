"""Sparse graded maps against the dense matrix reference.

Every operation on GradedMap is recomputed here from the dense blocks
the map was built from, with mat_mul, mat_add and a Kronecker product
over flat bases, and the dense views of the result must agree exactly.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from shalg import serialize
from shalg.cli import _map_witness
from shalg.exactlin import (
    ChainComplex,
    GradedMap,
    GradedVectorSpace,
    hom_differential,
    kernel_basis,
    make_matrix,
    map_sum,
    mat_add,
    mat_mul,
    tensor_maps_many,
    tensor_spaces,
)

DEGREES = (-1, 0, 1, 2)
ENTRIES = (0, 0, 0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-2, 3))
COEFFICIENTS = (0, 1, -1, 2, Fraction(3, 2))
SETTINGS = settings(max_examples=40, deadline=None)
# a seeded stream: uniform draws, where hypothesis would favour zeros
rngs = st.integers(0, 2 ** 32 - 1).map(random.Random)


def zeros(nrows, ncols):
    return tuple((Fraction(0),) * ncols for _ in range(nrows))


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
            isinstance(row, tuple) and all(type(x) is Fraction for x in row)
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


@SETTINGS
@given(rngs)
def test_hom_differential_matches_dense_leibniz(rng):
    n = rng.randint(1, 3)
    if rng.random() < 0.5:
        sources = [random_complex(rng)] * n
    else:
        sources = [random_complex(rng) for _ in range(n)]
    target, target_d = random_complex(rng)
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
    if n > 1 and all(c is cxs[0] for c in cxs):
        assert cxs[0].tensor_power_differential(n).blocks == d_tensor
    fd = stored(fb, src, target.space, deg)
    want = ref_sum(
        [(ref_compose(target_d, (target.space, target.space, -1),
                      fd, (src, target.space, deg)), 1),
         (ref_compose(fd, (src, target.space, deg),
                      d_tensor, (src, src, -1)), -(-1) ** (deg % 2))],
        src, target.space, deg - 1)
    assert hom_differential(f, cxs, target).blocks == want
