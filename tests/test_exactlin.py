"""Tests for exact graded linear algebra."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shalg import exactlin
from shalg.exactlin import (
    ChainComplex,
    GradedMap,
    GradedVectorSpace,
    homology_with_splitting,
    hom_differential,
    kernel_basis,
    make_matrix,
    mat_rank,
    rref,
    solve_matrix,
    solve_map_equation,
    tensor_basis_tuples,
    tensor_maps_many,
    tensor_power,
    tensor_spaces,
)
from test_sparse_reference import mat_mul, sparse_rows
from test_transfer import random_chain_complex
from test_windowed import tensor_differential


# ---------------------------------------------------------------- matrices


def test_rref_tracks_transformation():
    a = make_matrix([[2, 4], [1, 2], [0, 1]], 3, 2)
    r, t, pivots = rref(a)
    assert pivots == [0, 1]
    assert mat_mul(t, a) == r
    assert r[0][:2] == (Fraction(1), Fraction(0))
    assert r[1][:2] == (Fraction(0), Fraction(1))


def test_solve_matrix_solution_and_certificate():
    a = make_matrix([[1, 1], [2, 2]], 2, 2)
    status, x = solve_matrix(sparse_rows(a), 2, {0: 3, 1: 6})
    assert status == "solution"
    x = [x.get(j, 0) for j in range(2)]
    assert [sum(a[i][j] * x[j] for j in range(2)) for i in range(2)] == [3, 6]
    status, y = solve_matrix(sparse_rows(a), 2, {0: 3, 1: 7})
    assert status == "inconsistent"
    y = [y.get(i, 0) for i in range(2)]
    # y annihilates the columns of a but not the rhs
    assert all(sum(y[i] * a[i][j] for i in range(2)) == 0 for j in range(2))
    assert sum(y[i] * b for i, b in enumerate([3, 7])) != 0


def test_kernel_basis():
    a = make_matrix([[1, 1, 0], [0, 0, 1]], 2, 3)
    ker = kernel_basis(a)
    assert ker == [(Fraction(-1), Fraction(1), Fraction(0))]
    assert mat_rank(sparse_rows(a)) == 2


# ---------------------------------------------------------------- spaces


def test_tensor_power_one_dim():
    v = GradedVectorSpace({0: 1})
    assert tensor_power(v, 3).dims == {0: 1}


def test_tensor_power_convolution():
    v = GradedVectorSpace({0: 1, 1: 1})
    assert tensor_power(v, 2).dims == {0: 1, 1: 2, 2: 1}


def test_tensor_power_identity_case():
    v = GradedVectorSpace({0: 2, 3: 1})
    assert tensor_power(v, 1) is v


_LINE = GradedVectorSpace({0: 1, 1: 1})
_LINE_COMPLEX = ChainComplex(_LINE, GradedMap(_LINE, _LINE, -1, {1: [[1]]}))
_POINT = GradedVectorSpace({0: 2})
_RAY = GradedVectorSpace({0: 1, 1: 1, 2: 1})


@pytest.mark.parametrize("build, message", [
    (lambda: ChainComplex(_LINE, GradedMap.zero(_LINE, _POINT, -1)),
     "differential must be an endomap of the space"),
    (lambda: ChainComplex(_LINE, GradedMap.zero(_LINE, _LINE, 0)),
     "differential must have degree -1"),
    (lambda: ChainComplex(_RAY, GradedMap(_RAY, _RAY, -1,
                                          {1: [[1]], 2: [[1]]})),
     "differential does not square to zero"),
    (lambda: hom_differential(GradedMap.zero(_POINT, _LINE, 0),
                              [_LINE_COMPLEX], _LINE_COMPLEX),
     "source of f is not the declared tensor product"),
    (lambda: hom_differential(GradedMap.zero(_LINE, _POINT, 0),
                              [_LINE_COMPLEX], _LINE_COMPLEX),
     "target of f does not match the declared complex"),
], ids=["not-endomap", "degree", "square", "hom-source", "hom-target"])
def test_complex_input_checks(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_tensor_power_rejects_zero():
    with pytest.raises(ValueError):
        tensor_power(GradedVectorSpace({0: 1}), 0)


def test_tensor_spaces_are_shared_per_atoms():
    v = GradedVectorSpace({0: 1, 1: 2})
    w = GradedVectorSpace({0: 1, 1: 2})  # equal to v, another object
    assert tensor_power(v, 3) is tensor_power(w, 3)
    assert tensor_spaces([tensor_power(v, 2), v]) is tensor_power(v, 3)
    assert tensor_basis_tuples([v, v]) is tensor_basis_tuples([w, w])


def test_tensor_ordering_flat_not_nested():
    # the flat triple product is the canonical ordering; check dims only,
    # plus that labels are 3-tuples in lexicographic flat order
    v = GradedVectorSpace({0: 1, 1: 1}, {0: ("a",), 1: ("b",)})
    t3 = tensor_power(v, 3)
    assert t3.dims == {0: 1, 1: 3, 2: 3, 3: 1}
    assert t3.labels[1] == (("a", "a", "b"), ("a", "b", "a"), ("b", "a", "a"))


# ---------------------------------------------------------------- maps


def two_term_complex():
    # d(e1_0) = e0_0, acyclic
    v = GradedVectorSpace({0: 1, 1: 1})
    d = GradedMap(v, v, -1, {1: [[1]]})
    return ChainComplex(v, d)


def test_identity_tensor_identity():
    v = GradedVectorSpace({0: 1, 1: 2})
    i = GradedMap.identity(v)
    assert (tensor_maps_many([i, i])
            == GradedMap.identity(tensor_power(v, 2)))


def test_tensor_square_differential_squares_to_zero():
    """The Koszul-signed slot sum of 1 x..x d x..x 1 squares to zero,
    and hom_differential pushes columns through the same d_tensor: the
    identity of V^(x n) is a chain map into (V^(x n), the slot sum)."""
    c = two_term_complex()
    for n in (2, 3):
        d = tensor_differential([c] * n)
        assert not d.is_zero() and d.compose(d).is_zero()
        ident = GradedMap.identity(tensor_power(c.space, n))
        assert hom_differential(ident, [c] * n,
                                ChainComplex(d.source, d)).is_zero()


def test_koszul_sign_on_basis():
    # (1 x d)(b x b) = -(b x a): moving degree -1 map past degree-1 input
    c = two_term_complex()
    i = GradedMap.identity(c.space)
    one_d = tensor_maps_many([i, c.differential])
    # degree-2 source basis is the single (b, b); target degree-1 basis is
    # (a, b), (b, a) in flat lexicographic order
    assert one_d.block(2) == ((Fraction(0),), (Fraction(-1),))
    d_one = tensor_maps_many([c.differential, i])
    assert d_one.block(2) == ((Fraction(1),), (Fraction(0),))


def small_maps(max_dim=2):
    spaces = st.builds(
        GradedVectorSpace,
        st.dictionaries(st.integers(0, 2), st.integers(1, max_dim),
                        min_size=1, max_size=2))

    def map_between(s, t, deg):
        entries = st.integers(-2, 2)
        blocks = {}
        strat = {}
        for k in s.degrees():
            nr, nc = t.dim(k + deg), s.dim(k)
            if nr and nc:
                strat[k] = st.lists(
                    st.lists(entries, min_size=nc, max_size=nc),
                    min_size=nr, max_size=nr)
        return st.fixed_dictionaries(strat).map(
            lambda b: GradedMap(s, t, deg, b))

    return spaces, map_between


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_koszul_coherence_property(data):
    # (f x g)(f' x g') = (-1)^(|g||f'|) (f f') x (g g')
    spaces, map_between = small_maps()
    s1, s2, s3 = (data.draw(spaces) for _ in range(3))
    t1, t2, t3 = (data.draw(spaces) for _ in range(3))
    d_f, d_g = data.draw(st.integers(-1, 1)), data.draw(st.integers(-1, 1))
    d_fp, d_gp = data.draw(st.integers(-1, 1)), data.draw(st.integers(-1, 1))
    fp = data.draw(map_between(s1, s2, d_fp))
    f = data.draw(map_between(s2, s3, d_f))
    gp = data.draw(map_between(t1, t2, d_gp))
    g = data.draw(map_between(t2, t3, d_g))
    lhs = tensor_maps_many([f, g]).compose(tensor_maps_many([fp, gp]))
    sign = (-1) ** ((d_g * d_fp) % 2)
    rhs = tensor_maps_many([f.compose(fp), g.compose(gp)]).scale(sign)
    assert lhs == rhs


# ----------------------------------------------------- hom differential


def test_hom_differential_zero_and_chain_map():
    c = two_term_complex()
    z = GradedMap.zero(tensor_power(c.space, 2), c.space, 0)
    assert hom_differential(z, [c, c], c).is_zero()
    # identity is a chain map: [id, d] = 0
    i = GradedMap.identity(c.space)
    assert hom_differential(i, [c], c).is_zero()


def test_hom_differential_squares_to_zero():
    c = two_term_complex()
    v3 = tensor_power(c.space, 3)
    # an arbitrary degree-1 map on the triple tensor
    blocks = {}
    for k in v3.degrees():
        nr, nc = c.space.dim(k + 1), v3.dim(k)
        if nr and nc:
            blocks[k] = [[Fraction(i + j + 1) for j in range(nc)]
                         for i in range(nr)]
    f = GradedMap(v3, c.space, 1, blocks)
    df = hom_differential(f, [c, c, c], c)
    assert hom_differential(df, [c, c, c], c).is_zero()


def test_hom_differential_mu3_four_term_expansion():
    """[m, d] for a triple-input degree-1 map m equals
    d m - m(d x 1 x 1) - m(1 x d x 1) - m(1 x 1 x d) with Koszul signs,
    checked entrywise on every basis triple of a two-term complex."""
    c = two_term_complex()
    v = c.space
    v3 = tensor_power(v, 3)
    blocks = {}
    val = Fraction(1)
    for k in v3.degrees():
        nr, nc = v.dim(k + 1), v3.dim(k)
        if nr and nc:
            mat = []
            for i in range(nr):
                row = []
                for j in range(nc):
                    row.append(val)
                    val += 1
                mat.append(row)
            blocks[k] = mat
    m = GradedMap(v3, v, 1, blocks)
    got = hom_differential(m, [c, c, c], c)
    ident = GradedMap.identity(v)
    d = c.differential
    terms = [tensor_maps_many([d, ident, ident]),
             tensor_maps_many([ident, d, ident]),
             tensor_maps_many([ident, ident, d])]
    expected = d.compose(m)
    for t in terms:
        expected = expected.add(m.compose(t), 1, 1)  # -(-1)^1 = +1
    assert got == expected


# ----------------------------------------------------------- homology


def test_homology_zero_differential():
    v = GradedVectorSpace({0: 2, 1: 1})
    c = ChainComplex.zero_differential(v)
    h = homology_with_splitting(c)
    assert h.homology.dims == v.dims
    assert h.splitting_homotopy.is_zero()


def test_homology_acyclic():
    h = homology_with_splitting(two_term_complex())
    assert h.homology.dims == {}


def test_homology_rank_one_differential():
    v = GradedVectorSpace({0: 2, 1: 1})
    d = GradedMap(v, v, -1, {1: [[1], [-1]]})  # d v1 = e1 - e2
    h = homology_with_splitting(ChainComplex(v, d))
    assert h.homology.dims == {0: 1}


def sdr_invariants(h):
    c = h.complex
    incl, proj, phi = h.inclusion, h.projection, h.splitting_homotopy
    assert proj.compose(incl) == GradedMap.identity(h.homology)
    lhs = incl.compose(proj).add(GradedMap.identity(c.space), 1, -1)
    comm = c.differential.compose(phi).add(phi.compose(c.differential), 1, 1)
    assert lhs == comm
    assert c.differential.compose(incl).is_zero()
    assert phi.compose(phi).is_zero()
    assert phi.compose(incl).is_zero()
    assert proj.compose(phi).is_zero()


def test_homology_splitting_invariants_concrete():
    v = GradedVectorSpace({0: 2, 1: 2, 2: 1})
    d = GradedMap(v, v, -1, {1: [[1, 1], [-1, -1]], 2: [[1], [-1]]})
    # ker d1 = im d2 = span(v1 - v2), so only H0 survives
    h = homology_with_splitting(ChainComplex(v, d))
    assert h.homology.dims == {0: 1}
    sdr_invariants(h)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_homology_splitting_invariants_random(data):
    # random complex: random degree -1 matrix d10, then d21 into ker d10
    dims = {0: data.draw(st.integers(0, 2)),
            1: data.draw(st.integers(1, 3)),
            2: data.draw(st.integers(0, 2))}
    dims = {k: n for k, n in dims.items() if n}
    v = GradedVectorSpace(dims)
    entries = st.integers(-2, 2)
    blocks = {}
    if dims.get(0) and dims.get(1):
        blocks[1] = data.draw(st.lists(
            st.lists(entries, min_size=dims[1], max_size=dims[1]),
            min_size=dims[0], max_size=dims[0]))
    d1 = GradedMap(v, v, -1, blocks)
    if dims.get(2) and dims.get(1):
        ker = kernel_basis(d1.block(1)) if dims.get(0) else [
            tuple(Fraction(1 if i == j else 0) for i in range(dims[1]))
            for j in range(dims[1])]
        coeffs = data.draw(st.lists(
            st.lists(entries, min_size=dims[2], max_size=dims[2]),
            min_size=len(ker), max_size=len(ker)))
        mat = [[sum(Fraction(coeffs[t][j]) * ker[t][i] for t in range(len(ker)))
                for j in range(dims[2])] for i in range(dims[1])]
        blocks[2] = mat
    d = GradedMap(v, v, -1, blocks)
    c = ChainComplex(v, d)
    sdr_invariants(homology_with_splitting(c))


def split_invariants(h):
    """The split basis of HomologyData: coords inverts basis, the counts
    fill each degree, boundaries are the columns of d at the pivots one
    degree up, harmonic columns are the inclusion's and are cycles, and
    preimages are unit vectors at the leftmost pivots of d, mapped by d
    onto the boundaries one degree down in order."""
    c = h.complex
    space, d = c.space, c.differential
    ident = GradedMap.identity(space)
    assert h.basis.compose(h.coords) == ident
    assert h.coords.compose(h.basis) == ident
    assert sorted(h.counts) == sorted(h.pivots) == space.degrees()
    d_basis = d.compose(h.basis)
    for k in space.degrees():
        n = space.dim(k)
        nb, nh, nt = h.counts[k]
        assert nb + nh + nt == n
        assert nh == h.homology.dim(k)
        assert h.pivots[k] == (rref(d.block(k))[2] if space.dim(k - 1)
                               else [])
        cols = list(zip(*h.basis.block(k)))
        up = list(zip(*d.block(k + 1)))
        assert cols[:nb] == [up[j] for j in h.pivots.get(k + 1, [])]
        assert cols[nb:nb + nh] == list(zip(*h.inclusion.block(k)))
        assert cols[nb + nh:] == [
            tuple(Fraction(int(i == j)) for i in range(n))
            for j in h.pivots[k]]
        images = list(zip(*d_basis.block(k)))
        assert not any(any(col) for col in images[nb:nb + nh])
        below = list(zip(*h.basis.block(k - 1)))
        assert images[nb + nh:] == below[:nt]


def test_homology_split_random():
    checked = 0
    for dims in ({0: 2, 1: 2}, {0: 2, 1: 3, 2: 1}, {0: 1, 1: 2, 2: 1},
                 {-1: 1, 0: 3, 1: 3, 2: 2}, {0: 2, 2: 2, 3: 1}):
        for seed in range(10):
            h = homology_with_splitting(
                random_chain_complex(random.Random(seed), dims))
            split_invariants(h)
            sdr_invariants(h)
            checked += sum(h.counts[k][0] * h.counts[k][1] > 0
                           for k in h.counts)
    assert checked  # some degree held both boundaries and homology


def test_homology_split_row_reduces_each_matrix_once(monkeypatch):
    """Per degree k: one elimination of d_k (when C_{k-1} is not 0), whose R
    also gives the kernel; one of [boundaries | kernel] to pick the
    harmonic cycles, skipped without boundaries; one to invert the
    split basis."""
    calls = []
    real_kernel = exactlin._rref_rows
    monkeypatch.setattr(exactlin, "_rref_rows",
                        lambda a: calls.append(a) or real_kernel(a))
    for dims in ({0: 2, 1: 3, 2: 1}, {-1: 1, 0: 3, 1: 3, 2: 2}):
        for seed in range(10):
            c = random_chain_complex(random.Random(seed), dims)
            calls.clear()
            h = homology_with_splitting(c)
            space = h.complex.space
            assert len(calls) == sum(
                (space.dim(k - 1) > 0) + (h.counts[k][0] > 0) + 1
                for k in space.degrees())


# --------------------------------------------------------------- solver


def test_solve_map_equation_chain_map():
    # solve [x, d] = 0 for degree-0 x on an acyclic complex; any solution
    # must commute with d; x = 0 works and the minimal one is returned
    c = two_term_complex()
    res = solve_map_equation(
        lambda x: hom_differential(x, [c], c),
        GradedMap.zero(c.space, c.space, -1),
        c.space, c.space, 0)
    assert res.consistent
    assert hom_differential(res.solution, [c], c).is_zero()


def test_solve_map_equation_inconsistent_certificate():
    # d x = b with b not in the image of d
    v = GradedVectorSpace({0: 2, 1: 1})
    d = GradedMap(v, v, -1, {1: [[1], [0]]})
    c = ChainComplex(v, d)
    b = GradedMap(v, v, -1, {1: [[0], [1]]})
    res = solve_map_equation(lambda x: d.compose(x), b, v, v, 0)
    assert not res.consistent
    assert res.certificate  # nonzero functional


def test_solve_map_equation_homotopy_instance():
    """Solve [x, d] = p q - q p style equation with a known-exact rhs."""
    c = two_term_complex()
    v = c.space
    # rhs = [y, d] for a chosen y, so the equation is solvable by y
    y = GradedMap(v, v, 1, {0: [[5]]})
    rhs = hom_differential(y, [c], c)
    res = solve_map_equation(
        lambda x: hom_differential(x, [c], c), rhs, v, v, 1)
    assert res.consistent
    assert hom_differential(res.solution, [c], c) == rhs
