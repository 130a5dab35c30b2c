"""Degree-windowed tensor calculus against eager, unskipped references.

The tensor basis counts its degrees by a DP and enumerates a degree's
tuples, positions and labels only when they are read; here every
degree is compared with an eager itertools.product enumeration.  The
residuals evaluate the minimal models' differentials, skipping trees
with a zero factor, and the composites and transfers skip terms with a
zero factor; all return typed zeros for arities whose terms all
vanish.  Here every residual, composite and transferred structure is
compared with a hand-signed reference that sums every term, on random
structures with some operations zero, including negatively graded
ones, whose degree window never closes, and also on such structures
with every operation nonzero.  The suspension conjugation below is the
reference for the transfer's suspended recursion.
"""

import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shalg.ainfty import (
    AInfinityAlgebra,
    AInfinityMorphism,
    an_residual,
    compose_morphisms,
    fn_residual,
)
from shalg.exactlin import (
    ChainComplex,
    GradedMap,
    GradedVectorSpace,
    _TensorBasis,
    _tensor_basis,
    hom_differential,
    map_sum,
    tensor_basis_tuples,
    tensor_maps_many,
    tensor_power,
    tensor_spaces,
)
from shalg.transfer import SDRData, sdr_onto_homology, transfer_M1
from test_transfer import exterior_dga, random_chain_complex

SETTINGS = settings(max_examples=30, deadline=None)
ENTRIES = (0, 1, -1, 2, Fraction(1, 2))
rngs = st.integers(0, 2 ** 32 - 1).map(random.Random)


# ------------------------------------------------------------ tensor bases


@st.composite
def atom_lists(draw):
    """One to four atoms with degrees in -3..3, gaps and zero dims, and
    sometimes custom labels; sometimes a power of one atom."""
    def atom():
        dims = draw(st.dictionaries(st.integers(-3, 3), st.integers(0, 2),
                                    max_size=4))
        if not draw(st.booleans()):
            return GradedVectorSpace(dims)
        return GradedVectorSpace(dims, {d: tuple(f"x{d}{chr(97 + i)}"
                                                 for i in range(n))
                                        for d, n in dims.items()})
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return [atom()] * n
    return [atom() for _ in range(n)]


def eager_basis(atoms):
    """Degree -> tuples, positions and labels of the tensor product of
    the atoms, from one itertools.product over their flat bases."""
    tuples = {}
    for combo in itertools.product(*[a.flat_basis() for a in atoms]):
        tuples.setdefault(sum(deg for deg, _ in combo), []).append(combo)
    tuples = {d: tuple(ts) for d, ts in tuples.items()}
    index = {d: {t: i for i, t in enumerate(ts)} for d, ts in tuples.items()}
    labels = {d: tuple(tuple(atoms[k].labels[deg][i]
                             for k, (deg, i) in enumerate(t)) for t in ts)
              for d, ts in tuples.items()}
    return tuples, index, labels


@SETTINGS
@given(atoms=atom_lists(), order=rngs)
def test_lazy_tensor_basis_matches_eager_product(atoms, order):
    _tensor_basis.cache_clear()
    basis = _tensor_basis(tuple(atoms))
    tuples, index, labels = eager_basis(atoms)
    assert basis.dims == {d: len(ts) for d, ts in tuples.items()}
    assert not basis.tuples._values  # nothing enumerated yet
    degrees = list(tuples)
    order.shuffle(degrees)  # the order degrees are read in is free
    for d in degrees:
        assert basis.tuples[d] == tuples[d]
        assert basis.index(d) == index[d]
    assert dict(basis.tuples) == tuples
    space = tensor_spaces(atoms)
    assert space is basis.space
    assert tensor_basis_tuples(atoms) is basis.tuples
    if len(atoms) == 1:
        assert space is atoms[0]
        return
    assert space.dims == basis.dims and space.factors == tuple(atoms)
    assert dict(space.labels) == labels
    nested = [atoms[0], tensor_spaces(atoms[1:])]
    assert tensor_spaces(nested) is space
    assert tensor_basis_tuples(nested) is basis.tuples


@SETTINGS
@given(atoms=atom_lists())
def test_tensor_space_equality_and_hash(atoms):
    """Equal spaces hash equally: rebuilt products, pickled copies, and a
    space given the product's dims and labels outright."""
    _tensor_basis.cache_clear()
    space = tensor_spaces(atoms)
    _tensor_basis.cache_clear()
    again = tensor_spaces(atoms)
    assert again == space and hash(again) == hash(space)
    space.labels  # built labels are copied along
    copied = pickle.loads(pickle.dumps(space))
    assert copied == space and hash(copied) == hash(space)
    _, _, labels = eager_basis(atoms)
    if len(atoms) > 1:
        plain = GradedVectorSpace(space.dims, labels)
        assert plain == space and space == plain
        assert hash(plain) == hash(space)
        relabeled = GradedVectorSpace(space.dims, {
            d: tuple(("y",) + ls for ls in labs)
            for d, labs in labels.items()})
        assert (relabeled == space) == (not space.dims)
        flipped = atoms[::-1]
        _, _, flipped_labels = eager_basis(flipped)
        assert (tensor_spaces(flipped) == space) == (
            flipped_labels == labels)


@SETTINGS
@given(atoms=atom_lists())
def test_tensor_basis_mappings_are_read_only(atoms):
    _tensor_basis.cache_clear()
    basis = _tensor_basis(tuple(atoms))
    space = basis.space
    for d in basis.dims:
        with pytest.raises(TypeError):
            basis.tuples[d] = ()
        with pytest.raises(TypeError):
            space.labels[d] = ()
        assert isinstance(basis.tuples[d], tuple)
        assert all(isinstance(t, tuple) for t in basis.tuples[d])
    with pytest.raises(KeyError):
        basis.tuples[max(basis.dims, default=0) + 1]
    with pytest.raises(TypeError):
        del basis.tuples[0]


def test_zero_maps_enumerate_no_tensor_basis():
    """A zero operation, its bracket and a zero tensor factor read no
    degree of V^(x 8): only the DP's dims are built."""
    _tensor_basis.cache_clear()
    c = exterior_dga().complex
    v8 = tensor_power(c.space, 8)
    zero = GradedMap.zero(v8, c.space, 6)
    assert hom_differential(zero, [c] * 8, c) == GradedMap.zero(
        v8, c.space, 5)
    ident = GradedMap.identity(c.space)
    t = tensor_maps_many([ident] * 6 + [GradedMap.zero(
        tensor_power(c.space, 2), c.space, 0)])
    assert t.is_zero() and t.source == v8
    basis = _tensor_basis(v8.factors)
    assert basis.dims == {k: 2 ** 8 * math.comb(8, k) for k in range(9)}
    assert not basis.tuples._values and v8._labels is None


def test_hom_differential_enumerates_only_its_degrees(monkeypatch):
    """On a window-open complex, the bracket of a map on V^(x 6) that is
    nonzero in one source degree k enumerates the tuples of degrees k
    and k + 1 of V^(x 6) only, and equals the term-by-term reference."""
    read = []
    enumerate_ = _TensorBasis._enumerate

    def recording(self, d):
        read.append((len(self.atoms), d))
        return enumerate_(self, d)

    _tensor_basis.cache_clear()
    monkeypatch.setattr(_TensorBasis, "_enumerate", recording)
    c = random_chain_complex(random.Random(7), {-1: 1, 0: 2, 1: 1})
    v6 = tensor_power(c.space, 6)
    k = -4  # mu_6 has degree 4, so its degree -4 columns land in degree 0
    f = GradedMap.from_columns(v6, c.space, 4, {
        k: {0: {0: Fraction(1)}, 5: {1: Fraction(-2)}, 17: {0: Fraction(3)}}})
    got = hom_differential(f, [c] * 6, c)
    assert sorted(d for n, d in read if n == 6) == [k, k + 1]
    assert sorted(got.columns) == [k, k + 1]
    assert got == ref_hom_differential(f, [c] * 6, c)
    _tensor_basis.cache_clear()


# ------------------------------------------------------------ references


def compositions(n, k):
    """Ordered k-tuples of positive integers summing to n."""
    return [r for r in itertools.product(range(1, n + 1), repeat=k)
            if sum(r) == n]


# The hand-signed Stasheff and morphism identities and composites: the
# residuals of shalg.ainfty evaluate the stored differentials of the
# minimal models, and composites and transfers sum suspended terms with
# no sign, so these sums are an independent reference for them.  Signs:
#
#     epsilon = ij + j + s(j+1) + j(|a_1| + ... + |a_s|)   (i = n+1-j)
#     nu      = ij + j + s(j+1) + j(|a_1| + ... + |a_s|)   (i = n+1-j)
#     eta     = sum_{p<q} (r_p+1)
#               + sum_{p>=2} (r_p+1)(degrees before block p)
#
# where the degree-dependent parts are the Koszul signs produced by
# tensoring graded maps, so the operator-level sums carry only the
# scalar parts.


def sign_epsilon(i, j, s, degs=()):
    """Sign of the (i, j, s) term of the Stasheff identity in arity
    i+j-1, evaluated on leading arguments of the given degrees; an
    empty degs gives the scalar part only (all arguments even)."""
    if i < 2 or j < 2 or not 0 <= s <= i - 1 or (degs and len(degs) != s):
        raise ValueError("invalid (i, j, s, degs) for a Stasheff term")
    eps = i * j + j + s * (j + 1) + j * sum(degs)
    return -1 if eps % 2 else 1


def sign_nu(n, j, s, degs=()):
    """Sign of the (j, s) term on the structure side of the morphism
    identity in arity n; an empty degs gives the scalar part only."""
    if j < 2 or not 0 <= s <= n - j or (degs and len(degs) != s):
        raise ValueError("invalid (n, j, s, degs) for a morphism term")
    i = n + 1 - j
    nu = i * j + j + s * (j + 1) + j * sum(degs)
    return -1 if nu % 2 else 1


def sign_eta(r, degs=None) -> int:
    """Sign (-1)^eta of the partition term g_k . (f_{r_1} x ... x
    f_{r_k}) of a composite morphism, or of mu_k . (f_{r_1} x ... x
    f_{r_k}) in the morphism identity; degs, when given, lists all
    input degrees; without it, only the scalar part."""
    r = tuple(r)
    if not r or any(x < 1 for x in r):
        raise ValueError("block sizes must be positive")
    n = sum(r)
    eta = sum((r[p] + 1)
              for p in range(len(r)) for q in range(p + 1, len(r)))
    if degs is not None:
        if len(degs) != n:
            raise ValueError("need one degree per input")
        pos = 0
        for p, rp in enumerate(r):
            if p >= 1:
                eta += (rp + 1) * sum(degs[:pos])
            pos += rp
    return -1 if eta % 2 else 1


def test_sign_epsilon_values():
    assert sign_epsilon(2, 2, 0) == 1          # exponent 4 + 2
    assert sign_epsilon(2, 2, 1, (0,)) == -1   # exponent 4 + 2 + 3
    assert sign_epsilon(2, 3, 0) == -1         # exponent 6 + 3
    assert sign_epsilon(2, 2, 1, (1,)) == -1   # even j: degrees cannot flip
    assert sign_epsilon(3, 3, 1, (0,)) == 1    # 9 + 3 + 4
    assert sign_epsilon(3, 3, 1, (1,)) == -1   # 9 + 3 + 4 + 3: odd j flips


def test_sign_epsilon_validation():
    with pytest.raises(ValueError):
        sign_epsilon(1, 2, 0)
    with pytest.raises(ValueError):
        sign_epsilon(2, 2, 2, (0, 0))
    with pytest.raises(ValueError):
        sign_epsilon(2, 2, 0, (0,))


def test_sign_nu_values():
    assert sign_nu(2, 2, 0) == 1               # i=1: 2 + 2
    assert sign_nu(3, 2, 0) == 1               # i=2: 4 + 2
    assert sign_nu(3, 2, 1, (0,)) == -1        # 4 + 2 + 3
    assert sign_nu(3, 2, 1, (1,)) == -1        # 4 + 2 + 3 + 2: even j
    assert sign_nu(4, 3, 1, (0,)) == -1        # i=2: 6 + 3 + 4
    assert sign_nu(4, 3, 1, (1,)) == 1         # 6 + 3 + 4 + 3: odd j flips
    with pytest.raises(ValueError):
        sign_nu(3, 2, 2, (0, 0))


def test_sign_eta_values():
    assert sign_eta((1, 1)) == 1               # (1+1)
    assert sign_eta((2, 1)) == -1              # (2+1)
    assert sign_eta((1, 2)) == 1               # (1+1)
    assert sign_eta((1, 1, 1)) == 1            # 2 + 2 + 2
    assert sign_eta((1, 1), (1, 0)) == 1       # 2 + (1+1)*1: still even
    assert sign_eta((1, 2), (0, 0, 0)) == 1    # (1+1)
    assert sign_eta((1, 2), (1, 0, 0)) == -1   # (1+1) + (2+1)*1
    with pytest.raises(ValueError):
        sign_eta((1, 0))
    with pytest.raises(ValueError):
        sign_eta((1, 1), (0,))


def tensor_differential(sources):
    """d on the tensor product of the complexes: the sum over slots p of
    1 x..x d_p x..x 1, with the Koszul signs of tensor_maps_many."""
    return map_sum([tensor_maps_many([c.differential if q == p else
                                      GradedMap.identity(c.space)
                                      for q, c in enumerate(sources)])
                    for p in range(len(sources))])


def ref_hom_differential(f, sources, target):
    """[f, d] with the tensor differential summed term by term."""
    sign = -1 if f.degree % 2 else 1
    return map_sum([target.differential.compose(f),
                    f.compose(tensor_differential(sources))], [1, -sign])


def slotted(op, ident, i, s):
    return tensor_maps_many([ident] * s + [op] + [ident] * (i - s - 1))


def ref_an_residual(a, n):
    ident = GradedMap.identity(a.space)
    terms, coeffs = [], []
    for j in range(2, n):
        i = n + 1 - j
        for s in range(i):
            terms.append(a.mu(i).compose(slotted(a.mu(j), ident, i, s)))
            coeffs.append(sign_epsilon(i, j, s))
    terms.append(ref_hom_differential(a.mu(n), [a.complex] * n, a.complex))
    return map_sum(terms, coeffs + [-1])


def ref_fn_residual(m, n):
    V, W = m.source, m.target
    ident = GradedMap.identity(V.space)
    terms, coeffs = [], []
    for k in range(2, n + 1):
        for r in compositions(n, k):
            terms.append(W.mu(k).compose(
                tensor_maps_many([m.f(rp) for rp in r])))
            coeffs.append(sign_eta(r))
    for j in range(2, n + 1):
        i = n + 1 - j
        for s in range(i):
            terms.append(m.f(i).compose(slotted(V.mu(j), ident, i, s)))
            coeffs.append(-sign_nu(n, j, s))
    terms.append(ref_hom_differential(m.f(n), [V.complex] * n, W.complex))
    return map_sum(terms, coeffs + [-1])


def ref_compose(g, f, n):
    terms, coeffs = [], []
    for k in range(1, n + 1):
        for r in compositions(n, k):
            terms.append(g.f(k).compose(
                tensor_maps_many([f.f(rp) for rp in r])))
            coeffs.append(sign_eta(r))
    return map_sum(terms, coeffs)


def shift_space(space):
    """The space with every degree raised by one."""
    return GradedVectorSpace({k + 1: n for k, n in space.dims.items()})


def suspension_conjugate(m, factors, new_source, new_target, direction):
    """Conjugate a multilinear map by per-input suspensions.

    direction +1 turns f into s . f . (s^-1)^(x n) (inputs and output all
    shifted up by one); -1 is the inverse.  Both directions carry the
    Koszul sign of moving the n suspensions past the arguments, which
    depends only on the unshifted argument degrees, so the transform is
    an involution up to relabeling.
    """
    n = len(factors)
    tb = tensor_basis_tuples(factors)  # unshifted degrees
    columns = {}
    for old_k, cols in m.columns.items():
        k = old_k if direction == 1 else old_k - n
        tuples = tb[k]
        out = {}
        for col, entries in cols.items():
            # (n-1-p) is odd exactly at p = n-2, n-4, ...
            if sum(deg for deg, _ in tuples[col][-2::-2]) % 2:
                entries = {r: -x for r, x in entries.items()}
            out[col] = entries
        columns[k + n if direction == 1 else k] = out
    degree = m.degree + direction * (1 - n)
    return GradedMap.from_columns(new_source, new_target, degree, columns)


def ref_transfer(a, s, N):
    """The perturbation recursion of transfer_M1, every tree summed."""
    V, W = a.complex, s.small
    sV, sW = shift_space(V.space), shift_space(W.space)
    P = suspension_conjugate(s.f, [V.space], sV, sW, 1)
    H = suspension_conjugate(s.phi, [V.space], sV, sV, 1).scale(-1)
    b = {k: suspension_conjugate(a.mu(k), [V.space] * k,
                                 tensor_spaces([sV] * k), sV, 1)
         for k in range(2, N + 1)}
    theta = {1: suspension_conjugate(s.nabla, [W.space], sW, sV, 1)}
    nu, f = {}, {1: s.nabla}
    for n in range(2, N + 1):
        total = map_sum([b[k].compose(tensor_maps_many(
            [theta[rp] for rp in r]))
            for k in range(2, n + 1) for r in compositions(n, k)])
        theta[n] = H.compose(total)
        wn = tensor_power(W.space, n)
        nu[n] = suspension_conjugate(P.compose(total), [W.space] * n, wn,
                                     W.space, -1)
        f[n] = suspension_conjugate(theta[n], [W.space] * n, wn, V.space,
                                    -1)
    return nu, f


# ------------------------------------------------------ random structures

# degree windows of the random complexes; on the negative ones an
# operation of every arity can be nonzero
WINDOWS = ((0, 1), (-1, 0), (-2, -1), (-1, 0, 1), (-2, -1, 0))


def random_complex(rng):
    return random_chain_complex(
        rng, {d: rng.randint(1, 2) for d in rng.choice(WINDOWS)})


def random_map(rng, source, target, degree, p_zero=0.35, entries=ENTRIES):
    if rng.random() < p_zero:
        return GradedMap.zero(source, target, degree)
    blocks = {k: [[rng.choice(entries) for _ in range(source.dim(k))]
                  for _ in range(target.dim(k + degree))]
              for k in source.degrees() if target.dim(k + degree)}
    return GradedMap(source, target, degree, blocks)


def random_algebra(rng, c, N):
    return AInfinityAlgebra(c, {n: random_map(rng, tensor_power(c.space, n),
                                              c.space, n - 2)
                                for n in range(2, N + 1)}, N)


def random_morphism(rng, a, b, N):
    return AInfinityMorphism(a, b, {n: random_map(
        rng, tensor_power(a.space, n), b.space, n - 1)
        for n in range(1, N + 1)}, N)


def assert_same(got, want):
    assert (got.source, got.target, got.degree) == (
        want.source, want.target, want.degree)
    assert got.columns == want.columns


@settings(max_examples=25, deadline=None)
@given(rng=rngs)
def test_residuals_match_unskipped_sums(rng):
    """Residuals from the minimal models' differentials equal the
    hand-signed sums, also for a partial morphism truncated below its
    algebras' order, as the morphism towers build them."""
    N = rng.randint(2, 5)
    a = random_algebra(rng, random_complex(rng), N)
    b = random_algebra(rng, random_complex(rng), N)
    m = random_morphism(rng, a, b, rng.randint(1, N))
    for n in range(2, N + 1):
        assert_same(an_residual(a, n), ref_an_residual(a, n))
    for n in range(1, m.N + 1):
        assert_same(fn_residual(m, n), ref_fn_residual(m, n))


# no zero, and two denominators, so that the subtree tables carry scales
# other than 1 and the trees are summed over a common denominator
DENSE_ENTRIES = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3))


# windows where every arity has degrees to map
OPEN_WINDOWS = st.sampled_from(((-1, 0, 1), (-2, -1, 0)))


def dense_map(rng, source, target, degree):
    m = random_map(rng, source, target, degree, 0, DENSE_ENTRIES)
    assert not m.is_zero()
    return m


def dense_algebra(rng, window, N):
    """Every mu_n nonzero on four dimensions in the window's three
    degrees."""
    wide = rng.choice(window)
    c = random_chain_complex(rng, {d: 1 + (d == wide) for d in window})
    return AInfinityAlgebra(c, {n: dense_map(rng, tensor_power(c.space, n),
                                             c.space, n - 2)
                                for n in range(2, N + 1)}, N)


def dense_morphism(rng, a, b, N):
    return AInfinityMorphism(a, b, {n: dense_map(
        rng, tensor_power(a.space, n), b.space, n - 1)
        for n in range(1, N + 1)}, N)


@settings(max_examples=15, deadline=None)
@given(rng=rngs, window=OPEN_WINDOWS)
def test_window_open_residuals_match_unskipped_sums(rng, window):
    """With every operation and every f_n nonzero, on windows where every
    arity has degrees to map, the residuals that evaluate integer
    subtree tables equal the hand-signed sums."""
    N = rng.randint(2, 5)
    a, b = dense_algebra(rng, window, N), dense_algebra(rng, window, N)
    M = rng.randint(1, N)  # a partial morphism, as the towers build them
    m = dense_morphism(rng, a, b, M)
    for n in range(2, N + 1):
        assert_same(an_residual(a, n), ref_an_residual(a, n))
    for n in range(1, M + 1):
        assert_same(fn_residual(m, n), ref_fn_residual(m, n))


@settings(max_examples=25, deadline=None)
@given(rng=rngs)
def test_composites_match_unskipped_sums(rng):
    N = rng.randint(1, 4)
    algs = [random_algebra(rng, random_complex(rng), max(N, 2))
            for _ in range(3)]
    f = random_morphism(rng, algs[0], algs[1], N)
    g = random_morphism(rng, algs[1], algs[2], N)
    comp = compose_morphisms(g, f)
    for n in range(1, N + 1):
        assert_same(comp.f(n), ref_compose(g, f, n))


@settings(max_examples=20, deadline=None)
@given(rng=rngs)
def test_transfer_matches_unskipped_sums(rng):
    N = rng.randint(2, 4)
    c = random_complex(rng)
    a = random_algebra(rng, c, N)
    s = sdr_onto_homology(c)
    out, mor = transfer_M1(a, s, N)
    nu, f = ref_transfer(a, s, N)
    for n in range(2, N + 1):
        assert_same(out.mu(n), nu[n])
        assert_same(mor.f(n), f[n])


@settings(max_examples=15, deadline=None)
@given(rng=rngs, window=OPEN_WINDOWS)
def test_window_open_composites_and_transfer_match_unskipped_sums(rng,
                                                                   window):
    """With every mu_n and every f_n nonzero, on windows where every
    arity has degrees to map, the composites and the transfer, which sum
    two-level trees of subtree tables, equal the hand-signed sums."""
    N = rng.randint(2, 5)
    algs = [dense_algebra(rng, window, N) for _ in range(3)]
    f = dense_morphism(rng, algs[0], algs[1], N)
    g = dense_morphism(rng, algs[1], algs[2], N)
    comp = compose_morphisms(g, f)
    for n in range(1, N + 1):
        assert_same(comp.f(n), ref_compose(g, f, n))
    a, s = algs[0], sdr_onto_homology(algs[0].complex)
    out, mor = transfer_M1(a, s, N)
    nu, fs = ref_transfer(a, s, N)
    for n in range(2, N + 1):
        assert_same(out.mu(n), nu[n])
        assert_same(mor.f(n), fs[n])


# ------------------------------------------------------------ empty sums


def assert_typed_zero(m, source, target, degree):
    assert m.is_zero()
    assert (m.source, m.target, m.degree) == (source, target, degree)


def test_composite_of_strict_morphisms_has_typed_zero_components():
    """Every term of arity >= 2 has a zero factor, so each such
    component of the composite is an empty sum."""
    a = exterior_dga()
    scaled = AInfinityAlgebra(a.complex, {2: a.mu(2).scale(2)}, a.N)
    half = GradedMap.identity(a.space).scale(Fraction(1, 2))
    f = AInfinityMorphism(a, scaled, {1: half}, 4)
    g = AInfinityMorphism(scaled, a, {1: half.scale(4)}, 4)
    comp = compose_morphisms(g, f)
    assert comp.f(1) == GradedMap.identity(a.space)
    for n in range(2, 5):
        assert n in comp._f
        assert_typed_zero(comp.f(n), tensor_power(a.space, n), a.space,
                          n - 1)


def test_transfer_of_strict_structure_has_typed_zero_components():
    """Along the identity retract (phi = 0) every theta_n, n >= 2, is
    zero, so from arity 3 on the recursion's sums are empty; with mu_2
    zero too, they are empty from arity 2 on."""
    a = exterior_dga()
    ident = GradedMap.identity(a.space)
    s = SDRData(a.complex, a.complex, ident, ident,
                GradedMap.zero(a.space, a.space, 1))
    for mu in ({2: a.mu(2)}, {}):
        strict = AInfinityAlgebra(a.complex, mu, 5)
        out, mor = transfer_M1(strict, s)
        assert out.mu(2) == strict.mu(2)
        for n in range(3, 6):
            assert_typed_zero(out.mu(n), tensor_power(a.space, n), a.space,
                              n - 2)
        for n in range(2, 6):
            assert_typed_zero(mor.f(n), tensor_power(a.space, n), a.space,
                              n - 1)


def test_empty_complex_products_are_typed():
    empty = GradedVectorSpace({})
    c = ChainComplex.zero_differential(empty)
    a = AInfinityAlgebra(c, {}, 4)
    for n in range(2, 5):
        assert_typed_zero(an_residual(a, n), tensor_power(empty, n), empty,
                          n - 3)
