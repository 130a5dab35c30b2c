"""Tests for higher-structure coherence: Stasheff and morphism identity
checks, obstruction-solving towers on contractible complexes,
composition, and agreement with the operad-action oracle."""

import random
from fractions import Fraction

import pytest

from shalg.exactlin import (
    ChainComplex,
    GradedMap,
    GradedVectorSpace,
    hom_differential,
    kernel_basis,
    make_matrix,
    solve_map_equation,
    tensor_power,
)
from shalg.operadcore import action_check, builtin_presentation
from shalg.ainfty import (
    AInfinityAlgebra,
    AInfinityMorphism,
    action_from_structure,
    an_residual,
    check_all_An,
    check_all_Fn,
    check_An,
    check_Fn,
    compose_morphisms,
    fn_residual,
    identity_morphism,
    morphism_action,
    structure_from_action,
    underlying,
)


# ---------------------------------------------------------------- helpers


def contractible():
    """Acyclic complex with dims 1, 2, 1 in degrees 0, 1, 2."""
    v = GradedVectorSpace({0: 1, 1: 2, 2: 1})
    d = GradedMap(v, v, -1, {1: [[1, 0]], 2: [[0], [1]]})
    return ChainComplex(v, d)


def random_map(rng, source, target, degree, lo=-2, hi=2):
    blocks = {}
    for k in source.degrees():
        nt = target.dim(k + degree)
        ns = source.dim(k)
        if nt and ns:
            blocks[k] = [[Fraction(rng.randint(lo, hi)) for _ in range(ns)]
                         for _ in range(nt)]
    return GradedMap(source, target, degree, blocks)


def random_chain_complex(rng, dims):
    """Random complex on the given dims: each differential block has
    columns drawn from the kernel of the previous one."""
    v = GradedVectorSpace(dims)
    blocks = {}
    prev = None  # matrix of d at one degree below
    for k in sorted(dims):
        ns, nt = v.dim(k), v.dim(k - 1)
        if ns == 0 or nt == 0:
            prev = None
            continue
        if prev is None:
            blk = [[Fraction(rng.randint(-2, 2)) for _ in range(ns)]
                   for _ in range(nt)]
        else:
            ker = kernel_basis(make_matrix(prev, len(prev), len(prev[0])))
            blk = [[Fraction(0)] * ns for _ in range(nt)]
            for c in range(ns):
                for vec in ker:
                    w = rng.randint(-2, 2)
                    for r in range(nt):
                        blk[r][c] += w * vec[r]
        blocks[k] = blk
        prev = blk
    d = GradedMap(v, v, -1, blocks)
    return ChainComplex(v, d)


def random_chain_map(rng, c, target_c, degree=0):
    """[y, d] for random y: always a chain map of the given degree."""
    y = random_map(rng, c.space, target_c.space, degree + 1)
    return hom_differential(y, [c], target_c)


def random_product(rng, c):
    """[y, d] for random y of arity 2: a chain-level product whose
    associator is automatically a boundary obstruction."""
    y = random_map(rng, tensor_power(c.space, 2), c.space, 1)
    return hom_differential(y, [c, c], c)


def solve_structure(c, mu2, N):
    """Extend a chain-level product to a coherent family by solving each
    identity for the next operation; requires the obstruction to be a
    boundary, which holds on a contractible complex."""
    mu = {2: mu2}
    assert check_An(AInfinityAlgebra(c, mu, N), 2)["ok"]
    for n in range(3, N + 1):
        inner = an_residual(AInfinityAlgebra(c, mu, N), n)
        res = solve_map_equation(
            lambda m: hom_differential(m, [c] * n, c),
            inner, tensor_power(c.space, n), c.space, n - 2)
        assert res.consistent, f"obstruction at arity {n} is not a boundary"
        mu[n] = res.solution
    return AInfinityAlgebra(c, mu, N)


def solve_morphism(a, b, f1, N):
    """Extend a chain map between coherent structures to a coherent
    morphism by solving each identity for the next coefficient."""
    f = {1: f1}
    assert check_Fn(AInfinityMorphism(a, b, f, N), 1)["ok"]
    for n in range(2, N + 1):
        inner = fn_residual(AInfinityMorphism(a, b, f, N), n)
        res = solve_map_equation(
            lambda m: hom_differential(m, [a.complex] * n, b.complex),
            inner, tensor_power(a.space, n), b.space, n - 1)
        assert res.consistent, f"obstruction at arity {n} is not a boundary"
        f[n] = res.solution
    return AInfinityMorphism(a, b, f, N)


def truncated_polynomial_algebra():
    """k[x]/(x^2) in degree 0: strict, associative, zero differential."""
    v = GradedVectorSpace({0: 2})
    c = ChainComplex.zero_differential(v)
    # basis 1, x with x.x = 0
    mu2 = GradedMap(tensor_power(v, 2), v, 0,
                    {0: [[1, 0, 0, 0], [0, 1, 1, 0]]})
    return AInfinityAlgebra(c, {2: mu2}, 4)


# ------------------------------------------------------- basic structures


def test_algebra_validation():
    c = contractible()
    with pytest.raises(ValueError):
        AInfinityAlgebra(c, {2: GradedMap.zero(tensor_power(c.space, 2),
                                               c.space, 1)}, 5)
    with pytest.raises(ValueError):
        AInfinityAlgebra(c, {6: GradedMap.zero(tensor_power(c.space, 6),
                                               c.space, 4)}, N=5)
    a = AInfinityAlgebra(c, {}, 4)
    assert a.is_strict()
    assert a.mu(3).is_zero() and a.mu(3).degree == 1


@pytest.mark.parametrize("build, message", [
    (lambda c, a: AInfinityAlgebra(c, {}, 1),
     "truncation order must be at least 2"),
    (lambda c, a: AInfinityAlgebra(c, {2: GradedMap.zero(c.space, c.space,
                                                         0)}, 5),
     "mu_2 has wrong source or target"),
    (lambda c, a: AInfinityMorphism(a, a, {3: GradedMap.zero(
        tensor_power(c.space, 3), c.space, 2)}, 2),
     "f_3 outside truncation 1..2"),
    (lambda c, a: AInfinityMorphism(a, a, {1: GradedMap.zero(
        tensor_power(c.space, 2), c.space, 0)}),
     "f_1 has wrong source or target"),
], ids=["algebra-N", "algebra-source", "morphism-arity", "morphism-source"])
def test_structure_input_checks(build, message):
    c = contractible()
    with pytest.raises(ValueError) as info:
        build(c, AInfinityAlgebra(c, {}, 4))
    assert str(info.value) == message


def test_morphism_validation():
    c = contractible()
    a = AInfinityAlgebra(c, {}, 4)
    with pytest.raises(ValueError):
        AInfinityMorphism(a, a, {2: GradedMap.zero(tensor_power(c.space, 2),
                                                   c.space, 0)})
    m = identity_morphism(a)
    assert m.is_strict()
    assert underlying(m) == GradedMap.identity(c.space)


def test_strict_associative_passes():
    a = truncated_polynomial_algebra()
    out = check_all_An(a)
    assert out["ok"]
    assert [e["n"] for e in out["entries"]] == [2, 3, 4]


def test_nonassociative_fails_exactly_at_three():
    v = GradedVectorSpace({0: 2})
    c = ChainComplex.zero_differential(v)
    # e1.e1 = e2, e0.e1 = e1: not associative
    mu2 = GradedMap(tensor_power(v, 2), v, 0,
                    {0: [[1, 0, 0, 0], [0, 1, 0, 1]]})
    a = AInfinityAlgebra(c, {2: mu2}, 4)
    assert check_An(a, 2)["ok"]
    assert not check_An(a, 3)["ok"]
    assert not check_An(a, 3)["residual"].is_zero()
    # arity 4 identity only involves mu2, mu3, mu4; with mu3 = mu4 = 0
    # every term contains mu3 or mu4, so it holds vacuously here? no:
    # it contains mu2(mu3) type terms only, all zero.
    assert check_An(a, 4)["ok"]


def test_chain_map_condition_is_f1_check():
    rng = random.Random(21)
    c = contractible()
    a = AInfinityAlgebra(c, {}, 3)
    good = random_chain_map(rng, c, c)
    bad = random_map(rng, c.space, c.space, 0)
    assert check_Fn(AInfinityMorphism(a, a, {1: good}, 3), 1)["ok"]
    res = check_Fn(AInfinityMorphism(a, a, {1: bad}, 3), 1)
    # a generic degree-0 map is not a chain map here
    assert not res["ok"]


def test_identity_morphism_coherent():
    rng = random.Random(22)
    c = contractible()
    a = solve_structure(c, random_product(rng, c), 4)
    assert check_all_Fn(identity_morphism(a))["ok"]


# ---------------------------------------------------------------- towers


def test_obstruction_tower_solves_and_is_coherent():
    rng = random.Random(23)
    c = contractible()
    a = solve_structure(c, random_product(rng, c), 5)
    out = check_all_An(a)
    assert out["ok"]
    # this seed produces a genuinely higher structure
    assert not a.mu(2).is_zero()
    assert not a.mu(3).is_zero()
    assert not a.is_strict()


def test_residual_detects_corrupted_structure():
    rng = random.Random(23)
    c = contractible()
    a = solve_structure(c, random_product(rng, c), 4)
    mu = {n: a.mu(n) for n in range(2, 5)}
    mu[3] = mu[3].scale(Fraction(3, 2))
    bad = AInfinityAlgebra(c, mu, 4)
    assert check_An(bad, 2)["ok"]
    assert not check_all_An(bad)["ok"]


def test_morphism_tower_solves_and_is_coherent():
    rng = random.Random(24)
    c1, c2 = contractible(), contractible()
    a = solve_structure(c1, random_product(rng, c1), 4)
    b = solve_structure(c2, random_product(rng, c2), 4)
    m = solve_morphism(a, b, random_chain_map(rng, c1, c2), 4)
    assert check_all_Fn(m)["ok"]
    assert not m.f(1).is_zero()


# ------------------------------------------------------------ composition


def test_compose_with_identity():
    rng = random.Random(25)
    c1, c2 = contractible(), contractible()
    a = solve_structure(c1, random_product(rng, c1), 4)
    b = solve_structure(c2, random_product(rng, c2), 4)
    m = solve_morphism(a, b, random_chain_map(rng, c1, c2), 4)
    left = compose_morphisms(identity_morphism(b), m)
    right = compose_morphisms(m, identity_morphism(a))
    for n in range(1, 5):
        assert left.f(n) == m.f(n)
        assert right.f(n) == m.f(n)


def test_composite_of_coherent_morphisms_is_coherent():
    rng = random.Random(26)
    cs = [contractible() for _ in range(3)]
    algs = [solve_structure(c, random_product(rng, c), 4) for c in cs]
    m1 = solve_morphism(algs[0], algs[1],
                        random_chain_map(rng, cs[0], cs[1]), 4)
    m2 = solve_morphism(algs[1], algs[2],
                        random_chain_map(rng, cs[1], cs[2]), 4)
    comp = compose_morphisms(m2, m1)
    assert check_all_Fn(comp)["ok"]
    assert underlying(comp) == underlying(m2).compose(underlying(m1))


def test_composition_is_associative():
    rng = random.Random(27)
    cs = [contractible() for _ in range(4)]
    algs = [solve_structure(c, random_product(rng, c), 4) for c in cs]
    ms = [solve_morphism(algs[i], algs[i + 1],
                         random_chain_map(rng, cs[i], cs[i + 1]), 4)
          for i in range(3)]
    left = compose_morphisms(compose_morphisms(ms[2], ms[1]), ms[0])
    right = compose_morphisms(ms[2], compose_morphisms(ms[1], ms[0]))
    for n in range(1, 5):
        assert left.f(n) == right.f(n)


def test_strict_composite_of_strict_morphisms():
    a = truncated_polynomial_algebra()
    m = identity_morphism(a)
    comp = compose_morphisms(m, m)
    assert comp.is_strict()


def test_compose_requires_the_same_middle_operations():
    """A middle complex in common is not enough: with mu_2 scaled by 2
    on one side, f_1 = 1/2 is coherent, but the identity of the other
    side does not compose with it."""
    a = truncated_polynomial_algebra()
    scaled = AInfinityAlgebra(a.complex, {2: a.mu(2).scale(2)}, a.N)
    f = AInfinityMorphism(
        a, scaled, {1: GradedMap.identity(a.space).scale(Fraction(1, 2))})
    assert check_all_Fn(f)["ok"]
    with pytest.raises(ValueError, match="not composable"):
        compose_morphisms(identity_morphism(a), f)
    comp = compose_morphisms(identity_morphism(scaled), f)
    assert all(comp.f(n) == f.f(n) for n in range(1, f.N + 1))


# ------------------------------------------- agreement with operad actions


def test_structure_action_round_trip():
    rng = random.Random(28)
    c = contractible()
    a = solve_structure(c, random_product(rng, c), 4)
    pres, action, complexes = action_from_structure(a)
    assert pres.name == "ass-minimal"
    back = structure_from_action(action, complexes, 4)
    for n in range(2, 5):
        assert back.mu(n) == a.mu(n)


def test_stasheff_check_agrees_with_action_check():
    """Per-arity agreement of the direct identity check with the operad
    action criterion, on random (mostly incoherent) structures."""
    rng = random.Random(29)
    pres = builtin_presentation("ass-minimal", 4)
    for _ in range(20):
        c = random_chain_complex(rng, {0: 1, 1: 2, 2: 1})
        mu = {n: random_map(rng, tensor_power(c.space, n), c.space, n - 2)
              for n in range(2, 5)}
        a = AInfinityAlgebra(c, mu, 4)
        out = action_check(pres, {f"mu{n}": mu[n] for n in mu},
                           {"v": c}, up_to_arity=4)
        by_gen = {e["generator"]: e["ok"] for e in out["entries"]}
        for n in range(2, 5):
            assert by_gen[f"mu{n}"] == check_An(a, n)["ok"]


def test_morphism_check_agrees_with_action_check():
    rng = random.Random(30)
    for trial in range(12):
        c1 = random_chain_complex(rng, {0: 1, 1: 2, 2: 1})
        c2 = random_chain_complex(rng, {0: 2, 1: 1, 2: 1})
        a = AInfinityAlgebra(c1, {n: random_map(
            rng, tensor_power(c1.space, n), c1.space, n - 2)
            for n in range(2, 5)}, 4)
        b = AInfinityAlgebra(c2, {n: random_map(
            rng, tensor_power(c2.space, n), c2.space, n - 2)
            for n in range(2, 5)}, 4)
        m = AInfinityMorphism(a, b, {n: random_map(
            rng, tensor_power(c1.space, n), c2.space, n - 1)
            for n in range(1, 5)}, 4)
        pres, action, complexes = morphism_action(m)
        out = action_check(pres, action, complexes, up_to_arity=4)
        by_gen = {e["generator"]: e["ok"] for e in out["entries"]}
        for n in range(1, 5):
            assert by_gen[f"f{n}"] == check_Fn(m, n)["ok"], (trial, n)
        for n in range(2, 5):
            assert by_gen[f"mu{n}"] == check_An(a, n)["ok"]
            assert by_gen[f"nu{n}"] == check_An(b, n)["ok"]


def test_coherent_morphism_action_passes_in_full():
    rng = random.Random(31)
    c1, c2 = contractible(), contractible()
    a = solve_structure(c1, random_product(rng, c1), 4)
    b = solve_structure(c2, random_product(rng, c2), 4)
    m = solve_morphism(a, b, random_chain_map(rng, c1, c2), 4)
    pres, action, complexes = morphism_action(m)
    assert action_check(pres, action, complexes, up_to_arity=4)["ok"]
