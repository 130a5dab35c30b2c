"""Tests for SDR data, side conditions, resolution actions, and the
constructive homotopy-invariance moves."""

import random
from fractions import Fraction

import pytest

from shalg.exactlin import (
    ChainComplex,
    GradedMap,
    GradedVectorSpace,
    hom_differential,
    homology_with_splitting,
    kernel_basis,
    make_matrix,
    tensor_power,
)
from shalg.ainfty import (
    AInfinityAlgebra,
    AInfinityMorphism,
    an_residual,
    check_all_An,
    check_all_Fn,
    compose_morphisms,
    fn_residual,
    identity_morphism,
    underlying,
)
from shalg import transfer
from shalg.exactlin import solve_map_equation
from shalg.operadcore import action_check, builtin_presentation
from shalg.transfer import (
    HomotopyEquivalence,
    SDRData,
    chain_M4,
    check_side_conditions,
    invert_M3,
    normalize_side_conditions,
    perturb_M2,
    riso_zero_extension,
    sdr_from_equivalence,
    sdr_onto_homology,
    transfer_M1,
    transfer_S,
)


# ------------------------------------------------------------- generators


def random_chain_complex(rng, dims):
    space = GradedVectorSpace(dims)
    blocks = {}
    prev = None
    for k in sorted(dims):
        n, m = dims[k], dims.get(k - 1, 0)
        if m == 0:
            prev = None
            continue
        if prev is None:
            mat = [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                   for _ in range(m)]
        else:
            kb = kernel_basis(prev)
            mat = [[Fraction(0)] * n for _ in range(m)]
            for j in range(n):
                for v in kb:
                    c = Fraction(rng.randint(-2, 2))
                    for i in range(m):
                        mat[i][j] += c * v[i]
        blocks[k] = mat
        prev = make_matrix(mat, m, n)
    return ChainComplex(space, GradedMap(space, space, -1, blocks))


def random_map(rng, source, target, degree):
    blocks = {}
    for k in source.degrees():
        nt, ns = target.dim(k + degree), source.dim(k)
        if nt and ns:
            blocks[k] = [[Fraction(rng.randint(-2, 2)) for _ in range(ns)]
                         for _ in range(nt)]
    return GradedMap(source, target, degree, blocks)


def exterior_dga():
    """Exterior algebra on one even and one odd generator, with the
    differential sending the odd one to the even one; homology is one
    class in degree 0 and one in degree 1."""
    sp = GradedVectorSpace({0: 2, 1: 2}, {0: ("1", "u"), 1: ("v", "uv")})
    d = GradedMap(sp, sp, -1, {1: [[0, 0], [1, 0]]})
    cx = ChainComplex(sp, d)
    table = {("1", "1"): "1", ("1", "u"): "u", ("1", "v"): "v",
             ("1", "uv"): "uv", ("u", "1"): "u", ("v", "1"): "v",
             ("uv", "1"): "uv", ("u", "v"): "uv", ("v", "u"): "uv"}
    names = {(0, 0): "1", (0, 1): "u", (1, 0): "v", (1, 1): "uv"}
    idx = {0: {"1": 0, "u": 1}, 1: {"v": 0, "uv": 1}}
    from shalg.exactlin import tensor_basis_tuples
    tb = tensor_basis_tuples([sp, sp])
    blocks = {}
    for k, tuples in tb.items():
        mat = [[Fraction(0)] * len(tuples) for _ in range(sp.dim(k))]
        for col, tup in enumerate(tuples):
            prod = table.get((names[tup[0]], names[tup[1]]))
            if prod is not None:
                mat[idx[k][prod]][col] = Fraction(1)
        blocks[k] = mat
    mu2 = GradedMap(tensor_power(sp, 2), sp, 0, blocks)
    return AInfinityAlgebra(cx, {2: mu2}, 5)


def solve_structure(c, mu2, N):
    """Coherent structure extending a chain-level product, or None."""
    mu = {2: mu2} if not mu2.is_zero() else {}
    for n in range(3, N + 1):
        a = AInfinityAlgebra(c, mu, N)
        inner = an_residual(a, n).add(
            hom_differential(a.mu(n), [c] * n, c), 1, 1)
        res = solve_map_equation(
            lambda x: hom_differential(x, [c] * n, c), inner,
            tensor_power(c.space, n), c.space, n - 2)
        if not res.consistent:
            return None
        if not res.solution.is_zero():
            mu[n] = res.solution
    return AInfinityAlgebra(c, mu, N)


def perturbed_sdr(rng, dims):
    """SDR onto homology whose homotopy violates side conditions, built
    by adding a bracket-commuting perturbation."""
    c = random_chain_complex(rng, dims)
    hd = homology_with_splitting(c)
    small = ChainComplex(hd.homology,
                         GradedMap.zero(hd.homology, hd.homology, -1))
    y = random_map(rng, c.space, c.space, 2)
    z = c.differential.compose(y).add(y.compose(c.differential), 1, -1)
    rho = random_map(rng, hd.homology, hd.homology, 1)
    z2 = hd.inclusion.compose(rho).compose(hd.projection)
    phi = hd.splitting_homotopy.add(z, 1, 1).add(z2, 1, 1)
    return SDRData(c, small, hd.inclusion, hd.projection, phi)


# ------------------------------------------------------- SDR construction


def _equivalence_maps(bad):
    """Maps f, g, h, l on the acyclic complex Q -> Q in degrees 1, 0
    making a homotopy equivalence, except the one named bad: a map that
    is no chain map for f or g, and for h or l a contraction in degree 0
    where the zero map is the homotopy."""
    sp = GradedVectorSpace({0: 1, 1: 1})
    c = ChainComplex(sp, GradedMap(sp, sp, -1, {1: [[1]]}))
    maps = {"f": GradedMap.identity(sp), "g": GradedMap.identity(sp),
            "h": GradedMap.zero(sp, sp, 1), "l": GradedMap.zero(sp, sp, 1)}
    maps[bad] = (GradedMap(sp, sp, 0, {0: [[1]]}) if bad in "fg" else
                 GradedMap(sp, sp, 1, {0: [[1]]}))
    return c, maps


@pytest.mark.parametrize("bad, message", [
    ("f", "f is not a chain map"),
    ("g", "g is not a chain map"),
    ("h", "h is not a homotopy from 1 to g f"),
    ("l", "l is not a homotopy from 1 to f g"),
])
def test_homotopy_equivalence_input_checks(bad, message):
    c, m = _equivalence_maps(bad)
    with pytest.raises(ValueError) as info:
        HomotopyEquivalence(c, c, m["f"], m["g"], m["h"], m["l"])
    assert str(info.value) == message


@pytest.mark.parametrize("bad, message", [
    ("f", "f is not a chain map"),
    ("g", "g is not a chain map"),
    ("h", "h is not a homotopy from 1 to g f"),
])
def test_transfer_s_input_checks(bad, message):
    c, m = _equivalence_maps(bad)
    with pytest.raises(ValueError) as info:
        transfer_S(AInfinityAlgebra(c, {}, 3), c, m["f"], m["g"], m["h"])
    assert str(info.value) == message


def test_sdr_validation_rejects_wrong_data():
    rng = random.Random(0)
    sp = GradedVectorSpace({0: 2, 1: 1})
    c = ChainComplex(sp, GradedMap(sp, sp, -1, {1: [[0], [1]]}))
    hd = homology_with_splitting(c)
    small = ChainComplex(hd.homology,
                         GradedMap.zero(hd.homology, hd.homology, -1))
    with pytest.raises(ValueError):
        SDRData(c, small, hd.inclusion, hd.projection,
                GradedMap.zero(c.space, c.space, 0))
    with pytest.raises(ValueError):
        SDRData(c, small, hd.inclusion, hd.projection.scale(2),
                hd.splitting_homotopy)
    bad_phi = hd.splitting_homotopy.add(
        random_map(rng, c.space, c.space, 1), 1, 1)
    with pytest.raises(ValueError):
        SDRData(c, small, hd.inclusion, hd.projection, bad_phi)


def test_homology_splitting_sdr_is_clean():
    for seed in range(5):
        rng = random.Random(seed)
        s = sdr_onto_homology(random_chain_complex(rng, {0: 2, 1: 3, 2: 1}))
        flags = check_side_conditions(s)
        assert flags["ok"]


def test_acyclic_two_term_sdr_onto_zero():
    sp = GradedVectorSpace({0: 1, 1: 1})
    c = ChainComplex(sp, GradedMap(sp, sp, -1, {1: [[1]]}))
    zero_space = GradedVectorSpace({})
    small = ChainComplex(zero_space,
                         GradedMap.zero(zero_space, zero_space, -1))
    phi = GradedMap(sp, sp, 1, {0: [[-1]]})
    s = SDRData(c, small, GradedMap.zero(zero_space, sp, 0),
                GradedMap.zero(sp, zero_space, 0), phi)
    assert check_side_conditions(s)["ok"]


def test_perturbed_phi_violates_conditions():
    hit = 0
    for seed in range(8):
        s = perturbed_sdr(random.Random(seed), {0: 2, 1: 3, 2: 2})
        flags = check_side_conditions(s)
        if not flags["ok"]:
            hit += 1
    assert hit >= 6


def test_normalize_side_conditions():
    for seed in range(8):
        s = perturbed_sdr(random.Random(seed), {0: 2, 1: 3, 2: 2})
        out = normalize_side_conditions(s)
        assert check_side_conditions(out)["ok"]
        assert out.nabla == s.nabla and out.f == s.f
        # the constructor re-verified the homotopy identity exactly
    clean = sdr_onto_homology(
        random_chain_complex(random.Random(3), {0: 2, 1: 2}))
    again = normalize_side_conditions(clean)
    assert check_side_conditions(again)["ok"]


# ------------------------------------------- side-condition dependencies


def test_two_conditions_force_the_third():
    """With the SDR identities, vanishing of phi phi plus either other
    condition forces the remaining one; sampled as a property check."""
    for seed in range(10):
        s = perturbed_sdr(random.Random(seed), {0: 2, 1: 3, 2: 2})
        flags = check_side_conditions(s)
        if flags["phi_phi"] and flags["phi_nabla"]:
            assert flags["f_phi"]
        if flags["phi_phi"] and flags["f_phi"]:
            assert flags["phi_nabla"]


# --------------------------------------------------- engineered violations


def _pairs_complex():
    """Harmonic class x in degree 0 plus chained acyclic pairs
    (e1 -> b1), (e2 -> b2), (e3 -> b3) in rising degrees.

    Degree bases: 0: (x, b1); 1: (e1, b2); 2: (e2, b3); 3: (e3,)."""
    sp = GradedVectorSpace({0: 2, 1: 2, 2: 2, 3: 1})
    d = GradedMap(sp, sp, -1, {
        1: [[0, 0], [1, 0]],           # e1 -> b1
        2: [[0, 0], [1, 0]],           # e2 -> b2
        3: [[0], [1]],                 # e3 -> b3
    })
    c = ChainComplex(sp, d)
    hd = homology_with_splitting(c)
    small = ChainComplex(hd.homology,
                         GradedMap.zero(hd.homology, hd.homology, -1))
    return c, hd, small


def engineered_violation(kind):
    c, hd, small = _pairs_complex()
    phi = hd.splitting_homotopy
    if kind == "phi_nabla":
        # send the harmonic class to a boundary one degree up
        z = GradedMap(c.space, c.space, 1, {0: [[0, 0], [1, 0]]})
    elif kind == "f_phi":
        # the homology of _pairs_complex has no class two degrees above
        # a pair top, so use a complex with one: harmonic x (degree 0)
        # and y (degree 2) plus one pair e (1) -> b (0)
        sp = GradedVectorSpace({0: 2, 1: 1, 2: 1})
        d = GradedMap(sp, sp, -1, {1: [[0], [1]]})  # e -> b
        c = ChainComplex(sp, d)
        hd = homology_with_splitting(c)
        small = ChainComplex(hd.homology,
                             GradedMap.zero(hd.homology, hd.homology, -1))
        phi = hd.splitting_homotopy
        z = GradedMap(c.space, c.space, 1, {1: [[1]]})  # e -> y
    elif kind == "phi_phi":
        # chain map of degree +1 shifting pair i to pair i+1; its
        # square is the only nonzero contribution to phi' phi'
        z = GradedMap(c.space, c.space, 1, {
            0: [[0, 0], [0, 1]],           # b1 -> b2
            1: [[-1, 0], [0, 1]],          # e1 -> -e2, b2 -> b3
            2: [[-1, 0]],                  # e2 -> -e3
        })
    else:
        raise AssertionError(kind)
    assert hom_differential(z, [c], c).is_zero()
    return SDRData(c, small, hd.inclusion, hd.projection, phi.add(z, 1, 1))


def test_engineered_violations_have_expected_flags():
    s = engineered_violation("phi_nabla")
    flags = check_side_conditions(s)
    assert not flags["phi_nabla"]
    s = engineered_violation("f_phi")
    flags = check_side_conditions(s)
    assert not flags["f_phi"] and flags["phi_nabla"]
    s = engineered_violation("phi_phi")
    flags = check_side_conditions(s)
    assert not flags["phi_phi"]
    assert flags["phi_nabla"] and flags["f_phi"]


# ------------------------------------------------------- zero extension


def test_riso_zero_extension_clean_sdr():
    for seed in range(5):
        rng = random.Random(seed)
        s = sdr_onto_homology(random_chain_complex(rng, {0: 2, 1: 3, 2: 1}))
        res = riso_zero_extension(s)
        assert res["ok"]
        act = res["action"]
        assert action_check(builtin_presentation("riso"), act.assignment,
                            {"a": act.small, "b": act.big}, 1)["ok"]


def test_riso_zero_extension_iff_side_conditions():
    for seed in range(12):
        s = perturbed_sdr(random.Random(seed), {0: 2, 1: 3, 2: 2})
        ok = check_side_conditions(s)["ok"]
        res = riso_zero_extension(s)
        assert res["ok"] == ok
        if not ok:
            assert res["failed_generator"] in ("f2", "g2", "g3")
            assert not res["obstruction"].is_zero()


def test_riso_zero_extension_localization():
    cases = {"phi_nabla": "f2", "f_phi": "g2", "phi_phi": "g3"}
    for kind, gen in cases.items():
        res = riso_zero_extension(engineered_violation(kind))
        assert not res["ok"]
        assert res["failed_generator"] == gen


def test_riso_obstruction_maps():
    s = engineered_violation("phi_nabla")
    res = riso_zero_extension(s)
    # the compatibility defect at the first corrector is (a sign times)
    # phi . nabla
    obs = res["obstruction"]
    pn = s.phi.compose(s.nabla)
    assert obs == pn or obs == pn.scale(-1)
    s = engineered_violation("phi_phi")
    res = riso_zero_extension(s)
    pp = s.phi.compose(s.phi)
    assert res["obstruction"] in (pp, pp.scale(-1))


# ------------------------------------------------------------- move (M1)


def test_exterior_dga_is_coherent_at_n6():
    a = exterior_dga()
    a6 = AInfinityAlgebra(a.complex, {2: a.mu(2)}, 6)
    res = check_all_An(a6)
    assert res["ok"]
    assert [e["n"] for e in res["entries"]] == [2, 3, 4, 5, 6]


def test_exterior_dga_is_coherent_at_n12():
    """Every operation of arity >= 3 is zero, so every residual term of
    arity >= 4 has a zero factor: each residual is a typed zero."""
    a = exterior_dga()
    res = check_all_An(AInfinityAlgebra(a.complex, {2: a.mu(2)}, 12))
    assert res["ok"]
    assert [e["n"] for e in res["entries"]] == list(range(2, 13))
    for e in res["entries"]:
        r = e["residual"]
        assert (r.source, r.target, r.degree) == (
            tensor_power(a.space, e["n"]), a.space, e["n"] - 3)


def test_transfer_m1_exterior_dga():
    a = exterior_dga()
    s = sdr_onto_homology(a.complex)
    wa, mor = transfer_M1(a, s)
    assert check_all_An(wa)["ok"]
    assert check_all_Fn(mor)["ok"]
    assert underlying(mor) == s.nabla
    # arity 2 is the unique one-vertex tree
    from shalg.exactlin import tensor_maps_many
    expected = s.f.compose(a.mu(2)).compose(
        tensor_maps_many([s.nabla, s.nabla]))
    assert wa.mu(2) == expected


def test_transfer_m1_zero_differential_is_identity():
    rng = random.Random(4)
    sp = GradedVectorSpace({0: 2, 1: 2})
    c = ChainComplex(sp, GradedMap.zero(sp, sp, -1))
    mu3 = random_map(rng, tensor_power(sp, 3), sp, 1)
    a = AInfinityAlgebra(c, {3: mu3}, 4)
    assert check_all_An(a)["ok"]
    s = SDRData(c, c, GradedMap.identity(sp), GradedMap.identity(sp),
                GradedMap.zero(sp, sp, 1))
    wa, mor = transfer_M1(a, s)
    assert mor.is_strict()
    for n in range(2, 5):
        assert wa.mu(n) == a.mu(n)


def test_transfer_m1_requires_side_conditions():
    s = engineered_violation("phi_phi")
    sp = s.big.space
    a = AInfinityAlgebra(s.big, {}, 3)
    with pytest.raises(ValueError):
        transfer_M1(a, s)


@pytest.mark.parametrize("kind, violated", [
    ("phi_nabla", "phi_phi, phi_nabla"),
    ("f_phi", "phi_phi, f_phi"),
    ("phi_phi", "phi_phi")], ids=["phi_nabla", "f_phi", "phi_phi"])
def test_transfer_m1_names_the_violated_side_conditions(kind, violated):
    s = engineered_violation(kind)
    a = AInfinityAlgebra(s.big, {}, 3)
    with pytest.raises(ValueError,
                       match=f"^side conditions violated: {violated}$"):
        transfer_M1(a, s)


def test_sdr_evaluates_its_side_conditions_when_built(monkeypatch):
    """Building an SDR runs riso's residuals once each, the four retract
    identities then the three side conditions; check_side_conditions
    reads the flags kept and runs none."""
    names = []
    residual = transfer.generator_residual

    def counting(pres, action, complexes, name):
        names.append(name)
        return residual(pres, action, complexes, name)

    monkeypatch.setattr(transfer, "generator_residual", counting)
    s = sdr_onto_homology(exterior_dga().complex)
    assert names == ["f", "g", "h", "l", "g3", "f2", "g2"]
    assert check_side_conditions(s) == {
        "phi_phi": True, "phi_nabla": True, "f_phi": True, "ok": True}
    assert names == ["f", "g", "h", "l", "g3", "f2", "g2"]


def test_transfer_m1_rejects_another_differential():
    """A retract of the structure's space under another differential is
    no retract of its complex, even where the side conditions hold."""
    a = exterior_dga()
    s = sdr_onto_homology(ChainComplex.zero_differential(a.space))
    assert check_side_conditions(s)["ok"]
    with pytest.raises(ValueError, match="big complex"):
        transfer_M1(a, s)


def test_transfer_m1_random_structures():
    done = 0
    for seed in (9, 13, 17, 19, 23, 29):
        rng = random.Random(seed)
        c = random_chain_complex(rng, {0: 2, 1: 2})
        hd = homology_with_splitting(c)
        hdims = {k: v for k, v in hd.homology.dims.items() if v}
        if not hdims or sum(hdims.values()) == 4:
            continue
        y = random_map(rng, tensor_power(c.space, 2), c.space, 1)
        a = solve_structure(c, hom_differential(y, [c, c], c), 3)
        if a is None:
            continue
        s = sdr_onto_homology(c)
        wa, mor = transfer_M1(a, s)
        assert check_all_An(wa)["ok"]
        assert check_all_Fn(mor)["ok"]
        done += 1
    assert done >= 3


# -------------------------------------------------------------- move (S)


def test_transfer_s_isomorphism_conjugates():
    a = exterior_dga()
    sp = a.space
    f = GradedMap.identity(sp).scale(3)
    g = GradedMap.identity(sp).scale(Fraction(1, 3))
    h = GradedMap.zero(sp, sp, 1)
    wa, mor = transfer_S(a, a.complex, f, g, h)
    assert check_all_An(wa)["ok"]
    assert check_all_Fn(mor)["ok"]
    assert underlying(mor) == g
    assert wa.mu(2) == a.mu(2).scale(Fraction(1, 3))


def test_transfer_s_matches_m1_on_sdr_data():
    a = exterior_dga()
    s = sdr_onto_homology(a.complex)
    wa1, mor1 = transfer_M1(a, s)
    wa2, mor2 = transfer_S(a, s.small, s.f, s.nabla, s.phi)
    for n in range(2, 6):
        assert wa1.mu(n) == wa2.mu(n)
    for n in range(1, 6):
        assert mor1.f(n) == mor2.f(n)
    assert check_all_An(wa2)["ok"]


def test_transfer_s_zero_target():
    sp = GradedVectorSpace({0: 1, 1: 1})
    c = ChainComplex(sp, GradedMap(sp, sp, -1, {1: [[1]]}))
    a = AInfinityAlgebra(c, {}, 3)
    zero_space = GradedVectorSpace({})
    w = ChainComplex(zero_space, GradedMap.zero(zero_space, zero_space, -1))
    f = GradedMap.zero(sp, zero_space, 0)
    g = GradedMap.zero(zero_space, sp, 0)
    h = GradedMap(sp, sp, 1, {0: [[-1]]})
    wa, mor = transfer_S(a, w, f, g, h)
    assert wa.is_strict()
    assert check_all_An(wa)["ok"]


# ------------------------------------------------------------- move (M2)


def coherent_morphism(seed, N=4, dims={0: 1, 1: 2, 2: 1}):
    """Random coherent morphism between two tower-solved structures on a
    contractible complex."""
    rng = random.Random(seed)
    c = random_chain_complex(rng, dims)
    y = random_map(rng, tensor_power(c.space, 2), c.space, 1)
    a = solve_structure(c, hom_differential(y, [c, c], c), N)
    y2 = random_map(rng, tensor_power(c.space, 2), c.space, 1)
    b = solve_structure(c, hom_differential(y2, [c, c], c), N)
    assert a is not None and b is not None
    f1 = GradedMap.identity(c.space)
    comps = {1: f1}
    for n in range(2, N + 1):
        partial = AInfinityMorphism(a, b, dict(comps), n)
        inner = fn_residual(partial, n)
        res = solve_map_equation(
            lambda x: hom_differential(x, [c] * n, c), inner,
            tensor_power(c.space, n), c.space, n - 1)
        assert res.consistent
        if not res.solution.is_zero():
            comps[n] = res.solution
    return AInfinityMorphism(a, b, comps, N)


def test_perturb_m2_trivial():
    m = coherent_morphism(1)
    out = perturb_M2(m, underlying(m),
                     GradedMap.zero(m.source.space, m.target.space, 1))
    assert out is m


def test_moves_cap_their_order_at_their_inputs():
    """A move's output order is the bound, capped at its input's order:
    a move that returns its input truncates it too."""
    m = coherent_morphism(1)
    assert m.N == 4 and not m.f(3).is_zero()
    zero = GradedMap.zero(m.source.space, m.target.space, 1)
    assert perturb_M2(m, underlying(m), zero, N=9) is m
    assert chain_M4([m], N=9) is m
    for low in (perturb_M2(m, underlying(m), zero, N=2),
                chain_M4([m], N=2)):
        assert low.N == 2 and low.f(2) == m.f(2) and low.f(3).is_zero()
    a = m.source
    moved, back = transfer_M1(a, sdr_onto_homology(a.complex), N=9)
    assert moved.N == back.N == a.N


def test_perturb_m2_changes_underlying():
    # at N = 6, no source tuple of V^(x 6) lies in the window of f_6
    for seed, N in ((2, 4), (5, 4), (8, 4), (2, 6)):
        m = coherent_morphism(seed, N)
        assert check_all_Fn(m)["ok"]
        rng = random.Random(100 + seed)
        h = random_map(rng, m.source.space, m.target.space, 1)
        g = underlying(m).add(
            hom_differential(h, [m.source.complex], m.target.complex), 1, 1)
        out = perturb_M2(m, g, h)
        assert underlying(out) == g
        assert check_all_Fn(out)["ok"]


def test_perturb_m2_rejects_bad_homotopy():
    m = coherent_morphism(3)
    rng = random.Random(7)
    g = underlying(m).add(random_map(
        rng, m.source.space, m.target.space, 0), 1, 1)
    with pytest.raises(ValueError):
        perturb_M2(m, g, GradedMap.zero(m.source.space, m.target.space, 1))


# ------------------------------------------------------------- move (M3)


def test_invert_m3_identity():
    m = coherent_morphism(4)
    a = m.source
    ident = identity_morphism(a)
    zero_h = GradedMap.zero(a.space, a.space, 1)
    out = invert_M3(ident, GradedMap.identity(a.space), zero_h, zero_h)
    assert out.is_strict()
    assert underlying(out) == GradedMap.identity(a.space)


def test_invert_m3_strict_isomorphism():
    a = exterior_dga()
    scaled_mu = {2: a.mu(2).scale(3)}
    b = AInfinityAlgebra(a.complex, scaled_mu, a.N)
    f1 = GradedMap.identity(a.space).scale(Fraction(1, 3))
    m = AInfinityMorphism(a, b, {1: f1}, 4)
    assert check_all_Fn(m)["ok"]
    g = GradedMap.identity(a.space).scale(3)
    zero_h = GradedMap.zero(a.space, a.space, 1)
    out = invert_M3(m, g, zero_h, zero_h)
    assert out.is_strict()
    assert underlying(out) == g
    assert check_all_Fn(out)["ok"]


def test_invert_m3_transferred_morphism():
    a = exterior_dga()
    s = sdr_onto_homology(a.complex)
    wa, mor = transfer_M1(a, s, N=4)
    zero_h = GradedMap.zero(wa.space, wa.space, 1)
    inv = invert_M3(mor, s.f, zero_h, s.phi)
    assert underlying(inv) == s.f
    assert check_all_Fn(inv)["ok"]
    comp = compose_morphisms(inv, mor)
    assert check_all_Fn(comp)["ok"]
    assert underlying(comp) == GradedMap.identity(wa.space)


# ------------------------------------------------------------- move (M4)


def test_chain_m4_single_trivial():
    m = coherent_morphism(6)
    assert chain_M4([m], underlying(m)) is m


def test_chain_m4_strict_chain():
    a = exterior_dga()
    b = AInfinityAlgebra(a.complex, {2: a.mu(2).scale(2)}, a.N)
    c = AInfinityAlgebra(a.complex, {2: a.mu(2).scale(4)}, a.N)
    m1 = AInfinityMorphism(a, b, {1: GradedMap.identity(a.space).scale(
        Fraction(1, 2))}, 4)
    m2 = AInfinityMorphism(b, c, {1: GradedMap.identity(a.space).scale(
        Fraction(1, 2))}, 4)
    out = chain_M4([m1, m2])
    assert out.is_strict()
    assert underlying(out) == GradedMap.identity(a.space).scale(
        Fraction(1, 4))
    assert check_all_Fn(out)["ok"]


def test_chain_m4_three_random_with_perturbation():
    m1 = coherent_morphism(11)
    # build a second and third morphism sharing endpoints
    a, b = m1.source, m1.target
    m2 = coherent_morphism(12)
    # rebase m2/m3 on the same complexes by reusing the builder between
    # b and a fresh structure
    rng = random.Random(55)
    y = random_map(rng, tensor_power(b.space, 2), b.space, 1)
    c = solve_structure(b.complex,
                        hom_differential(y, [b.complex, b.complex],
                                         b.complex), 4)
    comps = {1: GradedMap.identity(b.space)}
    for n in range(2, 5):
        partial = AInfinityMorphism(b, c, dict(comps), n)
        inner = fn_residual(partial, n)
        res = solve_map_equation(
            lambda x: hom_differential(x, [b.complex] * n, c.complex),
            inner, tensor_power(b.space, n), c.space, n - 1)
        assert res.consistent
        if not res.solution.is_zero():
            comps[n] = res.solution
    m2 = AInfinityMorphism(b, c, comps, 4)
    h = random_map(rng, m1.source.space, c.space, 1)
    gmap = underlying(m2).compose(underlying(m1)).add(
        hom_differential(h, [m1.source.complex], c.complex), 1, 1)
    out = chain_M4([m1, m2], gmap, h)
    assert underlying(out) == gmap
    assert check_all_Fn(out)["ok"]


# --------------------------------------------- SDR from an equivalence


def test_sdr_from_equivalence_isomorphism():
    rng = random.Random(9)
    c = random_chain_complex(rng, {0: 2, 1: 2})
    f = GradedMap.identity(c.space).scale(2)
    g = GradedMap.identity(c.space).scale(Fraction(1, 2))
    zero_h = GradedMap.zero(c.space, c.space, 1)
    e = HomotopyEquivalence(c, c, f, g, zero_h, zero_h)
    s = sdr_from_equivalence(e)
    assert check_side_conditions(s)["ok"]
    assert s.phi.is_zero()


def test_sdr_from_equivalence_projection():
    rng = random.Random(10)
    c = random_chain_complex(rng, {0: 2, 1: 3, 2: 1})
    hd = homology_with_splitting(c)
    w = ChainComplex(hd.homology,
                     GradedMap.zero(hd.homology, hd.homology, -1))
    e = HomotopyEquivalence(c, w, hd.projection, hd.inclusion,
                            hd.splitting_homotopy,
                            GradedMap.zero(w.space, w.space, 1))
    s = sdr_from_equivalence(e)
    assert s.big.space == c.space and s.small.space == w.space
    assert check_side_conditions(s)["ok"]
    # the homotopy is supported away from the harmonic part
    assert s.phi.compose(s.nabla).is_zero()


def test_sdr_from_equivalence_random():
    done = 0
    for seed in range(30):
        rng = random.Random(seed)
        c = random_chain_complex(rng, {0: 2, 1: 2})
        hd = homology_with_splitting(c)
        if sum(hd.homology.dims.values()) in (0, 4):
            continue
        w = ChainComplex(hd.homology,
                         GradedMap.zero(hd.homology, hd.homology, -1))
        e = HomotopyEquivalence(c, w, hd.projection, hd.inclusion,
                                hd.splitting_homotopy,
                                GradedMap.zero(w.space, w.space, 1))
        s = sdr_from_equivalence(e)
        assert check_side_conditions(s)["ok"]
        done += 1
        if done >= 3:
            break
    assert done >= 3


def test_sdr_from_equivalence_incomparable():
    # two complexes with the same homology but acyclic pairs in
    # different degrees: no SDR exists in either direction
    sp1 = GradedVectorSpace({0: 2, 1: 1})
    c1 = ChainComplex(sp1, GradedMap(sp1, sp1, -1, {1: [[0], [1]]}))
    sp2 = GradedVectorSpace({0: 1, 1: 1, 2: 1})
    c2 = ChainComplex(sp2, GradedMap(sp2, sp2, -1, {2: [[1]]}))
    f = GradedMap(sp1, sp2, 0, {0: [[1, 0]]})
    g = GradedMap(sp2, sp1, 0, {0: [[1], [0]]})
    h = GradedMap(sp1, sp1, 1, {0: [[0, -1]]})
    l = GradedMap(sp2, sp2, 1, {1: [[-1]]})
    e = HomotopyEquivalence(c1, c2, f, g, h, l)
    with pytest.raises(ValueError):
        sdr_from_equivalence(e)


def test_sdr_from_equivalence_routes_m1():
    a = exterior_dga()
    c = a.complex
    hd = homology_with_splitting(c)
    w = ChainComplex(hd.homology,
                     GradedMap.zero(hd.homology, hd.homology, -1))
    e = HomotopyEquivalence(c, w, hd.projection, hd.inclusion,
                            hd.splitting_homotopy,
                            GradedMap.zero(w.space, w.space, 1))
    s = sdr_from_equivalence(e)
    wa, mor = transfer_M1(a, s)
    assert check_all_An(wa)["ok"]
    assert check_all_Fn(mor)["ok"]
