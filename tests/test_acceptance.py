"""Acceptance gate: one test per top-level requirement, each printing a
single pass/fail line.  All comparisons are exact; there are no
tolerances anywhere."""

import random
import time
from fractions import Fraction

from shalg.exactlin import (
    ChainComplex,
    GradedMap,
    GradedVectorSpace,
    hom_differential,
    kernel_basis,
    make_matrix,
    mat_rank,
    rref,
    tensor_power,
)
from shalg.ainfty import (
    AInfinityAlgebra,
    check_all_An,
    check_all_Fn,
    check_An,
    underlying,
)
from shalg.operadcore import (
    LEAF,
    action_check,
    alpha_iso_matrix,
    ass_arrow_minimal,
    ass_minimal,
    builtin_presentation,
    d_squared_check,
    derivation_extend,
    enumerate_trees,
    free_binary,
    kunneth_check,
    tree_leaf_colors,
    ISO_NORMAL_FORMS,
)
from shalg.transfer import (
    check_side_conditions,
    invert_M3,
    normalize_side_conditions,
    perturb_M2,
    chain_M4,
    riso_zero_extension,
    sdr_onto_homology,
    transfer_M1,
)

from test_operad_reference import (
    ref_low_degrees,
    ref_tree_degree,
    ref_tree_vertices,
)
from test_sparse_reference import sparse_rows
from test_transfer import (
    engineered_violation,
    exterior_dga,
    perturbed_sdr,
    random_chain_complex,
    random_map,
)


def report(number, label, ok, elapsed, limit):
    line = (f"ACCEPTANCE {number} ({label}): "
            f"{'PASS' if ok and elapsed < limit else 'FAIL'} "
            f"[{elapsed:.1f}s / {limit}s]")
    print(line)
    assert ok, f"criterion {number} failed"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s"


def test_acceptance_1_operad_d_squared():
    t0 = time.monotonic()
    ok = d_squared_check(ass_minimal(7), 7)["ok"]
    ok = ok and d_squared_check(ass_arrow_minimal(5), 5)["ok"]
    report(1, "operad-level d squared zero", ok, time.monotonic() - t0, 10)


def test_acceptance_2_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(2024)
    pres = builtin_presentation("ass-minimal", 4)
    ok = True
    for _ in range(20):
        c = random_chain_complex(rng, {0: 1, 1: 1, 2: 1})
        mu = {n: random_map(rng, tensor_power(c.space, n), c.space, n - 2)
              for n in range(2, 5)}
        a = AInfinityAlgebra(c, mu, 4)
        direct = all(check_An(a, n)["ok"] for n in range(2, 5))
        via_action = action_check(pres, {f"mu{n}": m for n, m in mu.items()},
                                  {"v": c}, 4)["ok"]
        ok = ok and (direct == via_action)
    report(2, "identity checks match operad actions", ok,
           time.monotonic() - t0, 30)


def test_acceptance_3_zero_extension_iff():
    t0 = time.monotonic()
    ok = True
    for seed in range(20):
        s = perturbed_sdr(random.Random(seed), {0: 2, 1: 1, 2: 1})
        ok = ok and (riso_zero_extension(s)["ok"]
                     == check_side_conditions(s)["ok"])
    for kind, gen in (("phi_nabla", "f2"), ("f_phi", "g2"),
                      ("phi_phi", "g3")):
        res = riso_zero_extension(engineered_violation(kind))
        ok = ok and not res["ok"] and res["failed_generator"] == gen
    report(3, "zero extension iff side conditions", ok,
           time.monotonic() - t0, 30)


def _random_dga_conjugates(count):
    """Strict dgas on a dim-4 complex: the exterior fixture transported
    along random invertible chain-level changes of basis."""
    base = exterior_dga()
    c = base.complex
    out = []
    rng = random.Random(77)
    while len(out) < count:
        y = random_map(rng, c.space, c.space, 1)
        g = GradedMap.identity(c.space).add(
            c.differential.compose(y).add(y.compose(c.differential), 1, 1),
            2, 1)
        inv_blocks = {}
        singular = False
        for k in c.space.dims:
            n = c.space.dim(k)
            mat = g.blocks.get(k)
            if mat is None:
                singular = True
                break
            aug = [list(mat[i]) + [Fraction(int(i == j))
                                   for j in range(n)] for i in range(n)]
            red, _, piv = rref(make_matrix(aug, n, 2 * n))
            if len(piv) < n or any(p >= n for p in piv):
                singular = True
                break
            inv_blocks[k] = [row[n:] for row in red]
        if singular:
            continue
        ginv = GradedMap(c.space, c.space, 0, inv_blocks)
        assert g.compose(ginv) == GradedMap.identity(c.space)
        from shalg.exactlin import tensor_maps_many
        d2 = g.compose(c.differential).compose(ginv)
        cx = ChainComplex(c.space, d2)
        mu2 = g.compose(base.mu(2)).compose(tensor_maps_many([ginv, ginv]))
        out.append(AInfinityAlgebra(cx, {2: mu2}, 5))
    return out


def test_acceptance_4_transfer_m1():
    t0 = time.monotonic()
    ok = True
    for a in _random_dga_conjugates(10):
        s = sdr_onto_homology(a.complex)
        wa, mor = transfer_M1(a, s)
        ok = ok and check_all_An(wa)["ok"] and check_all_Fn(mor)["ok"]
    # degenerate case: zero differential with the identity retraction
    sp = GradedVectorSpace({0: 2, 1: 1})
    c = ChainComplex(sp, GradedMap.zero(sp, sp, -1))
    rng = random.Random(3)
    mu3 = random_map(rng, tensor_power(sp, 3), sp, 1)
    a = AInfinityAlgebra(c, {3: mu3}, 4)
    from shalg.transfer import SDRData
    s = SDRData(c, c, GradedMap.identity(sp), GradedMap.identity(sp),
                GradedMap.zero(sp, sp, 1))
    wa, mor = transfer_M1(a, s)
    ok = ok and mor.is_strict()
    ok = ok and all(wa.mu(n) == a.mu(n) for n in range(2, 5))
    report(4, "homotopy transfer onto homology", ok,
           time.monotonic() - t0, 60)


def test_acceptance_5_moves_m2_m3_m4():
    t0 = time.monotonic()
    ok = True
    # dim-3 strict dga: unit, an even u, and an odd v with dv = u
    sp = GradedVectorSpace({0: 2, 1: 1}, {0: ("1", "u"), 1: ("v",)})
    c = ChainComplex(sp, GradedMap(sp, sp, -1, {1: [[0], [1]]}))
    t2 = tensor_power(sp, 2)
    mu_blocks = {0: [[1, 0, 0, 0], [0, 1, 1, 0]],
                 1: [[1, 0, 1, 0]]}
    mu2 = GradedMap(t2, sp, 0, mu_blocks)
    a = AInfinityAlgebra(c, {2: mu2}, 4)
    ok = ok and check_all_An(a)["ok"]
    from shalg.ainfty import identity_morphism
    for seed in (0, 1, 2):
        m = identity_morphism(a)
        rng = random.Random(1000 + seed)
        h = random_map(rng, sp, sp, 1)
        g = underlying(m).add(hom_differential(h, [c], c), 1, 1)
        out = perturb_M2(m, g, h)       # raises on any inconsistent solve
        ok = ok and underlying(out) == g and check_all_Fn(out)["ok"]
    # inversion of a transferred equivalence
    a = exterior_dga()
    s = sdr_onto_homology(a.complex)
    wa, mor = transfer_M1(a, s, N=4)
    inv = invert_M3(mor, s.f, GradedMap.zero(wa.space, wa.space, 1), s.phi)
    ok = ok and underlying(inv) == s.f and check_all_Fn(inv)["ok"]
    comp = chain_M4([mor, inv])
    ok = (ok and underlying(comp) == GradedMap.identity(wa.space)
          and check_all_Fn(comp)["ok"])
    report(5, "perturbation, inversion, chaining", ok,
           time.monotonic() - t0, 60)


def test_acceptance_6_product_homology():
    t0 = time.monotonic()
    ok = True
    for arity in (2, 3):
        ok = ok and kunneth_check(ass_minimal(3), free_binary(), arity)["ok"]
    report(6, "free-product homology dimensions", ok,
           time.monotonic() - t0, 30)


def test_acceptance_7_resolution_quotient():
    t0 = time.monotonic()
    pres = builtin_presentation("riso")
    low = ref_low_degrees(pres, 1)  # words in f, g, h and l

    def words(ic, length, degree):
        return [t for oc in pres.colors
                for t in enumerate_trees(low, 1, oc, length)
                if ref_tree_degree(pres, t) == degree
                and tree_leaf_colors(pres, t, oc) == [ic]]

    ok = True
    for ic in pres.colors:
        # degree-0 words: length <= 8 so boundary targets are present
        trees0 = words(ic, 8, 0)
        index0 = {t: i for i, t in enumerate(trees0)}
        small = [t for t in trees0 if ref_tree_vertices(t) <= 6]
        mat = alpha_iso_matrix(small, ic)
        hit = {i for i, row in enumerate(mat) if any(row)}
        ok = ok and hit == {i for i, (c0, _) in enumerate(ISO_NORMAL_FORMS)
                            if c0 == ic}
        kernel = kernel_basis(mat)
        # boundary matrix: differentials of degree-1 words of length <= 7
        trees1 = words(ic, 7, 1)
        cols = []
        for t in trees1:
            img = derivation_extend(pres, {t: Fraction(1)})
            col = [Fraction(0)] * len(trees0)
            usable = True
            for u, cf in img.items():
                if u not in index0:
                    usable = False
                    break
                col[index0[u]] = cf
            if usable:
                cols.append(col)
        bmat = tuple(tuple(col[i] for col in cols)
                     for i in range(len(trees0)))
        rank_b = mat_rank(sparse_rows(bmat))
        for v in kernel:
            vec = [Fraction(0)] * len(trees0)
            for i, t in enumerate(small):
                vec[index0[t]] = v[i]
            aug = tuple(tuple(list(row) + [vec[i]])
                        for i, row in enumerate(bmat))
            ok = ok and mat_rank(sparse_rows(aug)) == rank_b
    # the printed witness: f g f - f is the boundary of f h
    t_fgf = ("f", ("g", ("f", LEAF)))
    t_f = ("f", LEAF)
    t_fh = ("f", ("h", LEAF))
    boundary = derivation_extend(pres, {t_fh: Fraction(1)})
    ok = ok and boundary == {t_fgf: Fraction(1), t_f: Fraction(-1)}
    report(7, "resolution quotient is a truncated equivalence", ok,
           time.monotonic() - t0, 30)


def test_acceptance_8_normalization():
    t0 = time.monotonic()
    ok = True
    done = 0
    seed = 0
    while done < 20:
        seed += 1
        s = perturbed_sdr(random.Random(seed), {0: 2, 1: 1, 2: 1})
        if check_side_conditions(s)["ok"]:
            continue
        out = normalize_side_conditions(s)
        ok = (ok and check_side_conditions(out)["ok"]
              and out.nabla == s.nabla and out.f == s.f)
        done += 1
    report(8, "side-condition normalization", ok, time.monotonic() - t0, 10)
