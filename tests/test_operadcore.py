"""Tests for the free colored operad layer."""

import random
import re
from fractions import Fraction

import pytest

from shalg import operadcore
from shalg.cli import _alpha_presentation
from shalg.exactlin import (
    ChainComplex,
    GradedMap,
    GradedVectorSpace,
    tensor_spaces,
)
from shalg.operadcore import (
    LEAF,
    GeneratorSpec,
    OperadPresentation,
    action_check,
    alpha_iso_matrix,
    ass_arrow_minimal,
    ass_minimal,
    builtin_presentation,
    component_dims,
    d_squared_check,
    derivation_extend,
    elem_add,
    elem_scale,
    enumerate_trees,
    eval_element,
    free_binary,
    free_product,
    graft,
    iso_normal_form,
    ISO_NORMAL_FORMS,
    kunneth_check,
    rename_generators,
    riso,
    substitute,
    tree_decomposition_dims,
    tree_decomposition_from_tables,
    tree_leaf_colors,
    tree_word,
    truncated_homology,
)
from test_operad_reference import (
    ref_paper,
    ref_tree_arity,
    ref_tree_degree,
    ref_tree_shifted_degree,
    ref_windowed_homology,
)

MU2 = ("mu2", LEAF, LEAF)
MU3 = ("mu3", LEAF, LEAF, LEAF)


def paper_graft(pres, outer, position, inner):
    """graft in the paper's basis: the trees converted to the word basis,
    an inner tree of degree q grafted into an outer tree of arity n with
    the twist (-1)^((n+1)q), and the result converted back."""
    out = {}
    for ot, oc in ref_paper(pres, outer).items():
        for it_, ic in ref_paper(pres, inner).items():
            twist = (-1) ** ((ref_tree_arity(ot) + 1)
                             * ref_tree_degree(pres, it_))
            out = elem_add(out, graft(pres, {ot: oc}, position,
                                      {it_: twist * ic}))
    return ref_paper(pres, out)


def paper_d(pres, x):
    """The differential in the paper's basis."""
    return ref_paper(pres, derivation_extend(pres, ref_paper(pres, x)))


# ------------------------------------------------------------- plumbing


def test_presentation_validation():
    with pytest.raises(ValueError):
        OperadPresentation("x", ("a",), [
            GeneratorSpec("m", ("a", "a"), "b", 0)])  # unknown color
    with pytest.raises(ValueError):
        OperadPresentation("x", ("a",), [
            GeneratorSpec("m", ("a",), "a", 0),
            GeneratorSpec("m", ("a",), "a", 0)])  # duplicate


def test_tree_helpers():
    t = ("mu2", MU2, LEAF)
    assert tree_word(t) == ["mu2", "mu2"]
    p = ass_minimal(4)
    assert operadcore._info(p, t).degree == 0
    assert operadcore._info(p, ("mu2", MU3, LEAF)).degree == 1
    # leaf records check the color discipline: every edge's ends agree
    assert operadcore._leaf_record(p, t) is not None
    assert operadcore._leaf_record(p, ("mu2", LEAF)) is None  # wrong arity


def test_tree_leaf_colors_riso():
    r = riso()
    t = ("f", ("g", LEAF))  # b -> a -> b
    assert tree_leaf_colors(r, t, "b") == ["b"]
    assert operadcore._leaf_record(r, t) is not None
    assert operadcore._leaf_record(r, ("f", ("f", LEAF))) is None


# ---------------------------------------------------------------- grafts


def test_graft_left_comb():
    p = ass_minimal(3)
    mu = {MU2: Fraction(1)}
    assert graft(p, mu, 1, mu) == {("mu2", MU2, LEAF): Fraction(1)}
    assert graft(p, mu, 2, mu) == {("mu2", LEAF, MU2): Fraction(1)}
    # in the paper's basis the right comb picks up the orientation sign
    # of its inner edge
    assert paper_graft(p, mu, 1, mu) == {("mu2", MU2, LEAF): Fraction(1)}
    assert paper_graft(p, mu, 2, mu) == {("mu2", LEAF, MU2): Fraction(-1)}


def test_graft_color_mismatch_is_zero():
    r = riso()
    f = {("f", LEAF): Fraction(1)}  # f: a -> b; its input color is a
    assert graft(r, f, 1, f) == {}


def test_graft_combination_reproduces_stored_differential():
    # d(mu3) expressed through grafts: mu o_1 mu + mu o_2 mu
    p = ass_minimal(3)
    mu = {MU2: Fraction(1)}
    x = elem_add(graft(p, mu, 1, mu), graft(p, mu, 2, mu))
    assert x == p.d_image("mu3")


def test_substitute_unit_and_arity_errors():
    p = ass_minimal(3)
    assert substitute(p, LEAF, [MU2]) == (1, MU2)
    with pytest.raises(ValueError):
        substitute(p, MU2, [MU2])  # wrong child count


# ------------------------------------------------------ the differential


def test_d_image_mu3_matches_printed_signs():
    p = ass_minimal(4)
    assert ref_paper(p, p.d_image("mu3")) == {
        ("mu2", MU2, LEAF): Fraction(1),
        ("mu2", LEAF, MU2): Fraction(-1),
    }


def test_d_squared_builtin_presentations():
    assert d_squared_check(ass_minimal(7), 7)["ok"]
    assert d_squared_check(ass_arrow_minimal(5), 5)["ok"]
    assert d_squared_check(riso(), 1)["ok"]


def test_d_squared_detects_sign_sabotage():
    p = ass_minimal(5)
    img = dict(p.d_image("mu4"))
    t = next(iter(img))
    img[t] = -img[t]
    bad = OperadPresentation("bad", p.colors, list(p.generators.values()),
                            {**p.differential, "mu4": img})
    res = d_squared_check(bad, 5)
    assert not res["ok"]
    assert any(f["generator"] == "mu5" and "witness" in f
               for f in res["failures"])


def _mistyped(case):
    """A presentation whose stored d(name) holds a tree of another type:
    an edge whose ends disagree in color, or a well-colored tree with
    the wrong input and output colors (g: b -> a in d(f), f: a -> b)."""
    if case == "edge":
        gens = [GeneratorSpec("x", ("v", "v"), "v", 0),
                GeneratorSpec("y", ("v",), "w", 0),
                GeneratorSpec("z", ("v", "v"), "v", 1)]
        return "z", OperadPresentation(
            "bad", ("v", "w"), gens, {"z": {("x", ("y", LEAF), LEAF): 1}})
    r = riso()
    return "f", OperadPresentation("bad", r.colors, r.generators.values(),
                                   {"f": {r.corolla("g"): 1}})


@pytest.mark.parametrize("case", ["edge", "colors"])
def test_mistyped_stored_term_raises(case):
    """D refuses a stored term that is not of its generator's type,
    naming both, rather than dropping it: d² would pass on a d that the
    presentation does not define."""
    name, p = _mistyped(case)
    tree = next(iter(p.d_image(name)))
    message = f"d({name}) holds {tree!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        d_squared_check(p, 2)
    with pytest.raises(ValueError, match=re.escape(message)):
        derivation_extend(p, {p.corolla(name): 1})


@pytest.mark.parametrize("tj, reason, names", [
    ({"mu4": 3}, "tj total", ["mu4"]),
    ({"mu2": -1, "mu3": -1, "mu4": -1}, "filtration", ["mu3", "mu4"]),
    ({"mu2": None}, None, ["mu3", "mu4"])],
    ids=["total", "filtration", "undeclared"])
def test_d_squared_check_reports_each_tj_grading_rule(tj, reason, names):
    """d mu4's trees have total tj 1, so tj(mu4) = 3 breaks the total
    rule alone; with every tj -1 each tree's total is -2 = tj - 1 but its
    generators' tj is not smaller, which breaks the filtration rule
    alone; a tree with an undeclared tj breaks both.  d^2 stays zero."""
    p = ass_minimal(4)
    bad = OperadPresentation(
        "bad", p.colors, [g._replace(tj=tj.get(g.name, g.tj))
                          for g in p.generators.values()], p.differential)
    res = d_squared_check(bad, 4)
    assert all(e["d_squared_zero"] for e in res["checked"])
    reasons = ["tj total", "filtration"] if reason is None else [reason]
    assert not res["ok"]
    assert res["failures"] == [
        {"generator": name, "reason": r, "tree": t}
        for name in names for t in p.d_image(name) for r in reasons]


def test_derivation_drops_degree_and_is_linear():
    p = ass_minimal(5)
    x = {("mu2", MU3, LEAF): Fraction(3)}
    dx = derivation_extend(p, x)
    assert dx
    for t in dx:
        assert ref_tree_degree(p, t) == ref_tree_degree(
            p, ("mu2", MU3, LEAF)) - 1
    assert dx == elem_scale(derivation_extend(
        p, elem_scale(x, Fraction(1, 3))), 3)


def test_leibniz_rule_random_trees():
    random.seed(11)
    p = ass_minimal(6)
    pools = {a: enumerate_trees(p, a, "v", 3) for a in range(2, 5)}
    for _ in range(40):
        ao = random.choice(sorted(pools))
        ot = random.choice(pools[ao])
        pos = random.randint(1, ao)
        it = random.choice(pools[random.choice(sorted(pools))])
        x = {ot: Fraction(1)}
        y = {it: Fraction(1)}
        # the word basis: the sign of x's shifted degree
        lhs = derivation_extend(p, graft(p, x, pos, y))
        sx = (-1) ** (ref_tree_shifted_degree(p, ot) % 2)
        rhs = elem_add(graft(p, derivation_extend(p, x), pos, y),
                       graft(p, x, pos, derivation_extend(p, y)), 1, sx)
        assert lhs == rhs
        # the paper's basis: the sign of x's degree
        lhs = paper_d(p, paper_graft(p, x, pos, y))
        sx = (-1) ** (ref_tree_degree(p, ot) % 2)
        rhs = elem_add(paper_graft(p, paper_d(p, x), pos, y),
                       paper_graft(p, x, pos, paper_d(p, y)), 1, sx)
        assert lhs == rhs


def test_nested_graft_associativity_random_trees():
    random.seed(12)
    p = ass_minimal(6)
    pools = {a: enumerate_trees(p, a, "v", 3) for a in range(2, 5)}
    for _ in range(40):
        ao = random.choice(sorted(pools))
        ot = random.choice(pools[ao])
        pos = random.randint(1, ao)
        yt = random.choice(pools[random.choice(sorted(pools))])
        pos2 = random.randint(1, ref_tree_arity(yt))
        zt = random.choice(pools[random.choice(sorted(pools))])
        x = {ot: Fraction(1)}
        y = {yt: Fraction(1)}
        z = {zt: Fraction(1)}
        a = graft(p, graft(p, x, pos, y), pos - 1 + pos2, z)
        b = graft(p, x, pos, graft(p, y, pos2, z))
        assert a == b


def test_disjoint_graft_interchange_sign():
    # Grafts into disjoint slots interchange with the Koszul sign
    # (-1)^(|y|'|z|') of the shifted degrees; in the paper's basis with
    # (-1)^(|y||z| + (arity(y)+1)(arity(z)+1)).
    random.seed(13)
    p = ass_minimal(6)
    pools = {a: enumerate_trees(p, a, "v", 3) for a in range(2, 5)}
    for _ in range(40):
        ao = random.choice([3, 4])
        ot = random.choice(pools[ao])
        i, j = sorted(random.sample(range(1, ao + 1), 2))
        yt = random.choice(pools[random.choice(sorted(pools))])
        zt = random.choice(pools[random.choice(sorted(pools))])
        x, y, z = {ot: Fraction(1)}, {yt: Fraction(1)}, {zt: Fraction(1)}
        for op, exp in (
                (graft, ref_tree_shifted_degree(p, yt)
                 * ref_tree_shifted_degree(p, zt)),
                (paper_graft, ref_tree_degree(p, yt) * ref_tree_degree(p, zt)
                 + (ref_tree_arity(yt) + 1) * (ref_tree_arity(zt) + 1))):
            a = op(p, op(p, x, i, y), j - 1 + ref_tree_arity(yt), z)
            b = op(p, op(p, x, j, z), i, y)
            assert a == elem_scale(b, (-1) ** (exp % 2))


# --------------------------------------------------- enumeration and dims


def test_enumerate_tree_counts_schroeder():
    p = ass_minimal(7)
    counts = [len(enumerate_trees(p, n, "v", n - 1))
              for n in range(2, 6)]
    assert counts == [1, 3, 11, 45]  # little Schroeder numbers


def test_component_dims_symmetric_multiplicity():
    p = ass_minimal(5)
    assert component_dims(p, 2, "v") == {0: 2}
    dims3 = component_dims(p, 3, "v")
    assert dims3 == {0: 12, 1: 6}  # 2 planar shapes deg 0, mu3 deg 1; x3!


def test_free_product_name_clash_and_dims():
    p1 = ass_minimal(3)
    with pytest.raises(ValueError):
        free_product(p1, ass_minimal(3))
    p2 = rename_generators(ass_minimal(3), {"mu2": "rho2", "mu3": "rho3"})
    fp = free_product(p1, p2)
    assert set(fp.generators) == {"mu2", "mu3", "rho2", "rho3"}
    assert fp.d_image("rho3") == {
        ("rho2", ("rho2", LEAF, LEAF), LEAF): Fraction(1),
        ("rho2", LEAF, ("rho2", LEAF, LEAF)): Fraction(1)}


def test_tree_decomposition_tables_oracles():
    # one binary generator in each factor, degree 0, dim 1 (planar count)
    t = {2: {0: 1}}
    assert tree_decomposition_from_tables(t, t, 2) == {0: 2}
    # arity 3: abstract trees with alternating labels; counted by hand:
    # single 3-ary vertex: none (tables stop at arity 2); two binary
    # vertices with distinct labels, 3 leaf pairings, 2 orders -> 6... the
    # planar tables {2:{0:1}} give the classical 6 = 3 pairings x 2 label
    # orders, plus same-label pairs are forbidden by alternation.
    assert tree_decomposition_from_tables(t, t, 3) == {0: 6}


def test_tree_decomposition_matches_free_product_dims():
    p1 = ass_minimal(6)
    p2 = rename_generators(ass_minimal(6),
                           {f"mu{n}": f"rho{n}" for n in range(2, 7)})
    fp = free_product(p1, p2)
    for arity in range(2, 7):
        direct = component_dims(fp, arity, "v")
        assert tree_decomposition_dims(p1, p2, arity) == direct


# ------------------------------------------------------ truncated homology


def test_truncated_homology_zero_differential():
    p = OperadPresentation("free", ("v",),
                           [GeneratorSpec("m", ("v", "v"), "v", 0)])
    h = truncated_homology(p, 3, "v")
    assert h["dims"] == component_dims(p, 3, "v")
    assert not h["truncated"]


def test_truncated_homology_ass_minimal_is_associative_operad():
    p = ass_minimal(7)
    for n in range(2, 6):
        h = truncated_homology(p, n, "v")
        import math
        assert h["dims"] == {0: math.factorial(n)}
        assert not h["truncated"]


def test_truncated_homology_riso_groupoid():
    """Each hom-complex riso(oc, ic) of the resolved groupoid, truncated
    at six vertices, has the homology of one morphism in degrees 0-1."""
    r = riso()
    for oc in ("a", "b"):
        for ic in ("a", "b"):
            h = ref_windowed_homology(r, 1, oc, 6, (ic,), 0, 1)
            assert h["dims"] == {0: 1}
            assert h["truncated"]


def test_kunneth_check_fixture():
    p1 = ass_minimal(4)
    p2 = rename_generators(ass_minimal(4),
                           {"mu2": "rho2", "mu3": "rho3", "mu4": "rho4"})
    for arity in (2, 3):
        res = kunneth_check(p1, p2, arity)
        assert res["ok"], res


def test_kunneth_check_refuses_unary_and_two_colored_factors():
    """A factor with a unary generator has no exact length bound, and the
    tree decomposition counts single-colored trees only."""
    unary = OperadPresentation("unary", ("v",), [
        GeneratorSpec("u", ("v",), "v", 1),
        GeneratorSpec("m", ("v", "v"), "v", 0)])
    for p1, p2 in ((unary, free_binary()), (free_binary(), unary)):
        for arity in (1, 3):
            with pytest.raises(ValueError, match="unary generators"):
                kunneth_check(p1, p2, arity)
    for p1, p2 in ((ass_arrow_minimal(3), free_binary()),
                   (free_binary(), riso())):
        with pytest.raises(ValueError, match="single-color factors only"):
            kunneth_check(p1, p2, 3)


# ----------------------------------------------------------------- actions


def _dga_action(mult_table, max_arity=4):
    """Action of ass-minimal on a 2-dim degree-0 complex with the given
    multiplication table (dict (i,j) -> vector as tuple)."""
    p = ass_minimal(max_arity)
    V = GradedVectorSpace({0: 2})
    C = ChainComplex.zero_differential(V)
    sq = tensor_spaces([V, V])
    cols = []
    for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        cols.append(mult_table.get((i, j), (0, 0)))
    block = tuple(tuple(Fraction(cols[c][r]) for c in range(4))
                  for r in range(2))
    action = {"mu2": GradedMap(sq, V, 0, {0: block})}
    for n in range(3, max_arity + 1):
        src = tensor_spaces([V] * n)
        action[f"mu{n}"] = GradedMap.zero(src, V, n - 2)
    return p, action, {"v": C}


def test_action_check_strict_associative():
    # k[x]/(x^2): e*e=e, e*x=x*e=x, x*x=0
    table = {(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 1)}
    p, action, cx = _dga_action(table)
    assert action_check(p, action, cx, 4)["ok"]


def test_action_check_rejects_nonassociative():
    # b*b=a, a*b=b, b*a=0 is not associative: (bb)b=ab=b, b(bb)=ba=0
    table = {(1, 1): (1, 0), (0, 1): (0, 1)}
    p, action, cx = _dga_action(table)
    res = action_check(p, action, cx, 4)
    assert not res["ok"]
    bad = [e["generator"] for e in res["entries"] if not e["ok"]]
    assert bad == ["mu3"]


def test_eval_element_two_terms():
    table = {(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 1)}
    p, action, cx = _dga_action(table)
    assoc = p.d_image("mu3")  # the associator, evaluates to zero
    m = eval_element(p, action, {"v": cx["v"].space}, assoc, ("v", "v", "v"),
                     "v", 0)
    assert m.is_zero()


# ---------------------------------------------------- iso normal forms


def test_iso_normal_form_reduction():
    assert iso_normal_form(("f", "g", "f")) == ("f",)
    assert iso_normal_form(("f", "g")) == ()
    assert iso_normal_form(("g", "f", "g", "f")) == ()
    assert iso_normal_form(("f", "h")) is None
    assert iso_normal_form(("f", "f", "g", "g")) == ()
    assert iso_normal_form(("g", "g", "f", "g")) == ("g", "g")


def test_alpha_iso_matrix_surjective_on_normal_forms():
    r = riso()
    # degree-0 words with input color a, lengths 0..3
    trees = [t for oc in r.colors for t in enumerate_trees(r, 1, oc, 3)
             if ref_tree_degree(r, t) == 0
             and tree_leaf_colors(r, t, oc) == ["a"]]
    mat = alpha_iso_matrix(trees, "a")
    hit = {i for i, row in enumerate(mat) if any(row)}
    a_forms = {i for i, (c, _) in enumerate(ISO_NORMAL_FORMS) if c == "a"}
    assert hit == a_forms


def test_builtin_presentation_lookup():
    assert builtin_presentation("ass-minimal", 5).name == "ass-minimal"
    assert builtin_presentation("riso").name == "riso"
    with pytest.raises(ValueError):
        builtin_presentation("nope")


def test_builtin_presentation_is_built_once_per_truncation_order():
    """One bundled model per name and truncation order for the process,
    so every check shares its tree memos; the ignored order of a whole
    model names the same one."""
    for name, arity in (("ass-minimal", 4), ("ass-arrow-minimal", 3),
                        ("riso", None), ("free-binary", None),
                        ("ass-minimal-3", None)):
        assert builtin_presentation(name, arity) is builtin_presentation(
            name, arity)
    assert builtin_presentation("riso", 3) is builtin_presentation("riso")
    assert builtin_presentation("ass-minimal", 4) is not (
        builtin_presentation("ass-minimal", 5))
    assert builtin_presentation("ass-minimal", 4) is not ass_minimal(4)


def _subtrees(t):
    """t and each of its non-leaf subtrees, depth first."""
    yield t
    for c in t[1:]:
        if c != LEAF:
            yield from _subtrees(c)


def _one_object_per_value(values):
    """Whether equal values among `values` are one object: counted by
    distinct ids, which holds on every Python version."""
    ids = {}
    for v in values:
        ids.setdefault(v, set()).add(id(v))
    return all(len(x) == 1 for x in ids.values())


SHARING_MODELS = {
    "ass-minimal-4": lambda: ass_minimal(4),
    "ass-minimal-7": lambda: ass_minimal(7),
    "ass-arrow-minimal-3": lambda: ass_arrow_minimal(3),
    "ass-arrow-minimal-6": lambda: ass_arrow_minimal(6),
    "ass-minimal-3*free-binary": lambda: free_product(ass_minimal(3),
                                                      free_binary()),
}


@pytest.mark.parametrize("model", sorted(SHARING_MODELS))
def test_presentation_interns_its_stored_trees(model):
    """In the truncated models and their free product, each vertex of a
    stored tree is named by its generator's own name object and equal
    subtrees are one object, since the builders plug one corolla per
    generator into every term; equal color and degree tuples and equal
    paths of the leaf records D's terms keep are one object too (their
    tuples of paths are nearly all distinct and not shared)."""
    pres = SHARING_MODELS[model]()
    trees = [t for img in pres.differential.values() for t in img]
    subtrees = [s for t in trees if t != LEAF for s in _subtrees(t)]
    assert subtrees
    for s in subtrees:
        assert s[0] is pres.gen(s[0]).name
    assert _one_object_per_value(subtrees)
    records = [x for name in pres.generators
               for _, _, colors, after, paths
               in operadcore._d_gen_terms(pres, name)
               if colors is not None for x in (colors, after, *paths)]
    assert _one_object_per_value(records)


@pytest.mark.parametrize("name", ["ass-minimal", "ass-arrow-minimal"])
def test_truncated_model_needs_an_order(name):
    """A truncated model has no default order: asked for without one, it
    is refused rather than built at an order the caller never chose."""
    with pytest.raises(ValueError, match=f"{name} needs a truncation order"):
        builtin_presentation(name)


def test_builtin_presentation_answers_to_the_kunneth_factors():
    """ass-minimal-3 and free-binary, the factors of operad kunneth, are
    bundled models too, whatever the arity asked for."""
    for name, fresh in (("ass-minimal-3", ass_minimal(3)),
                        ("free-binary", free_binary())):
        pres = builtin_presentation(name, 9)
        assert pres.generators == fresh.generators
        assert pres.differential == fresh.differential
    assert builtin_presentation("ass-minimal-3").name == "ass-minimal"


def test_alpha_sub_presentation_trees_are_riso_degree_zero_trees():
    """operad alpha enumerates the sub-presentation of riso's degree-0
    generators: its trees of each input color are riso's trees of
    degree 0, in the order of riso's own enumeration."""
    r, sub = riso(), _alpha_presentation()
    assert list(sub.generators) == ["f", "g"]

    def words(pres, length, ic, keep):
        return [t for oc in pres.colors
                for t in enumerate_trees(pres, 1, oc, length)
                if keep(t) and tree_leaf_colors(pres, t, oc) == [ic]]

    for length in range(1, 7):
        for ic in r.colors:
            trees = words(sub, length, ic, lambda t: True)
            assert trees and trees == words(
                r, length, ic, lambda t: ref_tree_degree(r, t) == 0)


def test_truncated_homology_ranks_each_d_matrix_once(monkeypatch):
    """Each distinct (degree, sources) matrix is built and ranked once,
    though the cycle matrix of one degree is often the boundary matrix
    of the degree below."""
    matrices = []
    real_rank = operadcore.mat_rank

    def counting_rank(a):
        matrices.append(tuple(tuple(sorted(row.items())) for row in a))
        return real_rank(a)

    monkeypatch.setattr(operadcore, "mat_rank", counting_rank)

    def rank_calls(fn, *args):
        matrices.clear()
        fn(*args)
        assert len(set(matrices)) == len(matrices)
        return len(matrices)

    assert rank_calls(truncated_homology, ass_minimal(6), 6, "v") == 4
    assert rank_calls(kunneth_check, ass_minimal(3), free_binary(), 5) == 6
