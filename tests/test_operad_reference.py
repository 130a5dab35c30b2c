"""Memoized operad tree invariants against their plain references.

The recursive tree walks and the Fraction-multiplying derivation,
substitution and graft that operadcore used before it memoized tree
invariants on the presentation are kept here.  Trees are drawn from
the two-colored presentations with morphism generators
(ass_arrow_minimal) and from riso; presentations derived by renaming
and by free products check that no memo leaks between presentations.
Presentations whose differential is rescaled by rationals exercise the
integral differential D = L·d with L > 1.  The edge-local orientation
sign that converts the word basis to the paper's printed signs is kept
here too (ref_basis_sign), for the tests that assert those signs.  The
free-product tree count that enumerated set partitions of leaf sets is
the reference for the exponential-formula count.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shalg.exactlin import Rational, mat_rank
from shalg.operadcore import (
    LEAF,
    GeneratorSpec,
    OperadPresentation,
    _d_gen_terms,
    _info,
    _leaf_record,
    ass_arrow_minimal,
    ass_minimal,
    component_dims,
    d_squared_check,
    derivation_extend,
    enumerate_trees,
    free_binary,
    free_product,
    graft,
    rename_generators,
    riso,
    substitute,
    tree_decomposition_from_tables,
    tree_leaf_colors,
    tree_word,
    truncated_homology,
)

SETTINGS = settings(max_examples=60, deadline=None)
COEFFICIENTS = (1, -1, 2, Fraction(-1, 2), Fraction(3, 5))


# ------------------------------------------------------------ references


def ref_tree_arity(t):
    if t == LEAF:
        return 1
    return sum(ref_tree_arity(c) for c in t[1:])


def ref_tree_vertices(t):
    if t == LEAF:
        return 0
    return 1 + sum(ref_tree_vertices(c) for c in t[1:])


def ref_tree_word(t):
    if t == LEAF:
        return []
    out = [t[0]]
    for c in t[1:]:
        out.extend(ref_tree_word(c))
    return out


def ref_tree_degree(pres, t):
    return sum(pres.gen(g).degree for g in ref_tree_word(t))


def ref_shifted_degree(pres, name):
    g = pres.gen(name)
    return g.degree + 1 - g.arity


def ref_tree_shifted_degree(pres, t):
    return sum(ref_shifted_degree(pres, g) for g in ref_tree_word(t))


def ref_leaf_after_shifted(pres, u):
    events = []  # None for a leaf, the shifted degree for a generator

    def walk(t):
        if t == LEAF:
            events.append(None)
            return
        events.append(ref_shifted_degree(pres, t[0]))
        for c in t[1:]:
            walk(c)

    walk(u)
    return [sum(d for d in events[i + 1:] if d is not None)
            for i, ev in enumerate(events) if ev is None]


def ref_basis_sign(pres, t, morphisms=()):
    """The orientation sign of t that converts its word-basis coefficient
    to the paper's unshifted basis and back: a product over the internal
    edges, with the exponent of the edge from the root (arity i) to its
    non-leaf child at slot s (from 0; subtree arity r, l leaves of the
    earlier siblings) chosen by whether the child or the root is one of
    the morphism generators named in morphisms:

        operation under operation:  r + s(r+1)  (0 when r = 1)
        operation under morphism:   i + (s+1)(r+1)
        morphism under any:         r(1 + s + i + l)
    """
    if t == LEAF:
        return 1
    parent = pres.gen(t[0])
    exp = 0
    sign = 1
    leaves_before = 0
    for slot, c in enumerate(t[1:]):
        if c != LEAF:
            r = ref_tree_arity(c)
            if c[0] in morphisms:
                exp += r * (1 + slot + parent.arity + leaves_before)
            elif t[0] in morphisms:
                exp += parent.arity + (slot + 1) * (r + 1)
            elif r > 1:
                exp += r + slot * (r + 1)
            sign *= ref_basis_sign(pres, c, morphisms)
        leaves_before += ref_tree_arity(c)
    return -sign if exp % 2 else sign


def ref_paper(pres, x, morphisms=()):
    """The element x with each coefficient times its tree's orientation
    sign: the word basis converted to the paper's, and back."""
    return {t: c * ref_basis_sign(pres, t, morphisms) for t, c in x.items()}


class _Mismatch(Exception):
    pass


def ref_substitute(pres, u, children):
    if u == LEAF:
        return (1, children[0])
    after = ref_leaf_after_shifted(pres, u)
    exp = sum(ref_tree_shifted_degree(pres, c) * a
              for c, a in zip(children, after))
    it = iter(children)

    def build(t, expected):
        if t == LEAF:
            c = next(it)
            oc = expected if c == LEAF else pres.gen(c[0]).output
            if oc != expected:
                raise _Mismatch
            return c
        g = pres.gen(t[0])
        if expected is not None and g.output != expected:
            raise _Mismatch
        return (t[0],) + tuple(build(ch, g.inputs[i])
                               for i, ch in enumerate(t[1:]))

    try:
        return (-1 if exp % 2 else 1, build(u, None))
    except _Mismatch:
        return None


def ref_graft(pres, outer, position, inner):
    out = {}
    for ot, oc in outer.items():
        ar = ref_tree_arity(ot)
        for it_, ic in inner.items():
            children = [LEAF] * ar
            children[position - 1] = it_
            r = ref_substitute(pres, ot, children)
            if r is None:
                continue
            s, t = r
            out[t] = out.get(t, Fraction(0)) + s * oc * ic
    return {t: c for t, c in out.items() if c}


def ref_d_tree(pres, t):
    if t == LEAF:
        return {}
    children = t[1:]
    out = {}
    for u, cu in pres.d_image(t[0]).items():
        r = ref_substitute(pres, u, list(children))
        if r is None:
            continue
        s, tt = r
        out[tt] = out.get(tt, Fraction(0)) + s * cu
    pre_deg = ref_shifted_degree(pres, t[0])
    for j, c in enumerate(children):
        sgn = -1 if pre_deg % 2 else 1
        for u, cu in ref_d_tree(pres, c).items():
            nt = (t[0],) + children[:j] + (u,) + children[j + 1:]
            out[nt] = out.get(nt, Fraction(0)) + sgn * cu
        pre_deg += ref_tree_shifted_degree(pres, c)
    return {t_: c_ for t_, c_ in out.items() if c_}


def ref_derivation_extend(pres, x):
    out = {}
    for t, c in x.items():
        for u, cu in ref_d_tree(pres, t).items():
            out[u] = out.get(u, Fraction(0)) + c * cu
    return {t: c for t, c in out.items() if c}


def ref_leaf_paths(t, path=()):
    """The index path from t's root to each of its leaves, in planar
    order."""
    if t == LEAF:
        return [path]
    return [p for i, c in enumerate(t[1:], 1)
            for p in ref_leaf_paths(c, path + (i,))]


def ref_enumerate_trees(pres, arity, output_color, max_vertices):
    """Every tree of enumerate_trees, in its order, enumerated afresh at
    every child slot with nothing memoized."""
    out = [LEAF] if arity == 1 else []
    if max_vertices < 1:
        return out

    def choices(arities, colors, budget):
        if not arities:
            yield ()
            return
        for sub in ref_enumerate_trees(pres, arities[0], colors[0], budget):
            for rest in choices(arities[1:], colors[1:],
                                budget - ref_tree_vertices(sub)):
                yield (sub,) + rest

    for name, g in pres.generators.items():
        if g.output != output_color or g.arity > arity:
            continue
        for comp in itertools.product(range(1, arity + 1), repeat=g.arity):
            if sum(comp) == arity:
                out.extend((name,) + kids for kids in choices(
                    comp, g.inputs, max_vertices - 1))
    return out


def ref_component_dims(pres, arity, output_color):
    """component_dims as it was before it counted trees: every tree of
    the component enumerated and counted by its degree."""
    if any(g.arity == 1 for g in pres.generators.values()):
        raise ValueError("unary generators need an explicit length cap")
    mult = math.factorial(arity)
    dims = {}
    for t in ref_enumerate_trees(pres, arity, output_color,
                                 max(arity - 1, 1)):
        d = ref_tree_degree(pres, t)
        dims[d] = dims.get(d, 0) + mult
    return dims


def ref_low_degrees(pres, top):
    """The generators of pres of degree at most top, with no differential.
    When no generator has negative degree, as asserted, every tree of
    pres of degree at most top is one of theirs, and both enumerations
    filtered to those degrees are the same list."""
    gens = pres.generators.values()
    assert all(g.degree >= 0 for g in gens)
    return OperadPresentation(pres.name, pres.colors,
                              [g for g in gens if g.degree <= top])


def ref_windowed_homology(pres, arity, output_color, max_length,
                          input_colors, lo, hi):
    """truncated_homology as it was when it took input colors and a
    degree window (lo, hi): only the trees with these input colors and
    of degree lo - 1 to hi + 1 enter, and only degrees lo to hi are
    reported, with the arity! multiplicity.
    The trees are enumerated by ref_low_degrees(pres, hi + 1).  Cycles
    have at most max_length vertices; boundaries come from trees one
    extra level long and are counted where they land among the cycle
    trees."""
    low = ref_low_degrees(pres, hi + 1)
    jump = max((ref_tree_vertices(t) - 1 for img in
                pres.differential.values() for t in img), default=0)
    trees = [t for t in ref_enumerate_trees(
                 low, arity, output_color, max_length + 1 + jump)
             if tree_leaf_colors(pres, t, output_color) == list(input_colors)
             and ref_tree_degree(pres, t) >= lo - 1]
    by_degree = {}
    for t in trees:
        by_degree.setdefault(ref_tree_degree(pres, t), []).append(t)

    def d_rows(sources, deg):
        """d of each source tree of degree deg, as sparse rows over the
        trees of degree deg - 1 kept above."""
        targets = by_degree.get(deg - 1, [])
        index = {t: i for i, t in enumerate(targets)}
        rows = [{} for _ in targets]
        for j, t in enumerate(sources):
            for u, c in ref_derivation_extend(pres, {t: 1}).items():
                rows[index[u]][j] = c
        return rows, targets

    def short(ts, length):
        return [t for t in ts if ref_tree_vertices(t) <= length]

    dims = {}
    for deg in range(lo, hi + 1):
        small = short(by_degree.get(deg, []), max_length)
        zdim = len(small) - mat_rank(d_rows(small, deg)[0])
        rows, targets = d_rows(short(by_degree.get(deg + 1, []),
                                     max_length + 1), deg + 1)
        bdim = mat_rank(rows) - mat_rank(
            [r for r, t in zip(rows, targets)
             if ref_tree_vertices(t) > max_length])
        if zdim - bdim:
            dims[deg] = (zdim - bdim) * math.factorial(arity)
    truncated = any(ref_tree_vertices(t) == max_length + 1 for t in trees)
    return {"dims": dims, "truncated": truncated}


def ref_tree_decomposition(t1, t2, arity):
    """tree_decomposition_from_tables as it was before the exponential
    formula: every set partition of every leaf set, memoized on the
    (frozenset of leaves, parent label) pair."""
    tables = {1: {int(a): {int(d): n for d, n in row.items()}
                  for a, row in t1.items()},
              2: {int(a): {int(d): n for d, n in row.items()}
                  for a, row in t2.items()}}
    if any(a < 2 for tab in tables.values() for a in tab):
        raise ValueError("factor tables must cover arities >= 2 only")
    if arity == 1:
        return {0: 1}
    cache = {}

    def conv(a, b):
        out = {}
        for d1, n1 in a.items():
            for d2, n2 in b.items():
                out[d1 + d2] = out.get(d1 + d2, 0) + n1 * n2
        return out

    def subtree(leafset, parent_label):
        key = (leafset, parent_label)
        if key in cache:
            return cache[key]
        total = {}
        for label in (1, 2):
            if label == parent_label:
                continue
            for k, tab_row in tables[label].items():
                if k > len(leafset) or not tab_row:
                    continue
                for blocks in ref_set_partitions(sorted(leafset), k):
                    acc = dict(tab_row)
                    for blk in blocks:
                        child = ({0: 1} if len(blk) == 1
                                 else subtree(frozenset(blk), label))
                        acc = conv(acc, child)
                    for d, n in acc.items():
                        total[d] = total.get(d, 0) + n
        cache[key] = total
        return total

    return subtree(frozenset(range(1, arity + 1)), None)


def ref_set_partitions(items, k):
    """Partitions of a list into exactly k unordered nonempty blocks."""
    if k == 1:
        yield [list(items)]
        return
    if len(items) < k:
        return
    first, rest = items[0], items[1:]
    # first joins an existing block of a k-partition of rest
    for part in ref_set_partitions(rest, k):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
    # or forms its own block
    for part in ref_set_partitions(rest, k - 1):
        yield [[first]] + part


def ref_corolla(name, arity):
    return (name,) + (LEAF,) * arity


def ref_inserted(name, arity, slot, inner):
    """The generator name of the given arity with inner at input slot + 1
    and leaves at its other inputs."""
    return (name,) + (LEAF,) * slot + (inner,) + (LEAF,) * (arity - 1 - slot)


def ref_arrow_differential(n):
    """The differential of ass_arrow_minimal(n) in the paper's basis,
    generator by generator and in the builder's order: d mu_m and d nu_m
    with the Stasheff signs, and d f_m with the sign exponent
    eta = sum_{a<b} r_a (r_b + 1) summed pair by pair, each term with
    corollas of its own."""
    def stasheff(p, m):
        return {ref_inserted(f"{p}{m + 1 - j}", m + 1 - j, s,
                             ref_corolla(f"{p}{j}", j)):
                Fraction((-1) ** (j + s * (j + 1)))
                for j in range(2, m) for s in range(m + 1 - j)}

    def morphism(m):
        terms = {}
        for k in range(2, m + 1):
            for cuts in itertools.combinations(range(1, m), k - 1):
                r = [b - a for a, b in zip((0,) + cuts, cuts + (m,))]
                eta = sum(r[a] * (r[b] + 1)
                          for a in range(k) for b in range(a + 1, k))
                terms[(f"nu{k}",) + tuple(ref_corolla(f"f{x}", x)
                                          for x in r)] = Fraction((-1) ** eta)
        for j in range(2, m + 1):
            for s in range(m + 1 - j):
                terms[ref_inserted(f"f{m + 1 - j}", m + 1 - j, s,
                                   ref_corolla(f"mu{j}", j))] = Fraction(
                    (-1) ** (m + s * (j + 1) + 1))
        return terms

    out = {f"{p}{m}": stasheff(p, m)
           for m in range(2, n + 1) for p in ("mu", "nu")}
    out.update((f"f{m}", morphism(m)) for m in range(1, n + 1))
    return out


# ---------------------------------------------------------- presentations


def arrow():
    return ass_arrow_minimal(4)


def arrow_morphisms(pres):
    """The morphism generators f_m of an ass_arrow_minimal presentation,
    for ref_basis_sign."""
    return {g for g in pres.generators if g.startswith("f")}


def swapped_arrow():
    """ass_arrow_minimal(4) with mu3 and f3, and mu2 and nu2, swapping
    names: the same tree tuple has another degree and color."""
    return rename_generators(arrow(), {"mu3": "f3", "f3": "mu3",
                                       "mu2": "nu2", "nu2": "mu2"})


def shifted_ass():
    """ass_minimal(4) with every degree raised by one and a zero
    differential: the same names, other degrees."""
    return OperadPresentation(
        "ass-shifted", ("v",),
        [g._replace(degree=g.degree + 1)
         for g in ass_minimal(4).generators.values()])


def product():
    return free_product(shifted_ass(), free_binary())


def deep():
    """ass_arrow_minimal(4) with a morphism generator w4 whose image
    holds trees of three vertices, so that D plugs a vertex's children
    along leaf paths of depth 3; the image, written in the paper's basis
    and converted, need not square to zero."""
    base = arrow()
    w4 = GeneratorSpec("w4", ("v",) * 4, "w", 3)
    mu2 = ("mu2", LEAF, LEAF)
    image = {("nu2", ("f2", mu2, LEAF), ("f1", LEAF)): Fraction(1),
             ("f1", ("mu3", LEAF, mu2, LEAF)): Fraction(-1),
             ("f2", LEAF, ("mu2", mu2, LEAF)): Fraction(2),
             ("f1", ("mu2", LEAF, ("mu3", LEAF, LEAF, LEAF))): Fraction(1, 3),
             ("f4",) + (LEAF,) * 4: Fraction(1)}
    assert all(ref_tree_arity(t) == 4 for t in image)
    gens = [*base.generators.values(), w4]
    image = ref_paper(OperadPresentation("deep", base.colors, gens), image,
                      {"w4", *arrow_morphisms(base)})
    return OperadPresentation("deep", base.colors, gens,
                              {**base.differential, "w4": image})


def scaled(pres, factors):
    """pres with the image of each generator g multiplied by factors[g]."""
    return OperadPresentation(
        pres.name + "-scaled", pres.colors, list(pres.generators.values()),
        {g: {t: c * factors[g] for t, c in img.items()}
         for g, img in pres.differential.items()})


def random_scaling(pres, rng):
    """Nonzero rational factors, one per generator; mu3's has denominator
    7, so the lcm L of the scaled coefficients' denominators exceeds 1."""
    factors = {g: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                           rng.randint(1, 6)) for g in pres.generators}
    factors["mu3"] = Fraction(rng.randint(1, 6), 7)
    return factors


PRESENTATIONS = {"arrow": arrow, "swapped": swapped_arrow, "riso": riso,
                 "product": product, "deep": deep}


def tree_pool(pres):
    """Every tree of arity at most 4 (1 for riso) and at most 3
    vertices (4 for riso), of every output color."""
    unary = pres.name == "riso"
    return [t for c in pres.colors
            for a in ((1,) if unary else range(1, 5))
            for t in enumerate_trees(pres, a, c, 4 if unary else 3)]


def deep_pool(pres):
    """Every tree of arity at most 6 (1 for riso) and at most 4
    vertices, of every output color, that has a leaf at depth 3 or more
    or a vertex with two or more non-leaf children."""
    unary = pres.name == "riso"

    def deep_enough(t):
        if t == LEAF:
            return False
        kids = [c for c in t[1:] if c != LEAF]
        return (len(kids) > 1 or max(map(len, ref_leaf_paths(t))) >= 3
                or any(deep_enough(c) for c in kids))

    return [t for c in pres.colors
            for a in ((1,) if unary else range(1, 7))
            for t in enumerate_trees(pres, a, c, 4) if deep_enough(t)]


def deep_leaves(t):
    """Positions (from 1, in planar order) of t's leaves at depth 3 or
    more."""
    return [i for i, p in enumerate(ref_leaf_paths(t), 1) if len(p) >= 3]


POOLS = {name: tree_pool(make()) for name, make in PRESENTATIONS.items()}
DEEP_POOLS = {name: deep_pool(make()) for name, make in PRESENTATIONS.items()}
names = st.sampled_from(sorted(PRESENTATIONS))
# a seeded stream for drawing from the pools
rngs = st.randoms(use_true_random=False)


def check_invariants(pres, t):
    assert tuple(_info(pres, t)) == (ref_tree_arity(t), ref_tree_vertices(t),
                                     ref_tree_degree(pres, t),
                                     ref_tree_shifted_degree(pres, t))
    if t != LEAF:
        colors, after, paths = _leaf_record(pres, t)
        assert list(after) == ref_leaf_after_shifted(pres, t)
        assert list(colors) == tree_leaf_colors(pres, t,
                                                pres.gen(t[0]).output)
        assert list(paths) == ref_leaf_paths(t)
    assert tree_word(t) == ref_tree_word(t)


# ----------------------------------------------------------------- tests


def negative_ass():
    """ass_minimal(4) with every degree negated: enumeration reads no
    degree, a negative one included."""
    return OperadPresentation(
        "ass-negative", ("v",),
        [GeneratorSpec(g.name, g.inputs, g.output, -g.degree)
         for g in ass_minimal(4).generators.values()])


def test_arrow_differential_matches_pairwise_signs():
    """For every order up to 10, ass_arrow_minimal's differential
    converted to the paper's basis is the pairwise-signed one, term for
    term and in the same order."""
    for n in range(1, 11):
        pres = ass_arrow_minimal(n)
        ref = ref_arrow_differential(n)
        assert list(pres.differential) == list(ref)
        for name, img in ref.items():
            paper = ref_paper(pres, pres.d_image(name), arrow_morphisms(pres))
            assert list(paper.items()) == list(img.items()), name


def test_bundled_differentials_are_sign_free_in_the_word_basis():
    """In the word basis d mu_n and d nu_n are the sums of their Stasheff
    trees, every coefficient 1, and d f_n is the sum of its
    nu_k(f_r1, ..., f_rk) trees minus the sum of its f_i o mu_j trees."""
    for n in range(1, 11):
        ref = ref_arrow_differential(n)
        assert ass_arrow_minimal(n).differential == {
            name: {t: -1 if t[0].startswith("f") else 1 for t in img}
            for name, img in ref.items()}
        assert ass_minimal(max(n, 2)).differential == {
            name: dict.fromkeys(img, 1) for name, img in
            ref_arrow_differential(max(n, 2)).items()
            if name.startswith("mu")}


@pytest.mark.parametrize("make", [
    pytest.param(lambda: ass_minimal(7), id="ass_minimal"),
    pytest.param(lambda: ass_arrow_minimal(5), id="ass_arrow_minimal"),
    *PRESENTATIONS.values(), negative_ass],
    ids=lambda make: make.__name__)
def test_enumerate_trees_memo_matches_reference(make):
    """Every bundled presentation (and each derived one above) at small
    arities: the memoized enumeration equals a fresh unmemoized one, in
    order, both when first computed and when read back from the memo."""
    pres = make()
    arities = (1,) if pres.name == "riso" else range(1, 5)
    args = [(a, c, v) for a in arities for c in pres.colors
            for v in range(5)]
    for _ in range(2):
        for a in args:
            trees = enumerate_trees(pres, *a)
            assert type(trees) is tuple
            assert list(trees) == ref_enumerate_trees(pres, *a)


@SETTINGS
@given(names, rngs)
def test_tree_invariants_match_reference(name, rng):
    """Queried in a random order, supertrees before subtrees or after,
    on a fresh presentation and on one whose memo is warm."""
    pres = PRESENTATIONS[name]()
    trees = rng.sample(POOLS[name], min(12, len(POOLS[name])))
    for t in trees:
        check_invariants(pres, t)
    for t in trees:
        check_invariants(pres, t)


def test_memo_does_not_leak_between_presentations():
    """A tree computed under one presentation keeps the values of
    another presentation where the names mean other generators."""
    base, swapped = arrow(), swapped_arrow()
    shared = [t for t in POOLS["arrow"] if t in set(POOLS["swapped"])]
    for t in POOLS["arrow"]:
        check_invariants(base, t)
    differs = 0
    for t in shared:
        check_invariants(swapped, t)
        differs += _info(swapped, t) != _info(base, t)
    assert differs > 0
    ass, prod = ass_minimal(4), product()
    for t in POOLS["product"]:
        check_invariants(prod, t)
        if "nu2" not in ref_tree_word(t):
            check_invariants(ass, t)
            assert _info(prod, t).degree == (_info(ass, t).degree
                                             + _info(ass, t).vertices)


@SETTINGS
@given(names, rngs)
def test_substitute_and_graft_match_reference(name, rng):
    pres = PRESENTATIONS[name]()
    pool = POOLS[name]
    for _ in range(6):
        u = rng.choice(pool)
        children = [rng.choice(pool) if rng.random() < 0.5 else LEAF
                    for _ in range(ref_tree_arity(u))]
        assert substitute(pres, u, children) == ref_substitute(
            pres, u, children)
        # int and Fraction coefficients alike come back as Rationals
        outer = {t: rng.choice(COEFFICIENTS) for t in rng.sample(pool, 2)}
        ar = min(ref_tree_arity(t) for t in outer)
        inner = {t: rng.choice(COEFFICIENTS) for t in rng.sample(pool, 2)}
        position = rng.randint(1, ar)
        grafted = graft(pres, outer, position, inner)
        assert grafted == ref_graft(pres, outer, position, inner)
        assert all(type(c) is Rational for c in grafted.values())


@SETTINGS
@given(names, rngs)
def test_substitute_and_graft_at_deep_leaves_match_reference(name, rng):
    """Children plugged at leaves of depth 3 or more, into trees with
    several non-leaf children, rebuild the tuples along long paths."""
    pres = PRESENTATIONS[name]()
    pool = DEEP_POOLS[name]
    targets = [t for t in pool if deep_leaves(t)]
    for _ in range(6):
        u = rng.choice(targets)
        deep_at = set(deep_leaves(u))
        children = [rng.choice(pool) if i in deep_at or rng.random() < 0.3
                    else LEAF for i in range(1, ref_tree_arity(u) + 1)]
        assert substitute(pres, u, children) == ref_substitute(
            pres, u, children)
        position = rng.choice(sorted(deep_at))
        outer = {u: rng.choice(COEFFICIENTS)}
        inner = {t: rng.choice(COEFFICIENTS) for t in rng.sample(pool, 2)}
        assert graft(pres, outer, position, inner) == ref_graft(
            pres, outer, position, inner)


def test_graft_of_int_coefficients_is_fractional():
    pres = ass_minimal(3)
    mu2 = pres.corolla("mu2")
    grafted = graft(pres, {mu2: 1}, 1, {mu2: 2})
    assert grafted and all(type(c) is Rational for c in grafted.values())


@SETTINGS
@given(names, rngs)
def test_derivation_extend_matches_reference(name, rng):
    pres = PRESENTATIONS[name]()
    x = {t: Fraction(rng.choice(COEFFICIENTS))
         for t in rng.sample(POOLS[name], 4)}
    assert derivation_extend(pres, x) == ref_derivation_extend(pres, x)
    for g in pres.generators:
        img = pres.d_image(g)
        assert derivation_extend(pres, img) == ref_derivation_extend(
            pres, img)


@SETTINGS
@given(names, rngs)
def test_derivation_extend_on_deep_trees_matches_reference(name, rng):
    pres = PRESENTATIONS[name]()
    x = {t: Fraction(rng.choice(COEFFICIENTS))
         for t in rng.sample(DEEP_POOLS[name], 4)}
    assert derivation_extend(pres, x) == ref_derivation_extend(pres, x)


def test_derivation_extend_plugs_along_deep_leaf_paths():
    """D(w4)'s terms have leaves at depth 3, where D of a w4 vertex puts
    its non-leaf children: every tree of arity 5 to 7 with a w4 root and
    one or two more vertices."""
    pres = deep()
    assert any(len(path) >= 3 for *_, paths in _d_gen_terms(
        pres, "w4") for path in paths)
    trees = [t for a in range(5, 8) for t in enumerate_trees(pres, a, "w", 3)
             if t[0] == "w4"]
    assert len(trees) > 20
    for t in trees:
        assert derivation_extend(pres, {t: 1}) == ref_derivation_extend(
            pres, {t: 1})


def test_generator_image_is_its_corollas():
    """D keeps one memo, per subtree: D on a generator is D on its
    corolla, whose image is the stored one, for the bundled models, the
    presentations above and a rational scaling of arrow."""
    base = arrow()
    for pres in (ass_minimal(11), ass_arrow_minimal(7), riso(),
                 free_binary(), ass_minimal(3),
                 *(make() for make in PRESENTATIONS.values()),
                 scaled(base, random_scaling(base, random.Random(24)))):
        for g in pres.generators:
            assert derivation_extend(pres, {pres.corolla(g): 1}) == (
                pres.d_image(g)), (pres.name, g)


def test_d_squared_at_benchmark_arities():
    for pres, arity in ((ass_minimal(11), 11), (ass_arrow_minimal(7), 7)):
        res = d_squared_check(pres, arity)
        assert res["ok"]
        assert [e["generator"] for e in res["checked"]] == list(
            pres.generators)


@SETTINGS
@given(rngs)
def test_derivation_extend_of_rational_scaling_matches_reference(rng):
    for base in (ass_minimal(4), arrow()):
        pres = scaled(base, random_scaling(base, rng))
        pool = [t for c in pres.colors for a in range(1, 5)
                for t in enumerate_trees(pres, a, c, 3)]
        x = {t: rng.choice(COEFFICIENTS) for t in rng.sample(pool, 4)}
        dx = derivation_extend(pres, x)
        assert dx == ref_derivation_extend(pres, x)
        assert all(type(c) is Rational for c in dx.values())
        for g in pres.generators:
            img = pres.d_image(g)
            assert derivation_extend(pres, img) == ref_derivation_extend(
                pres, img)


@SETTINGS
@given(rngs)
def test_d_squared_witness_of_rational_scaling_matches_reference(rng):
    """Unequal factors on mu3 and mu4 break d^2 = 0 on mu5; a failing
    generator's witness is the min-repr entry of the reference d^2."""
    failed = 0
    for base in (ass_minimal(5), arrow()):
        factors = random_scaling(base, rng)
        if factors["mu4"] == factors["mu3"]:
            factors["mu4"] *= 2
        pres = scaled(base, factors)
        res = d_squared_check(pres, 5)
        for entry in res["checked"]:
            dd = ref_derivation_extend(pres, pres.d_image(entry["generator"]))
            assert entry["d_squared_zero"] == (not dd)
            if dd:
                t, c = entry["witness"]
                assert (t, c) == min(dd.items(), key=lambda kv: repr(kv[0]))
                assert type(c) is Rational
                failed += 1
    assert failed


def test_homology_is_invariant_under_a_common_rational_scaling():
    base = ass_minimal(6)
    pres = scaled(base, dict.fromkeys(base.generators, Fraction(2, 3)))
    expected = truncated_homology(base, 6, "v")
    assert expected["dims"] == {0: 720}
    assert truncated_homology(pres, 6, "v") == expected


degree_tables = st.dictionaries(
    st.integers(2, 7),
    st.dictionaries(st.integers(-2, 3), st.integers(1, 30), max_size=3),
    max_size=6)


@SETTINGS
@given(degree_tables, degree_tables, st.integers(1, 7))
def test_tree_decomposition_matches_set_partition_reference(t1, t2, arity):
    assert tree_decomposition_from_tables(t1, t2, arity) == (
        ref_tree_decomposition(t1, t2, arity))


def test_tree_decomposition_of_bundled_tables_matches_reference():
    """The component tables of tree-dims and the homology tables of
    kunneth for ass-minimal-3 and free-binary; arities 8 and 9 are
    pinned by the tree-dims certificate of the CLI tests."""
    factors = ass_minimal(3), free_binary()
    for arity in range(1, 8):
        for table in (
                lambda p, a: component_dims(p, a, "v"),
                lambda p, a: truncated_homology(p, a, "v")["dims"]):
            t1, t2 = ({a: table(p, a) for a in range(2, arity + 1)}
                      for p in factors)
            assert tree_decomposition_from_tables(t1, t2, arity) == (
                ref_tree_decomposition(t1, t2, arity))


def no_unary():
    """ass_arrow_minimal(4) without f1: two colors and no unary
    generator, so its components can be counted."""
    base = arrow()
    return OperadPresentation(
        "arrow-no-f1", base.colors,
        [g for g in base.generators.values() if g.name != "f1"])


COUNTED = {"ass-minimal": lambda: ass_minimal(7),
           "ass-minimal-3": lambda: ass_minimal(3),
           "ass-arrow-minimal": lambda: ass_arrow_minimal(5),
           "free-binary": free_binary,
           "no-unary": no_unary, **PRESENTATIONS}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(COUNTED)), st.integers(0, 7), rngs)
def test_component_dims_match_enumeration(name, arity, rng):
    """The counted dimensions equal those of the enumerated trees on the
    bundled presentations and the ones above; unary generators raise."""
    pres = COUNTED[name]()
    color = rng.choice(pres.colors)
    if any(g.arity == 1 for g in pres.generators.values()):
        with pytest.raises(ValueError, match="unary generators"):
            component_dims(pres, arity, color)
        return
    assert component_dims(pres, arity, color) == ref_component_dims(
        pres, arity, color)
