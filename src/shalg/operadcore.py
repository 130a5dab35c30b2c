"""Colored operads presented by generators and derivation differentials.

Free colored operads are realized as Q-linear spans of planar rooted
trees with vertices labeled by generators.  A tree is a nested tuple
(generator_name, child_1, ..., child_k); a leaf is the constant LEAF.
Leaves are implicitly numbered 1..arity left to right (only identity
leaf orderings are supported).  An element is a dict tree -> Rational.

Sign conventions.  Trees live in one basis, the word basis of the
suspension, as in the bar construction: a generator of arity k and
degree d counts as an operation of shifted degree d + 1 - k, and a tree
is identified with its depth-first generator word.  Only Koszul signs
occur there: grafting carries the sign for moving the grafted word past
the generators that follow the insertion point, and the differential
extends from generators as the word derivation.  The stored
differentials are sign-free in this basis (d mu_n is the sum of all
mu_i o_{s+1} mu_j with coefficient 1), they square to zero as word
derivations, and d(graft(x, i, y)) = graft(dx, i, y)
+ (-1)^|x|' graft(x, i, dy), with |x|' x's shifted degree.  The paper's
printed signs are those of the unshifted trees; they differ from these
by an edge-local orientation sign of each tree, which the tests keep.

The kernels run the differential over the integers: D = L·d, where L is
the lcm of the stored coefficients' denominators (1 for the bundled
presentations).  d_squared_check tests D^2 = 0, truncated_homology ranks
D's integer matrices (a scaling by L changes no rank), and
derivation_extend returns D/L with exact rational coefficients
(exactlin.Rational).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Mapping, NamedTuple, Optional, Sequence

from .exactlin import (
    ChainComplex,
    GradedMap,
    Rational,
    hom_differential,
    mat_rank,
    tensor_basis_index,
    tensor_basis_tuples,
    tensor_spaces,
)

LEAF = "*"

Element = dict  # tree -> Rational


class GeneratorSpec(NamedTuple):
    name: str
    inputs: tuple
    output: str
    degree: int
    tj: Optional[int] = None

    @property
    def arity(self) -> int:
        return len(self.inputs)


class OperadPresentation:
    """Generators, colors, and a differential given on generators.

    The operad is symmetric: each generator stands for a regular
    symmetric-group representation, so reported component dimensions
    carry a factor of arity!.

    The stored differential is interned (see _intern): its vertex names
    are the generators' own name objects and equal subtrees are one
    object.  The invariants of every tree the operad layer meets under
    this presentation (arity, length, degrees), the terms of each
    generator's D image with their leaf records (equal paths, color and
    degree tuples shared), the images of its subtrees under D and the
    tree enumerations are memoized on the instance and freed with it.
    """

    def __init__(self, name, colors, generators: Sequence[GeneratorSpec],
                 differential: Mapping[str, Element] = ()):
        self.name = name
        self.colors = tuple(colors)
        self.generators = {}
        for g in generators:
            if g.name in self.generators:
                raise ValueError(f"duplicate generator name {g.name}")
            if g.output not in self.colors or any(
                    c not in self.colors for c in g.inputs):
                raise ValueError(f"unknown color on generator {g.name}")
            if g.arity < 1:
                raise ValueError("generators must have arity >= 1")
            self.generators[g.name] = g
        shared = {LEAF: LEAF}  # stored tree -> itself; see _intern
        self.differential = {}
        for k, v in dict(differential).items():
            g = self.generators.get(k)
            if g is None:
                raise ValueError(f"differential on unknown generator {k}")
            self.differential[g.name] = {
                _intern(t, self.generators, shared): Rational(c)
                for t, c in dict(v).items()}
        # L, the lcm of the coefficient denominators: the kernels run on
        # the integral copy D = L·d (see _d_gen_terms)
        self._d_scale = math.lcm(1, *(c.denominator
                                      for v in self.differential.values()
                                      for c in v.values()))
        # tree -> memoized invariants; see _info
        self._tree_info = {LEAF: _LEAF_INFO}
        self._d_terms = {}  # generator -> terms of D; see _d_gen_terms
        # leaf path, color or degree tuple -> itself; see _leaf_record
        self._shared = {}
        self._d_images = {LEAF: {}}  # subtree -> D(subtree); see _d_shifted
        # enumerate_trees arguments -> tuple of trees
        self._trees = {}

    def gen(self, name) -> GeneratorSpec:
        return self.generators[name]

    def corolla(self, name):
        return (name,) + (LEAF,) * self.gen(name).arity

    def d_image(self, name) -> Element:
        return self.differential.get(name, {})


# ------------------------------------------------------------------ trees


def _intern(t, gens, shared):
    """Tree t with each vertex named by its generator's own name object
    (gens maps names to GeneratorSpecs) and each subtree the one object
    that shared (value -> itself) holds for its value.  Children are
    interned before their parent, so a repeated subtree is found by one
    lookup, without a walk."""
    if t == LEAF:
        return LEAF
    kids = tuple(map(shared.get, t[1:]))
    if None in kids:
        kids = tuple([u or _intern(c, gens, shared)
                      for c, u in zip(t[1:], kids)])
    g = gens.get(t[0])
    t = (t[0] if g is None else g.name,) + kids
    return shared.setdefault(t, t)


class _TreeInfo(NamedTuple):
    """Invariants of one tree under one presentation."""
    arity: int
    vertices: int
    degree: int
    shifted_degree: int  # in the arity-shifted grading


_LEAF_INFO = _TreeInfo(1, 0, 0, 0)


def _info(pres: OperadPresentation, t) -> _TreeInfo:
    """Invariants of t, memoized on pres: each distinct subtree is
    computed once, from the invariants of its children."""
    info = pres._tree_info.get(t)
    if info is None:
        info = pres._tree_info[t] = _new_info(pres, t)
    return info


def _new_info(pres: OperadPresentation, t) -> _TreeInfo:
    g = pres.generators.get(t[0])
    if g is None:
        raise ValueError(f"unknown generator {t[0]}")
    arity = vertices = degree = shifted = 0
    for c in t[1:]:
        k = _info(pres, c)
        arity += k.arity
        vertices += k.vertices
        degree += k.degree
        shifted += k.shifted_degree
    return _TreeInfo(arity, 1 + vertices, g.degree + degree,
                     g.degree + 1 - g.arity + shifted)


def tree_word(t) -> list:
    """Depth-first generator names (root first, children left to right)."""
    if t == LEAF:
        return []
    out = [t[0]]
    for c in t[1:]:
        if c != LEAF:
            out.extend(tree_word(c))
    return out


def tree_leaf_colors(pres: OperadPresentation, t, output_color) -> list:
    """Input colors in planar leaf order, given the tree's output color."""
    if t == LEAF:
        return [output_color]
    g = pres.gen(t[0])
    out = []
    for i, c in enumerate(t[1:]):
        out.extend(tree_leaf_colors(pres, c, g.inputs[i]))
    return out


def _leaf_record(pres: OperadPresentation, u):
    """The leaf record of a non-leaf tree u, what plugging children into
    it reads: three tuples over its leaves in planar order, each leaf's
    input color, the total shifted degree of the generators after it in
    u's depth-first word, and the index path from u's root to it.  Found
    in one walk of u; None when the two ends of an edge of u disagree.
    Equal paths and equal color and degree tuples are one object, shared
    through pres; the tuple of paths, nearly always new, is not."""
    gens, shared = pres.generators, pres._shared
    colors, after, paths = [], [], []
    rest = _info(pres, u).shifted_degree  # of the generators not yet passed

    def walk(t, path):
        nonlocal rest
        g = gens[t[0]]
        k = len(g.inputs)
        if len(t) != k + 1:
            return False
        rest -= g.degree + 1 - k
        for i, color in enumerate(g.inputs, 1):
            c = t[i]
            if c == LEAF:
                colors.append(color)
                after.append(rest)
                leaf = path + (i,)
                paths.append(shared.setdefault(leaf, leaf))
            elif gens[c[0]].output != color or not walk(c, path + (i,)):
                return False
        return True

    if not walk(u, ()):
        return None
    colors, after = tuple(colors), tuple(after)
    return (shared.setdefault(colors, colors),
            shared.setdefault(after, after), tuple(paths))


def _put_children(u, colors, after, paths, kids):
    """Plug children into the leaves of u with shifted-grading word
    signs: kids lists (j, tree, output color, shifted degree) of each
    non-leaf child, in slot order, and it replaces leaf j of u, whose
    color, degree after and path are read from the three tuples of u's
    leaf record; the other leaves stay.  Returns (sign, tree), or None
    when a child's output color is not its leaf's input color.  Only
    the tuples on the paths are rebuilt: the root once, a deeper one
    once per child below it."""
    if not kids:
        return (1, u)
    out, exp = list(u), 0
    for j, c, color, shifted in kids:
        if colors[j] != color:
            return None
        exp += shifted * after[j]
        path = paths[j]
        i = path[0]
        out[i] = c if len(path) == 1 else _put(out[i], path, 1, c)
    return (-1 if exp % 2 else 1, tuple(out))


def _put(t, path, depth, c):
    """t with its subtree at path[depth:] replaced by c."""
    i = path[depth]
    if depth + 1 < len(path):
        c = _put(t[i], path, depth + 1, c)
    return t[:i] + (c,) + t[i + 1:]


def _kids(pres, children) -> list:
    """(slot, tree, output color, shifted degree) of each non-leaf tree
    of children: what _put_children plugs."""
    gens = pres.generators
    return [(j, c, gens[c[0]].output, _info(pres, c).shifted_degree)
            for j, c in enumerate(children) if c != LEAF]


def substitute(pres: OperadPresentation, u, children):
    """Plug the trees `children` into the leaves of u, in planar order.

    Returns (sign, tree), the sign the Koszul sign of moving each
    child's word past the generators after its leaf in u's word, or None
    when an edge color mismatch makes the composite zero.
    """
    if u == LEAF:
        if len(children) != 1:
            raise ValueError("unit tree takes exactly one child")
        return (1, children[0])
    if len(children) != _info(pres, u).arity:
        raise ValueError("child count does not match arity")
    leaves = _leaf_record(pres, u)
    return leaves and _put_children(u, *leaves, _kids(pres, children))


# --------------------------------------------------------------- elements


def elem_add(a: Element, b: Element, ca=1, cb=1) -> Element:
    out = {}
    for t, c in a.items():
        out[t] = out.get(t, Rational(0)) + Rational(ca) * c
    for t, c in b.items():
        out[t] = out.get(t, Rational(0)) + Rational(cb) * c
    return {t: c for t, c in out.items() if c}


def elem_scale(a: Element, c) -> Element:
    c = Rational(c)
    return {t: c * x for t, x in a.items() if c * x}


def _accumulate(out: Element, t, c) -> None:
    """out[t] += c, dropping t when the sum is zero: terms that cancel
    free their trees at once."""
    c += out.get(t, 0)
    if c:
        out[t] = c
    else:
        out.pop(t, None)


def graft(pres: OperadPresentation, outer: Element, position: int,
          inner: Element) -> Element:
    """Operadic partial composition outer o_position inner, bilinear,
    with substitute's word sign."""
    out: Element = {}
    for ot, oc in outer.items():
        ar = _info(pres, ot).arity
        if not 1 <= position <= ar:
            raise ValueError("graft position out of range")
        for it_, ic in inner.items():
            children = [LEAF] * ar
            children[position - 1] = it_
            r = substitute(pres, ot, children)
            if r is None:
                continue
            c = Rational(oc * ic)
            _accumulate(out, r[1], c if r[0] > 0 else -c)
    return out


def derivation_extend(pres: OperadPresentation, x: Element) -> Element:
    """Extend the generator differential to spans of trees as the word
    derivation d = D/L, where D = L·d is the integral derivation of
    _d_shifted.  Coefficients are exact rationals, exactlin.Rational."""
    scale = pres._d_scale
    return {u: Rational(c, scale) for u, c in _apply_shifted(pres, x).items()}


def _apply_shifted(pres, x) -> dict:
    """D applied to a span of trees; the images of x's own trees are not
    memoized, those of their subtrees are."""
    out: dict = {}
    for t, c in x.items():
        img = pres._d_images.get(t)
        if img is None:
            _add_d_image(pres, t, c, out)
        else:
            for u, cu in img.items():
                _accumulate(out, u, c * cu)
    return out


def _d_gen_terms(pres, name) -> list:
    """The terms of D on a generator, as (tree u, coefficient, colors,
    after, paths): the stored image scaled by L, as ints, and the leaf
    record of u, what plugging a vertex's children into u reads; listed
    once per generator and memoized on pres.  A u whose own edges
    disagree in color is left out; the unit tree's record is None three
    times, since it takes its one child as it is."""
    terms = pres._d_terms.get(name)
    if terms is None:
        arity, scale = pres.gen(name).arity, pres._d_scale
        terms = []
        for u, c in pres.d_image(name).items():
            cu = c.numerator * (scale // c.denominator)
            if u == LEAF:
                if arity != 1:
                    raise ValueError("unit tree takes exactly one child")
                terms.append((u, cu, None, None, None))
                continue
            if _info(pres, u).arity != arity:
                raise ValueError("child count does not match arity")
            leaves = _leaf_record(pres, u)
            if leaves is not None:
                terms.append((u, cu) + leaves)
        pres._d_terms[name] = terms
    return terms


def _d_shifted(pres, t) -> dict:
    """D(t): the word derivation in the shifted grading that extends
    _d_gen_terms, with int coefficients; t's generators are known to
    pres.  Memoized on pres, since child subtrees recur across parents;
    a generator's image is its corolla's."""
    img = pres._d_images.get(t)
    if img is None:
        img = {}
        _add_d_image(pres, t, 1, img)
        pres._d_images[t] = img
    return img


def _add_d_image(pres, t, c, out) -> None:
    """Add c·D(t) to out, for a non-leaf t: D of the root generator with
    t's children plugged in (by _put_children, along each term's leaf
    record), plus D of each non-leaf child in place, with the shifted
    Koszul sign of the generators before it."""
    children = t[1:]
    kids = _kids(pres, children)
    for u, cu, colors, after, paths in _d_gen_terms(pres, t[0]):
        if colors is None:
            _accumulate(out, children[0], c * cu)
            continue
        r = _put_children(u, colors, after, paths, kids)
        if r is not None:
            _accumulate(out, r[1], c * cu if r[0] > 0 else -c * cu)
    g = pres.gen(t[0])
    pre_deg = g.degree + 1 - g.arity  # the root's shifted degree
    for j, ch, _, shifted in kids:
        sc = -c if pre_deg % 2 else c
        head, tail = (t[0],) + children[:j], children[j + 1:]
        for u, cu in _d_shifted(pres, ch).items():
            _accumulate(out, head + (u,) + tail, sc * cu)
        pre_deg += shifted


# ------------------------------------------------------------ diagnostics


def d_squared_check(pres: OperadPresentation, up_to_arity: int) -> dict:
    """Certify d^2 = 0 on every generator within the arity bound, plus the
    upper-grading conditions when tj degrees are declared: each tree in
    d(gen) has total tj equal to tj(gen) - 1 and uses only generators of
    strictly smaller tj (the filtration condition)."""
    failures = []
    checked = []
    gens = pres.generators
    for name, g in gens.items():
        if g.arity > up_to_arity:
            continue
        # d² = D²/L²: test D² instead
        dd = _apply_shifted(pres, _d_shifted(pres, pres.corolla(name)))
        entry = {"generator": name, "d_squared_zero": not dd}
        if dd:
            t, c = min(dd.items(), key=lambda kv: repr(kv[0]))
            entry["witness"] = (t, Rational(c, pres._d_scale ** 2))
            failures.append(entry)
        if g.tj is not None:
            for t in pres.d_image(name):
                tjs = [gens[v].tj for v in tree_word(t)]
                if None in tjs or sum(tjs) != g.tj - 1:
                    failures.append({"generator": name, "reason": "tj total",
                                     "tree": t})
                if any(tj is None or tj >= g.tj for tj in tjs):
                    failures.append({"generator": name,
                                     "reason": "filtration", "tree": t})
        checked.append(entry)
    return {"ok": not failures, "checked": checked, "failures": failures}


def rename_generators(pres: OperadPresentation,
                      mapping: Mapping[str, str]) -> OperadPresentation:
    """Copy of a presentation with generators renamed per `mapping`
    (missing names are kept); differentials are retagged accordingly."""
    def newname(old):
        return mapping.get(old, old)

    def retag(t):
        if t == LEAF:
            return t
        return (newname(t[0]),) + tuple(retag(c) for c in t[1:])

    gens = [g._replace(name=newname(g.name))
            for g in pres.generators.values()]
    diff = {newname(k): {retag(t): c for t, c in img.items()}
            for k, img in pres.differential.items()}
    return OperadPresentation(pres.name + "-renamed", pres.colors, gens, diff)


def free_product(p1: OperadPresentation,
                 p2: OperadPresentation) -> OperadPresentation:
    """Coproduct: disjoint union of generators and differentials."""
    clash = set(p1.generators) & set(p2.generators)
    if clash:
        raise ValueError(f"generator name clash: {sorted(clash)}")
    colors = tuple(dict.fromkeys(p1.colors + p2.colors))
    gens = list(p1.generators.values()) + list(p2.generators.values())
    diff = {**p1.differential, **p2.differential}
    return OperadPresentation(f"{p1.name}*{p2.name}", colors, gens, diff)


# ----------------------------------------------------- tree enumeration


def enumerate_trees(pres: OperadPresentation, arity: int, output_color,
                    max_vertices: int) -> tuple:
    """All valid planar trees with the given arity and output color, with
    at most max_vertices internal vertices, as a tuple in a deterministic
    order; in arity 1 the unit tree comes first.  Memoized on pres per
    argument tuple: the enumeration of a larger arity reads each smaller
    one once per child slot."""
    key = (arity, output_color, max_vertices)
    trees = pres._trees.get(key)
    if trees is None:
        trees = pres._trees[key] = tuple(_new_trees(pres, *key))
    return trees


def _new_trees(pres, arity, output_color, max_vertices):
    out = [LEAF] if arity == 1 else []
    if max_vertices < 1:
        return out
    for name, g in pres.generators.items():
        if g.output != output_color or g.arity > arity:
            continue
        for comp in _compositions(arity, g.arity):
            for kids in _children_choices(pres, comp, g.inputs,
                                          max_vertices - 1):
                out.append((name,) + kids)
    return out


def _compositions(n, k):
    """Ordered compositions of n into k positive parts."""
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def _children_choices(pres, arities, colors, budget):
    if not arities:
        yield ()
        return
    rest_a, rest_c = arities[1:], colors[1:]
    for sub in enumerate_trees(pres, arities[0], colors[0], budget):
        for rest in _children_choices(pres, rest_a, rest_c,
                                      budget - _info(pres, sub).vertices):
            yield (sub,) + rest


def component_dims(pres: OperadPresentation, arity: int,
                   output_color) -> dict:
    """Per-degree dimensions of the arity component, with the arity!
    multiplicity of the regular representation.

    The trees are counted, not built.  A tree of arity n is a generator
    of arity k over a composition of n into k parts, each part a leaf or
    a smaller tree of the input's color, so the per-degree counts of
    arity n are convolutions of those of smaller arities, slot by slot
    over each generator's inputs.  Without unary generators (which
    raise) every tree of arity n has fewer than n vertices, so all of
    them count."""
    _exact_vertex_bound(pres, arity)  # raises on unary generators
    counts = {}  # (arity, color) -> degree -> trees with a root vertex

    def parts(m, color):
        return {0: 1} if m == 1 else counts[m, color]

    for n in range(2, arity + 1):
        for color in pres.colors:
            acc = counts[n, color] = {}
            for g in pres.generators.values():
                if g.output != color or g.arity > n:
                    continue
                # leaves used by the slots so far -> their degree table
                prefix = {0: {0: 1}}
                for c in g.inputs:
                    grown = {}
                    for s, row in prefix.items():
                        for m in range(1, n - s + 1):
                            _convolve_into(grown.setdefault(s + m, {}), row,
                                           parts(m, c))
                    prefix = grown
                for d, x in prefix.get(n, {}).items():
                    acc[d + g.degree] = acc.get(d + g.degree, 0) + x
    dims = {0: 1} if arity == 1 else counts.get((arity, output_color), {})
    return {d: x * math.factorial(arity) for d, x in sorted(dims.items())}


def _convolve_into(acc: dict, a: dict, b: dict, scale: int = 1) -> None:
    """acc += scale · (a * b), for degree tables (degree -> count) a, b."""
    for d1, n1 in a.items():
        for d2, n2 in b.items():
            acc[d1 + d2] = acc.get(d1 + d2, 0) + scale * n1 * n2


def _exact_vertex_bound(pres, arity):
    if any(g.arity == 1 for g in pres.generators.values()):
        raise ValueError("unary generators need an explicit length cap")
    return max(arity - 1, 1)


# ---------------------------------------------- free product decomposition


def tree_decomposition_from_tables(t1: Mapping[int, Mapping[int, int]],
                                   t2: Mapping[int, Mapping[int, int]],
                                   arity: int) -> dict:
    """Per-degree dimensions of the arity component of a free product,
    from per-arity per-degree dimension tables of the two factors'
    augmentation ideals (all vertex arities >= 2).

    Sums over isomorphism classes of leaf-labeled abstract rooted trees
    with unordered children, vertices labeled by one of the two factors,
    adjacent vertices labeled by different factors.  A subtree's table
    depends only on its number of leaves, so the trees are counted by
    the exponential formula, leaf count by leaf count, choosing the
    block that holds the first leaf: polynomial in the arity.
    """
    tables = {1: {int(a): {int(d): n for d, n in row.items()}
                  for a, row in t1.items()},
              2: {int(a): {int(d): n for d, n in row.items()}
                  for a, row in t2.items()}}
    if any(a < 2 for tab in tables.values() for a in tab):
        raise ValueError("factor tables must cover arities >= 2 only")

    # under[p][n]: subtrees on n leaves whose root label is not p (p = 0:
    # any root), the leaf on one; sets[l][k, n]: unordered k-sets of
    # under[l] subtrees that partition n leaves.
    under = {p: {1: {0: 1}} for p in (0, 1, 2)}
    sets = {label: {(1, 1): {0: 1}} for label in (1, 2)}
    for n in range(2, arity + 1):
        for label in (1, 2):
            for k in range(2, n + 1):
                acc = sets[label][k, n] = {}
                for s in range(1, n - k + 2):
                    _convolve_into(acc, under[label][s],
                                   sets[label][k - 1, n - s],
                                   math.comb(n - 1, s - 1))
        for p in (0, 1, 2):
            acc = under[p][n] = {}
            for label in (1, 2):
                if label != p:
                    for k, row in tables[label].items():
                        if k <= n:
                            _convolve_into(acc, row, sets[label][k, n])
        # last: the k-sets above, k >= 2, hold subtrees on fewer leaves
        for label in (1, 2):
            sets[label][1, n] = under[label][n]
    return under[0].get(arity, {})


def tree_decomposition_dims(p1: OperadPresentation, p2: OperadPresentation,
                            arity: int) -> dict:
    """Free-product component dimensions computed tree-by-tree from the
    factors' own component tables (single common color)."""
    if len(set(p1.colors) | set(p2.colors)) != 1:
        raise ValueError("tree decomposition supports a single color only")
    color = p1.colors[0]
    t1 = {a: component_dims(p1, a, color) for a in range(2, arity + 1)}
    t2 = {a: component_dims(p2, a, color) for a in range(2, arity + 1)}
    return tree_decomposition_from_tables(t1, t2, arity)


# ------------------------------------------------------ truncated homology


def _max_length_jump(pres) -> int:
    jump = 0
    for name, img in pres.differential.items():
        for t in img:
            jump = max(jump, _info(pres, t).vertices - 1)
    return jump


def truncated_homology(pres: OperadPresentation, arity: int, output_color,
                       max_length=None) -> dict:
    """Per-degree homology dimensions of one component, length-truncated.

    Cycles are taken among trees with at most max_length vertices;
    boundaries may come from trees one extra level long (more when the
    differential increases word length faster).  The result records
    whether the truncation was proper.
    """
    if max_length is None:
        max_length = _exact_vertex_bound(pres, arity)
    jump = _max_length_jump(pres)
    big = max_length + 1 + jump  # room for images of the extra level
    all_trees = enumerate_trees(pres, arity, output_color, big)
    truncated = any(max_length < _info(pres, t).vertices <= max_length + 1
                    for t in all_trees)
    by_degree: dict[int, list] = {}
    for t in all_trees:
        by_degree.setdefault(_info(pres, t).degree, []).append(t)
    index = {d: {t: i for i, t in enumerate(ts)}
             for d, ts in by_degree.items()}

    ranked = {}

    def d_matrix(sources, deg):
        """Sparse rows, one per tree of the full degree-(deg-1) basis,
        whose columns are d of each source tree, with the targets and
        the rank.  Built and ranked once per (degree, sources): the
        cycle matrix of one degree is often the boundary matrix of the
        degree below.  Both source lists of a degree are filters of
        by_degree[deg] in order, by a vertex cap of L or L + 1, so they
        are equal exactly when their lengths are."""
        key = (deg, len(sources))
        if key not in ranked:
            targets = by_degree.get(deg - 1, [])
            rows: list[dict] = [{} for _ in targets]
            for j, t in enumerate(sources):
                for u, c in _apply_shifted(pres, {t: 1}).items():
                    i = index[deg - 1].get(u)
                    if i is None:
                        raise AssertionError("differential escaped the window")
                    rows[i][j] = c
            ranked[key] = rows, targets, mat_rank(rows) if rows else 0
        return ranked[key]

    out_dims: dict[int, int] = {}
    for deg, trees in sorted(by_degree.items()):
        small = [t for t in trees if _info(pres, t).vertices <= max_length]
        if not small:
            continue
        # kernel of d restricted to the length window
        zdim = len(small) - d_matrix(small, deg)[2]
        # boundaries from one extra length level that land in the window
        srcs = [t for t in by_degree.get(deg + 1, [])
                if _info(pres, t).vertices <= max_length + 1]
        bdim = 0
        if srcs:
            dmat, targets, drank = d_matrix(srcs, deg + 1)
            outside = [i for i, t in enumerate(targets)
                       if _info(pres, t).vertices > max_length]
            pmat = [dmat[i] for i in outside]
            bdim = drank - (mat_rank(pmat) if pmat else 0)
        h = zdim - bdim
        if h:
            out_dims[deg] = h * math.factorial(arity)
    return {"dims": out_dims, "truncated": truncated,
            "max_length": max_length}


def kunneth_check(p1: OperadPresentation, p2: OperadPresentation,
                  arity: int) -> dict:
    """Compare per-degree dimensions of the homology of a free product
    with the tree decomposition built from the factors' homologies.
    Single-colored factors without unary generators only: ValueError
    otherwise."""
    if len(set(p1.colors) | set(p2.colors)) != 1:
        raise ValueError("single-color factors only")
    color = p1.colors[0]

    def h_table(p):
        return {a: truncated_homology(p, a, color)["dims"]
                for a in range(2, arity + 1)}

    predicted = tree_decomposition_from_tables(h_table(p1), h_table(p2), arity)
    direct = truncated_homology(free_product(p1, p2), arity, color)["dims"]
    degrees = sorted(set(predicted) | set(direct))
    per_degree = [{"degree": d, "predicted": predicted.get(d, 0),
                   "direct": direct.get(d, 0),
                   "ok": predicted.get(d, 0) == direct.get(d, 0)}
                  for d in degrees]
    return {"ok": all(e["ok"] for e in per_degree), "arity": arity,
            "per_degree": per_degree}


# ------------------------------------------------------------- actions


def _suspension_sign(t) -> int:
    """Koszul sign of moving n suspensions past a basis tuple t of
    unshifted degrees ((n-1-p) is odd exactly at p = n-2, n-4, ...);
    suspending and desuspending a map both multiply column t by it."""
    return -1 if sum(deg for deg, _ in t[-2::-2]) % 2 else 1


def partition_sum(outer, inner, n: int, k_min: int, source, middle, target,
                  degree: int) -> GradedMap:
    """Sum of outer(k) . (inner(r_1) x ... x inner(r_k)) over the
    compositions r of n into k >= k_min parts, with no sign of its own in
    the suspended world, for unsuspended maps outer(k) : middle^(x k) ->
    target and inner(r) : source^(x r) -> middle.  It is eval_element's
    value on the sum of the two-level trees o_k(i_{r_1}, ..., i_{r_k}) of
    a three-colored presentation, each with coefficient 1; the zero map
    of the given degree when every term has a zero factor."""
    action, gens = {}, []
    for k in range(k_min, n + 1):
        action[f"o{k}"] = m = outer(k)
        gens.append(GeneratorSpec(f"o{k}", ("middle",) * k, "target",
                                  m.degree))
    for r in range(1, n - k_min + 2):
        action[f"i{r}"] = m = inner(r)
        gens.append(GeneratorSpec(f"i{r}", ("source",) * r, "middle",
                                  m.degree))
    pres = OperadPresentation("two-level", ("source", "middle", "target"),
                              gens)
    trees = [(f"o{k}",) + tuple(pres.corolla(f"i{rp}") for rp in r)
             for k in range(k_min, n + 1) for r in _compositions(n, k)]
    return eval_element(
        pres, action, {"source": source, "middle": middle, "target": target},
        dict.fromkeys(trees, 1), ("source",) * n, "target", degree)


class _SuspendedImages(dict):
    """K -> {the degrees of a source tuple of suspended degree K -> {each
    such tuple: the nonzero entries of its image under s . m .
    (s^-1)^(x n), scaled by scale, the lcm of m's denominators, to
    ints}}; a degree is built when first read."""

    def __init__(self, m: GradedMap):
        super().__init__()
        self.map = m
        self.scale = math.lcm(1, *{x.denominator
                                   for cols in m.columns.values()
                                   for col in cols.values()
                                   for x in col.values()})

    def __missing__(self, K):
        m, scale = self.map, self.scale
        k = K - len(m.source.factors)
        out = self[K] = {}
        cols = m.columns.get(k)
        if cols:
            tuples = tensor_basis_tuples([m.source])[k]
            for c, col in cols.items():
                t = tuples[c]
                sign = _suspension_sign(t)
                out.setdefault(tuple([d for d, _ in t]), {})[t] = [
                    ((k + m.degree, r),
                     sign * x.numerator * (scale // x.denominator))
                    for r, x in col.items()]
        return out


# a map's _SuspendedImages, made once per map (a bounded cache)
_suspended_images = functools.lru_cache(maxsize=256)(_SuspendedImages)


def eval_element(pres, action, spaces, elem: Element, inputs,
                 output_color, degree: int) -> GradedMap:
    """Value of the action on an element of the given degree, in the
    word basis of the stored differentials: each assigned map is
    conjugated by suspensions, trees are composed with plain Koszul signs
    in the suspended world, and their sum is desuspended.  A tree in
    which some generator is assigned a zero map contributes nothing.
    spaces maps each color to its graded vector space; inputs lists the
    element's input colors in leaf order.

    On a tree mu_i o_{s+1} mu_j of ass-minimal this is the naive
    composite mu_i . (1^(x s) x mu_j x 1^(x i-1-s)) of the assigned maps
    times (-1)^(ij + j + s(j+1)), the sign of the Stasheff identities
    in their usual form, so the sign-free d mu_n evaluates to those
    identities and the action commutes with the differentials exactly
    when the structure is coherent.

    Each subtree is an integer table (source tuple -> nonzero image) per
    suspended degree, and is asked only for the degrees the target, or
    its parent's nonzero columns, can take.  A child's table is shared
    within the call; a root tree's is dropped once summed.
    """
    factors = [spaces[c] for c in inputs]
    source = tensor_spaces(factors)
    target = spaces[output_color]

    def new_table(t, color, k):
        if t == LEAF:
            return {((k - 1, i),): [((k - 1, i), 1)]
                    for i in range(spaces[color].dim(k - 1))}
        g, kids, tab = pres.gen(t[0]), t[1:], {}
        if g.output != color:
            raise ValueError("output color mismatch in evaluation")
        shifts = [_info(pres, c).shifted_degree for c in kids]
        by_degrees = _suspended_images(action[t[0]])[k + sum(shifts)]
        for degrees, gcols in by_degrees.items():
            split = tuple([d + 1 - f for d, f in zip(degrees, shifts)])
            subs = [table(c, in_color, s)
                    for c, in_color, s in zip(kids, g.inputs, split)]
            if not all(subs):
                continue
            # Koszul sign of the children's tensor product on this split
            odd = sum(f * sum(split[:j]) for j, f in enumerate(shifts)) % 2
            for picks in itertools.product(*[sub.items() for sub in subs]):
                chunks, images = zip(*picks)
                col = {}
                for terms in itertools.product(*images):
                    ys, coeffs = zip(*terms)
                    entries = gcols.get(ys)
                    if entries:
                        x = math.prod(coeffs)
                        for z, b in entries:
                            col[z] = col.get(z, 0) + x * b
                col = [(z, -v if odd else v) for z, v in col.items() if v]
                if col:
                    tab[sum(chunks, ())] = col
        return tab

    table = functools.cache(new_table)  # the children's tables
    n = len(factors)
    window = [k + n for k in source.dims if k + degree in target.dims]
    weights = {}  # tree -> its weight over the tables' scale
    for t, c in elem.items():  # a tree with a zero root is skipped unread
        if t == LEAF or not action[t[0]].is_zero():
            if _info(pres, t).degree != degree:
                raise ValueError("tree degree differs from the element's")
            weights[t] = Rational(c, math.prod(
                [_suspended_images(action[v]).scale for v in tree_word(t)]))
    denom = math.lcm(1, *(w.denominator for w in weights.values()))
    # source degree -> source tuple -> target index -> int over denom
    total = {k - n: {} for k in window}
    for t, w in weights.items():
        w = w.numerator * (denom // w.denominator)
        for k in window:
            by_src = total[k - n]
            for src, image in new_table(t, output_color, k).items():
                col = by_src.setdefault(src, {})
                for (_, r), v in image:
                    col[r] = col.get(r, 0) + w * v
    table.cache_clear()  # the closure is a cycle: free the tables now
    columns = {}
    for k, by_src in total.items():
        cols = {}
        for src, col in by_src.items():
            sign = _suspension_sign(src)
            col = {r: Rational(sign * v, denom) for r, v in col.items() if v}
            if col:
                cols[src] = col
        if cols:  # the basis of a degree whose sum cancels is not read
            index = tensor_basis_index(factors, k)
            columns[k] = {index[src]: col for src, col in cols.items()}
    return GradedMap.from_columns(source, target, degree, columns)


def generator_residual(pres: OperadPresentation,
                       action: Mapping[str, GradedMap],
                       complexes: Mapping[str, ChainComplex],
                       name: str) -> GradedMap:
    """The value of d(name) under the action minus the hom-complex
    differential of the map assigned to name: zero exactly when the
    action commutes with the differentials on that generator."""
    g = pres.gen(name)
    m = action[name]
    if m.degree != g.degree:
        raise ValueError(f"degree mismatch on {name}")
    lhs = eval_element(pres, action,
                       {c: x.space for c, x in complexes.items()},
                       pres.d_image(name), g.inputs, g.output, g.degree - 1)
    rhs = hom_differential(m, [complexes[c] for c in g.inputs],
                           complexes[g.output])
    return lhs.add(rhs, 1, -1)


def action_check(pres: OperadPresentation, action: Mapping[str, GradedMap],
                 complexes: Mapping[str, ChainComplex],
                 up_to_arity: int) -> dict:
    """Certify that the assignment commutes with the differentials:
    the value of d(gen) equals the hom-complex differential of the
    assigned map, for every generator within the arity bound.  Each
    entry's residual is the difference of the two sides, the
    differential's side first: [m, d] - value(d gen), zero exactly when
    the entry is ok."""
    entries = []
    for name, g in pres.generators.items():
        if g.arity > up_to_arity:
            continue
        res = generator_residual(pres, action, complexes, name).scale(-1)
        entries.append({"generator": name, "ok": res.is_zero(),
                        "residual": res})
    return {"ok": all(e["ok"] for e in entries), "entries": entries}


# ------------------------------------------------- built-in presentations


def _corollas(prefix, first, max_arity) -> dict:
    """Arity n -> the corolla of the generator prefix + n, for n from
    first to max_arity: a builder's one tuple per generator."""
    return {n: (f"{prefix}{n}",) + (LEAF,) * n
            for n in range(first, max_arity + 1)}


def _insertions(outer, inner, n, c) -> Element:
    """The trees outer_i o_{s+1} inner_j, each with coefficient c, over
    i + j = n + 1 (j >= 2, i an arity of outer) and s = 0..i-1, for the
    corollas outer and inner (arity -> corolla); the trees are
    distinct."""
    terms: Element = {}
    for j in range(2, n + 1):
        i = n + 1 - j
        if i in outer:
            head, mid = outer[i][:1], (inner[j],)
            for s in range(i):
                terms[head + (LEAF,) * s + mid + (LEAF,) * (i - 1 - s)] = c
    return terms


def ass_minimal(max_arity: int) -> OperadPresentation:
    """Minimal resolution of the associative operad: one generator mu_n
    in each arity n >= 2, degree n-2, with d mu_n the sum of all
    mu_i o_{s+1} mu_j."""
    color = "v"
    mu = _corollas("mu", 2, max_arity)
    gens = [GeneratorSpec(c[0], (color,) * n, color, n - 2, tj=n - 2)
            for n, c in mu.items()]
    one = Rational(1)
    diff = {c[0]: _insertions(mu, mu, n, one) for n, c in mu.items()}
    return OperadPresentation("ass-minimal", (color,), gens, diff)


def free_binary() -> OperadPresentation:
    """One binary generator, zero differential: the free counterpart used
    opposite the minimal associativity resolution in product checks."""
    return OperadPresentation(
        "free-binary", ("v",),
        [GeneratorSpec("nu2", ("v", "v"), "v", 0, tj=0)])


def ass_arrow_minimal(max_arity: int) -> OperadPresentation:
    """Minimal resolution of the two-object associative category: two
    colors, an A-infinity structure on each, and sh-morphism generators
    f_n of degree n-1 connecting them, with d f_n the sum of all
    nu_k(f_r1, ..., f_rk) over the compositions r of n into k >= 2 parts
    minus that of all f_i o_{s+1} mu_j."""
    cv, cw = "v", "w"
    mu, nu = _corollas("mu", 2, max_arity), _corollas("nu", 2, max_arity)
    f = _corollas("f", 1, max_arity)
    gens = []
    for n in mu:
        gens.append(GeneratorSpec(mu[n][0], (cv,) * n, cv, n - 2, n - 2))
        gens.append(GeneratorSpec(nu[n][0], (cw,) * n, cw, n - 2, n - 2))
    gens += [GeneratorSpec(c[0], (cv,) * n, cw, n - 1, n - 1)
             for n, c in f.items()]
    one = Rational(1)
    diff = {c[n][0]: _insertions(c, c, n, one)
            for n in mu for c in (mu, nu)}
    for n, c in f.items():
        diff[c[0]] = {nu[k][:1] + tuple([f[rb] for rb in r]): one
                      for k in range(2, n + 1) for r in _compositions(n, k)}
        diff[c[0]].update(_insertions(f, mu, n, -one))
    return OperadPresentation("ass-arrow-minimal", (cv, cw), gens, diff)


def _w(*names):
    """Unary word as a tree: _w('f','h') is f after h applied to the input."""
    t = LEAF
    for name in reversed(names):
        t = (name, t)
    return t


def riso() -> OperadPresentation:
    """Cofibrant resolution of the two-object groupoid with a single
    isomorphism: colors a, b; chain maps f: a -> b and g: b -> a;
    homotopies h, l witnessing gf ~ 1 and fg ~ 1; and higher correctors
    through word degree 4."""
    a, b = "a", "b"
    gens = [
        GeneratorSpec("f", (a,), b, 0, None),
        GeneratorSpec("g", (b,), a, 0, None),
        GeneratorSpec("h", (a,), a, 1, None),
        GeneratorSpec("l", (b,), b, 1, None),
        GeneratorSpec("f2", (a,), b, 2, None),
        GeneratorSpec("g2", (b,), a, 2, None),
        GeneratorSpec("f3", (a,), a, 3, None),
        GeneratorSpec("g3", (b,), b, 3, None),
        GeneratorSpec("f4", (a,), b, 4, None),
        GeneratorSpec("g4", (b,), a, 4, None),
    ]
    one = Rational(1)
    diff = {
        "f": {},
        "g": {},
        "h": {_w("g", "f"): one, LEAF: -one},
        "l": {_w("f", "g"): one, LEAF: -one},
        "f2": {_w("f", "h"): one, _w("l", "f"): -one},
        "g2": {_w("g", "l"): one, _w("h", "g"): -one},
        "f3": {_w("g", "f2"): one, _w("h", "h"): -one, _w("g2", "f"): one},
        "g3": {_w("f", "g2"): one, _w("l", "l"): -one, _w("f2", "g"): one},
        "f4": {_w("f", "f3"): one, _w("l", "f2"): -one,
               _w("f2", "h"): one, _w("g3", "f"): -one},
        "g4": {_w("g", "g3"): one, _w("h", "g2"): -one,
               _w("g2", "l"): one, _w("f3", "g"): -one},
    }
    return OperadPresentation("riso", (a, b), gens, diff)


# name -> (builder, whether it is truncated at an order it is given)
_BUNDLED = {"ass-minimal": (ass_minimal, True),
            "ass-arrow-minimal": (ass_arrow_minimal, True),
            "riso": (riso, False), "free-binary": (free_binary, False),
            "ass-minimal-3": (lambda: ass_minimal(3), False)}
_BUILT = {}  # (name, truncation order) -> presentation


def builtin_presentation(name: str, max_arity=None) -> OperadPresentation:
    """The bundled model called name: ass-minimal and ass-arrow-minimal
    truncated at max_arity, which they need; riso, free-binary and
    ass-minimal-3 (ass-minimal at 3) whole, whatever max_arity.  Each is
    built once per process and truncation order, so every check on it
    shares its tree memos; the builders return fresh presentations."""
    if name not in _BUNDLED:
        raise ValueError(f"unknown presentation {name!r}")
    build, truncated = _BUNDLED[name]
    if truncated and max_arity is None:
        raise ValueError(f"{name} needs a truncation order")
    order = max_arity if truncated else None
    if (name, order) not in _BUILT:
        _BUILT[name, order] = build(order) if truncated else build()
    return _BUILT[name, order]


# -------------------------------------------- the groupoid normal forms


def iso_normal_form(word: tuple) -> Optional[tuple]:
    """Reduce a composable word in f, g (root first) in the quotient where
    fg and gf are identities.  Words containing any other generator map
    to None (zero).  Returns the reduced tuple of letters."""
    if any(x not in ("f", "g") for x in word):
        return None
    letters = []
    for x in word:  # x cancels the letter before it when they differ
        if letters and letters[-1] != x:
            letters.pop()
        else:
            letters.append(x)
    return tuple(letters)


ISO_NORMAL_FORMS = (("a", ()), ("b", ()), ("a", ("f",)), ("b", ("g",)))


def alpha_iso_matrix(trees, input_color):
    """Matrix of the resolution-to-groupoid quotient map on a list of
    degree-0 word trees with the given input color.  Columns are the
    trees; rows are the four normal forms in ISO_NORMAL_FORMS order."""
    rows = [[Rational(0)] * len(trees) for _ in ISO_NORMAL_FORMS]
    nf_index = {nf: i for i, nf in enumerate(ISO_NORMAL_FORMS)}
    for j, t in enumerate(trees):
        red = iso_normal_form(tuple(tree_word(t)))
        if red is not None:
            rows[nf_index[(input_color, red)]][j] = Rational(1)
    return tuple(tuple(r) for r in rows)
