"""Colored operads presented by generators and derivation differentials.

Free colored operads are realized as Q-linear spans of planar rooted
trees with vertices labeled by generators.  A tree is a nested tuple
(generator_name, child_1, ..., child_k); a leaf is the constant LEAF.
Leaves are implicitly numbered 1..arity left to right (only identity
leaf orderings are supported).  An element is a dict tree -> Fraction.

Sign conventions.  All Koszul bookkeeping is done internally in the
arity-shifted grading where a generator of arity k and degree d counts
as an operation of degree d + 1 - k; in that grading a basis tree is
identified with its depth-first generator word, grafting carries the
sign for moving the grafted word past the generators that follow the
insertion point, and the differential extends from generators as the
word derivation.  Each basis tree additionally carries an edge-local
orientation sign (basis_sign below) fixing how the shifted word basis
is matched with the unshifted trees that the public API exposes; the
public substitute / graft / derivation_extend conjugate by it.  With
these conventions the stored generator differentials square to zero as
derivations and d(graft(x, i, y)) = graft(dx, i, y)
+ (-1)^|x| graft(x, i, dy) in the ordinary grading.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .exactlin import (
    ChainComplex,
    Fraction as _Fraction,  # noqa: F401  (re-export convenience)
    GradedMap,
    hom_differential,
    kernel_basis,
    make_matrix,
    mat_rank,
    tensor_maps_many,
)

LEAF = "*"

Element = dict  # tree -> Fraction


@dataclass(frozen=True)
class GeneratorSpec:
    name: str
    inputs: tuple
    output: str
    degree: int
    tj: Optional[int] = None
    # "alg" for operation generators living in one algebra, "mor" for
    # generators encoding the Taylor coefficients of a morphism between
    # algebras; the distinction only affects orientation signs.
    kind: str = "alg"

    @property
    def arity(self) -> int:
        return len(self.inputs)


class OperadPresentation:
    """Generators, colors, and a differential given on generators.

    symmetric=True means each generator stands for a regular
    symmetric-group representation, so reported component dimensions
    carry an extra factor of arity!.
    """

    def __init__(self, name, colors, generators: Sequence[GeneratorSpec],
                 differential: Mapping[str, Element] = (),
                 symmetric: bool = True, augmented: bool = True):
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
        self.differential = {k: dict(v) for k, v in dict(differential).items()}
        for k in self.differential:
            if k not in self.generators:
                raise ValueError(f"differential on unknown generator {k}")
        self.symmetric = symmetric
        self.augmented = augmented

    def gen(self, name) -> GeneratorSpec:
        return self.generators[name]

    def corolla(self, name):
        return (name,) + (LEAF,) * self.gen(name).arity

    def d_image(self, name) -> Element:
        return self.differential.get(name, {})


# ------------------------------------------------------------------ trees


def is_leaf(t) -> bool:
    return t == LEAF


def tree_arity(t) -> int:
    if is_leaf(t):
        return 1
    return sum(tree_arity(c) for c in t[1:])


def tree_vertices(t) -> int:
    if is_leaf(t):
        return 0
    return 1 + sum(tree_vertices(c) for c in t[1:])


def tree_word(t) -> list:
    """Depth-first generator names (root first, children left to right)."""
    if is_leaf(t):
        return []
    out = [t[0]]
    for c in t[1:]:
        out.extend(tree_word(c))
    return out


def tree_degree(pres: OperadPresentation, t) -> int:
    return sum(pres.gen(g).degree for g in tree_word(t))


def tree_tj(pres: OperadPresentation, t):
    tjs = [pres.gen(g).tj for g in tree_word(t)]
    if any(x is None for x in tjs):
        return None
    return sum(tjs)


def tree_output_color(pres: OperadPresentation, t, ambient=None):
    """Output color of a tree; the bare leaf takes the ambient color."""
    if is_leaf(t):
        return ambient
    return pres.gen(t[0]).output


def tree_leaf_colors(pres: OperadPresentation, t, output_color) -> list:
    """Input colors in planar leaf order, given the tree's output color."""
    if is_leaf(t):
        return [output_color]
    g = pres.gen(t[0])
    out = []
    for i, c in enumerate(t[1:]):
        out.extend(tree_leaf_colors(pres, c, g.inputs[i]))
    return out


def tree_is_valid(pres: OperadPresentation, t, output_color=None) -> bool:
    """Color discipline: every edge's two ends agree."""
    if is_leaf(t):
        return True
    g = pres.generators.get(t[0])
    if g is None or len(t) - 1 != g.arity:
        return False
    if output_color is not None and g.output != output_color:
        return False
    return all(tree_is_valid(pres, c, g.inputs[i])
               for i, c in enumerate(t[1:]))


def _shifted_degree(pres, name) -> int:
    """Degree of a generator in the arity-shifted grading."""
    g = pres.gen(name)
    return g.degree + 1 - g.arity


def tree_shifted_degree(pres, t) -> int:
    return sum(_shifted_degree(pres, g) for g in tree_word(t))


def _leaf_after_shifted(pres, u) -> list:
    """For each leaf of u in planar order, the total shifted degree of
    the generators appearing after it in the depth-first word."""
    events = []  # None for leaf, shifted degree for generator

    def walk(t):
        if is_leaf(t):
            events.append(None)
            return
        events.append(_shifted_degree(pres, t[0]))
        for c in t[1:]:
            walk(c)

    walk(u)
    out = []
    for i, ev in enumerate(events):
        if ev is None:
            out.append(sum(d for d in events[i + 1:] if d is not None))
    return out


def basis_sign(pres: OperadPresentation, t) -> int:
    """Orientation sign matching a tree with its shifted word basis.

    The sign is a product over the internal edges; for the edge from a
    parent vertex to its non-leaf child subtree (subtree arity r, slot s
    counted from 0, l leaves of the earlier siblings) the exponent is

        alg child under alg parent:  r + s(r+1)  (0 when r = 1)
        alg child under mor parent:  i + (s+1)(r+1)   (i = parent arity)
        mor child under any parent:  r(1 + s + i + l)

    chosen so that the stored differentials of the bundled presentations
    become sign-free word derivations in the shifted grading.
    """
    if is_leaf(t):
        return 1
    parent = pres.gen(t[0])
    exp = 0
    sign = 1
    leaves_before = 0
    for slot, c in enumerate(t[1:]):
        if not is_leaf(c):
            r = tree_arity(c)
            child_kind = pres.gen(c[0]).kind
            if child_kind == "mor":
                exp += r * (1 + slot + parent.arity + leaves_before)
            elif parent.kind == "mor":
                exp += parent.arity + (slot + 1) * (r + 1)
            elif r > 1:
                exp += r + slot * (r + 1)
            sign *= basis_sign(pres, c)
        leaves_before += tree_arity(c)
    return -sign if exp % 2 else sign


def _substitute_shifted(pres: OperadPresentation, u, children):
    """Plug trees into the leaves of u with shifted-grading word signs.

    Returns (sign, tree), or None when an edge color mismatch makes the
    composite zero.
    """
    if is_leaf(u):
        if len(children) != 1:
            raise ValueError("unit tree takes exactly one child")
        return (1, children[0])
    if len(children) != tree_arity(u):
        raise ValueError("child count does not match arity")
    after = _leaf_after_shifted(pres, u)
    exp = sum(tree_shifted_degree(pres, c) * a
              for c, a in zip(children, after))
    sign = -1 if exp % 2 else 1
    it = iter(children)

    def build(t, expected_color):
        if is_leaf(t):
            c = next(it)
            oc = tree_output_color(pres, c, ambient=expected_color)
            if oc != expected_color:
                raise _ColorMismatch
            return c
        g = pres.gen(t[0])
        if expected_color is not None and g.output != expected_color:
            raise _ColorMismatch
        return (t[0],) + tuple(build(ch, g.inputs[i])
                               for i, ch in enumerate(t[1:]))

    try:
        return (sign, build(u, None))
    except _ColorMismatch:
        return None


def substitute(pres: OperadPresentation, u, children):
    """Plug the trees `children` into the leaves of u, in planar order.

    Returns (sign, tree) in the public (unshifted) basis convention, or
    None when an edge color mismatch makes the composite zero.
    """
    r = _substitute_shifted(pres, u, children)
    if r is None:
        return None
    sign, t = r
    sign *= basis_sign(pres, u) * basis_sign(pres, t)
    for c in children:
        sign *= basis_sign(pres, c)
    return (sign, t)


class _ColorMismatch(Exception):
    pass


# --------------------------------------------------------------- elements


def elem_add(a: Element, b: Element, ca=1, cb=1) -> Element:
    out = {}
    for t, c in a.items():
        out[t] = out.get(t, Fraction(0)) + Fraction(ca) * c
    for t, c in b.items():
        out[t] = out.get(t, Fraction(0)) + Fraction(cb) * c
    return {t: c for t, c in out.items() if c}


def elem_scale(a: Element, c) -> Element:
    c = Fraction(c)
    return {t: c * x for t, x in a.items() if c * x}


def elem_normalize(a: Element) -> Element:
    return {t: Fraction(c) for t, c in a.items() if c}


def elem_degree(pres, a: Element):
    degs = {tree_degree(pres, t) for t in a}
    if len(degs) > 1:
        raise ValueError("inhomogeneous element")
    return degs.pop() if degs else None


def graft(pres: OperadPresentation, outer: Element, position: int,
          inner: Element) -> Element:
    """Operadic partial composition outer o_position inner, bilinear.

    On top of the basis conversion, a graft of an inner element of
    degree q into an outer element of arity n carries (-1)^((n+1)q);
    this is the twist that turns the shifted-grading Leibniz rule into
    d(graft(x, i, y)) = graft(dx, i, y) + (-1)^|x| graft(x, i, dy) in
    the ordinary grading.
    """
    out: Element = {}
    for ot, oc in outer.items():
        ar = tree_arity(ot)
        if not 1 <= position <= ar:
            raise ValueError("graft position out of range")
        for it_, ic in inner.items():
            children = [LEAF] * ar
            children[position - 1] = it_
            r = substitute(pres, ot, children)
            if r is None:
                continue
            s, t = r
            if (ar + 1) * tree_degree(pres, it_) % 2:
                s = -s
            out[t] = out.get(t, Fraction(0)) + s * oc * ic
    return {t: c for t, c in out.items() if c}


def derivation_extend(pres: OperadPresentation, x: Element) -> Element:
    """Extend the generator differential to spans of trees as the word
    derivation in the shifted grading, conjugated back to the public
    basis convention."""
    out: Element = {}
    for t, c in x.items():
        for u, cu in _d_tree(pres, t).items():
            out[u] = out.get(u, Fraction(0)) + c * cu
    return {t: c for t, c in out.items() if c}


def _d_tree(pres, t) -> Element:
    st = basis_sign(pres, t)
    return {u: c * st * basis_sign(pres, u)
            for u, c in _d_tree_shifted(pres, t).items()}


def _d_tree_shifted(pres, t) -> Element:
    if is_leaf(t):
        return {}
    for g in tree_word(t):
        if g not in pres.generators:
            raise ValueError(f"unknown generator {g}")
    children = t[1:]
    out: Element = {}
    for u, cu in pres.d_image(t[0]).items():
        r = _substitute_shifted(pres, u, list(children))
        if r is None:
            continue
        s, tt = r
        out[tt] = out.get(tt, Fraction(0)) + s * cu * basis_sign(pres, u)
    pre_deg = _shifted_degree(pres, t[0])
    for j, c in enumerate(children):
        sgn = -1 if pre_deg % 2 else 1
        for u, cu in _d_tree_shifted(pres, c).items():
            nt = (t[0],) + children[:j] + (u,) + children[j + 1:]
            out[nt] = out.get(nt, Fraction(0)) + sgn * cu
        pre_deg += tree_shifted_degree(pres, c)
    return {t_: c_ for t_, c_ in out.items() if c_}


# ------------------------------------------------------------ diagnostics


def d_squared_check(pres: OperadPresentation, up_to_arity: int,
                    up_to_length: int = None) -> dict:
    """Certify d^2 = 0 on every generator within the arity bound, plus the
    upper-grading conditions when tj degrees are declared: each tree in
    d(gen) has total tj equal to tj(gen) - 1 and uses only generators of
    strictly smaller tj (the filtration condition)."""
    failures = []
    checked = []
    for name, g in pres.generators.items():
        if g.arity > up_to_arity:
            continue
        img = pres.d_image(name)
        if up_to_length is not None and any(
                tree_vertices(t) > up_to_length for t in img):
            failures.append({"generator": name, "reason": "length bound"})
            continue
        dd = derivation_extend(pres, img)
        entry = {"generator": name, "d_squared_zero": not dd}
        if dd:
            entry["witness"] = sorted(dd.items(), key=lambda kv: repr(kv[0]))[0]
            failures.append(entry)
        if g.tj is not None:
            for t in img:
                tj = tree_tj(pres, t)
                if tj != g.tj - 1:
                    entry["tj"] = False
                    failures.append({"generator": name, "reason": "tj total",
                                     "tree": t})
                if any(pres.gen(v).tj is None or pres.gen(v).tj >= g.tj
                       for v in tree_word(t)):
                    failures.append({"generator": name,
                                     "reason": "filtration", "tree": t})
        checked.append(entry)
    return {"ok": not failures, "checked": checked, "failures": failures}


def rename_generators(pres: OperadPresentation, mapping: Mapping[str, str],
                      name=None) -> OperadPresentation:
    """Copy of a presentation with generators renamed per `mapping`
    (missing names are kept); differentials are retagged accordingly."""
    def newname(old):
        return mapping.get(old, old)

    def retag(t):
        if is_leaf(t):
            return t
        return (newname(t[0]),) + tuple(retag(c) for c in t[1:])

    gens = [GeneratorSpec(newname(g.name), g.inputs, g.output, g.degree,
                          g.tj, g.kind)
            for g in pres.generators.values()]
    diff = {newname(k): {retag(t): c for t, c in img.items()}
            for k, img in pres.differential.items()}
    return OperadPresentation(name or pres.name + "-renamed", pres.colors,
                              gens, diff, symmetric=pres.symmetric,
                              augmented=pres.augmented)


def free_product(p1: OperadPresentation,
                 p2: OperadPresentation) -> OperadPresentation:
    """Coproduct: disjoint union of generators and differentials."""
    clash = set(p1.generators) & set(p2.generators)
    if clash:
        raise ValueError(f"generator name clash: {sorted(clash)}")
    colors = tuple(dict.fromkeys(p1.colors + p2.colors))
    gens = list(p1.generators.values()) + list(p2.generators.values())
    diff = {**p1.differential, **p2.differential}
    return OperadPresentation(
        f"{p1.name}*{p2.name}", colors, gens, diff,
        symmetric=p1.symmetric and p2.symmetric,
        augmented=p1.augmented and p2.augmented)


# ----------------------------------------------------- tree enumeration


def enumerate_trees(pres: OperadPresentation, arity: int, output_color,
                    max_vertices: int, include_unit: bool = True,
                    max_degree=None):
    """All valid planar trees with the given arity and output color, with
    at most max_vertices internal vertices.  Deterministic order.

    max_degree prunes by total degree; it is only sound (and only
    applied) when every generator has nonnegative degree.
    """
    if max_degree is not None and any(
            g.degree < 0 for g in pres.generators.values()):
        max_degree = None
    out = []
    if arity == 1 and include_unit:
        out.append(LEAF)
    if max_vertices < 1:
        return out
    for name in pres.generators:
        g = pres.gen(name)
        if g.output != output_color:
            continue
        if max_degree is not None and g.degree > max_degree:
            continue
        k = g.arity
        if k > arity:
            continue
        kid_budget = None if max_degree is None else max_degree - g.degree
        for comp in _compositions(arity, k):
            for kids in _children_choices(pres, comp, g.inputs,
                                          max_vertices - 1, kid_budget):
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


def _children_choices(pres, arities, colors, budget, degree_budget=None):
    if not arities:
        yield ()
        return
    a, rest_a = arities[0], arities[1:]
    c, rest_c = colors[0], colors[1:]
    for sub in enumerate_trees(pres, a, c, budget, include_unit=True,
                               max_degree=degree_budget):
        used = tree_vertices(sub)
        rest_deg = (None if degree_budget is None
                    else degree_budget - tree_degree(pres, sub))
        for rest in _children_choices(pres, rest_a, rest_c, budget - used,
                                      rest_deg):
            yield (sub,) + rest


def component_dims(pres: OperadPresentation, arity: int, output_color,
                   max_vertices=None, include_unit=True,
                   input_colors=None) -> dict:
    """Per-degree dimensions of the arity component, with the arity!
    multiplicity for symmetric (regular-representation) presentations."""
    if max_vertices is None:
        max_vertices = _exact_vertex_bound(pres, arity)
    mult = math.factorial(arity) if pres.symmetric else 1
    dims: dict[int, int] = {}
    for t in enumerate_trees(pres, arity, output_color, max_vertices,
                             include_unit):
        if input_colors is not None and tuple(
                tree_leaf_colors(pres, t, output_color)) != tuple(input_colors):
            continue
        d = tree_degree(pres, t)
        dims[d] = dims.get(d, 0) + mult
    return dims


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
    adjacent vertices labeled by different factors.
    """
    tables = {1: {int(a): {int(d): n for d, n in row.items()}
                  for a, row in t1.items()},
              2: {int(a): {int(d): n for d, n in row.items()}
                  for a, row in t2.items()}}
    if any(a < 2 for tab in tables.values() for a in tab):
        raise ValueError("factor tables must cover arities >= 2 only")
    if arity == 1:
        return {0: 1}
    cache: dict = {}

    def conv(a: dict, b: dict) -> dict:
        out: dict[int, int] = {}
        for d1, n1 in a.items():
            for d2, n2 in b.items():
                out[d1 + d2] = out.get(d1 + d2, 0) + n1 * n2
        return out

    def subtree(leafset: frozenset, parent_label) -> dict:
        """Degree table for vertex-rooted subtrees on the leaf set whose
        root label differs from parent_label."""
        key = (leafset, parent_label)
        if key in cache:
            return cache[key]
        total: dict[int, int] = {}
        for label in (1, 2):
            if label == parent_label:
                continue
            for k, tab_row in tables[label].items():
                if k > len(leafset) or not tab_row:
                    continue
                for blocks in _set_partitions(sorted(leafset), k):
                    acc = dict(tab_row)
                    for blk in blocks:
                        if len(blk) == 1:
                            child = {0: 1}
                        else:
                            child = subtree(frozenset(blk), label)
                        acc = conv(acc, child)
                        if not acc:
                            break
                    for d, n in acc.items():
                        total[d] = total.get(d, 0) + n
        cache[key] = total
        return total

    return subtree(frozenset(range(1, arity + 1)), None)


def _set_partitions(items, k):
    """Partitions of a list into exactly k unordered nonempty blocks."""
    if k == 1:
        yield [list(items)]
        return
    if len(items) < k:
        return
    first, rest = items[0], items[1:]
    # first joins an existing block of a (k)-partition of rest
    for part in _set_partitions(rest, k):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
    # or forms its own block
    for part in _set_partitions(rest, k - 1):
        yield [[first]] + part


def tree_decomposition_dims(p1: OperadPresentation, p2: OperadPresentation,
                            arity: int) -> dict:
    """Free-product component dimensions computed tree-by-tree from the
    factors' own component tables (single common color)."""
    if len(set(p1.colors) | set(p2.colors)) != 1:
        raise ValueError("tree decomposition supports a single color only")
    color = p1.colors[0]
    t1 = {a: component_dims(p1, a, color, include_unit=False)
          for a in range(2, arity + 1)}
    t2 = {a: component_dims(p2, a, color, include_unit=False)
          for a in range(2, arity + 1)}
    return tree_decomposition_from_tables(t1, t2, arity)


# ------------------------------------------------------ truncated homology


def _max_length_jump(pres) -> int:
    jump = 0
    for name, img in pres.differential.items():
        for t in img:
            jump = max(jump, tree_vertices(t) - 1)
    return jump


def truncated_homology(pres: OperadPresentation, arity: int, output_color,
                       max_length=None, input_colors=None,
                       include_unit=True, degree_window=None) -> dict:
    """Per-degree homology dimensions of one component, length-truncated.

    Cycles are taken among trees with at most max_length vertices;
    boundaries may come from trees one extra level long (more when the
    differential increases word length faster).  The result records
    whether the truncation was proper.  With degree_window = (lo, hi)
    only degrees in the window are reported (trees of degree lo-1 up to
    hi+1 enter the computation); dimensions outside are not computed.
    """
    if max_length is None:
        max_length = _exact_vertex_bound(pres, arity)
    jump = _max_length_jump(pres)
    big = max_length + 1 + jump  # room for images of the extra level

    def keep(t):
        if (input_colors is not None
                and tuple(tree_leaf_colors(pres, t, output_color))
                != tuple(input_colors)):
            return False
        if degree_window is not None:
            lo, hi = degree_window
            if not lo - 1 <= tree_degree(pres, t) <= hi + 1:
                return False
        return True

    cap = None if degree_window is None else degree_window[1] + 1
    all_trees = [t for t in enumerate_trees(pres, arity, output_color, big,
                                            include_unit, max_degree=cap)
                 if keep(t)]
    truncated = any(max_length < tree_vertices(t) <= max_length + 1
                    for t in all_trees)
    by_degree: dict[int, list] = {}
    for t in all_trees:
        by_degree.setdefault(tree_degree(pres, t), []).append(t)
    index = {d: {t: i for i, t in enumerate(ts)}
             for d, ts in by_degree.items()}

    def d_matrix(sources, deg):
        """Columns: d of each source tree, in the full degree-(deg-1) basis."""
        targets = by_degree.get(deg - 1, [])
        rows = [[Fraction(0)] * len(sources) for _ in targets]
        for j, t in enumerate(sources):
            for u, c in _d_tree(pres, t).items():
                i = index[deg - 1].get(u)
                if i is None:
                    raise AssertionError("differential escaped the window")
                rows[i][j] = c
        return tuple(tuple(r) for r in rows), targets

    mult = math.factorial(arity) if pres.symmetric else 1
    out_dims: dict[int, int] = {}
    for deg, trees in sorted(by_degree.items()):
        if degree_window is not None and not (
                degree_window[0] <= deg <= degree_window[1]):
            continue
        small = [t for t in trees if tree_vertices(t) <= max_length]
        if not small:
            continue
        # kernel of d restricted to the length window
        mat, _ = d_matrix(small, deg)
        zdim = len(small) - mat_rank(mat) if mat else len(small)
        # boundaries from one extra length level that land in the window
        srcs = [t for t in by_degree.get(deg + 1, [])
                if tree_vertices(t) <= max_length + 1]
        bdim = 0
        if srcs:
            dmat, targets = d_matrix(srcs, deg + 1)
            outside = [i for i, t in enumerate(targets)
                       if tree_vertices(t) > max_length]
            pmat = tuple(dmat[i] for i in outside)
            bdim = mat_rank(dmat) - (mat_rank(pmat) if pmat else 0)
        h = zdim - bdim
        if h:
            out_dims[deg] = h * mult
    return {"dims": out_dims, "truncated": truncated,
            "max_length": max_length}


def kunneth_check(p1: OperadPresentation, p2: OperadPresentation,
                  arity: int) -> dict:
    """Compare per-degree dimensions of the homology of a free product
    with the tree decomposition built from the factors' homologies."""
    if not (p1.augmented and p2.augmented):
        raise ValueError("free-product homology comparison needs augmented "
                         "factors")
    if len(set(p1.colors) | set(p2.colors)) != 1:
        raise ValueError("single-color factors only")
    color = p1.colors[0]

    def h_table(p):
        return {a: truncated_homology(p, a, color, include_unit=False)["dims"]
                for a in range(2, arity + 1)}

    predicted = tree_decomposition_from_tables(h_table(p1), h_table(p2), arity)
    direct = truncated_homology(free_product(p1, p2), arity, color,
                                include_unit=(arity == 1))["dims"]
    degrees = sorted(set(predicted) | set(direct))
    per_degree = [{"degree": d, "predicted": predicted.get(d, 0),
                   "direct": direct.get(d, 0),
                   "ok": predicted.get(d, 0) == direct.get(d, 0)}
                  for d in degrees]
    return {"ok": all(e["ok"] for e in per_degree), "arity": arity,
            "per_degree": per_degree}


# ------------------------------------------------------------- actions


def eval_tree(pres: OperadPresentation, action: Mapping[str, GradedMap],
              complexes: Mapping[str, ChainComplex], t, output_color)\
        -> GradedMap:
    """Value of the action on a basis tree: generators go to their
    assigned maps, composed with Koszul-signed tensor products."""
    if is_leaf(t):
        return GradedMap.identity(complexes[output_color].space)
    g = pres.gen(t[0])
    if g.output != output_color:
        raise ValueError("output color mismatch in evaluation")
    kids = [eval_tree(pres, action, complexes, c, g.inputs[i])
            for i, c in enumerate(t[1:])]
    inner = kids[0] if len(kids) == 1 else tensor_maps_many(kids)
    return action[t[0]].compose(inner)


def _shift_space(space, shift=1):
    from .exactlin import GradedVectorSpace
    return GradedVectorSpace({k + shift: n for k, n in space.dims.items()})


def _suspension_conjugate(m, factors, new_source, new_target, direction):
    """Conjugate a multilinear map by per-input suspensions.

    direction +1 turns f into s . f . (s^-1)^(x n) (inputs and output all
    shifted up by one); -1 is the inverse.  Both directions carry the
    Koszul sign of moving the n suspensions past the arguments, which
    depends only on the unshifted argument degrees, so the transform is
    an involution up to relabeling.
    """
    from .exactlin import tensor_basis_tuples
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    n = len(factors)
    tb = tensor_basis_tuples(factors)  # unshifted degrees
    columns = {}
    for old_k, cols in m.columns.items():
        k = old_k if direction == 1 else old_k - n
        tuples = tb[k]
        out = {}
        for col, entries in cols.items():
            tup = tuples[col]
            if sum((n - 1 - p) * tup[p][0] for p in range(n)) % 2:
                entries = {r: -x for r, x in entries.items()}
            out[col] = entries
        columns[k + n if direction == 1 else k] = out
    degree = m.degree + direction * (1 - n)
    return GradedMap.from_columns(new_source, new_target, degree, columns)


def eval_element(pres, action, complexes, elem: Element, input_colors,
                 output_color) -> GradedMap:
    """Value of the action on an element, in the convention consistent
    with the stored differentials: each assigned map is conjugated by
    suspensions, trees are composed with plain Koszul signs in the
    suspended world, and the result is desuspended and weighted by the
    tree orientation sign.

    On two-level trees this differs from the naive composite of the
    assigned maps only by (-1)^(product of the two arities); the twist
    is what makes the coherence identities of a structure equivalent to
    its action commuting with the differentials at every arity.
    """
    from .exactlin import tensor_spaces
    spaces = [complexes[c].space for c in input_colors]
    source = spaces[0] if len(spaces) == 1 else tensor_spaces(spaces)
    target = complexes[output_color].space
    s_space = {c: _shift_space(cc.space) for c, cc in complexes.items()}
    s_action: dict = {}

    def suspended(name):
        if name not in s_action:
            g = pres.gen(name)
            facs = [complexes[c].space for c in g.inputs]
            s_facs = [s_space[c] for c in g.inputs]
            s_src = s_facs[0] if len(s_facs) == 1 else tensor_spaces(s_facs)
            s_action[name] = _suspension_conjugate(
                action[name], facs, s_src, s_space[g.output], 1)
        return s_action[name]

    def eval_s(t, color):
        if is_leaf(t):
            return GradedMap.identity(s_space[color])
        g = pres.gen(t[0])
        if g.output != color:
            raise ValueError("output color mismatch in evaluation")
        kids = [eval_s(c, g.inputs[i]) for i, c in enumerate(t[1:])]
        inner = kids[0] if len(kids) == 1 else tensor_maps_many(kids)
        return suspended(t[0]).compose(inner)

    total = None
    for t, c in elem.items():
        val_s = eval_s(t, output_color)
        s_spaces = [s_space[cc] for cc in input_colors]
        s_src = s_spaces[0] if len(s_spaces) == 1 else tensor_spaces(s_spaces)
        assert val_s.source == s_src
        val = _suspension_conjugate(val_s, spaces, source, target, -1)
        m = val.scale(c * basis_sign(pres, t))
        total = m if total is None else total.add(m)
    if total is None:
        # zero element: degree is determined by the caller's context
        return GradedMap.zero(source, target, 0)
    assert total.source == source and total.target == target
    return total


def action_check(pres: OperadPresentation, action: Mapping[str, GradedMap],
                 complexes: Mapping[str, ChainComplex],
                 up_to_arity: int) -> dict:
    """Certify that the assignment commutes with the differentials:
    the value of d(gen) equals the hom-complex differential of the
    assigned map, for every generator within the arity bound.  A failing
    entry's witness is the nonzero difference of the two sides."""
    entries = []
    for name, g in pres.generators.items():
        if g.arity > up_to_arity:
            continue
        m = action[name]
        sources = [complexes[c] for c in g.inputs]
        target = complexes[g.output]
        if m.degree != g.degree:
            raise ValueError(f"degree mismatch on {name}")
        lhs = eval_element(pres, action, complexes, pres.d_image(name),
                           g.inputs, g.output)
        rhs = hom_differential(m, sources, target)
        if lhs.is_zero() and lhs.degree != rhs.degree:
            # zero differential: retype the zero map to the right degree
            lhs = GradedMap.zero(lhs.source, lhs.target, rhs.degree)
        ok = (lhs.columns == rhs.columns)
        entry = {"generator": name, "ok": ok}
        if not ok:
            entry["witness"] = rhs.add(lhs, 1, -1)
        entries.append(entry)
    return {"ok": all(e["ok"] for e in entries), "entries": entries}


# ------------------------------------------------- built-in presentations


def _mu(name_prefix, n):
    return f"{name_prefix}{n}"


def ass_minimal(max_arity: int = 7) -> OperadPresentation:
    """Minimal resolution of the associative operad: one generator in
    each arity n >= 2, degree n-2, with
    d mu_n = sum over i+j = n+1 (i, j >= 2), s = 0..i-1 of
    (-1)^(j + s(j+1)) mu_i composed with mu_j at input s+1."""
    color = "v"
    gens = [GeneratorSpec(_mu("mu", n), (color,) * n, color, n - 2, tj=n - 2)
            for n in range(2, max_arity + 1)]
    diff = {}
    for n in range(2, max_arity + 1):
        terms: Element = {}
        for j in range(2, n):
            i = n + 1 - j
            if i < 2:
                continue
            for s in range(0, i):
                sign = (-1) ** ((j + s * (j + 1)) % 2)
                inner = (_mu("mu", j),) + (LEAF,) * j
                kids = [LEAF] * i
                kids[s] = inner
                t = (_mu("mu", i),) + tuple(kids)
                terms[t] = terms.get(t, Fraction(0)) + sign
        diff[_mu("mu", n)] = elem_normalize(terms)
    return OperadPresentation("ass-minimal", (color,), gens, diff,
                              symmetric=True, augmented=True)


def ass_arrow_minimal(max_arity: int = 5) -> OperadPresentation:
    """Minimal resolution of the two-object associative category: two
    colors, an A-infinity structure on each, and sh-morphism generators
    f_n of degree n-1 connecting them."""
    cv, cw = "v", "w"
    gens = []
    for n in range(2, max_arity + 1):
        gens.append(GeneratorSpec(_mu("mu", n), (cv,) * n, cv, n - 2, n - 2))
        gens.append(GeneratorSpec(_mu("nu", n), (cw,) * n, cw, n - 2, n - 2))
    for n in range(1, max_arity + 1):
        gens.append(GeneratorSpec(_mu("f", n), (cv,) * n, cw, n - 1, n - 1,
                                  kind="mor"))
    diff = {}
    base = ass_minimal(max_arity)
    for n in range(2, max_arity + 1):
        diff[_mu("mu", n)] = base.differential[_mu("mu", n)]
        diff[_mu("nu", n)] = {
            _retag(t, "mu", "nu"): c
            for t, c in base.differential[_mu("mu", n)].items()}
    for n in range(1, max_arity + 1):
        terms: Element = {}
        for k in range(2, n + 1):
            for r in _compositions(n, k):
                eta = sum(r[a] * (r[b] + 1)
                          for a in range(k) for b in range(a + 1, k))
                sign = (-1) ** (eta % 2)
                kids = tuple((_mu("f", ri),) + (LEAF,) * ri for ri in r)
                t = (_mu("nu", k),) + kids
                terms[t] = terms.get(t, Fraction(0)) + sign
        for j in range(2, n + 1):
            i = n + 1 - j
            if i < 1:
                continue
            for s in range(0, i):
                sign = -((-1) ** ((n + s * (j + 1)) % 2))
                inner = (_mu("mu", j),) + (LEAF,) * j
                kids = [LEAF] * i
                kids[s] = inner
                t = (_mu("f", i),) + tuple(kids)
                terms[t] = terms.get(t, Fraction(0)) + sign
        diff[_mu("f", n)] = elem_normalize(terms)
    return OperadPresentation("ass-arrow-minimal", (cv, cw), gens, diff,
                              symmetric=True, augmented=False)


def _retag(t, old, new):
    if is_leaf(t):
        return t
    head = t[0]
    if head.startswith(old) and head[len(old):].isdigit():
        head = new + head[len(old):]
    return (head,) + tuple(_retag(c, old, new) for c in t[1:])


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
    one = Fraction(1)
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
    return OperadPresentation("riso", (a, b), gens, diff,
                              symmetric=False, augmented=False)


RISO_HIGHER = ("f2", "g2", "f3", "g3", "f4", "g4")


def builtin_presentation(name: str, max_arity=None) -> OperadPresentation:
    if name == "ass-minimal":
        return ass_minimal(max_arity or 7)
    if name == "ass-arrow-minimal":
        return ass_arrow_minimal(max_arity or 5)
    if name == "riso":
        return riso()
    raise ValueError(f"unknown presentation {name!r}")


# -------------------------------------------- the groupoid normal forms


def iso_normal_form(word: tuple) -> Optional[tuple]:
    """Reduce a composable word in f, g (root first) in the quotient where
    fg and gf are identities.  Words containing any other generator map
    to None (zero).  Returns the reduced tuple of letters."""
    letters = list(word)
    if any(x not in ("f", "g") for x in letters):
        return None
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if {letters[i], letters[i + 1]} == {"f", "g"}:
                del letters[i:i + 2]
                changed = True
                break
    return tuple(letters)


ISO_NORMAL_FORMS = (("a", ()), ("b", ()), ("a", ("f",)), ("b", ("g",)))


def alpha_iso_matrix(pres: OperadPresentation, trees, input_color):
    """Matrix of the resolution-to-groupoid quotient map on a list of
    degree-0 word trees with the given input color.  Columns are the
    trees; rows are the four normal forms in ISO_NORMAL_FORMS order."""
    rows = [[Fraction(0)] * len(trees) for _ in ISO_NORMAL_FORMS]
    nf_index = {nf: i for i, nf in enumerate(ISO_NORMAL_FORMS)}
    for j, t in enumerate(trees):
        word = tuple(tree_word(t))
        red = iso_normal_form(word)
        if red is None:
            continue
        rows[nf_index[(input_color, red)]][j] = Fraction(1)
    return tuple(tuple(r) for r in rows)
