"""Strong deformation retracts, homotopy equivalences, and the
constructive homotopy-invariance moves.

An SDR consists of complexes A (big) and M (small) with chain maps
nabla: M -> A and f: A -> M and a degree +1 homotopy phi on A subject
to f . nabla = 1 and nabla . f - 1 = [phi, d].  The three side
conditions phi phi = 0, phi nabla = 0, f phi = 0 can always be arranged
by the two classical replacements implemented here, and they are
exactly what makes the zero-extension of an SDR to an action of the
bundled resolution of the isomorphism groupoid succeed.

The moves: transfer of a structure along an SDR (or along one-sided
homotopy-retraction data), perturbation of the underlying map of a
morphism along a chain homotopy, inversion of a morphism whose
underlying map is a homotopy equivalence, and perturbation of a
composite chain.  Transfer is computed by the homotopy perturbation
recursion in the suspended world, which expands to the usual summation
over planar rooted trees with operations at the vertices, the homotopy
on the internal edges, the inclusion at the leaves, and the projection
at the root.  The perturbation-style moves solve for one Taylor
coefficient at a time by exact linear algebra; the relevant homotopy
invariance theorems guarantee the systems are consistent, and an
inconsistent solve is reported as an internal error.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .exactlin import (
    ChainComplex,
    GradedMap,
    hom_differential,
    homology_with_splitting,
    map_sum,
    rref,
    solve_map_equation,
    tensor_maps_many,
    tensor_power,
    tensor_spaces,
)
from .operadcore import (
    _shift_space,
    _suspension_conjugate,
    action_check,
    builtin_presentation,
)
from .ainfty import (
    AInfinityAlgebra,
    AInfinityMorphism,
    _compositions,
    compose_morphisms,
    fn_residual,
    underlying,
)


def _is_chain_map(m: GradedMap, source: ChainComplex,
                  target: ChainComplex) -> bool:
    return hom_differential(m, [source], target).is_zero()


# ------------------------------------------------------------------- SDRs


class SDRData:
    """Strong deformation retract of the big complex onto the small one.

    Validates on construction: nabla and f are chain maps, f . nabla is
    the identity of the small complex, and phi is a homotopy from 1 to
    nabla . f on the big complex.  Side conditions are not required;
    query them with check_side_conditions.
    """

    def __init__(self, big: ChainComplex, small: ChainComplex,
                 nabla: GradedMap, f: GradedMap, phi: GradedMap):
        if nabla.source != small.space or nabla.target != big.space \
                or nabla.degree != 0:
            raise ValueError("nabla must be a degree-0 map small -> big")
        if f.source != big.space or f.target != small.space or f.degree != 0:
            raise ValueError("f must be a degree-0 map big -> small")
        if phi.source != big.space or phi.target != big.space \
                or phi.degree != 1:
            raise ValueError("phi must be a degree +1 map on the big complex")
        if not _is_chain_map(nabla, small, big):
            raise ValueError("nabla is not a chain map")
        if not _is_chain_map(f, big, small):
            raise ValueError("f is not a chain map")
        if f.compose(nabla) != GradedMap.identity(small.space):
            raise ValueError("f . nabla is not the identity")
        defect = nabla.compose(f).add(GradedMap.identity(big.space), 1, -1)
        if defect != hom_differential(phi, [big], big):
            raise ValueError("phi is not a homotopy from 1 to nabla . f")
        self.big = big
        self.small = small
        self.nabla = nabla
        self.f = f
        self.phi = phi


def check_side_conditions(s: SDRData) -> dict:
    """Report the three side conditions individually."""
    flags = {
        "phi_phi": s.phi.compose(s.phi).is_zero(),
        "phi_nabla": s.phi.compose(s.nabla).is_zero(),
        "f_phi": s.f.compose(s.phi).is_zero(),
    }
    flags["ok"] = all(flags.values())
    return flags


def normalize_side_conditions(s: SDRData) -> SDRData:
    """Replace the homotopy so that all three side conditions hold.

    Two classical steps: conjugation by 1 - nabla f kills phi nabla and
    f phi; then phi -> -phi d phi kills phi phi while preserving the
    others.  Both steps preserve (nabla, f) and the homotopy identity;
    everything is re-verified by the SDRData constructor and a final
    assertion rather than trusted.
    """
    proj = GradedMap.identity(s.big.space).add(
        s.nabla.compose(s.f), 1, -1)
    phi1 = proj.compose(s.phi).compose(proj)
    phi2 = phi1.compose(s.big.differential).compose(phi1).scale(-1)
    out = SDRData(s.big, s.small, s.nabla, s.f, phi2)
    assert check_side_conditions(out)["ok"], \
        "side-condition normalization failed"
    return out


# --------------------------------------------------- homotopy equivalences


class HomotopyEquivalence:
    """Chain homotopy equivalence with explicit two-sided witnesses.

    f: V -> W and g: W -> V are chain maps, h on V satisfies
    [h, d] = g f - 1, and l on W satisfies [l, d] = f g - 1.
    """

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 f: GradedMap, g: GradedMap, h: GradedMap, l: GradedMap):
        if not _is_chain_map(f, source, target):
            raise ValueError("f is not a chain map")
        if not _is_chain_map(g, target, source):
            raise ValueError("g is not a chain map")
        gf = g.compose(f).add(GradedMap.identity(source.space), 1, -1)
        if gf != hom_differential(h, [source], source):
            raise ValueError("h is not a homotopy from 1 to g f")
        fg = f.compose(g).add(GradedMap.identity(target.space), 1, -1)
        if fg != hom_differential(l, [target], target):
            raise ValueError("l is not a homotopy from 1 to f g")
        self.source = source
        self.target = target
        self.f = f
        self.g = g
        self.h = h
        self.l = l


def _graded_inverse(m: GradedMap) -> Optional[GradedMap]:
    """Inverse of a degree-0 map, or None when any block is singular."""
    blocks = {}
    for k in m.source.degrees():
        ns, nt = m.source.dim(k), m.target.dim(k)
        if ns != nt:
            return None
        if ns == 0:
            continue
        red, t, pivots = rref(m.block(k))
        if len(pivots) != ns:
            return None
        blocks[k] = t
    return GradedMap(m.target, m.source, 0, blocks)


def _boundary_tops(c: ChainComplex) -> dict:
    """Per degree k: column indices whose differentials span the
    boundaries one degree below (leftmost-pivot choice)."""
    tops = {}
    for k in c.space.degrees():
        mat = c.differential.block(k)
        if mat and mat[0]:
            _, _, pivots = rref(mat)
            tops[k] = list(pivots)
        else:
            tops[k] = []
    return tops


class _Decomposition:
    """Basis of a complex split as boundaries + harmonic + preimages."""

    def __init__(self, c: ChainComplex):
        self.complex = c
        self.hd = homology_with_splitting(c)
        self.tops = _boundary_tops(c)
        space = c.space
        self.cols = {}    # degree -> list of basis column vectors
        self.coords = {}  # degree -> inverse change-of-basis matrix
        self.counts = {}  # degree -> (n_boundary, n_harmonic, n_top)
        for k in space.degrees():
            n = space.dim(k)
            dmat_up = c.differential.block(k + 1)
            b_cols = [tuple(dmat_up[i][j] for i in range(n))
                      for j in self.tops.get(k + 1, [])]
            incl = self.hd.inclusion.block(k)
            h_cols = [tuple(incl[i][j] for i in range(n))
                      for j in range(self.hd.homology.dim(k))]
            t_cols = [tuple(Fraction(1 if i == j else 0) for i in range(n))
                      for j in self.tops.get(k, [])]
            cols = b_cols + h_cols + t_cols
            if len(cols) != n:
                raise AssertionError("decomposition is not a basis")
            self.counts[k] = (len(b_cols), len(h_cols), len(t_cols))
            self.cols[k] = cols
            if n:
                mat = tuple(tuple(col[i] for col in cols) for i in range(n))
                _, t, pivots = rref(mat)
                if len(pivots) != n:
                    raise AssertionError("decomposition is not a basis")
                self.coords[k] = t


def sdr_from_equivalence(e: HomotopyEquivalence) -> SDRData:
    """Strong deformation retract induced by a homotopy equivalence.

    Requires the map induced on homology by f to be an isomorphism
    (verified degreewise by rank).  Both homotopies of the input are
    discarded: the retract is rebuilt from homology splittings of the
    two complexes, pairing off acyclic summands, so the output always
    satisfies the side conditions.  The big side is the target of f
    when its acyclic part is large enough in every degree, else the
    source; if neither dominates, no SDR exists in either direction and
    a ValueError explains why.
    """
    dv, dw = _Decomposition(e.source), _Decomposition(e.target)
    amap = dw.hd.projection.compose(e.f).compose(dv.hd.inclusion)
    ainv = _graded_inverse(amap)
    if ainv is None:
        raise ValueError("f does not induce an isomorphism on homology")

    def feasible(big: _Decomposition, small: _Decomposition) -> bool:
        degs = set(big.complex.space.degrees()) \
            | set(small.complex.space.degrees())
        return all(len(small.tops.get(k, [])) <= len(big.tops.get(k, []))
                   for k in degs)

    if feasible(dw, dv):
        return _build_sdr(dw, dv, amap, ainv)
    if feasible(dv, dw):
        return _build_sdr(dv, dw, ainv, amap)
    raise ValueError("acyclic parts of the two complexes are incomparable; "
                     "no strong deformation retract exists in either "
                     "direction")


def _build_sdr(big: _Decomposition, small: _Decomposition,
               alpha: GradedMap, alpha_inv: GradedMap) -> SDRData:
    """SDR of big onto small; alpha maps H(small) to H(big)."""
    B, S = big.complex, small.complex
    nb_space, ns_space = B.space, S.space
    nabla_blocks, f_blocks, phi_blocks = {}, {}, {}
    for k in set(nb_space.degrees()) | set(ns_space.degrees()):
        nS, nB = ns_space.dim(k), nb_space.dim(k)
        sb, sh, st = small.counts.get(k, (0, 0, 0))
        bb, bh, bt = big.counts.get(k, (0, 0, 0))
        # nabla: small coords -> selected big basis columns
        if nS and nB:
            amat = alpha.block(k)
            rows = []
            for i in range(nB):
                row = [Fraction(0)] * nS
                for q in range(nS):
                    coord = small.coords[k]
                    # coordinates of the q-th standard small vector
                    c_b = [coord[p][q] for p in range(sb)]
                    c_h = [coord[sb + p][q] for p in range(sh)]
                    c_t = [coord[sb + sh + p][q] for p in range(st)]
                    val = Fraction(0)
                    for p in range(sb):
                        val += c_b[p] * big.cols[k][p][i]
                    for p in range(sh):
                        for p2 in range(sh):
                            val += amat[p][p2] * c_h[p2] \
                                * big.cols[k][bb + p][i]
                    for p in range(st):
                        val += c_t[p] * big.cols[k][bb + bh + p][i]
                    row[q] = val
                rows.append(row)
            nabla_blocks[k] = rows
        # f: big coords -> small basis, keeping selected pairs + harmonic
        if nS and nB:
            imat = alpha_inv.block(k)
            rows = []
            for i in range(nS):
                row = [Fraction(0)] * nB
                for q in range(nB):
                    coord = big.coords[k]
                    val = Fraction(0)
                    for p in range(sb):
                        val += coord[p][q] * small.cols[k][p][i]
                    for p in range(sh):
                        for p2 in range(bh):
                            val += imat[p][p2] * coord[bb + p2][q] \
                                * small.cols[k][sb + p][i]
                    for p in range(st):
                        val += coord[bb + bh + p][q] \
                            * small.cols[k][sb + sh + p][i]
                    row[q] = val
                rows.append(row)
            f_blocks[k] = rows
        # phi on big: unselected boundary coordinate -> minus its top
        n_up = nb_space.dim(k + 1)
        if nB and n_up and bb > sb:
            rows = [[Fraction(0)] * nB for _ in range(n_up)]
            for p in range(sb, bb):
                top_col = big.tops[k + 1][p]
                for q in range(nB):
                    rows[top_col][q] -= big.coords[k][p][q]
            phi_blocks[k] = rows
    nabla = GradedMap(ns_space, nb_space, 0, nabla_blocks)
    f = GradedMap(nb_space, ns_space, 0, f_blocks)
    phi = GradedMap(nb_space, nb_space, 1, phi_blocks)
    out = SDRData(B, S, nabla, f, phi)
    assert check_side_conditions(out)["ok"]
    return out


def sdr_onto_homology(c: ChainComplex) -> SDRData:
    """Canonical SDR of a complex onto its homology (zero differential),
    with all side conditions holding by construction."""
    hd = homology_with_splitting(c)
    small = ChainComplex(hd.homology,
                         GradedMap.zero(hd.homology, hd.homology, -1))
    return SDRData(c, small, hd.inclusion, hd.projection,
                   hd.splitting_homotopy)


# ------------------------------------------------- resolution zero-extension


RISO_COLORS = {"a": "small", "b": "big"}


class RIsoAction:
    """Action of the bundled resolution of the isomorphism groupoid on a
    pair of complexes; color a is the small side, color b the big one."""

    def __init__(self, small: ChainComplex, big: ChainComplex,
                 assignment: Mapping[str, GradedMap]):
        self.pres = builtin_presentation("riso")
        self.small = small
        self.big = big
        self.assignment = dict(assignment)
        for name, g in self.pres.generators.items():
            if name not in self.assignment:
                raise ValueError(f"missing assignment for generator {name}")

    def complexes(self) -> dict:
        return {"a": self.small, "b": self.big}

    def check(self) -> dict:
        return action_check(self.pres, self.assignment, self.complexes(), 1)


def riso_zero_extension(s: SDRData) -> dict:
    """Extend SDR data to a resolution action with all higher correctors
    zero.  Succeeds exactly when the side conditions hold; on failure
    reports the first generator whose compatibility equation breaks and
    the nonzero obstruction map."""
    pres = builtin_presentation("riso")
    cmap = {"a": s.small, "b": s.big}
    assignment = {
        "f": s.nabla,
        "g": s.f,
        "h": GradedMap.zero(s.small.space, s.small.space, 1),
        "l": s.phi,
    }
    for name, g in pres.generators.items():
        if name in assignment:
            continue
        assignment[name] = GradedMap.zero(
            cmap[g.inputs[0]].space, cmap[g.output].space, g.degree)
    action = RIsoAction(s.small, s.big, assignment)
    res = action.check()
    if res["ok"]:
        return {"ok": True, "action": action,
                "failed_generator": None, "obstruction": None}
    first = next(e for e in res["entries"] if not e["ok"])
    return {"ok": False, "action": None,
            "failed_generator": first["generator"],
            "obstruction": first["witness"]}


# -------------------------------------------------------------- transfers


def _transfer(a: AInfinityAlgebra, target: ChainComplex, root: GradedMap,
              leaf: GradedMap, homotopy: GradedMap, N: int):
    """Perturbation recursion shared by the two transfer moves.

    root: V -> W, leaf: W -> V, homotopy on V with [homotopy, d]
    = leaf . root - 1.  Works in the suspended world where the
    coherence identities are sign-free, then desuspends.
    """
    V, W = a.complex, target
    sV, sW = _shift_space(V.space), _shift_space(W.space)
    P = _suspension_conjugate(root, [V.space], sV, sW, 1)
    I = _suspension_conjugate(leaf, [W.space], sW, sV, 1)
    H = _suspension_conjugate(homotopy, [V.space], sV, sV, 1).scale(-1)
    b_cache = {}

    def b(k):
        if k not in b_cache:
            s_src = tensor_spaces([sV] * k)
            b_cache[k] = _suspension_conjugate(
                a.mu(k), [V.space] * k, s_src, sV, 1)
        return b_cache[k]

    theta = {1: I}
    nu = {}
    f_out = {1: leaf}
    for n in range(2, N + 1):
        terms = []
        for k in range(2, n + 1):
            for r in _compositions(n, k):
                inner = tensor_maps_many([theta[rp] for rp in r])
                terms.append(b(k).compose(inner))
        total = map_sum(terms)
        nu_s = P.compose(total)
        theta[n] = H.compose(total)
        nu[n] = _suspension_conjugate(
            nu_s, [W.space] * n, tensor_power(W.space, n), W.space, -1)
        f_out[n] = _suspension_conjugate(
            theta[n], [W.space] * n, tensor_power(W.space, n), V.space, -1)
    out = AInfinityAlgebra(
        W, {n: m for n, m in nu.items() if not m.is_zero()}, N)
    mor = AInfinityMorphism(
        out, a, {n: m for n, m in f_out.items() if not m.is_zero()}, N)
    return out, mor


def transfer_M1(a: AInfinityAlgebra, s: SDRData, N: Optional[int] = None):
    """Transfer a structure on the big complex of an SDR onto the small
    one.  Returns the transferred structure and a coherent morphism from
    it back to the input whose underlying map is nabla.  Requires the
    side conditions (normalize first if needed)."""
    if s.big != a.complex and s.big.space != a.complex.space:
        raise ValueError("structure does not live on the big complex")
    flags = check_side_conditions(s)
    if not flags["ok"]:
        bad = [k for k, v in flags.items() if k != "ok" and not v]
        raise ValueError(f"side conditions violated: {', '.join(bad)}")
    return _transfer(a, s.small, s.f, s.nabla, s.phi,
                     N if N is not None else a.N)


def transfer_S(a: AInfinityAlgebra, target: ChainComplex, f: GradedMap,
               g: GradedMap, h: GradedMap, N: Optional[int] = None):
    """One-sided transfer: f: V -> W admits g with g f - 1 = [h, d] on
    V, and no witness on W is required.  Same tree summation as the SDR
    transfer with h as the only homotopy; the morphism returned has
    underlying map g."""
    V = a.complex
    if not _is_chain_map(f, V, target):
        raise ValueError("f is not a chain map")
    if not _is_chain_map(g, target, V):
        raise ValueError("g is not a chain map")
    defect = g.compose(f).add(GradedMap.identity(V.space), 1, -1)
    if defect != hom_differential(h, [V], V):
        raise ValueError("h is not a homotopy from 1 to g f")
    return _transfer(a, target, f, g, h, N if N is not None else a.N)


# ------------------------------------------------------ perturbation moves


class InconsistentSolve(RuntimeError):
    """A linear system that homotopy invariance guarantees to be
    consistent turned out not to be: an implementation bug, reported
    with the inconsistency certificate."""

    def __init__(self, stage: int, certificate):
        super().__init__(f"inconsistent solve at stage {stage}")
        self.stage = stage
        self.certificate = certificate


def _extend_morphism(source: AInfinityAlgebra, target: AInfinityAlgebra,
                     g1: GradedMap, N: int) -> AInfinityMorphism:
    """Greedy coherent extension of a chain map to a full morphism:
    each Taylor coefficient solves its own coherence identity."""
    V, W = source, target
    comps = {1: g1}
    for n in range(2, N + 1):
        partial = AInfinityMorphism(V, W, dict(comps), n)
        inner = fn_residual(partial, n)
        res = solve_map_equation(
            lambda x: hom_differential(x, [V.complex] * n, W.complex),
            inner, tensor_power(V.space, n), W.space, n - 1)
        if not res.consistent:
            raise InconsistentSolve(n, res.certificate)
        if not res.solution.is_zero():
            comps[n] = res.solution
    return AInfinityMorphism(V, W, comps, N)


def perturb_M2(m: AInfinityMorphism, g: GradedMap, h: GradedMap,
               N: Optional[int] = None) -> AInfinityMorphism:
    """Morphism with the homotopic chain map g as its underlying map.

    h must witness g - underlying(m) = [h, d].  The higher coefficients
    are rebuilt degree by degree; with g equal to the original
    underlying map and h = 0 the input is returned unchanged."""
    N = N if N is not None else m.N
    V, W = m.source, m.target
    diff = g.add(underlying(m), 1, -1)
    if diff != hom_differential(h, [V.complex], W.complex):
        raise ValueError("h is not a homotopy from underlying(m) to g")
    if diff.is_zero() and h.is_zero():
        return m
    return _extend_morphism(V, W, g, N)


def invert_M3(m: AInfinityMorphism, g: GradedMap, h: GradedMap,
              l: GradedMap, N: Optional[int] = None) -> AInfinityMorphism:
    """Morphism in the opposite direction whose underlying map is the
    given chain homotopy inverse of underlying(m)."""
    N = N if N is not None else m.N
    HomotopyEquivalence(m.source.complex, m.target.complex,
                        underlying(m), g, h, l)
    return _extend_morphism(m.target, m.source, g, N)


def chain_M4(morphisms: Sequence[AInfinityMorphism],
             g: Optional[GradedMap] = None,
             h: Optional[GradedMap] = None,
             N: Optional[int] = None) -> AInfinityMorphism:
    """Compose a chain of morphisms and optionally perturb the result
    onto a map homotopic to the composite underlying map."""
    if not morphisms:
        raise ValueError("need at least one morphism")
    acc = morphisms[0]
    for nxt in morphisms[1:]:
        acc = compose_morphisms(nxt, acc)
    if g is None:
        return acc
    if h is None:
        h = GradedMap.zero(acc.source.space, acc.target.space, 1)
    return perturb_M2(acc, g, h, N)
