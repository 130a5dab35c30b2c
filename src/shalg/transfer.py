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
composite chain.  Transfer is the homotopy perturbation recursion,
which expands to the usual summation over planar rooted trees with
operations at the vertices, the homotopy on the internal edges, the
inclusion at the leaves, and the projection at the root.  This module
holds unsuspended maps only: the recursion's sums of two-level trees
are operadcore.partition_sum's, and SDRs are assembled from homology
splittings by exactlin.split_retract.  The perturbation-style moves
solve for one Taylor coefficient at a time by exact linear algebra.
The relevant homotopy invariance theorems guarantee the systems are
consistent when the input structures are coherent; an inconsistent
solve means they are not, and raises InconsistentSolve naming the
arity.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Sequence

from .exactlin import (
    ChainComplex,
    GradedMap,
    graded_inverse,
    hom_differential,
    homology_with_splitting,
    homotopy_residual,
    solve_map_equation,
    split_retract,
    tensor_power,
)
from .operadcore import action_check, builtin_presentation, partition_sum
from .ainfty import (
    AInfinityAlgebra,
    AInfinityMorphism,
    compose_morphisms,
    fn_residual,
    underlying,
)


def _is_homotopy(h: GradedMap, a: GradedMap, b: GradedMap,
                 source: ChainComplex, target: ChainComplex) -> bool:
    # an h of the wrong degree is no homotopy, not a type error
    return (h.degree == a.degree + 1
            and homotopy_residual(h, a, b, source, target).is_zero())


# ------------------------------------------------------------------- SDRs


class RetractParts(NamedTuple):
    """Retract data as read, with the retract identities unchecked."""
    big: ChainComplex
    small: ChainComplex
    nabla: GradedMap
    f: GradedMap
    phi: GradedMap


def _check_retract_types(big: ChainComplex, small: ChainComplex,
                         nabla: GradedMap, f: GradedMap,
                         phi: GradedMap) -> None:
    """Raise ValueError when a map has the wrong source, target or
    degree for retract data."""
    if nabla.source != small.space or nabla.target != big.space \
            or nabla.degree != 0:
        raise ValueError("nabla must be a degree-0 map small -> big")
    if f.source != big.space or f.target != small.space or f.degree != 0:
        raise ValueError("f must be a degree-0 map big -> small")
    if phi.source != big.space or phi.target != big.space \
            or phi.degree != 1:
        raise ValueError("phi must be a degree +1 map on the big complex")


def retract_residuals(big: ChainComplex, small: ChainComplex,
                      nabla: GradedMap, f: GradedMap,
                      phi: GradedMap) -> list:
    """Residuals of the four retract identities, each zero exactly when
    it holds: nabla is a chain map, f is a chain map, f . nabla = 1, and
    phi is a homotopy from 1 to nabla . f.  Raises ValueError when a map
    has the wrong source, target or degree."""
    _check_retract_types(big, small, nabla, f, phi)
    return [hom_differential(nabla, [small], big),
            hom_differential(f, [big], small),
            f.compose(nabla).add(GradedMap.identity(small.space), 1, -1),
            homotopy_residual(phi, GradedMap.identity(big.space),
                              nabla.compose(f), big, big)]


_RETRACT_ERRORS = ("nabla is not a chain map", "f is not a chain map",
                   "f . nabla is not the identity",
                   "phi is not a homotopy from 1 to nabla . f")


class SDRData:
    """Strong deformation retract of the big complex onto the small one.

    Validates on construction: nabla and f are chain maps, f . nabla is
    the identity of the small complex, and phi is a homotopy from 1 to
    nabla . f on the big complex.  Side conditions are not required;
    query them with check_side_conditions.
    """

    def __init__(self, big: ChainComplex, small: ChainComplex,
                 nabla: GradedMap, f: GradedMap, phi: GradedMap):
        residuals = retract_residuals(big, small, nabla, f, phi)
        for residual, message in zip(residuals, _RETRACT_ERRORS):
            if not residual.is_zero():
                raise ValueError(message)
        self.big = big
        self.small = small
        self.nabla = nabla
        self.f = f
        self.phi = phi


def side_condition_residuals(nabla: GradedMap, f: GradedMap,
                             phi: GradedMap) -> list:
    """Residuals of the three side conditions, each zero exactly when it
    holds: phi . phi, phi . nabla and f . phi."""
    return [phi.compose(phi), phi.compose(nabla), f.compose(phi)]


def check_side_conditions(s: SDRData) -> dict:
    """Report the three side conditions individually."""
    flags = {name: residual.is_zero() for name, residual in zip(
        ("phi_phi", "phi_nabla", "f_phi"),
        side_condition_residuals(s.nabla, s.f, s.phi))}
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


def _check_one_sided(source: ChainComplex, target: ChainComplex,
                     f: GradedMap, g: GradedMap, h: GradedMap) -> None:
    """Raise ValueError unless f: source -> target and g back are chain
    maps and h is a homotopy from 1 to g f on source."""
    if not hom_differential(f, [source], target).is_zero():
        raise ValueError("f is not a chain map")
    if not hom_differential(g, [target], source).is_zero():
        raise ValueError("g is not a chain map")
    if not _is_homotopy(h, GradedMap.identity(source.space), g.compose(f),
                        source, source):
        raise ValueError("h is not a homotopy from 1 to g f")


class HomotopyEquivalence:
    """Chain homotopy equivalence with explicit two-sided witnesses.

    f: V -> W and g: W -> V are chain maps, h on V satisfies
    [h, d] = g f - 1, and l on W satisfies [l, d] = f g - 1.
    """

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 f: GradedMap, g: GradedMap, h: GradedMap, l: GradedMap):
        _check_one_sided(source, target, f, g, h)
        if not _is_homotopy(l, GradedMap.identity(target.space),
                            f.compose(g), target, target):
            raise ValueError("l is not a homotopy from 1 to f g")
        self.source = source
        self.target = target
        self.f = f
        self.g = g
        self.h = h
        self.l = l


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
    dv = homology_with_splitting(e.source)
    dw = homology_with_splitting(e.target)
    amap = dw.projection.compose(e.f).compose(dv.inclusion)
    ainv = graded_inverse(amap)
    if ainv is None:
        raise ValueError("f does not induce an isomorphism on homology")
    for big, small, alpha, alpha_inv in ((dw, dv, amap, ainv),
                                         (dv, dw, ainv, amap)):
        parts = split_retract(big, small, alpha, alpha_inv)
        if parts is not None:
            out = SDRData(big.complex, small.complex, *parts)
            assert check_side_conditions(out)["ok"]
            return out
    raise ValueError("acyclic parts of the two complexes are incomparable; "
                     "no strong deformation retract exists in either "
                     "direction")


def sdr_onto_homology(c: ChainComplex) -> SDRData:
    """Canonical SDR of a complex onto its homology (zero differential),
    with all side conditions holding by construction."""
    hd = homology_with_splitting(c)
    small = ChainComplex(hd.homology,
                         GradedMap.zero(hd.homology, hd.homology, -1))
    return SDRData(c, small, hd.inclusion, hd.projection,
                   hd.splitting_homotopy)


# ------------------------------------------------- resolution zero-extension


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


def riso_zero_extension(s: SDRData | RetractParts) -> dict:
    """Extend SDR data to a resolution action with all higher correctors
    zero.  Succeeds exactly when the side conditions hold; on failure
    reports the first generator whose compatibility equation breaks and
    the nonzero obstruction map.  The equations include the retract
    identities, so unchecked RetractParts that are no retract fail the
    same way; a map of the wrong type raises ValueError."""
    _check_retract_types(s.big, s.small, s.nabla, s.f, s.phi)
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
    """Perturbation recursion shared by the two transfer moves, for root:
    V -> W, leaf: W -> V and homotopy on V with [homotopy, d] = leaf .
    root - 1.  Sigma_n, the sum of mu_k . (f_{r_1} x ... x f_{r_k}) over
    k >= 2 with no sign of its own in the suspended world, evaluated as
    two-level trees by operadcore.partition_sum, gives nu_n = root .
    Sigma_n and f_n = -homotopy . Sigma_n, with f_1 = leaf."""
    V, W = a.complex.space, target.space
    nu = {}
    f_out = {1: leaf}
    for n in range(2, N + 1):
        total = partition_sum(a.mu, f_out.get, n, 2, W, V, V, n - 2)
        nu[n] = root.compose(total)
        f_out[n] = homotopy.compose(total).scale(-1)
    out = AInfinityAlgebra(target, nu, N)
    return out, AInfinityMorphism(out, a, f_out, N)


NOT_ON_BIG_COMPLEX = "structure does not live on the big complex"


def transfer_M1(a: AInfinityAlgebra, s: SDRData, N: Optional[int] = None):
    """Transfer a structure on the big complex of an SDR onto the small
    one.  Returns the transferred structure and a coherent morphism from
    it back to the input whose underlying map is nabla.  Requires the
    side conditions (normalize first if needed)."""
    if s.big != a.complex:
        raise ValueError(NOT_ON_BIG_COMPLEX)
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
    _check_one_sided(a.complex, target, f, g, h)
    return _transfer(a, target, f, g, h, N if N is not None else a.N)


# ------------------------------------------------------ perturbation moves


class InconsistentSolve(RuntimeError):
    """No Taylor coefficient solves the coherence identity in arity
    stage.  Homotopy invariance guarantees a solution when the source
    and target structures are coherent, so one of them is not; the
    certificate is the solver's inconsistency certificate."""

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
    f1 = underlying(m)
    if not _is_homotopy(h, f1, g, V.complex, W.complex):
        raise ValueError("h is not a homotopy from underlying(m) to g")
    if g == f1 and h.is_zero():
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
