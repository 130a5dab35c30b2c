"""Strong deformation retracts, homotopy equivalences, and the
constructive homotopy-invariance moves.

An SDR consists of complexes A (big) and M (small) with chain maps
nabla: M -> A and f: A -> M and a degree +1 homotopy phi on A subject
to f . nabla = 1 and nabla . f - 1 = [phi, d].  The three side
conditions phi phi = 0, phi nabla = 0, f phi = 0 can always be arranged
by the two classical replacements implemented here.

Each identity has one definition, the stored differential of riso, the
bundled resolution of the isomorphism groupoid (one per process, from
operadcore.builtin_presentation): under the action that assigns nabla,
f, 0 and phi to its generators f, g, h and l, and zero to the rest,
f, g, h and l state the retract identities and g3, f2 and g2 the side
conditions, so the zero extension succeeds exactly when both hold.  A
homotopy equivalence assigns its own f, g, h and l.

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
from .operadcore import builtin_presentation, generator_residual, partition_sum
from .ainfty import (
    AInfinityAlgebra,
    AInfinityMorphism,
    compose_morphisms,
    fn_residual,
    underlying,
)


# ------------------------------------------------------------ riso checks


def _riso_zeros(a: ChainComplex, b: ChainComplex) -> dict:
    """The zero map of every riso generator, colors a and b given."""
    spaces = {"a": a.space, "b": b.space}
    return {name: GradedMap.zero(spaces[g.inputs[0]], spaces[g.output],
                                 g.degree)
            for name, g in builtin_presentation("riso").generators.items()}


def _riso_residuals(a: ChainComplex, b: ChainComplex,
                    maps: Mapping[str, GradedMap], names):
    """Yield, for each generator of names in turn, the action_check
    witness [m, d] - value(d gen) of the riso action on colors a and b
    that assigns maps by name and zero elsewhere: zero exactly when the
    identity d(gen) holds.  A map of names whose type is not its
    generator's yields None and ends the residuals, since evaluation
    trusts the types of the maps it reads; callers check other maps."""
    pres, zeros = builtin_presentation("riso"), _riso_zeros(a, b)
    action = {**zeros, **maps}
    for name in names:
        m, z = action[name], zeros[name]
        if (m.source, m.target, m.degree) != (z.source, z.target, z.degree):
            yield None
            return
        yield generator_residual(pres, action, {"a": a, "b": b},
                                 name).scale(-1)


def _require(a: ChainComplex, b: ChainComplex,
             maps: Mapping[str, GradedMap], errors: Mapping[str, str]):
    """Raise ValueError(errors[name]) for the first generator of maps,
    in order, whose map has the wrong type or breaks its identity."""
    for name, residual in zip(maps, _riso_residuals(a, b, maps, maps)):
        if residual is None or not residual.is_zero():
            raise ValueError(errors[name])


# ------------------------------------------------------------------- SDRs


class RetractParts(NamedTuple):
    """Retract data as read, with the retract identities unchecked."""
    big: ChainComplex
    small: ChainComplex
    nabla: GradedMap
    f: GradedMap
    phi: GradedMap


def _retract_maps(s: RetractParts | SDRData) -> dict:
    """riso's f, g, h, l on colors a = small and b = big for retract
    data: nabla, f, zero and phi.  Raises ValueError when a map has the
    wrong source, target or degree for retract data."""
    if s.nabla.source != s.small.space or s.nabla.target != s.big.space \
            or s.nabla.degree != 0:
        raise ValueError("nabla must be a degree-0 map small -> big")
    if s.f.source != s.big.space or s.f.target != s.small.space \
            or s.f.degree != 0:
        raise ValueError("f must be a degree-0 map big -> small")
    if s.phi.source != s.big.space or s.phi.target != s.big.space \
            or s.phi.degree != 1:
        raise ValueError("phi must be a degree +1 map on the big complex")
    return {"f": s.nabla, "g": s.f,
            "h": GradedMap.zero(s.small.space, s.small.space, 1),
            "l": s.phi}


# riso's identities under _retract_maps: the retract ones, the side ones
_RETRACT_ERRORS = {"f": "nabla is not a chain map",
                   "g": "f is not a chain map",
                   "h": "f . nabla is not the identity",
                   "l": "phi is not a homotopy from 1 to nabla . f"}
_SIDE_CONDITIONS = {"g3": "phi_phi", "f2": "phi_nabla", "g2": "f_phi"}


def retract_residuals(big: ChainComplex, small: ChainComplex,
                      nabla: GradedMap, f: GradedMap,
                      phi: GradedMap) -> list:
    """riso's residuals at f, g, h, l, g3, f2 and g2 under _retract_maps,
    each zero exactly when its identity holds: the four retract
    identities, then the three side conditions.  Raises ValueError when
    a map has the wrong source, target or degree."""
    return list(_riso_residuals(
        small, big, _retract_maps(RetractParts(big, small, nabla, f, phi)),
        [*_RETRACT_ERRORS, *_SIDE_CONDITIONS]))


class SDRData:
    """Strong deformation retract of the big complex onto the small one.

    Validates on construction: nabla and f are chain maps, f . nabla is
    the identity of the small complex, and phi is a homotopy from 1 to
    nabla . f on the big complex.  Side conditions are not required; the
    same pass of retract_residuals evaluates them, and side_conditions
    keeps their flags (the maps of an instance are not changed after
    construction).
    """

    def __init__(self, big: ChainComplex, small: ChainComplex,
                 nabla: GradedMap, f: GradedMap, phi: GradedMap):
        flags = [r.is_zero() for r in retract_residuals(
            big, small, nabla, f, phi)]
        for error, ok in zip(_RETRACT_ERRORS.values(), flags):
            if not ok:
                raise ValueError(error)
        self.big, self.small = big, small
        self.nabla, self.f, self.phi = nabla, f, phi
        self.side_conditions = dict(zip(_SIDE_CONDITIONS.values(), flags[4:]))


def check_side_conditions(s: SDRData) -> dict:
    """Report the three side conditions individually, as evaluated when
    s was built."""
    return {**s.side_conditions, "ok": all(s.side_conditions.values())}


def normalize_side_conditions(s: SDRData) -> SDRData:
    """Replace the homotopy so that all three side conditions hold.

    Two classical steps: conjugation by 1 - nabla f kills phi nabla and
    f phi; then phi -> -phi d phi kills phi phi while preserving the
    others.  Both steps preserve (nabla, f) and the homotopy identity;
    everything is re-verified by the SDRData constructor and a final
    check rather than trusted.
    """
    proj = GradedMap.identity(s.big.space).add(
        s.nabla.compose(s.f), 1, -1)
    phi1 = proj.compose(s.phi).compose(proj)
    phi2 = phi1.compose(s.big.differential).compose(phi1).scale(-1)
    out = SDRData(s.big, s.small, s.nabla, s.f, phi2)
    if not check_side_conditions(out)["ok"]:
        raise AssertionError("side-condition normalization failed")
    return out


# --------------------------------------------------- homotopy equivalences


_EQUIVALENCE_ERRORS = {"f": "f is not a chain map",
                       "g": "g is not a chain map",
                       "h": "h is not a homotopy from 1 to g f",
                       "l": "l is not a homotopy from 1 to f g"}


class HomotopyEquivalence:
    """Chain homotopy equivalence with explicit two-sided witnesses.

    f: V -> W and g: W -> V are chain maps, h on V satisfies
    [h, d] = g f - 1, and l on W satisfies [l, d] = f g - 1.
    """

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 f: GradedMap, g: GradedMap, h: GradedMap, l: GradedMap):
        _require(source, target, {"f": f, "g": g, "h": h, "l": l},
                 _EQUIVALENCE_ERRORS)
        self.source, self.target = source, target
        self.f, self.g, self.h, self.l = f, g, h, l


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
            if not check_side_conditions(out)["ok"]:
                raise AssertionError("the rebuilt retract fails a side "
                                     "condition")
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


class ZeroExtension(NamedTuple):
    """riso's action on colors a = small and b = big, by generator."""
    small: ChainComplex
    big: ChainComplex
    assignment: dict


def riso_zero_extension(s: SDRData | RetractParts) -> dict:
    """Extend SDR data to a resolution action with all higher correctors
    zero.  Succeeds exactly when the side conditions hold; on failure
    reports the first generator whose compatibility equation breaks and
    the nonzero obstruction map.  The equations include the retract
    identities, so unchecked RetractParts that are no retract fail the
    same way; a map of the wrong type raises ValueError."""
    maps, names = _retract_maps(s), builtin_presentation("riso").generators
    residuals = _riso_residuals(s.small, s.big, maps, names)
    for name, residual in zip(names, residuals):
        if not residual.is_zero():
            return {"ok": False, "action": None, "failed_generator": name,
                    "obstruction": residual}
    action = ZeroExtension(s.small, s.big,
                           {**_riso_zeros(s.small, s.big), **maps})
    return {"ok": True, "action": action, "failed_generator": None,
            "obstruction": None}


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


def _order(N: Optional[int], x) -> int:
    """The truncation order of a move's output: N capped at the order of
    its input x, or x's order when N is None."""
    return x.N if N is None else min(N, x.N)


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
    return _transfer(a, s.small, s.f, s.nabla, s.phi, _order(N, a))


def transfer_S(a: AInfinityAlgebra, target: ChainComplex, f: GradedMap,
               g: GradedMap, h: GradedMap, N: Optional[int] = None):
    """One-sided transfer: f: V -> W admits g with g f - 1 = [h, d] on
    V, and no witness on W is required.  Same tree summation as the SDR
    transfer with h as the only homotopy; the morphism returned has
    underlying map g."""
    _require(a.complex, target, {"f": f, "g": g, "h": h},
             _EQUIVALENCE_ERRORS)
    return _transfer(a, target, f, g, h, _order(N, a))


# ------------------------------------------------------ perturbation moves


class InconsistentSolve(RuntimeError):
    """No Taylor coefficient solves the coherence identity in arity
    stage.  Homotopy invariance guarantees a solution when the source
    and target structures are coherent, so one of them is not."""

    def __init__(self, stage: int):
        super().__init__(f"inconsistent solve at stage {stage}")
        self.stage = stage


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
            raise InconsistentSolve(n)
        if not res.solution.is_zero():
            comps[n] = res.solution
    return AInfinityMorphism(V, W, comps, N)


def perturb_M2(m: AInfinityMorphism, g: GradedMap, h: GradedMap,
               N: Optional[int] = None) -> AInfinityMorphism:
    """Morphism with the homotopic chain map g as its underlying map.

    h must witness g - underlying(m) = [h, d].  The higher coefficients
    are rebuilt degree by degree; with g equal to the original
    underlying map and h = 0 the input is returned, truncated at N."""
    N = _order(N, m)
    V, W = m.source, m.target
    f1 = underlying(m)
    if h.degree != f1.degree + 1 \
            or not homotopy_residual(h, f1, g, V.complex, W.complex).is_zero():
        raise ValueError("h is not a homotopy from underlying(m) to g")
    if g == f1 and h.is_zero():
        return m.truncated(N)
    return _extend_morphism(V, W, g, N)


def invert_M3(m: AInfinityMorphism, g: GradedMap, h: GradedMap,
              l: GradedMap, N: Optional[int] = None) -> AInfinityMorphism:
    """Morphism in the opposite direction whose underlying map is the
    given chain homotopy inverse of underlying(m)."""
    N = _order(N, m)
    HomotopyEquivalence(m.source.complex, m.target.complex,
                        underlying(m), g, h, l)
    return _extend_morphism(m.target, m.source, g, N)


def chain_M4(morphisms: Sequence[AInfinityMorphism],
             g: Optional[GradedMap] = None,
             h: Optional[GradedMap] = None,
             N: Optional[int] = None) -> AInfinityMorphism:
    """Compose a chain of morphisms and optionally perturb the result
    onto a map homotopic to the composite underlying map; the result is
    truncated at N either way."""
    if not morphisms:
        raise ValueError("need at least one morphism")
    acc = morphisms[0]
    for nxt in morphisms[1:]:
        acc = compose_morphisms(nxt, acc)
    if g is None:
        return acc.truncated(_order(N, acc))
    if h is None:
        h = GradedMap.zero(acc.source.space, acc.target.space, 1)
    return perturb_M2(acc, g, h, N)
