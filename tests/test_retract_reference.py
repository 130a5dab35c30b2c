"""The retract, side-condition and homotopy-equivalence identities that
shalg.transfer checks as residuals of riso's generators, against the
hand-composed maps that stated them before.

transfer reads each identity off riso's stored differential under the
action that assigns the given maps and zero elsewhere.  The references
below compose nabla, f and phi (or f, g, h and l) directly.  On random
complexes and maps of the right types, retract data, perturbed retract
data, homotopy equivalences and one-sided data, every residual equals
its reference up to the sign of the table: h (f . nabla - 1) and g2
(f . phi) come out negated, and riso's higher correctors f3, f4 and g4
read zero.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from shalg.exactlin import GradedMap, hom_differential, homotopy_residual
from shalg.transfer import (
    HomotopyEquivalence,
    RetractParts,
    SDRData,
    _retract_maps,
    _riso_residuals,
    check_side_conditions,
    retract_residuals,
    riso_zero_extension,
    sdr_onto_homology,
    transfer_S,
)
from shalg.ainfty import AInfinityAlgebra
from test_transfer import perturbed_sdr, random_chain_complex, random_map

RISO = ("f", "g", "h", "l", "f2", "g2", "f3", "g3", "f4", "g4")
RETRACT_SIGNS = {"f": 1, "g": 1, "h": -1, "l": 1, "g3": 1, "f2": 1, "g2": -1}


def reference_retract(big, small, nabla, f, phi):
    """The retract identities and side conditions, composed by hand:
    nabla and f chain maps, f . nabla = 1, phi a homotopy from 1 to
    nabla . f, and phi phi = phi nabla = f phi = 0."""
    return {"f": hom_differential(nabla, [small], big),
            "g": hom_differential(f, [big], small),
            "h": f.compose(nabla).add(GradedMap.identity(small.space), 1, -1),
            "l": homotopy_residual(phi, GradedMap.identity(big.space),
                                   nabla.compose(f), big, big),
            "g3": phi.compose(phi), "f2": phi.compose(nabla),
            "g2": f.compose(phi)}


def reference_equivalence(source, target, f, g, h, l=None):
    """f and g chain maps, h a homotopy from 1 to g f on the source and,
    when given, l one from 1 to f g on the target, composed by hand."""
    out = {"f": hom_differential(f, [source], target),
           "g": hom_differential(g, [target], source),
           "h": homotopy_residual(h, GradedMap.identity(source.space),
                                  g.compose(f), source, source)}
    if l is not None:
        out["l"] = homotopy_residual(l, GradedMap.identity(target.space),
                                     f.compose(g), target, target)
    return out


dims = st.fixed_dictionaries({0: st.integers(1, 3), 1: st.integers(1, 3),
                              2: st.integers(0, 2)})


def retract_data(kind, seed, big_dims, small_dims):
    """Retract parts of one kind: an SDR onto homology, one whose homotopy
    breaks side conditions, that one with nabla, f or phi replaced by a
    random map of its type, or random maps between random complexes."""
    rng = random.Random(seed)
    if kind == "random":
        big = random_chain_complex(rng, big_dims)
        small = random_chain_complex(rng, small_dims)
        return RetractParts(big, small,
                            random_map(rng, small.space, big.space, 0),
                            random_map(rng, big.space, small.space, 0),
                            random_map(rng, big.space, big.space, 1))
    s = (sdr_onto_homology(random_chain_complex(rng, big_dims))
         if kind == "sdr" else perturbed_sdr(rng, big_dims))
    parts = RetractParts(s.big, s.small, s.nabla, s.f, s.phi)
    if kind == "nabla":
        parts = parts._replace(nabla=random_map(rng, s.small.space,
                                                s.big.space, 0))
    elif kind == "f":
        parts = parts._replace(f=random_map(rng, s.big.space,
                                            s.small.space, 0))
    elif kind == "phi":
        parts = parts._replace(phi=random_map(rng, s.big.space,
                                              s.big.space, 1))
    return parts


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["sdr", "perturbed", "nabla", "f", "phi", "random"]),
       st.integers(0, 2 ** 32), dims, dims)
def test_retract_residuals_match_the_hand_composed_identities(
        kind, seed, big_dims, small_dims):
    parts = retract_data(kind, seed, big_dims, small_dims)
    want = reference_retract(*parts)
    got = dict(zip(RISO, _riso_residuals(parts.small, parts.big,
                                         _retract_maps(parts), RISO)))
    for name, sign in RETRACT_SIGNS.items():
        assert got[name] == want[name].scale(sign), name
    assert all(got[name].is_zero() for name in ("f3", "f4", "g4"))
    assert retract_residuals(*parts) == [got[name] for name in RETRACT_SIGNS]
    broken = [name for name in "fghl" if not want[name].is_zero()]
    res = riso_zero_extension(parts)
    first = next((name for name in RISO if not got[name].is_zero()), None)
    assert (res["ok"], res["failed_generator"]) == (first is None, first)
    if broken:
        with pytest.raises(ValueError):
            SDRData(*parts)
        return
    flags = check_side_conditions(SDRData(*parts))
    assert [flags[k] for k in ("phi_phi", "phi_nabla", "f_phi")] == [
        want[name].is_zero() for name in ("g3", "f2", "g2")]


EQUIVALENCE_ERRORS = ("f is not a chain map", "g is not a chain map",
                      "h is not a homotopy from 1 to g f",
                      "l is not a homotopy from 1 to f g")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["equivalence", "f", "g", "h", "l", "random"]),
       st.booleans(), st.integers(0, 2 ** 32), dims, dims)
def test_equivalence_residuals_match_the_hand_composed_identities(
        kind, one_sided, seed, source_dims, target_dims):
    """Homotopy equivalences (an SDR read from its big side: f its
    projection, g its inclusion, h its homotopy, l zero), each with one
    map replaced by a random one, and random maps; one-sided data drops
    l."""
    rng = random.Random(seed)
    if kind == "random":
        source = random_chain_complex(rng, source_dims)
        target = random_chain_complex(rng, target_dims)
        maps = {"f": random_map(rng, source.space, target.space, 0),
                "g": random_map(rng, target.space, source.space, 0),
                "h": random_map(rng, source.space, source.space, 1),
                "l": random_map(rng, target.space, target.space, 1)}
    else:
        s = perturbed_sdr(rng, source_dims)
        source, target = s.big, s.small
        maps = {"f": s.f, "g": s.nabla, "h": s.phi,
                "l": GradedMap.zero(target.space, target.space, 1)}
        if kind != "equivalence":
            m = maps[kind]
            maps[kind] = random_map(rng, m.source, m.target, m.degree)
    if one_sided:
        del maps["l"]
    want = reference_equivalence(source, target, **maps)
    got = list(_riso_residuals(source, target, maps, maps))
    assert got == list(want.values())
    failed = next((message for message, r in zip(EQUIVALENCE_ERRORS, got)
                   if not r.is_zero()), None)
    try:
        if one_sided:
            transfer_S(AInfinityAlgebra(source, {}, 2), target, **maps)
        else:
            HomotopyEquivalence(source, target, **maps)
        raised = None
    except ValueError as exc:
        raised = str(exc)
    assert raised == failed


@pytest.mark.parametrize("name, degree", [("f", 1), ("g", -1), ("h", 0),
                                          ("l", 2)])
def test_mistyped_equivalence_map_fails_its_identity(name, degree):
    """A map of the wrong degree fails its own identity, with that
    identity's message, before any map is evaluated."""
    rng = random.Random(0)
    s = sdr_onto_homology(random_chain_complex(rng, {0: 2, 1: 3, 2: 1}))
    maps = {"f": s.f, "g": s.nabla, "h": s.phi,
            "l": GradedMap.zero(s.small.space, s.small.space, 1)}
    m = maps[name]
    maps[name] = GradedMap.zero(m.source, m.target, degree)
    with pytest.raises(ValueError) as info:
        HomotopyEquivalence(s.big, s.small, **maps)
    assert str(info.value) == EQUIVALENCE_ERRORS["fghl".index(name)]
