"""Loader fuzzing: mutated input documents are rejected, never crash.

Each mutation deletes one key of a well-formed ainf, morphism, sdr or
action document, or swaps one value (anywhere in the document) for
null, a string, a list, an object, a float, a bool, a negative
integer or "1/0".  The loaders may accept the result or raise
ValueError (serialize.InputError is one); nothing else may escape, and
`shalg verify` exits 2 whenever the loader refused the document.
Integers stay small: the (dim V)^N cost of a large N is not probed.
"""

import copy
import os
import tempfile

from hypothesis import given, settings, strategies as st

from shalg import serialize
from shalg.cli import main
from shalg.exactlin import GradedMap
from shalg.ainfty import AInfinityAlgebra, AInfinityMorphism
from shalg.transfer import riso_zero_extension, sdr_onto_homology
from test_transfer import exterior_dga


def documents():
    dga = exterior_dga()
    a = AInfinityAlgebra(dga.complex, {2: dga.mu(2)}, 3)
    s = sdr_onto_homology(dga.complex)
    act = riso_zero_extension(s)["action"]
    return {
        "ainf": serialize.algebra_to_data(a),
        "morphism": serialize.morphism_to_data(AInfinityMorphism(
            a, a, {1: GradedMap.identity(a.space)}, 3)),
        "sdr": serialize.sdr_to_data(s),
        "action": {"kind": "action", "presentation": "riso",
                   "complexes": {"a": serialize.complex_to_data(act.small),
                                 "b": serialize.complex_to_data(act.big)},
                   "assignment": {name: serialize.map_to_data(m)
                                  for name, m in act.assignment.items()},
                   "truncation": 1},
    }


DOCS = documents()
LOADERS = {"ainf": serialize.algebra_from_data,
           "morphism": serialize.morphism_from_data,
           "sdr": serialize.sdr_parts_from_data,
           "action": serialize.action_from_data}
REPLACEMENTS = (None, "x", [], [1, 2], {}, {"0": 1}, 0.5, True, False, -1,
                -2, "1/0")


def paths(node, prefix=()):
    """Every key path inside a document, the root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


PATHS = {kind: list(paths(doc)) for kind, doc in DOCS.items()}


@st.composite
def mutations(draw):
    kind = draw(st.sampled_from(sorted(DOCS)))
    path = draw(st.sampled_from(PATHS[kind]))
    doc = copy.deepcopy(DOCS[kind])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
    return kind, path, doc


@settings(max_examples=300, deadline=None)
@given(mutations())
def test_mutated_documents_are_rejected_cleanly(mutation):
    kind, path, doc = mutation
    try:
        LOADERS[kind](doc)
        refused = False
    except ValueError:
        refused = True
    with tempfile.TemporaryDirectory() as tmp:
        file = os.path.join(tmp, f"{kind}.json")
        serialize.dump(file, doc)
        status = main(["verify", kind, file, "--format", "machine",
                       "--out", os.path.join(tmp, "cert.json")])
    if refused:
        assert status == 2, path
    else:
        assert status in (0, 1, 2), path
