"""Tests for the file formats and the batch command-line front end."""

import copy
import json
import random
from fractions import Fraction

import pytest

from shalg import serialize
from shalg.cli import main
from shalg.exactlin import (
    ChainComplex,
    GradedMap,
    GradedVectorSpace,
    kernel_basis,
    make_matrix,
    tensor_basis_tuples,
    tensor_maps_many,
    tensor_power,
)
from shalg.ainfty import AInfinityAlgebra, AInfinityMorphism, an_residual
from shalg.transfer import riso_zero_extension, sdr_onto_homology


# --------------------------------------------------------------- fixtures


def random_chain_complex(rng, dims):
    space = GradedVectorSpace(dims)
    blocks = {}
    prev = None
    for k in sorted(dims):
        n, m = dims[k], dims.get(k - 1, 0)
        if m == 0:
            prev = None
            continue
        if prev is None:
            mat = [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                   for _ in range(m)]
        else:
            kb = kernel_basis(prev)
            mat = [[Fraction(0)] * n for _ in range(m)]
            for j in range(n):
                for v in kb:
                    c = Fraction(rng.randint(-2, 2))
                    for i in range(m):
                        mat[i][j] += c * v[i]
        blocks[k] = mat
        prev = make_matrix(mat, m, n)
    return ChainComplex(space, GradedMap(space, space, -1, blocks))


def exterior_dga():
    sp = GradedVectorSpace({0: 2, 1: 2}, {0: ("1", "u"), 1: ("v", "uv")})
    d = GradedMap(sp, sp, -1, {1: [[0, 0], [1, 0]]})
    cx = ChainComplex(sp, d)
    table = {("1", "1"): "1", ("1", "u"): "u", ("1", "v"): "v",
             ("1", "uv"): "uv", ("u", "1"): "u", ("v", "1"): "v",
             ("uv", "1"): "uv", ("u", "v"): "uv", ("v", "u"): "uv"}
    names = {(0, 0): "1", (0, 1): "u", (1, 0): "v", (1, 1): "uv"}
    idx = {0: {"1": 0, "u": 1}, 1: {"v": 0, "uv": 1}}
    tb = tensor_basis_tuples([sp, sp])
    blocks = {}
    for k, tuples in tb.items():
        mat = [[Fraction(0)] * len(tuples) for _ in range(sp.dim(k))]
        for col, tup in enumerate(tuples):
            prod = table.get((names[tup[0]], names[tup[1]]))
            if prod is not None:
                mat[idx[k][prod]][col] = Fraction(1)
        blocks[k] = mat
    mu2 = GradedMap(tensor_power(sp, 2), sp, 0, blocks)
    return AInfinityAlgebra(cx, {2: mu2}, 5)


@pytest.fixture
def dga_file(tmp_path):
    path = tmp_path / "dga.json"
    serialize.dump(str(path), serialize.algebra_to_data(exterior_dga()))
    return str(path)


@pytest.fixture
def sdr_file(tmp_path):
    path = tmp_path / "sdr.json"
    s = sdr_onto_homology(exterior_dga().complex)
    serialize.dump(str(path), serialize.sdr_to_data(s))
    return str(path)


# ------------------------------------------------------------ serialization


def test_fraction_round_trip():
    assert serialize.dump_fraction(Fraction(3)) == 3
    assert serialize.dump_fraction(Fraction(-1, 2)) == "-1/2"
    assert serialize.parse_fraction("7/3") == Fraction(7, 3)
    assert serialize.parse_fraction(-4) == Fraction(-4)
    with pytest.raises(ValueError):
        serialize.parse_fraction(0.5)


def test_complex_round_trip():
    rng = random.Random(1)
    c = random_chain_complex(rng, {0: 2, 1: 3, 2: 1})
    data = serialize.complex_to_data(c)
    # the matrices are stored column-major: one list per source vector
    assert len(data["differential"]["1"]) == 3
    back = serialize.complex_from_data(json.loads(json.dumps(data)))
    assert back == c


def test_algebra_and_morphism_round_trip():
    a = exterior_dga()
    data = serialize.algebra_to_data(a)
    back = serialize.algebra_from_data(json.loads(json.dumps(data)))
    assert back.complex == a.complex and back.N == a.N
    assert back.mu(2) == a.mu(2) and back.mu(3) == a.mu(3)
    m = AInfinityMorphism(a, a, {1: GradedMap.identity(a.space)}, 4)
    md = serialize.morphism_to_data(m)
    back_m = serialize.morphism_from_data(json.loads(json.dumps(md)))
    assert back_m.f(1) == m.f(1) and back_m.N == 4


def test_sdr_round_trip():
    s = sdr_onto_homology(exterior_dga().complex)
    data = serialize.sdr_to_data(s)
    back = serialize.sdr_from_data(json.loads(json.dumps(data)))
    assert back.nabla == s.nabla and back.f == s.f and back.phi == s.phi


def test_parse_error_has_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dims": {"0": 2,}')
    with pytest.raises(ValueError, match="line"):
        serialize.load(str(path))


def test_dump_is_atomic_and_deterministic(tmp_path):
    data = serialize.complex_to_data(exterior_dga().complex)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    serialize.dump(str(p1), data)
    serialize.dump(str(p2), data)
    assert p1.read_text() == p2.read_text()
    assert not list(tmp_path.glob("*.tmp"))


# ----------------------------------------------------------------- verify


def test_verify_ainf_passes(dga_file, capsys):
    assert main(["verify", "ainf", dga_file]) == 0
    out = capsys.readouterr().out
    assert "[PASS] stasheff-identity-n3" in out
    assert "OK" in out


def truncated_polynomial_dga():
    """Commutative product on 1, x, x^2 with x^3 = 0, all in degree 0."""
    sp = GradedVectorSpace({0: 3}, {0: ("1", "x", "x2")})
    cx = ChainComplex(sp, GradedMap.zero(sp, sp, -1))
    table = {("1", "1"): "1", ("1", "x"): "x", ("x", "1"): "x",
             ("1", "x2"): "x2", ("x2", "1"): "x2", ("x", "x"): "x2"}
    idx = {"1": 0, "x": 1, "x2": 2}
    tuples = tensor_basis_tuples([sp, sp])[0]
    mat = [[Fraction(0)] * len(tuples) for _ in range(3)]
    for col, tup in enumerate(tuples):
        prod = table.get((sp.labels[0][tup[0][1]], sp.labels[0][tup[1][1]]))
        if prod is not None:
            mat[idx[prod]][col] = Fraction(1)
    mu2 = GradedMap(tensor_power(sp, 2), sp, 0, {0: mat})
    return AInfinityAlgebra(cx, {2: mu2}, 4)


def test_verify_ainf_corrupted_sign_fails_at_n3(tmp_path, capsys):
    data = serialize.algebra_to_data(truncated_polynomial_dga())
    # corrupt the product of x and x^2: with a zero differential the
    # chain-level check still passes, but associativity breaks
    cols = data["operations"]["2"]["blocks"]["0"]
    cols[5][2] = 1  # column x (x) x2, coordinate of x2
    bad = tmp_path / "bad_dga.json"
    serialize.dump(str(bad), data)
    assert main(["verify", "ainf", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "[PASS] stasheff-identity-n2" in out
    assert "[FAIL] stasheff-identity-n3" in out
    assert "witness" in out


def test_verify_ainf_witness_is_first_row_major_entry(tmp_path, capsys):
    """A sign error in a conjugate of the exterior DGA breaks arities 2
    and 3; each witness is the first nonzero entry of the residual's
    dense view in (degree, row, column) order, which at arity 3 is not
    the first one in column order."""
    a = exterior_dga()
    sp = a.space
    p = GradedMap(sp, sp, 0, {0: [[1, 1], [0, 1]], 1: [[1, 0], [1, 1]]})
    p_inv = GradedMap(sp, sp, 0, {0: [[1, -1], [0, 1]],
                                  1: [[1, 0], [-1, 1]]})
    d = p_inv.compose(a.complex.differential).compose(p)
    mu2 = p_inv.compose(a.mu(2)).compose(tensor_maps_many([p, p]))
    data = serialize.algebra_to_data(
        AInfinityAlgebra(ChainComplex(sp, d), {2: mu2}, 5))
    assert data["operations"]["2"]["blocks"]["0"][1][1] == 1
    data["operations"]["2"]["blocks"]["0"][1][1] = -1
    path = tmp_path / "signs.json"
    serialize.dump(str(path), data)
    assert main(["verify", "ainf", str(path), "--format", "machine"]) == 1
    cert = json.loads(capsys.readouterr().out)
    assert cert["bounds"] == {"N": 5}
    bad = serialize.algebra_from_data(data)
    failed = 0
    for check in cert["checks"]:
        n = int(check["name"].rsplit("n", 1)[1])
        blocks = an_residual(bad, n).blocks
        first = next(((k, i, j, x) for k in sorted(blocks)
                      for i, row in enumerate(blocks[k])
                      for j, x in enumerate(row) if x), None)
        if first is None:
            assert check["status"] == "pass"
            continue
        failed += 1
        assert check["status"] == "fail"
        assert check["witness"] == {"degree": first[0], "row": first[1],
                                    "column": first[2],
                                    "value": serialize.dump_fraction(first[3])}
    assert failed == 2


def test_verify_sdr_passes(sdr_file, capsys):
    assert main(["verify", "sdr", sdr_file]) == 0
    out = capsys.readouterr().out
    assert "[PASS] side-condition-homotopy-squared" in out


def test_verify_morphism(dga_file, tmp_path, capsys):
    a = exterior_dga()
    m = AInfinityMorphism(a, a, {1: GradedMap.identity(a.space)}, 4)
    path = tmp_path / "mor.json"
    serialize.dump(str(path), serialize.morphism_to_data(m))
    assert main(["verify", "morphism", str(path)]) == 0


def test_verify_action(tmp_path, capsys):
    s = sdr_onto_homology(exterior_dga().complex)
    act = riso_zero_extension(s)["action"]
    data = {"kind": "action", "presentation": "riso",
            "complexes": {"a": serialize.complex_to_data(act.small),
                          "b": serialize.complex_to_data(act.big)},
            "assignment": {name: serialize.map_to_data(m)
                           for name, m in act.assignment.items()},
            "truncation": 1}
    path = tmp_path / "action.json"
    serialize.dump(str(path), data)
    assert main(["verify", "action", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] action-compatibility-f2" in out


# ------------------------------------------------------------------- move


def test_move_m1_writes_verified_outputs(dga_file, sdr_file, tmp_path,
                                         capsys):
    out = str(tmp_path / "out")
    assert main(["move", "m1", dga_file, sdr_file, "--out", out]) == 0
    struct = serialize.load(out + ".structure.json")
    mor = serialize.load(out + ".morphism.json")
    # round trip: written files reparse to equal in-memory values
    wa = serialize.algebra_from_data(struct)
    assert serialize.algebra_to_data(wa) == struct
    m = serialize.morphism_from_data(mor)
    assert serialize.morphism_to_data(m) == mor
    assert main(["verify", "ainf", out + ".structure.json"]) == 0
    assert main(["verify", "morphism", out + ".morphism.json"]) == 0


def test_move_m1_zero_differential_returns_input(tmp_path):
    sp = GradedVectorSpace({0: 2, 1: 1})
    c = ChainComplex(sp, GradedMap.zero(sp, sp, -1))
    rng = random.Random(2)
    mu3 = GradedMap(tensor_power(sp, 3), sp, 1,
                    {k: [[Fraction(rng.randint(-2, 2))
                          for _ in range(tensor_power(sp, 3).dim(k))]
                         for _ in range(sp.dim(k + 1))]
                     for k in tensor_power(sp, 3).dims})
    a = AInfinityAlgebra(c, {3: mu3}, 4)
    apath = tmp_path / "a.json"
    serialize.dump(str(apath), serialize.algebra_to_data(a))
    ident = GradedMap.identity(sp)
    spath = tmp_path / "s.json"
    serialize.dump(str(spath), {
        "kind": "sdr", "big": serialize.complex_to_data(c),
        "small": serialize.complex_to_data(c),
        "nabla": serialize.map_to_data(ident),
        "f": serialize.map_to_data(ident),
        "phi": serialize.map_to_data(GradedMap.zero(sp, sp, 1))})
    out = str(tmp_path / "out")
    assert main(["move", "m1", str(apath), str(spath), "--out", out]) == 0
    struct = serialize.load(out + ".structure.json")
    assert struct["operations"] == serialize.algebra_to_data(a)["operations"]


def test_move_m1_rejects_violating_sdr(dga_file, tmp_path, capsys):
    data = serialize.load(tmp_path.parent and dga_file)
    a = serialize.algebra_from_data(data)
    s = sdr_onto_homology(a.complex)
    # break a side condition with a harmless-looking homotopy change
    rng = random.Random(5)
    y = GradedMap(a.space, a.space, 2, {})
    bad_phi = s.phi.add(s.nabla.compose(
        GradedMap(s.small.space, s.small.space, 1,
                  {0: [[1]]})).compose(s.f), 1, 1)
    spath = tmp_path / "bad_sdr.json"
    serialize.dump(str(spath), {
        "kind": "sdr", "big": serialize.complex_to_data(s.big),
        "small": serialize.complex_to_data(s.small),
        "nabla": serialize.map_to_data(s.nabla),
        "f": serialize.map_to_data(s.f),
        "phi": serialize.map_to_data(bad_phi)})
    out = str(tmp_path / "out")
    assert main(["move", "m1", dga_file, str(spath), "--out", out]) == 1
    captured = capsys.readouterr().out
    assert "[FAIL] hypothesis-side-conditions" in captured
    # no output files when a check failed
    import os
    assert not os.path.exists(out + ".structure.json")


def test_move_m2_identity_homotopy(dga_file, tmp_path, capsys):
    a = exterior_dga()
    m = AInfinityMorphism(a, a, {1: GradedMap.identity(a.space)}, 4)
    mpath = tmp_path / "mor.json"
    serialize.dump(str(mpath), serialize.morphism_to_data(m))
    ppath = tmp_path / "pert.json"
    serialize.dump(str(ppath), {
        "g": serialize.map_to_data(GradedMap.identity(a.space)),
        "h": serialize.map_to_data(GradedMap.zero(a.space, a.space, 1))})
    out = str(tmp_path / "out")
    assert main(["move", "m2", str(mpath), str(ppath), "--out", out]) == 0
    written = serialize.load(out + ".morphism.json")
    assert written["components"] == serialize.morphism_to_data(m)["components"]


def test_move_m3_and_m4(dga_file, sdr_file, tmp_path, capsys):
    out1 = str(tmp_path / "t")
    assert main(["move", "m1", dga_file, sdr_file, "--out", out1]) == 0
    s = serialize.sdr_from_data(serialize.load(sdr_file))
    inv = tmp_path / "inv.json"
    serialize.dump(str(inv), {
        "g": serialize.map_to_data(s.f),
        "h": serialize.map_to_data(
            GradedMap.zero(s.small.space, s.small.space, 1)),
        "l": serialize.map_to_data(s.phi)})
    out2 = str(tmp_path / "i")
    assert main(["move", "m3", out1 + ".morphism.json", str(inv),
                 "--out", out2]) == 0
    out3 = str(tmp_path / "c")
    assert main(["move", "m4", out1 + ".morphism.json",
                 out2 + ".morphism.json", "--out", out3]) == 0
    comp = serialize.morphism_from_data(serialize.load(
        out3 + ".morphism.json"))
    assert comp.f(1) == GradedMap.identity(s.small.space)


def test_move_s(dga_file, sdr_file, tmp_path):
    s = serialize.sdr_from_data(serialize.load(sdr_file))
    epath = tmp_path / "onesided.json"
    serialize.dump(str(epath), {
        "target": serialize.complex_to_data(s.small),
        "f": serialize.map_to_data(s.f),
        "g": serialize.map_to_data(s.nabla),
        "h": serialize.map_to_data(s.phi)})
    out = str(tmp_path / "out")
    assert main(["move", "s", dga_file, str(epath), "--out", out]) == 0
    m1out = str(tmp_path / "m1out")
    assert main(["move", "m1", dga_file, sdr_file, "--out", m1out]) == 0
    assert (serialize.load(out + ".structure.json")
            == serialize.load(m1out + ".structure.json"))


# ----------------------------------------------------------------- operad


def test_operad_d2_builtins(capsys):
    assert main(["operad", "d2", "ass-minimal", "--arity", "5"]) == 0
    assert main(["operad", "d2", "ass-arrow-minimal", "--arity", "4"]) == 0
    assert main(["operad", "d2", "riso"]) == 0


def test_operad_kunneth(capsys):
    assert main(["operad", "kunneth", "--arity", "3"]) == 0


def test_operad_riso_extend_localizes(tmp_path, capsys):
    s = sdr_onto_homology(exterior_dga().complex)
    bad_phi = s.phi.add(s.nabla.compose(
        GradedMap(s.small.space, s.small.space, 1,
                  {0: [[1]]})).compose(s.f), 1, 1)
    path = tmp_path / "bad.json"
    serialize.dump(str(path), {
        "kind": "sdr", "big": serialize.complex_to_data(s.big),
        "small": serialize.complex_to_data(s.small),
        "nabla": serialize.map_to_data(s.nabla),
        "f": serialize.map_to_data(s.f),
        "phi": serialize.map_to_data(bad_phi)})
    assert main(["operad", "riso-extend", str(path)]) == 1
    out = capsys.readouterr().out
    assert "f2" in out


def test_operad_alpha(capsys):
    assert main(["operad", "alpha", "--length", "4"]) == 0


# ----------------------------------------------------- certificate output


def test_machine_format_deterministic(dga_file, capsys):
    assert main(["verify", "ainf", dga_file, "--format", "machine"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["verify", "ainf", dga_file, "--format", "machine"]) == 0
    second = json.loads(capsys.readouterr().out)
    first.pop("wall_time"), second.pop("wall_time")
    assert first == second
    assert first["ok"] is True
    assert all(c["status"] == "pass" for c in first["checks"])
    assert first["inputs"]  # file hash present


def test_certificate_written_to_file(dga_file, tmp_path, capsys):
    cpath = tmp_path / "cert.json"
    assert main(["verify", "ainf", dga_file, "--format", "machine",
                 "--out", str(cpath)]) == 0
    data = json.loads(cpath.read_text())
    assert data["ok"] is True


def test_missing_file_is_an_error(capsys):
    assert main(["verify", "ainf", "/nonexistent/file.json"]) == 2


def test_malformed_structure_exits_2(tmp_path, capsys):
    path = tmp_path / "malformed.json"
    path.write_text('{"kind": "ainf", "N": 3}')
    assert main(["verify", "ainf", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: $.complex: missing\n"


def test_column_given_as_int_exits_2(tmp_path, capsys):
    data = serialize.algebra_to_data(exterior_dga())
    data["operations"]["2"]["blocks"]["0"][1] = 7
    path = tmp_path / "bad_column.json"
    serialize.dump(str(path), data)
    assert main(["verify", "ainf", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: $.operations.2.blocks.0[1]: expected a list")
    assert "Traceback" not in err


def test_move_with_missing_map_exits_2(tmp_path, capsys):
    a = exterior_dga()
    m = AInfinityMorphism(a, a, {1: GradedMap.identity(a.space)}, 3)
    mpath, hpath = tmp_path / "mor.json", tmp_path / "maps.json"
    serialize.dump(str(mpath), serialize.morphism_to_data(m))
    serialize.dump(str(hpath), {"g": serialize.map_to_data(m.f(1))})
    assert main(["move", "m2", str(mpath), str(hpath),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: $.h: missing\n"
    assert not list(tmp_path.glob("out*"))
