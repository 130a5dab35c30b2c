"""Tests for the file formats and the batch command-line front end."""

import copy
import errno
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from shalg import serialize, transfer
from shalg.cli import COMMANDS, _map_witness, main
from shalg.operadcore import action_check
from shalg.exactlin import (
    ChainComplex,
    GradedMap,
    GradedVectorSpace,
    hom_differential,
    tensor_basis_tuples,
    tensor_maps_many,
    tensor_power,
)
from shalg.ainfty import (
    AInfinityAlgebra,
    AInfinityMorphism,
    an_residual,
    identity_morphism,
)
from shalg.transfer import (
    retract_residuals,
    riso_zero_extension,
    sdr_onto_homology,
)
from test_transfer import (
    coherent_morphism,
    exterior_dga,
    random_chain_complex,
    random_map,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


# --------------------------------------------------------------- fixtures


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


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"],
                         ids=["lf", "crlf", "cr"])
def test_parse_error_counts_lines_as_text_mode_does(newline, tmp_path):
    """The file is read as bytes, and its newlines are translated as a
    text-mode read translates them, so every newline style gives one
    position: the one json reports on the LF text, whose message differs
    between Python releases."""
    text = '{"dims":\n {"0": 2,}'
    with pytest.raises(json.JSONDecodeError) as lf:
        json.loads(text)
    path = tmp_path / "bad.json"
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))
    with pytest.raises(ValueError) as exc:
        serialize.load(str(path))
    assert lf.value.lineno == 2
    assert str(exc.value) == (f"{path}: line 2, column {lf.value.colno}: "
                              f"{lf.value.msg}")


def test_undecodable_file_is_named(tmp_path, capsys):
    """A file that is not UTF-8 is reported with its path, as a JSON
    error is, and exits 2."""
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"kind": "\xe9"}')
    with pytest.raises(ValueError) as exc:
        serialize.load(str(path))
    assert str(exc.value) == (f"{path}: 'utf-8' codec can't decode byte "
                              "0xe9 in position 10: invalid continuation "
                              "byte")
    assert main(["verify", "ainf", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {exc.value}\n"


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
    assert cert["checks"] == [
        {"name": "stasheff-identity-n2", "status": "fail",
         "residual_zero": False,
         "witness": {"degree": 1, "row": 1, "column": 0, "value": -2}},
        {"name": "stasheff-identity-n3", "status": "fail",
         "residual_zero": False,
         "witness": {"degree": 0, "row": 0, "column": 3, "value": 2}},
        {"name": "stasheff-identity-n4", "status": "pass",
         "residual_zero": True},
        {"name": "stasheff-identity-n5", "status": "pass",
         "residual_zero": True}]
    # arity 3's witness is not the residual's first entry in column order
    res = an_residual(serialize.algebra_from_data(data), 3)
    k = min(res.columns)
    j = min(res.columns[k])
    assert (k, min(res.columns[k][j]), j) != (0, 0, 3)


def test_verify_morphism_witnesses(tmp_path, capsys):
    """A sign error in f_2 of a coherent tower morphism breaks the
    identities of arities 2 to 4, each with its first row-major
    entry as the witness."""
    data = serialize.morphism_to_data(coherent_morphism(seed=1, N=4))
    blocks = data["components"]["2"]["blocks"]
    assert blocks["1"][1][0] == -3
    blocks["1"][1][0] = 3
    path = tmp_path / "mor.json"
    serialize.dump(str(path), data)
    assert main(["verify", "morphism", str(path), "--format",
                 "machine"]) == 1
    cert = json.loads(capsys.readouterr().out)
    assert [(c["name"], c["status"], c.get("witness"))
            for c in cert["checks"]] == [
        ("morphism-identity-n1", "pass", None),
        ("morphism-identity-n2", "fail",
         {"degree": 1, "row": 0, "column": 1, "value": 24}),
        ("morphism-identity-n3", "fail",
         {"degree": 1, "row": 0, "column": 1, "value": -12}),
        ("morphism-identity-n4", "fail",
         {"degree": 0, "row": 0, "column": 0, "value": 36})]


def test_verify_sdr_passes(sdr_file, capsys):
    assert main(["verify", "sdr", sdr_file]) == 0
    out = capsys.readouterr().out
    assert "[PASS] side-condition-homotopy-squared" in out


def _verify_sdr_parts(tmp_path, capsys, command=("verify", "sdr"), **maps):
    """verify sdr (or another command reading a retract file) on the
    exterior DGA's retract onto its homology with the given maps
    replaced; returns (exit status, parsed certificate or stderr, the
    five parts written)."""
    s = sdr_onto_homology(exterior_dga().complex)
    parts = {"nabla": s.nabla, "f": s.f, "phi": s.phi, **maps}
    path = tmp_path / "sdr_parts.json"
    serialize.dump(str(path), {
        "kind": "sdr", "big": serialize.complex_to_data(s.big),
        "small": serialize.complex_to_data(s.small),
        **{k: serialize.map_to_data(m) for k, m in parts.items()}})
    status = main([*command, str(path), "--format", "machine"])
    captured = capsys.readouterr()
    out = json.loads(captured.out) if status != 2 else captured.err
    return status, out, (s.big, s.small, parts["nabla"], parts["f"],
                         parts["phi"])


def test_verify_sdr_reports_zero_homotopy(tmp_path, capsys):
    sp = exterior_dga().space
    status, cert, parts = _verify_sdr_parts(
        tmp_path, capsys, phi=GradedMap.zero(sp, sp, 1))
    assert status == 1
    retract = cert["checks"][0]
    homotopy = retract_residuals(*parts)[3]
    assert not homotopy.is_zero()
    assert retract == {"name": "retract-identity", "status": "fail",
                       "residual_zero": False,
                       "witness": _map_witness(homotopy)}
    assert [c["status"] for c in cert["checks"][1:]] == ["pass"] * 3


def test_verify_sdr_reports_broken_retraction(tmp_path, capsys):
    s = sdr_onto_homology(exterior_dga().complex)
    status, cert, parts = _verify_sdr_parts(tmp_path, capsys,
                                            f=s.f.scale(2))
    assert status == 1
    residuals = retract_residuals(*parts)
    assert residuals[0].is_zero() and residuals[1].is_zero()
    assert cert["checks"][0] == {"name": "retract-identity",
                                 "status": "fail", "residual_zero": False,
                                 "witness": _map_witness(residuals[2])}


def test_verify_sdr_wrong_degree_homotopy_exits_2(tmp_path, capsys):
    sp = exterior_dga().space
    status, err, _ = _verify_sdr_parts(tmp_path, capsys,
                                       phi=GradedMap.zero(sp, sp, 0))
    assert status == 2
    assert err == "error: phi must be a degree +1 map on the big complex\n"


def test_verify_bound_n_truncates_checks(tmp_path, capsys):
    m = coherent_morphism(seed=1, N=4)
    data = serialize.morphism_to_data(m)
    assert "3" in data["components"]
    assert {"3", "4"} <= set(data["source"]["operations"])
    mpath, apath = tmp_path / "mor.json", tmp_path / "alg.json"
    serialize.dump(str(mpath), data)
    serialize.dump(str(apath), data["source"])
    for kind, path, names in (
            ("morphism", mpath, ["morphism-identity-n1",
                                 "morphism-identity-n2"]),
            ("ainf", apath, ["stasheff-identity-n2"])):
        assert main(["verify", kind, str(path), "--bound-n", "2",
                     "--format", "machine"]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["bounds"] == {"N": 2}
        assert [c["name"] for c in cert["checks"]] == names
        assert all(c["status"] == "pass" for c in cert["checks"])


def test_verify_bound_n_below_one_exits_2(dga_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "ainf", dga_file, "--bound-n", "0"])
    assert exc.value.code == 2
    assert "--bound-n: must be at least 1, got 0" in capsys.readouterr().err


def test_verify_ainf_bound_checking_nothing_exits_2(dga_file, capsys):
    """A bound below the lowest arity would print "OK: 0 passed" and
    exit 0: it is refused, naming the bound, and no certificate is
    printed."""
    assert main(["verify", "ainf", dga_file, "--bound-n", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --bound-n 1 checks no identity of {dga_file}\n"
    assert main(["verify", "ainf", dga_file, "--bound-n", "1",
                 "--format", "machine"]) == 2
    assert capsys.readouterr().out == ""


def test_verify_action_truncation_checking_nothing_exits_2(tmp_path,
                                                           capsys):
    """ass-minimal's generators start at arity 2, so truncation 1 would
    check none of them."""
    path = str(tmp_path / "action.json")
    serialize.dump(path, {
        "kind": "action", "presentation": "ass-minimal",
        "complexes": {"v": serialize.complex_to_data(exterior_dga().complex)},
        "truncation": 1})
    assert main(["verify", "action", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: truncation 1 checks no identity of {path}\n"


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
    # a truncation below 1 would check no generator and pass
    serialize.dump(str(path), {**data, "truncation": 0})
    assert main(["verify", "action", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: $.truncation: must be at least 1, got 0\n")


@pytest.mark.parametrize("table, old, new, renamed", [
    ("assignment", "l", "L", True),
    ("assignment", "l", "zz", False),
    ("complexes", "a", "c", False),
], ids=["typo", "extra-generator", "extra-color"])
def test_verify_action_rejects_unknown_names(table, old, new, renamed,
                                             tmp_path, capsys):
    """A generator or color name the presentation lacks is an input
    error naming it, not a map or complex silently dropped: l misspelt
    L would otherwise be checked as the zero map."""
    s = sdr_onto_homology(exterior_dga().complex)
    act = riso_zero_extension(s)["action"]
    data = {"kind": "action", "presentation": "riso",
            "complexes": {"a": serialize.complex_to_data(act.small),
                          "b": serialize.complex_to_data(act.big)},
            "assignment": {n: serialize.map_to_data(m)
                           for n, m in act.assignment.items()}}
    entries = data[table]
    entries[new] = entries.pop(old) if renamed else entries[old]
    what = "generator" if table == "assignment" else "color"
    path = tmp_path / "action.json"
    serialize.dump(str(path), data)
    assert main(["verify", "action", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: $.{table}.{new}: no {what} of riso\n")


def test_verify_action_refuses_an_unknown_presentation(tmp_path, capsys):
    """A presentation that names no bundled model is an input error at
    its JSON path, as every other input error is."""
    path = str(tmp_path / "action.json")
    serialize.dump(path, dict(ground_field_action(3, []),
                              presentation="foo"))
    assert main(["verify", "action", path]) == 2
    assert capsys.readouterr().err == (
        "error: $.presentation: unknown presentation 'foo'\n")


def test_verify_action_failure_witness_is_the_residuals_first_entry(
        tmp_path, capsys):
    """g scaled by 2 breaks d(h) = gf - 1 and d(l) = fg - 1, so the
    action fails with exit status 1.  Each witness is the first nonzero
    entry of the residual action_check reports, [m, d] - value(d gen),
    as every identity check reports one."""
    s = sdr_onto_homology(exterior_dga().complex)
    act = riso_zero_extension(s)["action"]
    assignment = dict(act.assignment, g=act.assignment["g"].scale(2))
    data = {"kind": "action", "presentation": "riso",
            "complexes": {"a": serialize.complex_to_data(act.small),
                          "b": serialize.complex_to_data(act.big)},
            "assignment": {name: serialize.map_to_data(m)
                           for name, m in assignment.items()}}
    path = tmp_path / "action.json"
    serialize.dump(str(path), data)
    assert main(["verify", "action", str(path), "--format", "machine"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)[
        "checks"]}
    entries = action_check(*serialize.action_from_data(data))["entries"]
    assert [e["generator"] for e in entries if not e["ok"]] == ["h", "l"]
    for e in entries:
        check = checks[f"action-compatibility-{e['generator']}"]
        assert check["residual_zero"] is e["ok"]
        assert check.get("witness") == _map_witness(e["residual"])
    witness = checks["action-compatibility-h"]["witness"]
    assert set(witness) == {"degree", "row", "column", "value"}


def ground_field_action(truncation, zero_arities):
    """An ass-minimal action file on Q in degree 0 that assigns mu2 its
    product and mu_n the zero map for each n of zero_arities."""
    sp = GradedVectorSpace({0: 1})
    mu2 = GradedMap(tensor_power(sp, 2), sp, 0, {0: [[1]]})
    cx = ChainComplex(sp, GradedMap.zero(sp, sp, -1))
    table = {"mu2": serialize.map_to_data(mu2)}
    table.update((f"mu{n}", serialize.map_to_data(
        GradedMap.zero(tensor_power(sp, n), sp, n - 2)))
        for n in zero_arities)
    return {"kind": "action", "presentation": "ass-minimal",
            "complexes": {"v": serialize.complex_to_data(cx)},
            "assignment": table, "truncation": truncation}


def test_verify_action_checks_up_to_its_truncation(tmp_path, capsys):
    """ass-minimal is built at the file's own truncation: at 9 every
    generator mu2..mu9 is checked, and mu8 may be assigned."""
    path = str(tmp_path / "action.json")
    serialize.dump(path, ground_field_action(9, [8]))
    assert main(["verify", "action", path, "--format", "machine"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in cert["checks"]] == [
        f"action-compatibility-mu{n}" for n in range(2, 10)]


def test_verify_action_refuses_a_generator_above_its_truncation(tmp_path,
                                                                capsys):
    """At truncation 3 the model has no mu5, so assigning it is an input
    error, as an operation above N is in a structure file."""
    path = str(tmp_path / "action.json")
    serialize.dump(path, ground_field_action(3, [5]))
    assert main(["verify", "action", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: $.assignment.mu5: no generator of ass-minimal\n"


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


def test_move_m1_checks_each_retract_identity_once(dga_file, sdr_file,
                                                  tmp_path, monkeypatch):
    """The command's hypothesis check and transfer_M1 both ask for the
    side conditions of the retract; they are evaluated once, so move m1
    runs 7 riso residuals: the 4 retract identities that reading the
    retract checks, then the 3 side conditions."""
    names = []
    residual = transfer.generator_residual

    def counting(pres, action, complexes, name):
        names.append(name)
        return residual(pres, action, complexes, name)

    monkeypatch.setattr(transfer, "generator_residual", counting)
    assert main(["move", "m1", dga_file, sdr_file,
                 "--out", str(tmp_path / "out")]) == 0
    assert names == ["f", "g", "h", "l", "g3", "f2", "g2"]


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


def test_move_m1_rejects_retract_of_another_differential(dga_file, tmp_path,
                                                         capsys):
    a = exterior_dga()
    s = sdr_onto_homology(ChainComplex.zero_differential(a.space))
    spath = tmp_path / "other_sdr.json"
    serialize.dump(str(spath), serialize.sdr_to_data(s))
    out = str(tmp_path / "out")
    assert main(["move", "m1", dga_file, str(spath), "--out", out,
                 "--format", "machine"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks == [
        {"name": "hypothesis-retract-data", "status": "fail",
         "witness": "structure does not live on the big complex"},
        {"name": "hypothesis-side-conditions", "status": "pass"}]
    assert not os.path.exists(out + ".structure.json")
    assert not os.path.exists(out + ".morphism.json")


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


@pytest.mark.parametrize("move", ["m2", "m4"])
def test_move_returning_its_input_honours_bound_n(move, tmp_path, capsys):
    """m2 along the zero homotopy of the underlying map and m4 without a
    perturbation return their input: truncated at --bound-n, so they
    check and write arities 1 and 2 only, as every move does."""
    m = coherent_morphism(seed=1, N=4)
    assert "3" in serialize.morphism_to_data(m)["components"]
    mpath, ppath = tmp_path / "mor.json", tmp_path / "pert.json"
    serialize.dump(str(mpath), serialize.morphism_to_data(m))
    serialize.dump(str(ppath), {
        "g": serialize.map_to_data(m.f(1)),
        "h": serialize.map_to_data(GradedMap.zero(m.source.space,
                                                  m.target.space, 1))})
    out = str(tmp_path / "out")
    inputs = [str(mpath)] + [str(ppath)] * (move == "m2")
    assert main(["move", move, *inputs, "--bound-n", "2", "--out", out,
                 "--format", "machine"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["bounds"] == {"N": 2}
    assert [c["name"] for c in cert["checks"]
            if c["name"].startswith("output-morphism")] == [
        "output-morphism-identity-n1", "output-morphism-identity-n2"]
    written = serialize.load(out + ".morphism.json")
    assert written["N"] == 2
    assert set(written["components"]) <= {"1", "2"}


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


def test_move_m4_rejects_a_different_middle_structure(dga_file, tmp_path,
                                                      capsys):
    """Both morphisms live on one complex, but the middle algebras
    differ in mu_2: the chain is not composable."""
    a = exterior_dga()
    scaled = AInfinityAlgebra(a.complex, {2: a.mu(2).scale(2)}, a.N)
    half = GradedMap.identity(a.space).scale(Fraction(1, 2))
    paths = [tmp_path / "f.json", tmp_path / "id.json"]
    for path, m in zip(paths, [AInfinityMorphism(a, scaled, {1: half}),
                               AInfinityMorphism(a, a, {1: half.scale(2)})]):
        serialize.dump(str(path), serialize.morphism_to_data(m))
    out = str(tmp_path / "c")
    assert main(["move", "m4", *map(str, paths), "--out", out]) == 1
    text = capsys.readouterr().out
    assert ("[FAIL] hypothesis-composable-chain  "
            "witness=\"morphisms are not composable\"") in text
    assert "[PASS] hypothesis-composable-chain" not in text
    assert "[FAIL] hypotheses" not in text
    assert not os.path.exists(out + ".morphism.json")


def _failing_move_data(move):
    """The second input file of a move on the exterior DGA whose named
    hypothesis fails: g is twice the identity, which no zero homotopy
    relates to the identity."""
    sp = exterior_dga().space
    ident, zero = GradedMap.identity(sp), GradedMap.zero(sp, sp, 1)
    maps = {"g": ident.scale(2), "h": zero}
    if move == "m3":
        maps["l"] = zero
    if move == "s":
        maps.update(target=exterior_dga().complex, f=ident)
    return {k: serialize.complex_to_data(v) if k == "target"
            else serialize.map_to_data(v) for k, v in maps.items()}


@pytest.mark.parametrize("move, hypothesis, witness", [
    ("m2", "homotopy-between-chain-maps",
     "h is not a homotopy from underlying(m) to g"),
    ("m3", "homotopy-equivalence", "h is not a homotopy from 1 to g f"),
    ("s", "one-sided-retraction", "h is not a homotopy from 1 to g f"),
], ids=["m2", "m3", "s"])
def test_move_records_its_failed_hypothesis(move, hypothesis, witness,
                                            tmp_path, capsys):
    """A move that rejects its data fails its named hypothesis, with the
    move's message as witness, and never passes it first."""
    a = exterior_dga()
    first = (serialize.algebra_to_data(a) if move == "s" else
             serialize.morphism_to_data(identity_morphism(a)))
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path, data in zip(paths, [first, _failing_move_data(move)]):
        serialize.dump(str(path), data)
    out = str(tmp_path / "out")
    assert main(["move", move, *map(str, paths), "--out", out]) == 1
    assert capsys.readouterr().out == (
        f"[FAIL] hypothesis-{hypothesis}  witness=\"{witness}\"\n"
        "FAILED: 0 passed, 1 failed\n")
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("move, hypothesis", [
    ("m2", "homotopy-between-chain-maps"),
    ("m3", "homotopy-equivalence")])
def test_move_on_incoherent_input_fails_extension_solvable(
        move, hypothesis, tmp_path, capsys):
    """A source whose mu_4 is one entry off a coherent structure leaves
    the arity-4 Taylor coefficient of the rebuilt morphism unsolvable:
    the move prints its certificate with the arity as witness, exits 1
    and writes nothing."""
    m = coherent_morphism(1)
    V, W = m.source, m.target
    mus = {n: V.mu(n) for n in range(2, 5)}
    mus[4] = mus[4].add(GradedMap.from_columns(
        mus[4].source, V.space, 2, {0: {0: {0: Fraction(1)}}}))
    bad = AInfinityMorphism(AInfinityAlgebra(V.complex, mus, 4), W,
                            {n: m.f(n) for n in range(1, 5)}, 4)
    if move == "m2":
        h = random_map(random.Random(3), V.space, W.space, 1)
        maps = {"g": m.f(1).add(hom_differential(h, [V.complex], W.complex)),
                "h": h}
    else:
        zero = GradedMap.zero(V.space, V.space, 1)
        maps = {"g": GradedMap.identity(V.space), "h": zero, "l": zero}
    paths = [tmp_path / "bad.json", tmp_path / "maps.json"]
    serialize.dump(str(paths[0]), serialize.morphism_to_data(bad))
    serialize.dump(str(paths[1]), {k: serialize.map_to_data(v)
                                   for k, v in maps.items()})
    out = str(tmp_path / "out")
    assert main(["move", move, *map(str, paths), "--out", out]) == 1
    assert capsys.readouterr().out == (
        f"[PASS] hypothesis-{hypothesis}\n"
        "[FAIL] extension-solvable  witness={\"arity\": 4}\n"
        "FAILED: 1 passed, 1 failed\n")
    assert not list(tmp_path.glob("out*"))


def test_failed_second_write_leaves_no_output(dga_file, sdr_file, tmp_path,
                                              monkeypatch, capsys):
    """move m1 writes its two files as one step: when the second cannot
    be written (here the disk is full), the command exits 2 naming it,
    and neither the first output nor a temporary file is left."""
    import tempfile
    mkstemp, made = tempfile.mkstemp, []

    def full_on_second(*args, **kwargs):
        made.append(kwargs)
        if len(made) == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return mkstemp(*args, **kwargs)

    monkeypatch.setattr(tempfile, "mkstemp", full_on_second)
    out = str(tmp_path / "out")
    before = sorted(tmp_path.rglob("*"))
    assert main(["move", "m1", dga_file, sdr_file, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {out}.morphism.json: "
                            f"{os.strerror(errno.ENOSPC)}\n")
    assert len(made) == 2 and not os.path.exists(out + ".structure.json")
    assert sorted(tmp_path.rglob("*")) == before


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


def _unusable_inputs(tmp_path):
    """{name: path} of input files on the exterior DGA: usable ones (dga,
    retract, mor, pert, onesided), one unusable file for each case of
    test_unusable_input_is_refused, and a path with no file (missing)."""
    a = exterior_dga()
    s = sdr_onto_homology(a.complex)
    sp = a.space
    ident, zero = GradedMap.identity(sp), GradedMap.zero

    def retract(phi):
        return {"kind": "sdr", "big": serialize.complex_to_data(s.big),
                "small": serialize.complex_to_data(s.small),
                "nabla": serialize.map_to_data(s.nabla),
                "f": serialize.map_to_data(s.f),
                "phi": serialize.map_to_data(phi)}

    def maps(target=None, **given):
        data = {k: serialize.map_to_data(m) for k, m in given.items()}
        if target is not None:
            data["target"] = serialize.complex_to_data(target)
        return data

    mor = serialize.morphism_to_data(identity_morphism(a))
    d2 = copy.deepcopy(mor)  # d o d maps the degree-2 basis vector to 1
    d2["source"]["complex"] = {"dims": {"0": 1, "1": 2, "2": 1},
                               "differential": {"1": [[1], [0]],
                                                "2": [[1, 0]]}}
    files = {
        "dga": serialize.algebra_to_data(a), "retract": retract(s.phi),
        "mor": mor, "d2": d2,
        "pert": maps(g=ident, h=zero(sp, sp, 1)),
        "onesided": maps(s.small, f=s.f, g=s.nabla, h=s.phi),
        "phi0": retract(zero(sp, sp, 0)), "phizero": retract(zero(sp, sp, 1)),
        "pert_h0": maps(g=ident, h=zero(sp, sp, 0)),
        "onesided_h2": maps(s.small, f=s.f, g=s.nabla, h=zero(sp, sp, 2)),
        "inverse_g1": maps(g=zero(sp, sp, 1), h=zero(sp, sp, 1),
                           l=zero(sp, sp, 1))}
    paths = {"missing": str(tmp_path / "missing.json")}
    for name, data in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        serialize.dump(paths[name], data)
    return paths


def _argv(words, paths, tmp_path):
    """A command line with _unusable_inputs' names for its inputs; a
    move writes under tmp_path/out."""
    argv = [paths.get(word, word) for word in words]
    return argv + ["--out", str(tmp_path / "out")] * (argv[0] == "move")


@pytest.mark.parametrize("commands, message", [
    (["verify morphism d2", "move m2 d2 pert", "move m4 d2"],
     "differential does not square to zero"),
    (["verify sdr phi0", "operad riso-extend phi0", "move m1 dga phi0"],
     "phi must be a degree +1 map on the big complex"),
    (["move m1 dga phizero"], "phi is not a homotopy from 1 to nabla . f"),
    (["move m1 dga retract --bound-n 1", "move s dga onesided --bound-n 1",
      "move m1 missing retract --bound-n 1"],
     "--bound-n 1 transfers no operation (operations start at arity 2)"),
    (["move m2 mor pert_h0"], "$.h.degree: expected 1, got 0"),
    (["move s dga onesided_h2"], "$.h.degree: expected 1, got 2"),
    (["move m3 mor inverse_g1"], "$.g.degree: expected 0, got 1"),
], ids=["d-squared", "phi-degree-0", "not-a-retract", "bound-n-1",
        "m2-h-degree-0", "s-h-degree-2", "m3-g-degree-1"])
def test_unusable_input_is_refused(commands, message, tmp_path, capsys):
    """An unusable input or bound is refused alike by every command that
    reads it: exit 2, the same message, no certificate and no output.
    No move turns it into a failed check.  Retract files are read as
    retracts by move m1 and --bound-n 1 leaves m1 and s no operation to
    transfer, refused before any input is read; each map of a move file
    has its own degree, 0 for f and g and 1 for h and l."""
    paths = _unusable_inputs(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    for command in commands:
        assert main(_argv(command.split(), paths, tmp_path)) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv, patched, message", [
    (["operad", "homology", "riso", "--arity", "1", "--length", "5"],
     "shalg.cli.truncated_homology",
     "out of memory; lower --arity or --length"),
    (["move", "m1", "dga", "retract"], "shalg.transfer.transfer_M1",
     "out of memory; lower --bound-n"),
    (["verify", "sdr", "retract"], "shalg.transfer.retract_residuals",
     "out of memory"),
], ids=["operad-homology", "move-m1", "verify-sdr"])
def test_out_of_memory_exits_2_naming_the_bounds(argv, patched, message,
                                                 tmp_path, monkeypatch,
                                                 capsys):
    """A command that runs out of memory exits 2 with a message naming
    the bounds it reads, if any, and prints no certificate or
    traceback."""
    def exhausted(*args, **kwargs):
        raise MemoryError

    argv = _argv(argv, _unusable_inputs(tmp_path), tmp_path)
    monkeypatch.setattr(patched, exhausted)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not list(tmp_path.glob("out*"))


# ----------------------------------------------------------------- operad


def test_operad_d2_builtins(capsys):
    assert main(["operad", "d2", "ass-minimal", "--arity", "5"]) == 0
    assert main(["operad", "d2", "ass-arrow-minimal", "--arity", "4"]) == 0
    assert main(["operad", "d2", "riso"]) == 0


def test_operad_d2_arity_checking_nothing_exits_2(tmp_path, capsys):
    """ass-minimal has no generator of arity 1: the certificate would
    check nothing and pass, so the bound is refused and nothing is
    printed or written."""
    cert = tmp_path / "cert.json"
    assert main(["operad", "d2", "ass-minimal", "--arity", "1",
                 "--format", "machine", "--out", str(cert)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --arity 1 checks no generator of ass-minimal\n"
    assert not cert.exists()
    assert main(["operad", "d2", "ass-arrow-minimal", "--arity", "1"]) == 0


def test_operad_kunneth(capsys):
    assert main(["operad", "kunneth", "--arity", "3"]) == 0


def test_operad_tree_dims_arity9_certificate(capsys):
    """The machine certificate of the largest bundled tree count, less
    its wall time, as the set-partition enumeration computed it."""
    assert main(["operad", "tree-dims", "ass-minimal-3", "free-binary",
                 "--arity", "9", "--format", "machine"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert.pop("wall_time") >= 0
    assert cert == {
        "bounds": {"arity": 9, "length": None},
        "checks": [{"name": "tree-decomposition-arity9", "status": "pass",
                    "witness": {"0": 132843110400, "1": 116237721600,
                                "2": 29059430400, "3": 2075673600,
                                "4": 19958400}}],
        "command": ["operad", "tree-dims", "ass-minimal-3", "free-binary"],
        "inputs": {}, "ok": True}


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


def test_operad_riso_extend_reports_non_retract(tmp_path, capsys):
    """A zero homotopy is no retract: the zero extension fails at the
    homotopy's generator, with the homotopy residual as obstruction."""
    sp = exterior_dga().space
    status, cert, parts = _verify_sdr_parts(
        tmp_path, capsys, ("operad", "riso-extend"),
        phi=GradedMap.zero(sp, sp, 1))
    assert status == 1
    homotopy = retract_residuals(*parts)[3]
    assert cert["checks"] == [{
        "name": "zero-extension", "status": "fail", "residual_zero": False,
        "witness": {"failed_generator": "l",
                    "obstruction": _map_witness(homotopy)}}]


def test_operad_riso_extend_wrong_degree_homotopy_exits_2(tmp_path, capsys):
    sp = exterior_dga().space
    status, err, _ = _verify_sdr_parts(tmp_path, capsys,
                                       ("operad", "riso-extend"),
                                       phi=GradedMap.zero(sp, sp, 0))
    assert status == 2
    assert err == "error: phi must be a degree +1 map on the big complex\n"


def _digests(*paths):
    """{path as given: SHA-256 hex digest} of each file, through
    hashlib."""
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[path] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_operad_riso_extend_records_input_hash(sdr_file, capsys):
    assert main(["operad", "riso-extend", sdr_file,
                 "--format", "machine"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["inputs"] == _digests(sdr_file)


def test_verify_ainf_records_input_hash(dga_file, capsys):
    assert main(["verify", "ainf", dga_file, "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["inputs"] == _digests(dga_file)


def test_move_records_input_hashes(dga_file, sdr_file, tmp_path, capsys):
    assert main(["move", "m1", dga_file, sdr_file,
                 "--out", str(tmp_path / "out"), "--format", "machine"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["inputs"] == _digests(dga_file, sdr_file)


def test_inputs_with_one_file_name_keep_both_digests(tmp_path, capsys):
    """Inputs are keyed by the path as given, so two files of one name in
    different directories each keep their digest."""
    a = exterior_dga()
    paths = []
    for folder, N in (("x", 4), ("y", 5)):
        (tmp_path / folder).mkdir()
        paths.append(str(tmp_path / folder / "m.json"))
        serialize.dump(paths[-1], serialize.morphism_to_data(
            AInfinityMorphism(a, a, {1: GradedMap.identity(a.space)}, N)))
    assert main(["move", "m4", *paths, "--out", str(tmp_path / "out"),
                 "--format", "machine"]) == 0
    inputs = json.loads(capsys.readouterr().out)["inputs"]
    assert inputs == _digests(*paths)
    assert len(set(inputs.values())) == 2


@pytest.mark.parametrize("command", [
    ["verify", "ainf", "{dga}"],
    ["move", "m1", "{dga}", "{sdr}", "--out", "{out}"],
    ["operad", "riso-extend", "{sdr}"],
], ids=lambda c: "-".join(c[:2]))
def test_each_input_is_read_once_and_hashed_as_parsed(
        command, dga_file, sdr_file, tmp_path, monkeypatch, capsys):
    """Each input file is opened once, and its recorded digest is that
    of the bytes parsed, even when the file is replaced right after it
    was opened."""
    files = {"dga": dga_file, "sdr": sdr_file, "out": str(tmp_path / "out")}
    argv = [arg.format(**files) for arg in command]
    parsed = {files[k]: pathlib.Path(files[k]).read_bytes()
              for k in ("dga", "sdr") if f"{{{k}}}" in command}
    opened = []
    real_open = open

    def open_then_replace(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        if file in parsed:
            opened.append(file)
            serialize.dump(file, parsed[file].decode("utf-8") + "\n")
        return fh

    monkeypatch.setattr("builtins.open", open_then_replace)
    assert main([*argv, "--format", "machine"]) == 0
    assert sorted(opened) == sorted(parsed)
    assert json.loads(capsys.readouterr().out)["inputs"] == {
        path: hashlib.sha256(raw).hexdigest()
        for path, raw in parsed.items()}


@pytest.mark.parametrize("argv, message", [
    (["operad", "d2"], "operad d2 takes 1 argument, got 0"),
    (["operad", "homology"], "operad homology takes 1 argument, got 0"),
    (["operad", "tree-dims", "ass-minimal"],
     "operad tree-dims takes 2 arguments, got 1"),
    (["operad", "riso-extend"], "operad riso-extend takes 1 argument, got 0"),
    (["operad", "riso-extend", "{dga}", "{dga}"],
     "operad riso-extend takes 1 argument, got 2"),
    (["operad", "kunneth", "ass-minimal"],
     "operad kunneth takes 0 arguments, got 1"),
    (["operad", "alpha", "riso"], "operad alpha takes 0 arguments, got 1"),
    (["move", "m1", "{dga}", "--out", "{out}"],
     "move m1 takes 2 arguments, got 1"),
    (["move", "m2", "{dga}", "--out", "{out}"],
     "move m2 takes 2 arguments, got 1"),
    (["move", "m3", "{dga}", "{dga}", "{dga}", "--out", "{out}"],
     "move m3 takes 2 arguments, got 3"),
    (["move", "s", "{dga}", "--out", "{out}"],
     "move s takes 2 arguments, got 1"),
    (["verify", "ainf", "{dga}", "{dga}"],
     "verify ainf takes 1 argument, got 2"),
], ids=lambda x: "-".join(x[:2]) if isinstance(x, list) else x[-1])
def test_wrong_argument_count_exits_2(argv, message, dga_file, tmp_path,
                                      capsys):
    """A missing or extra positional argument is an input error, found
    before any file is read or written."""
    files = {"dga": dga_file, "out": str(tmp_path / "out")}
    assert main([arg.format(**files) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dga.json"]


@pytest.mark.parametrize("command", [None, "verify", "move", "operad"])
def test_help_lists_every_choice_and_option(command, capsys):
    """-h exits 0 and lists what the command table holds: the commands,
    or a command's choices, with the inputs each reads, and options."""
    with pytest.raises(SystemExit) as exc:
        main(["-h"] if command is None else [command, "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    if command is None:
        words = [*COMMANDS, *(row["help"] for row in COMMANDS.values())]
    else:
        row = COMMANDS[command]
        words = [*row["files"], "--bound-n", "--arity", "--length",
                 "--format", "--out", row["help"],
                 *(f"{choice} {'1 or more' if n is None else n}"
                   for choice, n in row["files"].items())]
    assert [w for w in ["-h, --help", *words] if w not in out] == []


def test_help_reads_sys_argv():
    """The console script calls main() with no argv: sys.argv[1:] is
    read."""
    run = subprocess.run([sys.executable, "-S", "-m", "shalg.cli", "-h"],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.startswith("usage: shalg [-h] {verify,move,operad}")


def test_hashlib_fallback_gives_the_same_digests(dga_file):
    """On an interpreter without the built-in _sha2/_sha256 module, input
    hashes come from hashlib, and they are the same digests."""
    code = ("import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "from shalg.cli import main\n"
            f"main(['verify', 'ainf', {dga_file!r}, '--format', 'machine'])\n"
            "print('hashlib' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    cert, fell_back = out.rstrip("\n").rsplit("\n", 1)
    assert fell_back == "True"
    assert json.loads(cert)["inputs"] == _digests(dga_file)


def test_operad_alpha(capsys):
    assert main(["operad", "alpha", "--length", "4"]) == 0


@pytest.mark.parametrize("argv", [
    ["operad", "homology", "ass-minimal", "--arity", "0"],
    ["operad", "d2", "ass-minimal", "--arity", "-3"],
    ["operad", "alpha", "--length", "-1"],
    ["operad", "homology", "ass-minimal", "--length", "0"],
])
def test_operad_bounds_below_one_exit_2(argv, capsys):
    """An arity or length below 1 is an input error: it would otherwise
    stand for the default, check nothing, or fail every check."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    flag, value = argv[-2:]
    assert (f"{flag}: must be at least 1, got {value}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["operad", "homology", "ass-minimal"],
    ["operad", "tree-dims", "ass-minimal-3", "free-binary"],
])
def test_operad_default_arity_is_recorded(argv, capsys):
    assert main([*argv, "--format", "machine"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["bounds"] == {"arity": 3, "length": None}
    assert cert["checks"][0]["name"].endswith("-arity3")


# The bound options each choice reads; --format and --out are read by all.
READS = {("verify", "ainf"): {"--bound-n"},
         ("verify", "morphism"): {"--bound-n"},
         ("verify", "sdr"): set(), ("verify", "action"): set(),
         **{("move", m): {"--bound-n"} for m in ("m1", "m2", "m3", "m4", "s")},
         ("operad", "d2"): {"--arity"}, ("operad", "kunneth"): {"--arity"},
         ("operad", "tree-dims"): {"--arity"},
         ("operad", "homology"): {"--arity", "--length"},
         ("operad", "alpha"): {"--length"}, ("operad", "riso-extend"): set()}
UNREAD = [(cmd, choice, option) for (cmd, choice), reads in READS.items()
          for option in ("--bound-n", "--arity", "--length")
          if option not in reads]


@pytest.mark.parametrize("cmd, choice, option", UNREAD,
                         ids=lambda x: x.lstrip("-"))
def test_unread_option_exits_2(cmd, choice, option, tmp_path, capsys):
    """An option the command never reads is refused before any input is
    read: it would be ignored, or recorded in the bounds as if checked."""
    n = COMMANDS[cmd]["files"][choice]
    files = [str(tmp_path / f"in{i}.json")
             for i in range(2 if n is None else n)]
    out = str(tmp_path / "out")
    assert main([cmd, choice, *files, option, "3", "--format", "machine",
                 "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cmd} {choice} does not read {option}\n"
    assert list(tmp_path.iterdir()) == []


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


def test_verify_ainf_exterior_dga_at_n10(tmp_path, capsys):
    a = exterior_dga()
    path = tmp_path / "dga10.json"
    serialize.dump(str(path), serialize.algebra_to_data(
        AInfinityAlgebra(a.complex, {2: a.mu(2)}, 10)))
    assert main(["verify", "ainf", str(path), "--format", "machine"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in cert["checks"]] == [
        f"stasheff-identity-n{n}" for n in range(2, 11)]
    assert all(c["status"] == "pass" for c in cert["checks"])


def test_certificate_written_to_file(dga_file, tmp_path, capsys):
    cpath = tmp_path / "cert.json"
    assert main(["verify", "ainf", dga_file, "--format", "machine",
                 "--out", str(cpath)]) == 0
    data = json.loads(cpath.read_text())
    assert data["ok"] is True


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002],
                         ids=lambda u: f"{u:03o}")
def test_written_files_get_the_mode_open_gives(dga_file, tmp_path, umask):
    """Certificates and move outputs are created with 0o666 less the
    umask, like a file that open() creates."""
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        assert main(["verify", "ainf", dga_file,
                     "--out", str(tmp_path / "cert.json")]) == 0
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode & 0o777
             for p in tmp_path.iterdir() if p.name != "dga.json"}
    assert modes == {"plain": 0o666 & ~umask, "cert.json": 0o666 & ~umask}


@pytest.mark.parametrize("command, out", [
    ("move", ""), ("move", "."), ("move", "sub/"), ("move", "sub/.."),
    ("move", "missing/out"), ("verify", ""), ("verify", "sub"),
    ("verify", "sub/"), ("verify", "missing/cert.json")])
def test_out_naming_no_file_is_rejected_before_any_work(
        command, out, dga_file, sdr_file, tmp_path, monkeypatch, capsys):
    """An --out that names no file, or whose directory is missing, exits
    2 before any work: no certificate is printed and nothing is
    written, hidden files included."""
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    argv = (["move", "m1", dga_file, sdr_file] if command == "move"
            else ["verify", "ainf", dga_file])
    assert main([*argv, f"--out={out}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --out {out!r}")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("move, suffix", [
    ("m1", ".structure.json"), ("m1", ".morphism.json"),
    ("s", ".structure.json"), ("m2", ".morphism.json"),
    ("m4", ".morphism.json")])
def test_move_output_that_is_a_directory_is_rejected_before_any_work(
        move, suffix, dga_file, sdr_file, tmp_path, capsys):
    """A file the move would write that is an existing directory exits 2
    before any work: no certificate is printed and nothing is written."""
    out = str(tmp_path / "out")
    os.mkdir(out + suffix)
    before = sorted(tmp_path.rglob("*"))
    files = [dga_file] if move == "m4" else [dga_file, sdr_file]
    assert main(["move", move, *files, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --out {out!r}: {out + suffix!r} is a "
                            "directory\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv", [
    ["verify", "ainf"], ["operad", "riso-extend"], ["move", "m1", None]],
    ids=["verify", "operad", "move"])
def test_input_that_is_a_directory_exits_2(argv, sdr_file, tmp_path,
                                           capsys):
    """An input path that names a directory is reported with its path and
    the system's reason, with no traceback and nothing written."""
    before = sorted(tmp_path.rglob("*"))
    argv = [sdr_file if a is None else a for a in argv]
    out = ["--out", str(tmp_path / "out")]
    assert main([*argv[:2], str(tmp_path), *argv[2:], *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {tmp_path}: "
                            f"{os.strerror(errno.EISDIR)}\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["verify", "move"])
def test_failed_write_exits_2_naming_the_output(command, dga_file, sdr_file,
                                                tmp_path, capsys):
    """A write the system refuses, here a file name longer than the file
    system allows, exits 2 with the output's path and the system's
    reason, and leaves no temporary file behind."""
    out = str(tmp_path / ("c" * 300))
    argv = (["move", "m1", dga_file, sdr_file] if command == "move"
            else ["verify", "ainf", dga_file])
    before = sorted(tmp_path.rglob("*"))
    assert main([*argv, "--out", out]) == 2
    written = out + ".structure.json" if command == "move" else out
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {written}: "
                            f"{os.strerror(errno.ENAMETOOLONG)}\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_missing_file_is_an_error(capsys):
    assert main(["verify", "ainf", "/nonexistent/file.json"]) == 2
    assert capsys.readouterr().err == (f"error: /nonexistent/file.json: "
                                       f"{os.strerror(errno.ENOENT)}\n")


def test_malformed_structure_exits_2(tmp_path, capsys):
    path = tmp_path / "malformed.json"
    path.write_text('{"kind": "ainf", "N": 3}')
    assert main(["verify", "ainf", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: $.complex: missing\n"


@pytest.mark.parametrize("key, old, new", [
    ("N", '{', '{"N": 9, '),
    ("2", '"operations": {', '"operations": {"2": {}, ')],
    ids=["top-level", "nested"])
def test_duplicate_key_exits_2(key, old, new, tmp_path, capsys):
    """json keeps the last of two equal keys; a file that names one key
    twice, at the top or deeper, is refused, not read as the last."""
    data = serialize.algebra_to_data(exterior_dga())
    data["N"] = 4
    text = json.dumps(data)
    assert old in text
    path = tmp_path / "duplicate.json"
    path.write_text(text.replace(old, new, 1))
    assert main(["verify", "ainf", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: duplicate key {key!r}\n"


def test_column_given_as_int_exits_2(tmp_path, capsys):
    data = serialize.algebra_to_data(exterior_dga())
    data["operations"]["2"]["blocks"]["0"][1] = 7
    path = tmp_path / "bad_column.json"
    serialize.dump(str(path), data)
    assert main(["verify", "ainf", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: $.operations.2.blocks.0[1]: expected a list")
    assert "Traceback" not in err


@pytest.mark.parametrize("entry, message", [
    ("1.5", "not a rational: '1.5' (expected an integer or \"p/q\")"),
    ("1e3", "not a rational: '1e3' (expected an integer or \"p/q\")"),
    ("1/0", "zero denominator in '1/0'"),
])
def test_entry_outside_the_rational_grammar_exits_2(entry, message,
                                                    tmp_path, capsys):
    """Entries are integers or "p/q" strings: a decimal or exponent
    string is refused at its JSON path, not read as 3/2 or 1000."""
    data = serialize.algebra_to_data(exterior_dga())
    data["operations"]["2"]["blocks"]["0"][0][0] = entry
    path = tmp_path / "bad_entry.json"
    serialize.dump(str(path), data)
    assert main(["verify", "ainf", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: $.operations.2.blocks.0[0][0]: {message}\n"


@pytest.mark.parametrize("text", ["1_0", "\u0663", " 1 ", "01", "+1", "-0"])
def test_integer_outside_the_canonical_grammar_exits_2(text, tmp_path,
                                                       capsys):
    """Integer fields are JSON integers or the string str() writes:
    underscores, non-ASCII digits, whitespace, a leading zero or a sign
    of a non-negative number are refused at the JSON path, not read as
    10, 3 or 1."""
    data = serialize.algebra_to_data(exterior_dga())
    data["N"] = text
    path = tmp_path / "bad_int.json"
    serialize.dump(str(path), data)
    assert main(["verify", "ainf", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: $.N: expected an integer, got "
                            f"{text!r}\n")


def test_keys_naming_one_integer_twice_exit_2(tmp_path, capsys):
    """"0" and "00" would both read as degree 0, the second silently
    replacing the first: "00" is no integer key."""
    data = serialize.algebra_to_data(exterior_dga())
    data["complex"]["dims"]["00"] = data["complex"]["dims"]["0"]
    path = tmp_path / "dup_key.json"
    serialize.dump(str(path), data)
    assert main(["verify", "ainf", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: $.complex.dims: expected an integer, got '00'\n")


def test_morphism_claiming_arities_its_algebras_lack_exits_2(tmp_path,
                                                             capsys):
    """A morphism of order 6 between algebras of order 4 would read
    their missing mu_5 and mu_6 as zero and pass those identities: the
    order is refused, by the file reader and by the constructor."""
    m = coherent_morphism(seed=1, N=4)
    with pytest.raises(ValueError, match="exceeds the algebras' orders"):
        AInfinityMorphism(m.source, m.target, {1: m.f(1)}, 5)
    data = serialize.morphism_to_data(m)
    data["N"] = 6
    path = tmp_path / "mor6.json"
    serialize.dump(str(path), data)
    assert main(["verify", "morphism", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: $.N: 6 exceeds the algebras' orders (at most 4)\n")


@pytest.mark.parametrize("N", [0, -1])
def test_morphism_of_order_below_1_exits_2(tmp_path, capsys, N):
    """A morphism of order below 1 has no Taylor coefficient to check:
    the order is refused, by the file reader, before its components are
    read, and by the constructor."""
    m = coherent_morphism(seed=1, N=4)
    with pytest.raises(ValueError, match="must be at least 1"):
        AInfinityMorphism(m.source, m.target, {}, N)
    path = tmp_path / "mor.json"
    serialize.dump(str(path), {**serialize.morphism_to_data(m), "N": N})
    assert main(["verify", "morphism", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: $.N: must be at least 1, got {N}\n"


def test_algebra_of_order_below_2_exits_2(tmp_path, capsys):
    path = tmp_path / "alg.json"
    serialize.dump(str(path), {**serialize.algebra_to_data(exterior_dga()),
                               "N": 1, "operations": {}})
    assert main(["verify", "ainf", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: $.N: must be at least 2, got 1\n"


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
