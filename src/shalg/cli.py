"""Batch command-line front end.

Loads structures from files, runs verifications and moves, and emits
certificates: a machine-readable record of every identity checked, with
pass/fail status, an exact-residual flag, and a first-failure witness.
Exit status is nonzero exactly when some check fails.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import serialize
from .ainfty import (
    check_An,
    check_Fn,
    underlying,
)
from .exactlin import GradedMap
from .operadcore import (
    ISO_NORMAL_FORMS,
    alpha_iso_matrix,
    ass_minimal,
    builtin_presentation,
    d_squared_check,
    enumerate_trees,
    kunneth_check,
    tree_decomposition_dims,
    tree_degree,
    tree_vertices,
    truncated_homology,
)
from .operadcore import GeneratorSpec, OperadPresentation
from .transfer import (
    chain_M4,
    check_side_conditions,
    invert_M3,
    normalize_side_conditions,
    perturb_M2,
    riso_zero_extension,
    transfer_M1,
    transfer_S,
)

DEFAULT_BOUND_N = 5
DEFAULT_ARITY = {"ass-minimal": 7, "ass-arrow-minimal": 5, "riso": 3}
DEFAULT_LENGTH = 6


# ----------------------------------------------------------- certificates


def _map_witness(m: GradedMap):
    """First nonzero matrix entry of a graded map in (degree, row,
    column) order, as an exact record."""
    if m.is_zero():
        return None
    k = min(m.columns)
    i, j = min((i, j) for j, col in m.columns[k].items() for i in col)
    return {"degree": k, "row": i, "column": j,
            "value": serialize.dump_fraction(m.columns[k][j][i])}


class Certificate:
    def __init__(self, command, inputs, bounds):
        self.command = list(command)
        self.inputs = {}
        for path in inputs:
            with open(path, "rb") as fh:
                self.inputs[os.path.basename(path)] = hashlib.sha256(
                    fh.read()).hexdigest()
        self.bounds = dict(bounds)
        self.checks = []
        self._start = time.monotonic()

    def add(self, name, ok, residual_zero=None, witness=None,
            applicable=True):
        status = "pass" if ok else "fail"
        if not applicable:
            status = "not-applicable"
        entry = {"name": name, "status": status}
        if residual_zero is not None:
            entry["residual_zero"] = bool(residual_zero)
        if witness is not None:
            entry["witness"] = witness
        self.checks.append(entry)

    def add_residual(self, name, residual: GradedMap):
        ok = residual.is_zero()
        self.add(name, ok, residual_zero=ok,
                 witness=None if ok else _map_witness(residual))

    @property
    def ok(self):
        return all(c["status"] != "fail" for c in self.checks)

    def to_data(self):
        return {"command": self.command, "inputs": self.inputs,
                "bounds": self.bounds, "checks": self.checks,
                "ok": self.ok,
                "wall_time": round(time.monotonic() - self._start, 6)}

    def render_text(self):
        lines = []
        for c in self.checks:
            tag = {"pass": "PASS", "fail": "FAIL",
                   "not-applicable": "N/A "}[c["status"]]
            line = f"[{tag}] {c['name']}"
            if c.get("witness") is not None:
                line += f"  witness={json.dumps(c['witness'], sort_keys=True)}"
            lines.append(line)
        lines.append(f"{'OK' if self.ok else 'FAILED'}: "
                     f"{sum(c['status'] == 'pass' for c in self.checks)} "
                     f"passed, "
                     f"{sum(c['status'] == 'fail' for c in self.checks)} "
                     f"failed")
        return "\n".join(lines)


def _emit(cert: Certificate, args) -> int:
    if args.format == "machine":
        text = json.dumps(cert.to_data(), indent=1, sort_keys=True) + "\n"
    else:
        text = cert.render_text() + "\n"
    out = getattr(args, "cert_out", None)
    if out:
        serialize.dump_raw(out, text)
    sys.stdout.write(text)
    return 0 if cert.ok else 1


def _resolve(path):
    if os.path.exists(path):
        return path
    fixdir = os.environ.get("SHALG_FIXTURE_DIR")
    if fixdir:
        candidate = os.path.join(fixdir, path)
        if os.path.exists(candidate):
            return candidate
    raise FileNotFoundError(path)


# ----------------------------------------------------------------- verify


def _verify_algebra(cert, a, prefix=""):
    for n in range(2, a.N + 1):
        cert.add_residual(f"{prefix}stasheff-identity-n{n}",
                          check_An(a, n)["residual"])


def _verify_morphism(cert, m, prefix=""):
    for n in range(1, m.N + 1):
        cert.add_residual(f"{prefix}morphism-identity-n{n}",
                          check_Fn(m, n)["residual"])


def _verify_sdr(cert, s):
    cert.add("retract-identity", True, residual_zero=True)  # re-validated
    flags = check_side_conditions(s)
    cert.add("side-condition-homotopy-squared", flags["phi_phi"],
             residual_zero=flags["phi_phi"],
             witness=None if flags["phi_phi"] else _map_witness(
                 s.phi.compose(s.phi)))
    cert.add("side-condition-homotopy-after-inclusion", flags["phi_nabla"],
             residual_zero=flags["phi_nabla"],
             witness=None if flags["phi_nabla"] else _map_witness(
                 s.phi.compose(s.nabla)))
    cert.add("side-condition-projection-after-homotopy", flags["f_phi"],
             residual_zero=flags["f_phi"],
             witness=None if flags["f_phi"] else _map_witness(
                 s.f.compose(s.phi)))


def cmd_verify(args):
    path = _resolve(args.files[0])
    data = serialize.load(path)
    bounds = {"N": args.bound_n or DEFAULT_BOUND_N}
    cert = Certificate(["verify", args.kind, *args.files], [path], bounds)
    if args.kind == "ainf":
        a = serialize.algebra_from_data(data)
        if args.bound_n:
            a = type(a)(a.complex, a._mu, min(a.N, args.bound_n))
        _verify_algebra(cert, a)
    elif args.kind == "morphism":
        m = serialize.morphism_from_data(data)
        if args.bound_n:
            m = type(m)(m.source, m.target, m._f, min(m.N, args.bound_n))
        _verify_morphism(cert, m)
    elif args.kind == "sdr":
        s = serialize.sdr_from_data(data)
        _verify_sdr(cert, s)
    elif args.kind == "action":
        pres, assignment, complexes = serialize.action_from_data(data)
        trunc = serialize.parse_int(data.get("truncation", 1),
                                    "$.truncation")
        from .operadcore import action_check
        res = action_check(pres, assignment, complexes, trunc)
        for entry in res["entries"]:
            witness = None
            if not entry["ok"]:
                diff = entry["witness"]
                k = min(diff.columns)
                witness = {"degree": k,
                           "block": [[serialize.dump_fraction(x)
                                      for x in row] for row in diff.block(k)]}
            cert.add(f"action-compatibility-{entry['generator']}",
                     entry["ok"], residual_zero=entry["ok"],
                     witness=witness)
    else:
        raise ValueError(args.kind)
    return _emit(cert, args)


# ------------------------------------------------------------------- move


def _write_outputs(cert, args, outputs):
    """Write output structure files only after every check passed."""
    if not cert.ok:
        return
    for suffix, data in outputs:
        serialize.dump(f"{args.out}{suffix}", data)


def _map_field(data, key, source, target):
    return serialize.map_from_data(serialize.field(data, key), source,
                                   target, f"$.{key}")


def cmd_move(args):
    paths = [_resolve(p) for p in args.files]
    datas = [serialize.load(p) for p in paths]
    N = args.bound_n or DEFAULT_BOUND_N
    cert = Certificate(["move", args.move, *args.files], paths, {"N": N})
    outputs = []
    try:
        if args.move == "m1":
            a = serialize.algebra_from_data(datas[0])
            s = serialize.sdr_from_data(datas[1])
            cert.add("hypothesis-retract-data", True)
            flags = check_side_conditions(s)
            cert.add("hypothesis-side-conditions", flags["ok"])
            if flags["ok"]:
                wa, mor = transfer_M1(a, s, N=min(N, a.N))
                _verify_algebra(cert, wa, "output-")
                _verify_morphism(cert, mor, "output-")
                outputs = [(".structure.json", serialize.algebra_to_data(wa)),
                           (".morphism.json", serialize.morphism_to_data(mor))]
        elif args.move == "m2":
            m = serialize.morphism_from_data(datas[0])
            V, W = m.source, m.target
            g = _map_field(datas[1], "g", V.space, W.space)
            h = _map_field(datas[1], "h", V.space, W.space)
            cert.add("hypothesis-homotopy-between-chain-maps", True)
            out = perturb_M2(m, g, h, N=min(N, m.N))
            cert.add("output-underlying-map", underlying(out) == g)
            _verify_morphism(cert, out, "output-")
            outputs = [(".morphism.json", serialize.morphism_to_data(out))]
        elif args.move == "m3":
            m = serialize.morphism_from_data(datas[0])
            V, W = m.source, m.target
            g = _map_field(datas[1], "g", W.space, V.space)
            h = _map_field(datas[1], "h", V.space, V.space)
            ell = _map_field(datas[1], "l", W.space, W.space)
            cert.add("hypothesis-homotopy-equivalence", True)
            out = invert_M3(m, g, h, ell, N=min(N, m.N))
            cert.add("output-underlying-map", underlying(out) == g)
            _verify_morphism(cert, out, "output-")
            outputs = [(".morphism.json", serialize.morphism_to_data(out))]
        elif args.move == "m4":
            ms = [serialize.morphism_from_data(d) for d in datas]
            cert.add("hypothesis-composable-chain", True)
            out = chain_M4(ms, N=min([N] + [m.N for m in ms]))
            _verify_morphism(cert, out, "output-")
            outputs = [(".morphism.json", serialize.morphism_to_data(out))]
        elif args.move == "s":
            a = serialize.algebra_from_data(datas[0])
            w = serialize.complex_from_data(
                serialize.field(datas[1], "target"), "$.target")
            f = _map_field(datas[1], "f", a.space, w.space)
            g = _map_field(datas[1], "g", w.space, a.space)
            h = _map_field(datas[1], "h", a.space, a.space)
            cert.add("hypothesis-one-sided-retraction", True)
            wa, mor = transfer_S(a, w, f, g, h, N=min(N, a.N))
            _verify_algebra(cert, wa, "output-")
            _verify_morphism(cert, mor, "output-")
            outputs = [(".structure.json", serialize.algebra_to_data(wa)),
                       (".morphism.json", serialize.morphism_to_data(mor))]
        else:
            raise ValueError(args.move)
    except serialize.InputError:
        raise
    except ValueError as exc:
        cert.add("hypotheses", False, witness=str(exc))
    _write_outputs(cert, args, outputs)
    return _emit(cert, args)


# ----------------------------------------------------------------- operad


def _gamma_nu2():
    """One binary generator, zero differential: the free counterpart used
    opposite the minimal associativity resolution in product checks."""
    return OperadPresentation(
        "free-binary", ("v",),
        [GeneratorSpec("nu2", ("v", "v"), "v", 0, tj=0)], {},
        symmetric=True, augmented=True)


def _operad_by_name(name, arity=None):
    if name == "free-binary":
        return _gamma_nu2()
    if name == "ass-minimal-3":
        return ass_minimal(3)
    return builtin_presentation(name, arity)


def cmd_operad(args):
    names = args.files
    bounds = {"arity": args.arity, "length": args.length}
    cert = Certificate(["operad", args.sub, *names], [], bounds)
    if args.sub == "d2":
        name = names[0]
        arity = args.arity or DEFAULT_ARITY.get(name, 5)
        cert.bounds["arity"] = arity
        pres = _operad_by_name(name, arity)
        res = d_squared_check(pres, arity)
        for entry in res["checked"]:
            cert.add(f"d-squared-{entry['generator']}",
                     entry["d_squared_zero"],
                     residual_zero=entry["d_squared_zero"],
                     witness=[repr(entry["witness"][0]),
                              serialize.dump_fraction(entry["witness"][1])]
                     if not entry["d_squared_zero"] else None)
        for f in res["failures"]:
            if "reason" in f:
                cert.add(f"grading-{f['generator']}-{f['reason']}", False)
    elif args.sub == "homology":
        name = names[0]
        arity = args.arity or 3
        pres = _operad_by_name(name, arity)
        color = pres.colors[0]
        res = truncated_homology(pres, arity, color,
                                 max_length=args.length)
        cert.add(f"homology-dims-arity{arity}", True,
                 witness={"dims": {str(k): v for k, v
                                   in sorted(res["dims"].items())},
                          "truncated": res["truncated"]})
    elif args.sub == "kunneth":
        arity = args.arity or 3
        cert.bounds["arity"] = arity
        res = kunneth_check(ass_minimal(3), _gamma_nu2(), arity)
        for e in res["per_degree"]:
            cert.add(f"product-homology-degree{e['degree']}", e["ok"],
                     witness=None if e["ok"] else
                     {"predicted": e["predicted"], "direct": e["direct"]})
    elif args.sub == "riso-extend":
        path = _resolve(names[0])
        cert.inputs[os.path.basename(path)] = hashlib.sha256(
            open(path, "rb").read()).hexdigest()
        s = serialize.sdr_from_data(serialize.load(path))
        res = riso_zero_extension(s)
        if res["ok"]:
            cert.add("zero-extension", True, residual_zero=True)
        else:
            cert.add("zero-extension", False, residual_zero=False,
                     witness={"failed_generator": res["failed_generator"],
                              "obstruction": _map_witness(
                                  res["obstruction"])})
    elif args.sub == "tree-dims":
        arity = args.arity or 3
        p1 = _operad_by_name(names[0], arity)
        p2 = _operad_by_name(names[1], arity)
        dims = tree_decomposition_dims(p1, p2, arity)
        cert.add(f"tree-decomposition-arity{arity}", True,
                 witness={str(k): v for k, v in sorted(dims.items())})
    elif args.sub == "alpha":
        length = args.length or DEFAULT_LENGTH
        cert.bounds["length"] = length
        pres = builtin_presentation("riso")
        from .operadcore import tree_leaf_colors
        for ic in pres.colors:
            trees = [t for oc in pres.colors
                     for t in enumerate_trees(
                         pres, 1, oc, length,
                         include_unit=(oc == ic))
                     if tree_degree(pres, t) == 0
                     and tree_leaf_colors(pres, t, oc) == [ic]]
            mat = alpha_iso_matrix(pres, trees, ic)
            hit = {i for i, row in enumerate(mat) if any(row)}
            expected = {i for i, (c, _) in enumerate(ISO_NORMAL_FORMS)
                        if c == ic}
            cert.add(f"normal-forms-surjective-input-{ic}", hit == expected)
    else:
        raise ValueError(args.sub)
    return _emit(cert, args)


# ------------------------------------------------------------------ parser


def build_parser():
    p = argparse.ArgumentParser(
        prog="shalg",
        description="Exact verification and homotopy-invariance moves for "
                    "strongly homotopy associative structures.")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, cert_out=True):
        sp.add_argument("--bound-n", type=int, default=None, dest="bound_n",
                        help="coherence truncation order")
        sp.add_argument("--arity", type=int, default=None)
        sp.add_argument("--length", type=int, default=None,
                        help="word-length cap for truncated computations")
        sp.add_argument("--format", choices=("text", "machine"),
                        default="text")
        if cert_out:
            sp.add_argument("--out", dest="cert_out", default=None,
                            help="write the certificate to this path")

    v = sub.add_parser("verify", help="check coherence identities")
    v.add_argument("kind", choices=("ainf", "morphism", "sdr", "action"))
    v.add_argument("files", nargs="+")
    common(v)
    v.set_defaults(func=cmd_verify)

    m = sub.add_parser("move", help="run a homotopy-invariance move")
    m.add_argument("move", choices=("m1", "m2", "m3", "m4", "s"))
    m.add_argument("files", nargs="+")
    m.add_argument("--out", required=True,
                   help="prefix for output structure files")
    common(m, cert_out=False)
    m.set_defaults(func=cmd_move)

    o = sub.add_parser("operad", help="operad-level computations")
    o.add_argument("sub", choices=("d2", "homology", "kunneth",
                                   "riso-extend", "tree-dims", "alpha"))
    o.add_argument("files", nargs="*")
    common(o)
    o.set_defaults(func=cmd_operad)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
