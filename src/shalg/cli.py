"""Batch command-line front end.

Loads structures from files, runs verifications and moves, and emits
certificates: a machine-readable record of every identity checked, with
pass/fail status, an exact-residual flag, and a first-failure witness.
Exit status is nonzero exactly when some check fails.
"""

import argparse
import json
import os
import sys
import time

from . import serialize
from .ainfty import (
    AInfinityAlgebra,
    an_residual,
    fn_residual,
    underlying,
)
from .exactlin import GradedMap
from .operadcore import (
    ISO_NORMAL_FORMS,
    action_check,
    alpha_iso_matrix,
    ass_minimal,
    builtin_presentation,
    d_squared_check,
    enumerate_trees,
    kunneth_check,
    tree_decomposition_dims,
    tree_degree,
    tree_leaf_colors,
    truncated_homology,
)
from .operadcore import GeneratorSpec, OperadPresentation
from .transfer import (
    NOT_ON_BIG_COMPLEX,
    chain_M4,
    check_side_conditions,
    invert_M3,
    perturb_M2,
    retract_residuals,
    riso_zero_extension,
    side_condition_residuals,
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


def _sha256_constructor():
    """The interpreter's built-in SHA-256 (`_sha2` from Python 3.12,
    `_sha256` before), as CPython's own random.py prefers: hashlib loads
    OpenSSL's libcrypto, 3.6 MB of RSS, for the same digest.  hashlib is
    the fallback for interpreters built without either module."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


class Certificate:
    def __init__(self, command, bounds):
        self.command = list(command)
        self.inputs = {}
        self.bounds = dict(bounds)
        self.checks = []
        self._start = time.monotonic()

    def load(self, path):
        """The JSON data of an input file, recording the SHA-256 of the
        bytes that were parsed: each input is read once."""
        # imported here: commands that hash no file load none of it
        digest = _sha256_constructor()()
        data = serialize.load(_resolve(path), digest)
        self.inputs[os.path.basename(path)] = digest.hexdigest()
        return data

    def add(self, name, ok, residual_zero=None, witness=None):
        entry = {"name": name, "status": "pass" if ok else "fail"}
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
            line = f"[{c['status'].upper()}] {c['name']}"
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
        serialize.dump(out, text)
    sys.stdout.write(text)
    return 0 if cert.ok else 1


def _resolve(path):
    if os.path.exists(path):
        return path
    raise FileNotFoundError(path)


# ----------------------------------------------------------------- verify


def _verify_identities(cert, x, prefix="", bound=None):
    """The coherence identities of an algebra (arities 2..N) or of a
    morphism (arities 1..N), N the smaller of x.N and the bound when one
    is given."""
    if isinstance(x, AInfinityAlgebra):
        name, residual, first = "stasheff", an_residual, 2
    else:
        name, residual, first = "morphism", fn_residual, 1
    for n in range(first, min(x.N, bound or x.N) + 1):
        cert.add_residual(f"{prefix}{name}-identity-n{n}", residual(x, n))


def _verify_sdr(cert, big, small, nabla, f, phi):
    """The retract identities as one check, failing with the witness of
    the first that breaks, then the three side conditions."""
    residuals = retract_residuals(big, small, nabla, f, phi)
    cert.add_residual("retract-identity", next(
        (r for r in residuals if not r.is_zero()), residuals[0]))
    for name, residual in zip(("homotopy-squared", "homotopy-after-inclusion",
                               "projection-after-homotopy"),
                              side_condition_residuals(nabla, f, phi)):
        cert.add_residual(f"side-condition-{name}", residual)


def cmd_verify(args):
    bounds = {"N": args.bound_n or DEFAULT_BOUND_N}
    cert = Certificate(["verify", args.kind, *args.files], bounds)
    data = cert.load(args.files[0])
    if args.kind == "ainf":
        _verify_identities(cert, serialize.algebra_from_data(data),
                           bound=args.bound_n)
    elif args.kind == "morphism":
        _verify_identities(cert, serialize.morphism_from_data(data),
                           bound=args.bound_n)
    elif args.kind == "sdr":
        _verify_sdr(cert, *serialize.sdr_parts_from_data(data))
    elif args.kind == "action":
        res = action_check(*serialize.action_from_data(data))
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


def _run_move(cert, hypothesis, move, *args, **kwargs):
    """Run a move and record the hypothesis it checks: passed, returning
    the result, or failed with the move's ValueError as witness (None)."""
    try:
        out = move(*args, **kwargs)
    except ValueError as exc:
        cert.add(hypothesis, False, witness=str(exc))
        return None
    cert.add(hypothesis, True)
    return out


def cmd_move(args):
    N = args.bound_n or DEFAULT_BOUND_N
    cert = Certificate(["move", args.move, *args.files], {"N": N})
    datas = [cert.load(p) for p in args.files]
    outputs, out, pair = [], None, None
    try:
        if args.move == "m1":
            a = serialize.algebra_from_data(datas[0])
            s = serialize.sdr_from_data(datas[1])
            same = s.big == a.complex
            cert.add("hypothesis-retract-data", same,
                     witness=None if same else NOT_ON_BIG_COMPLEX)
            flags = check_side_conditions(s)
            cert.add("hypothesis-side-conditions", flags["ok"])
            if same and flags["ok"]:
                pair = transfer_M1(a, s, N=min(N, a.N))
        elif args.move in ("m2", "m3"):
            m = serialize.morphism_from_data(datas[0])
            V, W = m.source, m.target
            if args.move == "m2":
                g = _map_field(datas[1], "g", V.space, W.space)
                h = _map_field(datas[1], "h", V.space, W.space)
                out = _run_move(cert, "hypothesis-homotopy-between-chain-maps",
                                perturb_M2, m, g, h, N=min(N, m.N))
            else:
                g = _map_field(datas[1], "g", W.space, V.space)
                h = _map_field(datas[1], "h", V.space, V.space)
                ell = _map_field(datas[1], "l", W.space, W.space)
                out = _run_move(cert, "hypothesis-homotopy-equivalence",
                                invert_M3, m, g, h, ell, N=min(N, m.N))
            if out is not None:
                cert.add("output-underlying-map", underlying(out) == g)
        elif args.move == "m4":
            ms = [serialize.morphism_from_data(d) for d in datas]
            out = _run_move(cert, "hypothesis-composable-chain", chain_M4, ms,
                            N=min([N] + [m.N for m in ms]))
        elif args.move == "s":
            a = serialize.algebra_from_data(datas[0])
            w = serialize.complex_from_data(
                serialize.field(datas[1], "target"), "$.target")
            f = _map_field(datas[1], "f", a.space, w.space)
            g = _map_field(datas[1], "g", w.space, a.space)
            h = _map_field(datas[1], "h", a.space, a.space)
            pair = _run_move(cert, "hypothesis-one-sided-retraction",
                             transfer_S, a, w, f, g, h, N=min(N, a.N))
        else:
            raise ValueError(args.move)
        if pair is not None:  # a transferred structure and its morphism
            wa, out = pair
            _verify_identities(cert, wa, "output-")
            outputs = [(".structure.json", serialize.algebra_to_data(wa))]
        if out is not None:
            _verify_identities(cert, out, "output-")
            outputs.append((".morphism.json", serialize.morphism_to_data(out)))
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
    cert = Certificate(["operad", args.sub, *names], bounds)
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
        cert.bounds["arity"] = arity
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
        res = riso_zero_extension(serialize.sdr_parts_from_data(
            cert.load(names[0])))
        if res["ok"]:
            cert.add("zero-extension", True, residual_zero=True)
        else:
            cert.add("zero-extension", False, residual_zero=False,
                     witness={"failed_generator": res["failed_generator"],
                              "obstruction": _map_witness(
                                  res["obstruction"])})
    elif args.sub == "tree-dims":
        arity = args.arity or 3
        cert.bounds["arity"] = arity
        p1 = _operad_by_name(names[0], arity)
        p2 = _operad_by_name(names[1], arity)
        dims = tree_decomposition_dims(p1, p2, arity)
        cert.add(f"tree-decomposition-arity{arity}", True,
                 witness={str(k): v for k, v in sorted(dims.items())})
    elif args.sub == "alpha":
        length = args.length or DEFAULT_LENGTH
        cert.bounds["length"] = length
        pres = builtin_presentation("riso")
        for ic in pres.colors:
            trees = [t for oc in pres.colors
                     for t in enumerate_trees(
                         pres, 1, oc, length,
                         include_unit=(oc == ic), max_degree=0)
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


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    p = argparse.ArgumentParser(
        prog="shalg",
        description="Exact verification and homotopy-invariance moves for "
                    "strongly homotopy associative structures.")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, cert_out=True):
        sp.add_argument("--bound-n", type=_positive_int, default=None,
                        dest="bound_n",
                        help="coherence truncation order")
        sp.add_argument("--arity", type=_positive_int, default=None)
        sp.add_argument("--length", type=_positive_int, default=None,
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


# Input files each move and operad computation reads; verify reads one,
# and move m4 one or more, as its parser already demands.
FILE_COUNTS = {"m1": 2, "m2": 2, "m3": 2, "s": 2, "d2": 1, "homology": 1,
               "riso-extend": 1, "tree-dims": 2, "kunneth": 0, "alpha": 0}


def _check_file_count(args):
    """Raise ValueError unless the command got as many files as it
    reads."""
    what = getattr(args, "kind", None) or getattr(args, "move", None) \
        or args.sub
    want = 1 if args.cmd == "verify" else FILE_COUNTS.get(what)
    if want is not None and len(args.files) != want:
        raise ValueError(f"{args.cmd} {what} takes {want} argument"
                         f"{'s' * (want != 1)}, got {len(args.files)}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_file_count(args)
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
