"""Batch command-line front end.

Loads structures from files, runs verifications and moves, and emits
certificates: a machine-readable record of every identity checked, with
pass/fail status, an exact-residual flag, and a first-failure witness.
Exit status is nonzero exactly when some check fails.

Importing this module loads the operad layer (operadcore, and exactlin
under it) and nothing else of shalg: serialize, ainfty and transfer are
imported by the functions that run them, so an operad command that
reads no file never loads them, and verify ainf|morphism|action never
loads transfer.
"""

import json
import os
import sys
import time
from types import SimpleNamespace

from .exactlin import GradedMap
from .operadcore import (
    ISO_NORMAL_FORMS,
    OperadPresentation,
    action_check,
    alpha_iso_matrix,
    builtin_presentation,
    d_squared_check,
    enumerate_trees,
    kunneth_check,
    tree_decomposition_dims,
    tree_leaf_colors,
    truncated_homology,
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
    from .serialize import dump_fraction
    k = min(m.columns)
    i, j = min((i, j) for j, col in m.columns[k].items() for i in col)
    return {"degree": k, "row": i, "column": j,
            "value": dump_fraction(m.columns[k][j][i])}


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
        # imported here: commands that read no file load none of it
        from . import serialize
        digest = _sha256_constructor()()
        data = serialize.load(_resolve(path), digest)
        self.inputs[path] = digest.hexdigest()
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
        from .serialize import dump
        dump(out, text)
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
    from .ainfty import AInfinityAlgebra, an_residual, fn_residual
    if isinstance(x, AInfinityAlgebra):
        name, residual, first = "stasheff", an_residual, 2
    else:
        name, residual, first = "morphism", fn_residual, 1
    for n in range(first, min(x.N, bound or x.N) + 1):
        cert.add_residual(f"{prefix}{name}-identity-n{n}", residual(x, n))


def _verify_sdr(cert, big, small, nabla, f, phi):
    """The four retract identities as one check, failing with the
    witness of the first that breaks, then the three side conditions."""
    from .transfer import retract_residuals
    residuals = retract_residuals(big, small, nabla, f, phi)
    cert.add_residual("retract-identity", next(
        (r for r in residuals[:4] if not r.is_zero()), residuals[0]))
    for name, residual in zip(("homotopy-squared", "homotopy-after-inclusion",
                               "projection-after-homotopy"), residuals[4:]):
        cert.add_residual(f"side-condition-{name}", residual)


def cmd_verify(args):
    from . import serialize
    bounds = {"N": args.bound_n or DEFAULT_BOUND_N}
    cert = Certificate(["verify", args.kind, *args.files], bounds)
    data = cert.load(args.files[0])
    if args.kind in ("ainf", "morphism"):
        x = (serialize.algebra_from_data if args.kind == "ainf"
             else serialize.morphism_from_data)(data)
        _verify_identities(cert, x, bound=args.bound_n)
        # a structure's own N is at least 2, so only --bound-n 1 is empty
        bound = f"--bound-n {args.bound_n}"
    elif args.kind == "sdr":
        _verify_sdr(cert, *serialize.sdr_parts_from_data(data))
    elif args.kind == "action":
        pres, action, complexes, truncation = serialize.action_from_data(data)
        res = action_check(pres, action, complexes, truncation)
        bound = f"truncation {truncation}"
        for entry in res["entries"]:
            cert.add_residual(f"action-compatibility-{entry['generator']}",
                              entry["residual"])
    else:
        raise ValueError(args.kind)
    if not cert.checks:  # refused: it would pass having checked nothing
        raise ValueError(f"{bound} checks no identity of {args.files[0]}")
    return _emit(cert, args)


# ------------------------------------------------------------------- move


# The files each move writes, as suffixes of its --out prefix.
MOVE_OUTPUTS = {"m1": (".structure.json", ".morphism.json"),
                "m2": (".morphism.json",), "m3": (".morphism.json",),
                "m4": (".morphism.json",),
                "s": (".structure.json", ".morphism.json")}


def _write_outputs(cert, args, outputs):
    """Write output structure files only after every check passed, all
    of them or none."""
    if not cert.ok:
        return
    from .serialize import dump
    first, *rest = [(f"{args.out}{suffix}", data)
                    for suffix, data in zip(MOVE_OUTPUTS[args.move], outputs)]
    dump(*first, *rest)


def _map_field(data, key, source, target):
    from . import serialize
    return serialize.map_from_data(serialize.field(data, key), source,
                                   target, f"$.{key}")


def _run_move(cert, hypothesis, move, *args, **kwargs):
    """Run a move and record the hypothesis it checks: passed, returning
    the result, or failed with the move's ValueError as witness (None).
    A Taylor coefficient that no map solves, because the input
    structures are not coherent, fails the check extension-solvable
    after the passed hypothesis, with the arity as witness (None)."""
    from .transfer import InconsistentSolve
    try:
        out = move(*args, **kwargs)
    except ValueError as exc:
        cert.add(hypothesis, False, witness=str(exc))
        return None
    except InconsistentSolve as exc:
        cert.add(hypothesis, True)
        cert.add("extension-solvable", False, witness={"arity": exc.stage})
        return None
    cert.add(hypothesis, True)
    return out


def cmd_move(args):
    from . import serialize
    from .ainfty import underlying
    from .transfer import (NOT_ON_BIG_COMPLEX, chain_M4, check_side_conditions,
                           invert_M3, perturb_M2, transfer_M1, transfer_S)
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
                pair = transfer_M1(a, s, N=N)
        elif args.move in ("m2", "m3"):
            m = serialize.morphism_from_data(datas[0])
            V, W = m.source, m.target
            if args.move == "m2":
                g = _map_field(datas[1], "g", V.space, W.space)
                h = _map_field(datas[1], "h", V.space, W.space)
                out = _run_move(cert, "hypothesis-homotopy-between-chain-maps",
                                perturb_M2, m, g, h, N=N)
            else:
                g = _map_field(datas[1], "g", W.space, V.space)
                h = _map_field(datas[1], "h", V.space, V.space)
                ell = _map_field(datas[1], "l", W.space, W.space)
                out = _run_move(cert, "hypothesis-homotopy-equivalence",
                                invert_M3, m, g, h, ell, N=N)
            if out is not None:
                cert.add("output-underlying-map", underlying(out) == g)
        elif args.move == "m4":
            ms = [serialize.morphism_from_data(d) for d in datas]
            out = _run_move(cert, "hypothesis-composable-chain", chain_M4, ms,
                            N=N)
        elif args.move == "s":
            a = serialize.algebra_from_data(datas[0])
            w = serialize.complex_from_data(
                serialize.field(datas[1], "target"), "$.target")
            f = _map_field(datas[1], "f", a.space, w.space)
            g = _map_field(datas[1], "g", w.space, a.space)
            h = _map_field(datas[1], "h", a.space, a.space)
            pair = _run_move(cert, "hypothesis-one-sided-retraction",
                             transfer_S, a, w, f, g, h, N=N)
        else:
            raise ValueError(args.move)
        if pair is not None:  # a transferred structure and its morphism
            wa, out = pair
            _verify_identities(cert, wa, "output-")
            outputs = [serialize.algebra_to_data(wa)]
        if out is not None:
            _verify_identities(cert, out, "output-")
            outputs.append(serialize.morphism_to_data(out))
    except serialize.InputError:
        raise
    except ValueError as exc:
        cert.add("hypotheses", False, witness=str(exc))
    _write_outputs(cert, args, outputs)
    return _emit(cert, args)


# ----------------------------------------------------------------- operad


def _alpha_presentation():
    """riso's degree-0 generators f and g, whose words operad alpha maps
    to the groupoid: riso has no generator of negative degree, so its
    degree-0 trees are this presentation's trees, in the same order."""
    whole = builtin_presentation("riso")
    return OperadPresentation(
        "riso-degree-0", whole.colors,
        [g for g in whole.generators.values() if g.degree == 0])


def cmd_operad(args):
    names = args.files
    bounds = {"arity": args.arity, "length": args.length}
    cert = Certificate(["operad", args.sub, *names], bounds)
    if args.sub == "d2":
        name = names[0]
        arity = args.arity or DEFAULT_ARITY.get(name, 5)
        cert.bounds["arity"] = arity
        pres = builtin_presentation(name, arity)
        res = d_squared_check(pres, arity)
        if not res["checked"]:
            raise ValueError(f"--arity {arity} checks no generator of {name}")
        for entry in res["checked"]:
            ok, witness = entry["d_squared_zero"], None
            if not ok:
                from .serialize import dump_fraction
                t, c = entry["witness"]
                witness = [repr(t), dump_fraction(c)]
            cert.add(f"d-squared-{entry['generator']}", ok, residual_zero=ok,
                     witness=witness)
        for f in res["failures"]:
            if "reason" in f:
                cert.add(f"grading-{f['generator']}-{f['reason']}", False)
    elif args.sub == "homology":
        name = names[0]
        arity = args.arity or 3
        cert.bounds["arity"] = arity
        pres = builtin_presentation(name, arity)
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
        res = kunneth_check(builtin_presentation("ass-minimal-3"),
                            builtin_presentation("free-binary"), arity)
        for e in res["per_degree"]:
            cert.add(f"product-homology-degree{e['degree']}", e["ok"],
                     witness=None if e["ok"] else
                     {"predicted": e["predicted"], "direct": e["direct"]})
    elif args.sub == "riso-extend":
        from .serialize import sdr_parts_from_data
        from .transfer import riso_zero_extension
        res = riso_zero_extension(sdr_parts_from_data(cert.load(names[0])))
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
        p1 = builtin_presentation(names[0], arity)
        p2 = builtin_presentation(names[1], arity)
        dims = tree_decomposition_dims(p1, p2, arity)
        cert.add(f"tree-decomposition-arity{arity}", True,
                 witness={str(k): v for k, v in sorted(dims.items())})
    elif args.sub == "alpha":
        length = args.length or DEFAULT_LENGTH
        cert.bounds["length"] = length
        pres = _alpha_presentation()
        for ic in pres.colors:
            trees = [t for oc in pres.colors
                     for t in enumerate_trees(pres, 1, oc, length)
                     if tree_leaf_colors(pres, t, oc) == [ic]]
            mat = alpha_iso_matrix(trees, ic)
            hit = {i for i, row in enumerate(mat) if any(row)}
            expected = {i for i, (c, _) in enumerate(ISO_NORMAL_FORMS)
                        if c == ic}
            cert.add(f"normal-forms-surjective-input-{ic}", hit == expected)
    else:
        raise ValueError(args.sub)
    return _emit(cert, args)


# ------------------------------------------------------------------ parser
#
# A plain command line, the form of every batch job, is read straight
# from the command table: argparse, with the gettext and locale modules it
# loads, costs about 8 ms of start-up, more than most commands' own work.
# Every other line, -h and every error included, is read by argparse's
# parser of the same table.

DESCRIPTION = ("Exact verification and homotopy-invariance moves for "
               "strongly homotopy associative structures.")


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


# The options every command takes: (option, dest, metavar, values,
# default, help), where values is the tuple of the allowed texts or a
# function that converts the text, raising ValueError with the message.
_OPTIONS = (
    ("--bound-n", "bound_n", "N", _positive_int, None,
     "coherence truncation order"),
    ("--arity", "arity", "N", _positive_int, None, None),
    ("--length", "length", "N", _positive_int, None,
     "word-length cap for truncated computations"),
    ("--format", "format", None, ("text", "machine"), "text",
     "certificate format (default: text)"),
)

# One row per command: its help, the function that runs it, the dest of
# its positional choice, each choice with the number of inputs it reads
# (None: one or more, the chain move m4 composes), the options each
# choice reads besides --format and --out, which every choice reads, the
# fewest inputs the command line may give, and its --out as (dest,
# metavar, required, help).
COMMANDS = {
    "verify": {
        "help": "check coherence identities", "func": cmd_verify,
        "choice": "kind",
        "files": {"ainf": 1, "morphism": 1, "sdr": 1, "action": 1},
        "reads": {"ainf": ("--bound-n",), "morphism": ("--bound-n",),
                  "sdr": (), "action": ()},
        "least": 1,
        "out": ("cert_out", "PATH", False,
                "write the certificate to this path")},
    "move": {
        "help": "run a homotopy-invariance move", "func": cmd_move,
        "choice": "move",
        "files": {"m1": 2, "m2": 2, "m3": 2, "m4": None, "s": 2},
        "reads": dict.fromkeys(("m1", "m2", "m3", "m4", "s"), ("--bound-n",)),
        "least": 1,
        "out": ("out", "PREFIX", True, "prefix for output structure files")},
    "operad": {
        "help": "operad-level computations", "func": cmd_operad,
        "choice": "sub",
        "files": {"d2": 1, "homology": 1, "kunneth": 0, "riso-extend": 1,
                  "tree-dims": 2, "alpha": 0},
        "reads": {"d2": ("--arity",), "homology": ("--arity", "--length"),
                  "kunneth": ("--arity",), "riso-extend": (),
                  "tree-dims": ("--arity",), "alpha": ("--length",)},
        "least": 0,
        "out": ("cert_out", "PATH", False,
                "write the certificate to this path")},
}


def _options(name):
    """Option string -> (dest, metavar, values, default, help) for one
    command, --out last."""
    dest, metavar, _, help_ = COMMANDS[name]["out"]
    return {option: spec for option, *spec in
            (*_OPTIONS, ("--out", dest, metavar, str, None, help_))}


def _read_plain(argv):
    """The attributes of a plain command line, or None for any other.
    A plain line is a command, then its choice and inputs as one run of
    tokens that do not start with '-', with the options before or after
    that run.  Each option is spelled in full, and its value is the next
    token, which does not start with '-' and converts; every required
    argument is given.  argparse reads such a line the same way."""
    row = COMMANDS.get(argv[0]) if argv else None
    if row is None:
        return None
    options = _options(argv[0])
    args = {dest: default for dest, _, _, default, _ in options.values()}
    run, closed, i = [], False, 1
    while i < len(argv):
        token = argv[i]
        if token in options:
            dest, _, values, _, _ = options[token]
            value = argv[i + 1] if i + 1 < len(argv) else "-"
            if value[:1] == "-":
                return None
            if isinstance(values, tuple):
                if value not in values:
                    return None
            else:
                try:
                    value = values(value)
                except ValueError:
                    return None
            args[dest] = value
            closed, i = bool(run), i + 2
        elif token[:1] == "-" or closed:
            return None
        else:
            run.append(token)
            i += 1
    if (not run or run[0] not in row["files"] or len(run) <= row["least"]
            or row["out"][2] and args[row["out"][0]] is None):
        return None
    return SimpleNamespace(cmd=argv[0], **{row["choice"]: run[0]},
                           files=run[1:], **args, func=row["func"])


def _argparse_parser():
    """argparse's parser of the command table, which reads every line
    that _read_plain does not: errors, -h, abbreviations, glued values,
    '--', and options between positionals.  On an error it prints the
    usage and exits with status 2; -h prints the help and exits with
    status 0.  argparse is imported only here."""
    import argparse

    def checked(convert):
        def read(text):  # argparse prints this error's message as it is
            try:
                return convert(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(exc) from None
        return read

    parser = argparse.ArgumentParser(prog="shalg", description=DESCRIPTION)
    commands = parser.add_subparsers(dest="cmd", required=True)
    for name, row in COMMANDS.items():
        # raw text: the inputs each choice reads are not wrapped at a '-'
        sub = commands.add_parser(
            name, help=row["help"], description=row["help"],
            formatter_class=argparse.RawTextHelpFormatter)
        sub.add_argument(row["choice"], choices=tuple(row["files"]))
        counts = ", ".join(f"{c} {'1 or more' if k is None else k}"
                           for c, k in row["files"].items())
        sub.add_argument("files", nargs="+" if row["least"] else "*",
                         metavar="INPUT", help=f"inputs each reads: {counts}")
        for option, (dest, metavar, values, default, help_) in \
                _options(name).items():
            kind = ({"choices": values} if isinstance(values, tuple)
                    else {"type": checked(values)})
            sub.add_argument(option, dest=dest, metavar=metavar,
                             default=default, help=help_,
                             required=option == "--out" and row["out"][2],
                             **kind)
        sub.set_defaults(func=row["func"])
    return parser


class Parser:
    """The command line of COMMANDS, read by argparse's rules: options
    as `--opt value` or `--opt=value`, before, between or after the
    positionals, the last one given winning; unambiguous prefixes of long
    options; negative numbers read as values; `--` ends the options."""

    def parse_args(self, argv=None):
        """The attributes of argv (sys.argv[1:] when None): cmd, the
        command's choice, files, bound_n, arity, length, format, cert_out
        (out for move) and func, the function that runs the command."""
        argv = sys.argv[1:] if argv is None else list(argv)
        return _read_plain(argv) or _argparse_parser().parse_args(argv)


def build_parser():
    return Parser()


def _check_file_count(args):
    """Raise ValueError unless the command got as many files as it
    reads."""
    what = getattr(args, COMMANDS[args.cmd]["choice"])
    want = COMMANDS[args.cmd]["files"][what]
    if want is not None and len(args.files) != want:
        raise ValueError(f"{args.cmd} {what} takes {want} argument"
                         f"{'s' * (want != 1)}, got {len(args.files)}")


def _check_options_read(args):
    """Raise ValueError if an option is given that the command never
    reads: it would be ignored, or recorded in the bounds unchecked."""
    row = COMMANDS[args.cmd]
    what = getattr(args, row["choice"])
    for option, dest, *_ in _OPTIONS:
        if (option not in ("--format", *row["reads"][what])
                and getattr(args, dest) is not None):
            raise ValueError(f"{args.cmd} {what} does not read {option}")


def _check_out(args):
    """Raise ValueError unless --out, when given, names a file (for
    move, a file name prefix) in a directory that exists, and no file a
    move writes is an existing directory."""
    dest = COMMANDS[args.cmd]["out"][0]
    path = getattr(args, dest)
    if path is None:
        return
    head, tail = os.path.split(path)
    if tail in ("", ".", "..") or (dest == "cert_out"
                                   and os.path.isdir(path)):
        raise ValueError(f"--out {path!r} names no file")
    if not os.path.isdir(head or "."):
        raise ValueError(f"--out {path!r}: no directory {head!r}")
    if dest == "out":
        for suffix in MOVE_OUTPUTS[args.move]:
            if os.path.isdir(path + suffix):
                raise ValueError(f"--out {path!r}: {path + suffix!r} is a "
                                 f"directory")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_file_count(args)
        _check_options_read(args)
        _check_out(args)
        return args.func(args)
    except ValueError as exc:
        message = exc
    except OSError as exc:  # a missing input raises with the bare path
        message = (exc if exc.filename is None
                   else f"{exc.filename}: {exc.strerror}")
    sys.stderr.write(f"error: {message}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
