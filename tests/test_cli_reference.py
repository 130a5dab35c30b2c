"""The command line parser against the argparse parser it replaced.

shalg.cli reads its command line by hand from one command table, since
importing argparse cost every command more start-up than most commands'
own work.  The argparse parser is kept here as the reference: on every
argv drawn from a grammar of commands, choices, inputs and options in
every form, both must give the same attributes, or both must exit with
the same status.
"""

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from shalg.cli import build_parser, cmd_move, cmd_operad, cmd_verify


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def ref_build_parser():
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


def outcome(parser, argv):
    """("ok", the parsed attributes) or ("exit", status), and stderr."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            result = ("ok", vars(parser.parse_args(list(argv))))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, err.getvalue()


CHOICES = {"verify": ("ainf", "morphism", "sdr", "action"),
           "move": ("m1", "m2", "m3", "m4", "s"),
           "operad": ("d2", "homology", "kunneth", "riso-extend",
                      "tree-dims", "alpha")}
OPTIONS = ("--bound-n", "--arity", "--length", "--format", "--out")
UNKNOWN = ("--bogus", "-x")
# the values of --format, of --out, and of the rest: mostly valid
VALUES = {"--format": ("text", "machine", "x"), "--out": ("p", "-3", "7")}
BOUNDS = ("7", "7", "2", "0", "-3", "x")
INPUTS = ("a.json", "b", "x", "7", "-3")


@st.composite
def option_tokens(draw):
    """One option occurrence: `--opt v`, `--opt=v`, or a prefix of the
    option in either form, or the option with no value."""
    option = draw(st.sampled_from(OPTIONS * 3 + UNKNOWN))
    value = draw(st.sampled_from(VALUES.get(option, BOUNDS)))
    if option.startswith("--") and draw(st.booleans()):
        option = option[:draw(st.integers(3, len(option)))]
    form = draw(st.sampled_from(("split",) * 4 + ("glued",) * 3 + ("bare",)))
    if form == "glued":
        return [f"{option}={value}"]
    return [option] if form == "bare" else [option, value]


@st.composite
def argvs(draw):
    """A command, its choice (now and then another's, or none), 0-3
    inputs, and 0-4 options, repeated or unknown, at random places
    among the positionals; now and then a '--', a -h or a token before
    the command."""
    cmd = draw(st.sampled_from(sorted(CHOICES)))
    positionals = draw(st.lists(st.sampled_from(INPUTS), max_size=3))
    choice = draw(st.sampled_from(CHOICES[cmd])) if draw(
        st.integers(0, 5)) else draw(st.sampled_from(("ainf", "d2", "")))
    if draw(st.integers(0, 9)):
        positionals.insert(0, choice)
    rest = positionals
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(rest)))
        rest = rest[:at] + draw(option_tokens()) + rest[at:]
    for token, odds in (("--", 8), ("-h", 30)):
        if not draw(st.integers(0, odds)):
            at = draw(st.integers(0, len(rest)))
            rest = rest[:at] + [token] + rest[at:]
    lead = [] if draw(st.integers(0, 19)) else [draw(st.sampled_from(
        ("--bogus", "-x", "-3", "--help", "--h")))]
    return lead + [cmd] + rest


@settings(max_examples=600, deadline=None)
@given(argvs())
def test_parser_matches_argparse(argv):
    """The same attributes, function included, or the same exit status,
    on every argv of the grammar."""
    assert outcome(build_parser(), argv)[0] == \
        outcome(ref_build_parser(), argv)[0]


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["--", "verify", "ainf", "f"], ["-h"], ["--he"],
    ["-hh"], ["--help=x"], ["-h="], ["--bogus", "verify", "ainf"],
    ["verify"], ["verify", "ainf"], ["verify", "bogus", "f"],
    ["verify", "ainf", "f", "g"],
    ["verify", "--format", "text", "ainf", "f"],
    ["verify", "ainf", "--format", "machine", "f", "g"],
    ["verify", "ainf", "f", "--format", "text", "g"],
    ["verify", "ainf", "f", "--for=machine", "--f", "text"],
    ["verify", "ainf", "f", "--format"],
    ["verify", "ainf", "f", "--out", "--format", "text"],
    ["verify", "ainf", "f", "--out=", "--out", "-3"],
    ["verify", "ainf", "-3", "--arity", "-1.5"],
    ["verify", "ainf", "f", "--=x"], ["verify", "ainf", "f", "--bogus", "-h"],
    ["verify", "bogus", "-h"], ["verify", "ainf", "f", "--arity", "0", "-h"],
    ["verify", "ainf", "f", "-h", "--arity", "0"],
    ["verify", "ainf", "f", "a b"], ["verify", "ainf", "f", "--a b"],
    ["verify", "ainf", "--", "-f"], ["verify", "--", "ainf", "f"],
    ["verify", "ainf", "f", "--"], ["verify", "ainf", "--", "--", "f"],
    ["verify", "ainf", "--", "a", "--", "b"], ["verify", "--", "--", "f"],
    ["verify", "ainf", "f", "--arity", "3", "--"],
    ["verify", "ainf", "f", "--out", "--", "x"],
    ["move", "m1", "a", "b"], ["move", "--out", "p"],
    ["move", "m4", "a", "--out", "p", "b"],
    ["move", "m2", "a", "b", "--o", "p", "--out=q"],
    ["operad"], ["operad", "d2"], ["operad", "--arity", "3"],
    ["operad", "d2", "--arity", "3", "ass-minimal"],
    ["operad", "--arity", "3", "d2", "ass-minimal"],
    ["operad", "d2", "--"], ["operad", "--arity", "3", "--"],
    ["operad", "d2", "--arity", "3", "--"],
    ["operad", "--", "d2", "a", "b"],
], ids=" ".join)
def test_parser_matches_argparse_on_edge_cases(argv):
    """These cases read the same under the argparse of Python 3.10 to
    3.13.0.  -hx is left out: argparse 3.13 reads it as -h, while earlier
    releases and this parser reject it."""
    assert outcome(build_parser(), argv)[0] == \
        outcome(ref_build_parser(), argv)[0]


@pytest.mark.parametrize("argv", [
    ["verify", "ainf", "f", "--bound-n", "0"],
    ["operad", "d2", "ass-minimal", "--arity", "-3"],
    ["operad", "alpha", "--length=-1"],
    ["operad", "homology", "ass-minimal", "--len", "0"],
    ["move", "m1", "a", "b", "--out", "p", "--bou=-7"],
])
def test_bounds_below_one_give_the_same_message(argv):
    """Both parsers exit 2 naming the option and the value given."""
    option, value = argv[-1].split("=") if "=" in argv[-1] else argv[-2:]
    option = next(o for o in OPTIONS if o.startswith(option))
    message = f"argument {option}: must be at least 1, got {value}\n"
    (result, err), (ref_result, ref_err) = (
        outcome(build_parser(), argv), outcome(ref_build_parser(), argv))
    assert result == ref_result == ("exit", 2)
    assert ref_err.endswith(message)
    assert err.startswith(f"usage: shalg {argv[0]} ")
    assert err.endswith(f"\nshalg {argv[0]}: error: {message}")
