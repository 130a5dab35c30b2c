"""Property tests of exactlin.Rational against the standard library's
Fraction as the reference: construction and normalization, + - * /,
negation, ==, bool and hash, operands of either type on either side,
and the file format's parse_fraction / dump_fraction."""

import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shalg.exactlin import Rational
from shalg.serialize import dump_fraction, parse_fraction

SETTINGS = settings(max_examples=300, deadline=None)

# big and negative integers, with the small ones that cancel often
ints = st.one_of(st.integers(-12, 12), st.integers(-10**40, 10**40))
nonzero = ints.filter(bool)
pairs = st.tuples(ints, nonzero)
OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def parts(x):
    return x.numerator, x.denominator


@SETTINGS
@given(pairs)
def test_construction_is_normalized_as_fraction(pair):
    n, d = pair
    r, f = Rational(n, d), Fraction(n, d)
    assert type(r) is Rational and parts(r) == parts(f)
    assert r.denominator > 0
    assert Rational(f) == r and parts(Rational(f)) == parts(f)
    assert Rational(r) is r
    assert parts(Rational(n)) == (n, 1)
    assert parts(Rational(f, Fraction(d, 7))) == parts(f / Fraction(d, 7))


class Loose:
    """A rational given by integer numerator and denominator attributes
    that are not in lowest terms."""
    numerator, denominator = 6, -4


def test_operands_not_in_lowest_terms_are_normalized():
    assert parts(Rational(Loose())) == (-3, 2)
    assert parts(Rational(Loose(), 3)) == (-1, 2)
    assert Rational(-3, 2) == Loose() and Loose() == Rational(-3, 2)
    assert parts(Rational(1, 2) + Loose()) == (-1, 1)
    assert parts(Loose() * Rational(2, 3)) == (-1, 1)
    assert parts(Rational(3) / Loose()) == (-2, 1)


@pytest.mark.parametrize("n", [0, 1, -5, Fraction(3, 4)])
def test_zero_denominator_raises(n):
    with pytest.raises(ZeroDivisionError):
        Rational(n, 0)
    with pytest.raises(ZeroDivisionError):
        Rational(n, Fraction(0))


@pytest.mark.parametrize("x", [0.5, "1/2", None, 1j])
def test_only_rationals_are_taken(x):
    with pytest.raises(TypeError):
        Rational(x)
    for op in OPS:
        with pytest.raises(TypeError):
            op(Rational(1, 2), x)
        with pytest.raises(TypeError):
            op(x, Rational(1, 2))


@SETTINGS
@given(pairs, pairs)
def test_arithmetic_matches_fraction(p, q):
    """+ - * / of two Rationals, and of a Rational with an int or a
    Fraction on either side, is the Fraction result, in lowest terms and
    as a Rational; division by zero raises ZeroDivisionError."""
    ra = Rational(*p)
    for b in (q[0], Fraction(*q)):
        for op in OPS:
            for x, y in ((ra, Rational(b)), (ra, b), (b, ra)):
                fx, fy = Fraction(*parts(x)), Fraction(*parts(y))
                if op is operator.truediv and not fy:
                    with pytest.raises(ZeroDivisionError):
                        op(x, y)
                    continue
                got = op(x, y)
                assert type(got) is Rational, (op, x, y)
                assert parts(got) == parts(op(fx, fy)), (op, x, y)
    assert (ra == Rational(*q)) == (Fraction(*p) == Fraction(*q))


@SETTINGS
@given(pairs)
def test_negation_bool_equality_and_hash_match_fraction(p):
    r, f = Rational(*p), Fraction(*p)
    assert parts(-r) == parts(-f) and type(-r) is Rational
    assert bool(r) == bool(f)
    assert r == f and f == r and not r != f
    assert hash(r) == hash(f)
    if f.denominator == 1:
        assert r == f.numerator and f.numerator == r
        assert hash(r) == hash(f.numerator)
    else:
        assert r != f.numerator and f.numerator != r
    assert r != f + 1 and f + 1 != r
    assert {r: 1}[f] == 1 and {f: 1}[r] == 1


def test_hash_of_special_values():
    assert hash(Rational(-1)) == hash(-1) == -2
    assert hash(Rational(0)) == 0
    for n, d in [(1, 2), (-1, 2), (3, 2**61 - 1), (-3, 2 * (2**61 - 1))]:
        assert hash(Rational(n, d)) == hash(Fraction(n, d))


@SETTINGS
@given(pairs)
def test_dump_then_parse_round_trips(p):
    r, f = Rational(*p), Fraction(*p)
    text = dump_fraction(r)
    assert text == (f.numerator if f.denominator == 1
                    else f"{f.numerator}/{f.denominator}")
    assert text == dump_fraction(f)
    back = parse_fraction(text)
    assert type(back) is Rational and parts(back) == parts(f)
    if isinstance(text, int):
        back = parse_fraction(str(text))
        assert type(back) is Rational and parts(back) == parts(f)


# The documented grammar: an optional sign, decimal digits and an
# optional "/" with decimal digits, with whitespace around it all.
GRAMMAR = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


@SETTINGS
@given(st.text(alphabet="0123456789+-/._e \t", max_size=8))
def test_parse_accepts_exactly_the_grammar(text):
    """A string in the grammar parses to its Fraction value; any other
    string, "1.5", "1e3" and "1_000" among them, raises ValueError."""
    if GRAMMAR.fullmatch(text):
        try:
            f = Fraction(text)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                parse_fraction(text)
            return
        got = parse_fraction(text)
        assert type(got) is Rational and parts(got) == parts(f)
    else:
        with pytest.raises(ValueError):
            parse_fraction(text)


@pytest.mark.parametrize("v", ["1.5", "1e3", "1_000", "0x10", "1/-2", "",
                               "-", "1/", "/2", "1 / 2", "- 1", "١",
                               "inf", "nan", 1.5, None, True, [1]])
def test_parse_refuses(v):
    with pytest.raises(ValueError):
        parse_fraction(v)
