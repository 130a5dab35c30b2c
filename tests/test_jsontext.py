"""shalg.jsontext against json itself: dumps writes json.dumps's text
byte for byte, and loads returns what json.loads returns or raises what
it raises, on random documents, on truncated and mutated ones, and with
the duplicate-key refusal of serialize.load as object_pairs_hook.  Each
property runs twice: on json's C functions, as on every CPython, and on
json's pure-Python code, as on an interpreter built without _json."""

import importlib
import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import shalg
from shalg import jsontext

# Every code point: control characters, non-ASCII and astral text, and
# lone surrogates, which encode as \\udXXX escapes.
TEXT = st.text(st.characters(exclude_categories=()))
SCALARS = (st.none() | st.booleans() | st.integers() | TEXT
           | st.integers(-2 ** 200, 2 ** 200)
           | st.floats(allow_nan=False, allow_infinity=False))
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=4)
                   | st.dictionaries(st.integers(), inner, max_size=4)),
    max_leaves=20)


def _json_modules():
    return [name for name in sys.modules
            if name in ("json", "_json", "shalg.jsontext")
            or name.startswith("json.")]


@pytest.fixture(scope="module", params=["_json", "pure-python"])
def codec(request):
    """(jsontext, json) as the interpreter has them: with _json, or, for
    "pure-python", both imported afresh while _json cannot be
    imported, so that jsontext falls back to json's Python code and
    json runs its own."""
    if request.param == "_json":
        yield jsontext, json
        return
    saved = {name: sys.modules.pop(name) for name in _json_modules()}
    sys.modules["_json"] = None  # import _json raises ImportError
    try:
        pure = importlib.import_module("shalg.jsontext")
        assert pure._quote.__module__ == "json.encoder"
        yield pure, importlib.import_module("json")
    finally:
        for name in _json_modules():
            del sys.modules[name]
        sys.modules.update(saved)
        shalg.jsontext = jsontext


def outcome(loads, text, hook):
    """loads(text, hook)'s value, or its exception's type and message."""
    try:
        return repr(loads(text, object_pairs_hook=hook))
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def unique_keys(pairs):
    """serialize.load's refusal of an object naming one key twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


@settings(max_examples=150, deadline=None)
@given(value=VALUES)
def test_dumps_writes_json_dumps_text(codec, value):
    ours, theirs = codec
    assert ours.dumps(value) == theirs.dumps(value, sort_keys=True)
    assert ours.dumps(value, indent=1) == theirs.dumps(value, indent=1,
                                                       sort_keys=True)


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 5e-324,
    {1.5: 0, 2.5: [True, None]}, {True: 1, False: 2}, {None: []},
    [[], {}, ()], {"": {"": {}}}, "\x00\x1f\x7f\ud800\U0001f600é"])
@pytest.mark.parametrize("indent", [None, 1, 2])
def test_dumps_special_values(codec, value, indent):
    ours, theirs = codec
    assert ours.dumps(value, indent) == theirs.dumps(value, indent=indent,
                                                     sort_keys=True)


def test_dumps_refuses_what_json_refuses(codec):
    ours, _ = codec
    with pytest.raises(TypeError, match="not JSON serializable"):
        ours.dumps([object()])
    with pytest.raises(TypeError, match="keys must be str"):
        ours.dumps({(1, 2): 0})


@settings(max_examples=150, deadline=None)
@given(value=VALUES, indent=st.sampled_from([None, 1]),
       hook=st.sampled_from([None, unique_keys]))
def test_loads_reads_what_json_loads_reads(codec, value, indent, hook):
    ours, theirs = codec
    text = theirs.dumps(value, indent=indent)
    assert (outcome(ours.loads, text, hook)
            == outcome(theirs.loads, text, hook))


# Characters that make and break JSON: its whitespace and structure,
# literals' letters, whitespace json does not accept, a byte order mark.
EDITS = st.sampled_from(list(" \t\n\r{}[]:,\"\\-+.0123456789eEntfalsNIy"
                             "\x00\x0b\x0c\xa0\ufeff\ud800"))


@st.composite
def damaged(draw):
    """The text of a random document, with one key made to repeat at
    times, then truncated, or with characters inserted, deleted or
    replaced at random positions."""
    text = json.dumps(draw(VALUES), indent=draw(st.sampled_from([None, 1])))
    if draw(st.booleans()):  # an object naming one key twice
        text = draw(st.sampled_from(['{"k": %s, "k": 1}' % text,
                                     '[{"a": {"k": 0, "k": %s}}]' % text]))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["truncate", "insert", "delete",
                                     "replace"]))
        if kind == "truncate":
            text = text[:i]
        elif kind == "insert":
            text = text[:i] + draw(EDITS) + text[i:]
        else:
            text = (text[:i] + (draw(EDITS) if kind == "replace" else "")
                    + text[i + 1:])
    return text


@settings(max_examples=400, deadline=None)
@given(text=damaged(), hook=st.sampled_from([None, unique_keys]))
def test_loads_of_damaged_documents_matches_json(codec, text, hook):
    """The same value, or the same exception type and message: a
    document the fast path refuses is parsed again by json.loads."""
    ours, theirs = codec
    assert (outcome(ours.loads, text, hook)
            == outcome(theirs.loads, text, hook))


@pytest.mark.parametrize("text", [
    "", " ", "\ufeff{}", "{} x", "1 2", "[1,]", '{"a" 1}', '{"a": 1,}',
    '"\x01"', "[1, 2", " \t\n\r[1] \t\n\r", "\x0b1", "1\x0c", "NaN",
    "-Infinity", '{"k": 1, "k": 2}', '[{"k": {"k": 1, "k": 2}}]'])
def test_loads_edge_documents_match_json(codec, text):
    ours, theirs = codec
    for hook in (None, unique_keys):
        assert (outcome(ours.loads, text, hook)
                == outcome(theirs.loads, text, hook))


def test_loads_raises_json_exception_before_json_is_imported():
    """In a fresh process that has not imported json, where the scanner
    of Python 3.11 and earlier cannot raise json's exception, a
    malformed document still raises it with json's message."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "from shalg.jsontext import loads\n"
            "assert 'json' not in sys.modules\n"
            "try:\n    loads('{\"a\": 1,\\n \"b\" 2}')\n"
            "except ValueError as exc:\n"
            "    print(type(exc).__name__, exc)\n")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    try:
        json.loads('{"a": 1,\n "b" 2}')
    except ValueError as exc:
        expected = f"{type(exc).__name__} {exc}"
    assert out == expected + "\n"
