"""JSON text in both directions, as the json module writes and reads it.

dumps writes what json.dumps(x, sort_keys=True) writes, and with an
indent what json.dumps(x, indent=indent, sort_keys=True) writes, byte
for byte; loads returns what json.loads returns.  Importing json costs
a process more start-up than most commands' own work (its regular
expressions and the modules under json.decoder), so this module runs
json's own C functions from _json directly: encode_basestring_ascii
quotes every string, and make_scanner parses.  json itself is imported
only where a document fails to parse, to re-parse it, so that every
malformed input raises json's own exception with json's own message.
"""

import math

try:
    from _json import encode_basestring_ascii as _quote
    from _json import make_scanner as _make_scanner
except ImportError:  # an interpreter built without _json: json's own code
    from json.decoder import JSONDecoder
    from json.encoder import py_encode_basestring_ascii as _quote

    def _make_scanner(options):
        return JSONDecoder(
            object_pairs_hook=options.object_pairs_hook).scan_once


# ----------------------------------------------------------------- write


def _float(x):
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key(key):
    """An object key as json writes it: a str as it is, a float, bool,
    None or int as its JSON text."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def _write(x, out, newline, step):
    """Append the JSON text of x to out.  newline is "" on one line, and
    with an indent the line break and indent of x's own line, which
    its items go one step further in from."""
    if isinstance(x, str):
        out.append(_quote(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, float):
        out.append(_float(x))
    elif isinstance(x, (list, tuple, dict)):
        is_dict = isinstance(x, dict)
        if not x:
            out.append("{}" if is_dict else "[]")
            return
        inner = newline + step
        out.append(("{" if is_dict else "[") + inner)
        separator = "," + inner if newline else ", "
        for i, item in enumerate(sorted(x.items()) if is_dict else x):
            if i:
                out.append(separator)
            if is_dict:
                out.append(_quote(_key(item[0])) + ": ")
                item = item[1]
            _write(item, out, inner, step)
        out.append(newline + ("}" if is_dict else "]"))
    else:
        raise TypeError(f"Object of type {type(x).__name__} "
                        f"is not JSON serializable")


def dumps(x, indent=None):
    """json.dumps(x, indent=indent, sort_keys=True): ASCII text, object
    keys sorted, ", " between items on one line, or with an indent (an
    int) one item a line with "," after each but the last."""
    out = []
    _write(x, out, "" if indent is None else "\n", " " * (indent or 0))
    return "".join(out)


# ------------------------------------------------------------------ read


class _Options:
    """What json's scanner reads of a decoder: json.loads's defaults,
    with an object_pairs_hook."""
    strict = True
    object_hook = None
    parse_float = float
    parse_int = int
    parse_constant = {"NaN": math.nan, "Infinity": math.inf,
                      "-Infinity": -math.inf}.__getitem__

    def __init__(self, object_pairs_hook):
        self.object_pairs_hook = object_pairs_hook


_SPACE = " \t\n\r"  # json's whitespace


def loads(text, object_pairs_hook=None):
    """json.loads(text, object_pairs_hook=object_pairs_hook) of a str.
    The scanner raises json's own exception where json.loads does, and
    the hook's exceptions pass through; a document it stops short on
    (nothing to read, trailing data or a byte order mark) is parsed
    again by json.loads, which raises.  So is one the scanner refuses
    with SystemError: before 3.12, it cannot raise json's exception
    until json is imported."""
    start = len(text) - len(text.lstrip(_SPACE))
    try:
        value, end = _make_scanner(_Options(object_pairs_hook))(text, start)
    except (StopIteration, SystemError):
        end = None
    if end != len(text.rstrip(_SPACE)):
        import json
        return json.loads(text, object_pairs_hook=object_pairs_hook)
    return value
