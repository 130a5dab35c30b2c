"""File formats for complexes, structures, morphisms, and retract data.

Everything is JSON-compatible text.  Matrices are stored column-major:
one list per source basis vector, each listing the coordinates of its
image.  Rational entries are JSON integers or strings of the form
"p" or "p/q": an optional sign, decimal digits and an optional "/"
with decimal digits, with optional whitespace around it all.  No
floats are ever read or written, and strings such as "1.5", "1e3" or
"1_000" are refused.  Integer fields (dimensions, degrees, arities, N)
and the keys that index blocks, dimensions, operations and components
are JSON integers or strings in the form str() writes: an optional "-"
and ASCII decimal digits with no leading zero, so "01", "+1", "-0",
" 1", "1_0" and non-ASCII digits are refused, and no two keys of one
table name the same integer.
"""

import json
import os

from .exactlin import (
    ChainComplex,
    GradedMap,
    GradedVectorSpace,
    Rational,
    tensor_power,
    tensor_spaces,
)
from .ainfty import AInfinityAlgebra, AInfinityMorphism
from .operadcore import builtin_presentation


# -------------------------------------------------------------- rationals


def dump_fraction(x):
    """An int or rational x as a JSON integer or a "p/q" string."""
    if x.denominator == 1:
        return x.numerator
    return f"{x.numerator}/{x.denominator}"


def _digits(s):
    return s.isascii() and s.isdigit()


def parse_fraction(v):
    """The Rational of a JSON integer or a "p" or "p/q" string (see the
    module docstring); ValueError on anything else, ZeroDivisionError
    on a zero denominator."""
    if isinstance(v, bool):
        raise ValueError(f"not a rational: {v!r}")
    if isinstance(v, int):
        return Rational(v)
    if isinstance(v, str):
        num, slash, den = v.strip().partition("/")
        if (_digits(num[1:] if num[:1] in "+-" else num)
                and (_digits(den) or not slash)):
            return Rational(int(num), int(den) if slash else 1)
        raise ValueError(f"not a rational: {v!r} (expected an integer or "
                         f"\"p/q\")")
    raise ValueError(f"not a rational: {v!r} (floats are not accepted)")


# ------------------------------------------------------------ validation


class InputError(ValueError):
    """Malformed input data: a missing field, or a field of the wrong
    type or shape.  The message starts with the field's JSON path."""


_REQUIRED = object()
_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _type_name(value):
    return "null" if value is None else type(value).__name__


def field(data, key, path="$", kind=None, default=_REQUIRED):
    """data[key], checked to be an instance of kind (dict, list or str)
    when given; a missing key is an error unless a default is given."""
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected an object, got "
                         f"{_type_name(data)}")
    if key not in data:
        if default is _REQUIRED:
            raise InputError(f"{path}.{key}: missing")
        return default
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        raise InputError(f"{path}.{key}: expected {_KINDS[kind]}, got "
                         f"{_type_name(value)}")
    return value


def _nested(loader, data, key, path, *args):
    """loader applied to the required field data[key], at its path."""
    return loader(field(data, key, path), *args, path=f"{path}.{key}")


def parse_int(value, path):
    """An integer given as a JSON integer or as the string str() writes
    for one (the form of JSON object keys; see the module docstring)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            n = int(value)
        except ValueError:
            pass
        else:
            if str(n) == value:
                return n
    raise InputError(f"{path}: expected an integer, got {value!r}")


def _rational(value, path):
    try:
        return parse_fraction(value)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    except ZeroDivisionError:
        raise InputError(f"{path}: zero denominator in {value!r}") from None


def _label(value, path):
    """A basis label; lists (tensor labels) are read back as tuples."""
    if isinstance(value, list):
        return tuple(_label(x, f"{path}[{i}]") for i, x in enumerate(value))
    if isinstance(value, dict):
        raise InputError(f"{path}: a label cannot be an object")
    return value


# --------------------------------------------------------------- matrices


def _blocks_to_data(m: GradedMap) -> dict:
    """Dense column lists of every nonzero degree block."""
    out = {}
    for k in sorted(m.columns):
        cols = [[0] * m.target.dim(k + m.degree)
                for _ in range(m.source.dim(k))]
        for j, col in m.columns[k].items():
            for i, x in col.items():
                cols[j][i] = dump_fraction(x)
        out[str(k)] = cols
    return out


def _check_list(value, n, what, path):
    if not isinstance(value, list):
        raise InputError(f"{path}: expected a list of {n} {what}, got "
                         f"{_type_name(value)}")
    if len(value) != n:
        raise InputError(f"{path}: expected {n} {what}, got {len(value)}")


def _blocks_from_data(blocks, source, target, degree, path) -> dict:
    """Sparse columns of a map from dense column lists per degree."""
    columns = {}
    for k_str, cols in blocks.items():
        k = parse_int(k_str, path)
        kpath = f"{path}.{k_str}"
        nrows, ncols = target.dim(k + degree), source.dim(k)
        _check_list(cols, ncols, "columns", kpath)
        block = {}
        for j, col in enumerate(cols):
            cpath = f"{kpath}[{j}]"
            _check_list(col, nrows, "entries", cpath)
            entries = {}
            for i, v in enumerate(col):
                x = _rational(v, f"{cpath}[{i}]")
                if x:
                    entries[i] = x
            if entries:
                block[j] = entries
        if block:
            columns[k] = block
    return columns


def map_to_data(m: GradedMap) -> dict:
    return {"degree": m.degree, "blocks": _blocks_to_data(m)}


def map_from_data(data, source, target, path="$") -> GradedMap:
    degree = parse_int(field(data, "degree", path), f"{path}.degree")
    columns = _blocks_from_data(field(data, "blocks", path, dict, {}),
                                source, target, degree, f"{path}.blocks")
    return GradedMap.from_columns(source, target, degree, columns)


# -------------------------------------------------------------- complexes


def complex_to_data(c: ChainComplex) -> dict:
    data = {"dims": {str(k): n for k, n in sorted(c.space.dims.items())},
            "differential": _blocks_to_data(c.differential)}
    default = GradedVectorSpace(c.space.dims)
    if c.space.labels != default.labels:
        data["labels"] = {str(k): list(v)
                          for k, v in sorted(c.space.labels.items())}
    return data


def complex_from_data(data, path="$") -> ChainComplex:
    dims = {parse_int(k, f"{path}.dims"): parse_int(n, f"{path}.dims.{k}")
            for k, n in field(data, "dims", path, dict).items()}
    labels = None
    if "labels" in data:
        given = field(data, "labels", path, dict)
        labels = {d: _label(field(given, str(d), f"{path}.labels", list),
                            f"{path}.labels.{d}")
                  for d, n in dims.items() if n}
    space = GradedVectorSpace(dims, labels)
    columns = _blocks_from_data(field(data, "differential", path, dict, {}),
                                space, space, -1, f"{path}.differential")
    return ChainComplex(space, GradedMap.from_columns(space, space, -1,
                                                      columns))


# ------------------------------------------------- structures & morphisms


def algebra_to_data(a: AInfinityAlgebra) -> dict:
    return {"kind": "ainf",
            "complex": complex_to_data(a.complex),
            "operations": {str(n): map_to_data(a.mu(n))
                           for n in range(2, a.N + 1)
                           if not a.mu(n).is_zero()},
            "N": a.N}


def _arities(data, key, lo, N, path):
    """(arity, map data, path) of each entry of a component table, the
    arity checked to lie within lo..N before any tensor power is built."""
    out = []
    for n_str, md in field(data, key, path, dict, {}).items():
        n = parse_int(n_str, f"{path}.{key}")
        if not lo <= n <= N:
            raise InputError(f"{path}.{key}.{n_str}: arity outside "
                             f"{lo}..{N}")
        out.append((n, md, f"{path}.{key}.{n_str}"))
    return out


def algebra_from_data(data, path="$") -> AInfinityAlgebra:
    N = parse_int(field(data, "N", path), f"{path}.N")
    if N < 2:
        raise InputError(f"{path}.N: must be at least 2, got {N}")
    c = _nested(complex_from_data, data, "complex", path)
    ops = {n: map_from_data(md, tensor_power(c.space, n), c.space, p)
           for n, md, p in _arities(data, "operations", 2, N, path)}
    return AInfinityAlgebra(c, ops, N)


def morphism_to_data(m: AInfinityMorphism) -> dict:
    return {"kind": "morphism",
            "source": algebra_to_data(m.source),
            "target": algebra_to_data(m.target),
            "components": {str(n): map_to_data(m.f(n))
                           for n in range(1, m.N + 1)
                           if not m.f(n).is_zero()},
            "N": m.N}


def morphism_from_data(data, path="$") -> AInfinityMorphism:
    N = parse_int(field(data, "N", path), f"{path}.N")
    if N < 1:
        raise InputError(f"{path}.N: must be at least 1, got {N}")
    src = _nested(algebra_from_data, data, "source", path)
    tgt = _nested(algebra_from_data, data, "target", path)
    if N > min(src.N, tgt.N):
        raise InputError(f"{path}.N: {N} exceeds the algebras' orders (at "
                         f"most {min(src.N, tgt.N)})")
    comps = {n: map_from_data(md, tensor_power(src.space, n), tgt.space, p)
             for n, md, p in _arities(data, "components", 1, N, path)}
    return AInfinityMorphism(src, tgt, comps, N)


# ------------------------------------------------------------ retract data


def sdr_to_data(s) -> dict:
    return {"kind": "sdr",
            "big": complex_to_data(s.big),
            "small": complex_to_data(s.small),
            "nabla": map_to_data(s.nabla),
            "f": map_to_data(s.f),
            "phi": map_to_data(s.phi)}


def sdr_parts_from_data(data, path="$"):
    """RetractParts (big, small, nabla, f, phi) of a retract file, with
    the retract identities left unchecked."""
    from .transfer import RetractParts  # only retract files load transfer
    big = _nested(complex_from_data, data, "big", path)
    small = _nested(complex_from_data, data, "small", path)
    return RetractParts(
        big, small,
        _nested(map_from_data, data, "nabla", path, small.space, big.space),
        _nested(map_from_data, data, "f", path, big.space, small.space),
        _nested(map_from_data, data, "phi", path, big.space, big.space))


def sdr_from_data(data, path="$"):
    """SDRData of a retract file: the parts, checked to be a retract."""
    from .transfer import SDRData
    return SDRData(*sdr_parts_from_data(data, path))


def _known(table, names, path, what):
    """Raise InputError at the first key of table that names lacks, a
    key that is no `what` (a color or generator of the presentation)."""
    for key in table:
        if key not in names:
            raise InputError(f"{path}.{key}: no {what}")


def action_from_data(data, path="$"):
    """Resolution-action file: the coherence truncation order (at least
    1, default 1), a named built-in presentation, built at that order
    when it is a truncated model, one complex per color, and one
    assigned map (or null) per generator.  A color or generator name the
    presentation lacks is refused, as is a generator above the order."""
    truncation = parse_int(field(data, "truncation", path, default=1),
                           f"{path}.truncation")
    if truncation < 1:
        raise InputError(
            f"{path}.truncation: must be at least 1, got {truncation}")
    name = field(data, "presentation", path, str)
    try:
        pres = builtin_presentation(name, truncation)
    except ValueError as exc:  # no bundled model has that name
        raise InputError(f"{path}.presentation: {exc}") from None
    given = field(data, "complexes", path, dict)
    _known(given, pres.colors, f"{path}.complexes", f"color of {pres.name}")
    for c in pres.colors:
        field(given, c, f"{path}.complexes")
    complexes = {c: complex_from_data(cd, f"{path}.complexes.{c}")
                 for c, cd in given.items()}
    assignment = {}
    table = field(data, "assignment", path, dict, {})
    _known(table, pres.generators, f"{path}.assignment",
           f"generator of {pres.name}")
    for name, g in pres.generators.items():
        source = tensor_spaces([complexes[c].space for c in g.inputs])
        target = complexes[g.output].space
        md = table.get(name)
        if md is None:
            assignment[name] = GradedMap.zero(source, target, g.degree)
        else:
            assignment[name] = map_from_data(md, source, target,
                                             f"{path}.assignment.{name}")
    return pres, assignment, complexes, truncation


# ------------------------------------------------------------------ files


def load(path, digest=None):
    """The JSON data of a file, read once as bytes and decoded as UTF-8
    text (newlines translated, as a text-mode read does); the bytes are
    fed to digest, a hash object, when one is given.  An object that
    names one key twice, at any depth, is refused: json would keep the
    last value and drop the first unseen."""
    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"{path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    with open(path, "rb") as fh:
        raw = fh.read()
    if digest is not None:
        digest.update(raw)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}, column "
                         f"{exc.colno}: {exc.msg}") from exc


def dump(path, data, *more):
    """Write data to path atomically (write-then-rename): a str as it
    is, anything else as JSON.  more holds further (path, data) pairs,
    written with the first as one step: every file goes to a temporary
    file next to its target before any target is replaced, and on
    failure the temporaries are removed, so a failed write replaces no
    target.  Each file gets the mode open() would give a new file,
    0o666 less the umask.  An OSError names its target, not the
    temporary file."""
    import tempfile  # not loaded by commands that write no file
    umask = os.umask(0)  # the only way to read it is to set it
    os.umask(umask)
    staged = []  # (temporary, target) pairs
    try:
        for path, data in ((path, data), *more):
            if not isinstance(data, str):
                data = json.dumps(data, indent=1, sort_keys=True) + "\n"
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
            staged.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                os.chmod(tmp, 0o666 & ~umask)
                fh.write(data)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
