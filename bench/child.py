"""Entry point of one benchmark job process.

    python3 child.py run ARGS...                  shalg ARGS, untraced
    python3 child.py trace SPANS JOB_ID ARGS...   shalg ARGS, traced
    python3 child.py setup                        import and parse only

The traced form wraps every public function of the shalg layer modules
(and ``GradedMap.compose``/``add``) before ``shalg.cli.main`` runs,
patching each name in every module that bound it with ``from ...
import``.  Spans stay in memory as (name, start, end, count_end,
parent, counts) and are written to SPANS with ``marshal`` when the
job exits.  The counters are computed after ``end``; the interval up to
``count_end`` is charged to tracing, not to the layer.
"""

import functools
import marshal
import os
import sys
import time

LAYERS = ("exactlin", "ainfty", "transfer", "operadcore", "serialize")
SETUP_ARGV = ["operad", "d2", "ass-minimal", "--arity", "3"]


def _dense_entries(m):
    """Dense entry count of a graded map, from its block shapes."""
    return sum(n * m.target.dim(k + m.degree)
               for k, n in m.source.dims.items())


def _nonzeros(mat):
    return sum(1 for row in mat for x in row if x)


def _matrix_counts(args, result):
    a, b = args[0], args[1]
    entries = sum(len(m) * (len(m[0]) if m else 0) for m in (a, b))
    return entries, _nonzeros(a) + _nonzeros(b)


def _tensor_counts(args, result):
    return (_dense_entries(result),
            sum(_nonzeros(mat) for mat in result.blocks.values()))


def _space_key(args, result):
    return (hash(tuple(args[0])),)


def _rref_counts(args, result):
    a = args[0]
    rows, cols = len(a), (len(a[0]) if a else 0)
    # second count: the largest rank possible, for rank_share
    return rows * cols, len(result[2]), min(rows, cols)


def _solve_counts(args, result):
    rhs, src, tgt, deg = args[1], args[2], args[3], args[4]
    unknowns = sum(n * tgt.dim(k + deg) for k, n in src.dims.items())
    return unknowns, _dense_entries(rhs)


def _trees(args, result):
    return (len(result),)


def _input_terms(args, result):
    return (len(args[1]),)


def _file_bytes(args, result):
    return (os.path.getsize(args[0]),)


def _dump_raw_bytes(args, result):
    return (len(args[1].encode("utf-8")),)


COUNTERS = {
    "exactlin.mat_add": _matrix_counts,
    "exactlin.mat_mul": _matrix_counts,
    "exactlin.tensor_maps_many": _tensor_counts,
    "exactlin.tensor_spaces": _space_key,
    "exactlin.rref": _rref_counts,
    "exactlin.solve_map_equation": _solve_counts,
    "operadcore.enumerate_trees": _trees,
    "operadcore.derivation_extend": _input_terms,
    "serialize.load": _file_bytes,
    "serialize.dump": _file_bytes,
    "serialize.dump_raw": _dump_raw_bytes,
}
# Per-tree accessors of operadcore, not wrapped inside operadcore itself.
ACCESSORS = {"is_leaf", "tree_arity", "tree_vertices", "tree_word",
             "tree_degree", "tree_tj", "tree_output_color",
             "tree_shifted_degree", "tree_is_valid", "basis_sign"}
# Recursive functions whose count is taken at the outermost call only.
OUTERMOST = {"operadcore.enumerate_trees"}


class Tracer:
    def __init__(self, job_id):
        self.job_id = job_id
        self.names = []
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        outermost = name in OUTERMOST
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        active = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            active[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                spans[idx] = (nid, start, end, end, parent, ())
                raise
            finally:
                stack.pop()
                active[0] -= 1
            end = clock()
            counts = ()
            if counter is not None and not (outermost and active[0]):
                counts = counter(args, result)
            spans[idx] = (nid, start, end, clock(), parent, counts)
            return result

        return wrapper

    def install(self):
        """Wrap every public function of each layer, and every private
        one that another module imports, in each module that bound it.
        Generator functions are left alone (a span would close before
        the work runs), and so are the per-tree accessors inside their
        own module: they run millions of times per job and a span costs
        more than the call.  Their time stays in the calling span."""
        import importlib
        import inspect
        mods = [importlib.import_module(f"shalg.{m}")
                for m in LAYERS + ("cli",)]
        for layer, mod in zip(LAYERS, mods):
            for attr, obj in list(vars(mod).items()):
                if (not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                binders = [m for m in mods if getattr(m, attr, None) is obj]
                if attr.startswith("_") and binders == [mod]:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", obj)
                for m in binders:
                    if not (m is mod and attr in ACCESSORS):
                        setattr(m, attr, wrapped)
        gm = mods[0].GradedMap
        for meth in ("compose", "add"):
            setattr(gm, meth,
                    self.wrap(f"exactlin.GradedMap.{meth}",
                              getattr(gm, meth)))

    def write(self, path):
        """Spans, then the time the write finished, as two records."""
        start = time.perf_counter()
        with open(path, "wb") as fh:
            marshal.dump({"job": self.job_id, "names": self.names,
                          "spans": self.spans, "write_start": start}, fh)
            fh.flush()
            marshal.dump(time.perf_counter(), fh)


def main(argv):
    mode = argv[0]
    if mode == "setup":
        import shalg.cli
        shalg.cli.build_parser().parse_args(SETUP_ARGV)
        return 0
    tracer = None
    if mode == "trace":
        path, tracer = argv[1], Tracer(argv[2])
        tracer.install()
        argv = argv[3:]
    else:
        argv = argv[1:]
    from shalg.cli import main as cli_main
    try:
        return cli_main(argv)
    finally:
        if tracer is not None:
            tracer.write(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
