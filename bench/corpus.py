"""Fixture corpus, job table and per-seed relabelling for the benchmark.

The corpus in ``bench/corpus/`` is built once by this script from
``BASE_SEED`` with shalg itself (tower-solved morphisms, retract data,
the riso action, and the outputs of ``move m1``/``m3`` that later jobs
read) and committed together with a sha256 manifest and the per-job
oracle.  Freezing it means a change to shalg's solvers cannot silently
change the inputs that two commits are measured on.

A benchmark run does not use the committed files directly: it derives
its inputs from ``--seed`` by flipping the sign of a seed-chosen subset
of basis vectors in every complex (an isomorphic relabelling).  The
relabelled inputs cost exactly as much to check as the originals, every
verdict is unchanged, every output file is the relabelled committed
output, and every certificate is the committed one with its input hashes
and residual witnesses relabelled, so the oracle holds for every seed
without running shalg.  Sign flips (unlike permutations) keep
leftmost-pivot solves equivariant.

Regenerate the corpus and oracle with ``python3 bench/corpus.py``.
"""

import hashlib
import itertools
import json
import os
import random
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "corpus")
MANIFEST = os.path.join(CORPUS, "manifest.json")
ORACLE = os.path.join(CORPUS, "oracle.json")
BASE_SEED = 1

# Generator colors of the riso presentation, as (input, output); kept
# here so that relabelling inputs never imports shalg.
RISO_COLORS = {"f": ("a", "b"), "g": ("b", "a"), "h": ("a", "a"),
               "l": ("b", "b"), "f2": ("a", "b"), "g2": ("b", "a"),
               "f3": ("a", "a"), "g3": ("b", "b"), "f4": ("a", "b"),
               "g4": ("b", "a")}

# Which named complex every map of every file lives on.  Complexes:
# ext (exterior DGA), exth (its homology), extc (a conjugate of ext),
# poly (truncated polynomials), tow (the tower-solved complex).
LAYOUTS = {
    "ext5.json": ("ainf", "ext"),
    "ext6.json": ("ainf", "ext"),
    "extc4.json": ("ainf", "extc"),
    "poly.json": ("ainf", "poly"),
    "poly_bad.json": ("ainf", "poly"),
    "tower_mor.json": ("morphism", "tow", "tow"),
    "tower_pert.json": ("maps", {"g": ("tow", "tow"), "h": ("tow", "tow")}),
    "ext_sdr.json": ("sdr", "ext", "exth"),
    "ext_action.json": ("action", {"a": "exth", "b": "ext"}),
    "ext_onesided.json": ("maps", {"target": "exth", "f": ("ext", "exth"),
                                   "g": ("exth", "ext"),
                                   "h": ("ext", "ext")}),
    "ext_inverse.json": ("maps", {"g": ("ext", "exth"),
                                  "h": ("exth", "exth"),
                                  "l": ("ext", "ext")}),
    "m1.morphism.json": ("morphism", "exth", "ext"),
    "m3.morphism.json": ("morphism", "ext", "exth"),
    "malformed.json": ("raw",),
    # outputs only
    "m1.structure.json": ("ainf", "exth"),
    "s.structure.json": ("ainf", "exth"),
    "s.morphism.json": ("morphism", "exth", "ext"),
    "m2.morphism.json": ("morphism", "tow", "tow"),
    "m4.morphism.json": ("morphism", "exth", "exth"),
}

# name, argv (inputs by corpus file name), expected exit status, outputs.
# The first job of each workload is its headline job.
JOBS = {
    "certify": [
        ("ainf-ext5", ["verify", "ainf", "ext5.json"], 0, []),
        # The conjugate is checked at N=4.  At N=5 it would be a second
        # 7 s job in every batch, halving the headline samples per run.
        ("ainf-conj4", ["verify", "ainf", "extc4.json"], 0, []),
        ("ainf-poly", ["verify", "ainf", "poly.json"], 0, []),
        ("ainf-poly-bad", ["verify", "ainf", "poly_bad.json"], 1, []),
        ("morphism-tower4", ["verify", "morphism", "tower_mor.json"], 0, []),
        ("sdr", ["verify", "sdr", "ext_sdr.json"], 0, []),
        ("action", ["verify", "action", "ext_action.json"], 0, []),
        ("malformed", ["verify", "ainf", "malformed.json"], 2, []),
    ],
    "construct": [
        ("m2-tower4", ["move", "m2", "tower_mor.json", "tower_pert.json",
                       "--out", "out/m2"], 0, ["m2.morphism.json"]),
        ("m1-ext6", ["move", "m1", "ext6.json", "ext_sdr.json",
                     "--bound-n", "6", "--out", "out/m1"], 0,
         ["m1.structure.json", "m1.morphism.json"]),
        ("s-ext6", ["move", "s", "ext6.json", "ext_onesided.json",
                    "--bound-n", "6", "--out", "out/s"], 0,
         ["s.structure.json", "s.morphism.json"]),
        ("m3-ext4", ["move", "m3", "m1.morphism.json", "ext_inverse.json",
                     "--bound-n", "4", "--out", "out/m3"], 0,
         ["m3.morphism.json"]),
        ("m4-ext4", ["move", "m4", "m1.morphism.json", "m3.morphism.json",
                     "--bound-n", "4", "--out", "out/m4"], 0,
         ["m4.morphism.json"]),
    ],
    "operad": [
        ("homology-ass6", ["operad", "homology", "ass-minimal",
                           "--arity", "6"], 0, []),
        ("kunneth5", ["operad", "kunneth", "--arity", "5"], 0, []),
        ("d2-ass11", ["operad", "d2", "ass-minimal", "--arity", "11"], 0, []),
        ("d2-arrow7", ["operad", "d2", "ass-arrow-minimal",
                       "--arity", "7"], 0, []),
        ("tree-dims5", ["operad", "tree-dims", "ass-minimal-3",
                        "free-binary", "--arity", "5"], 0, []),
        ("alpha6", ["operad", "alpha", "--length", "6"], 0, []),
        ("riso-extend", ["operad", "riso-extend", "ext_sdr.json"], 0, []),
    ],
}

# The seed program answers the malformed file with a KeyError traceback
# and exit 1 instead of a clean exit 2.  That failure is counted, but it
# does not make a run incorrect.
KNOWN_FAILURE = {"job": "malformed", "exit": 1, "stderr": "KeyError"}


def dump_text(data):
    """The exact bytes shalg.serialize.dump writes for data."""
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def sha256_bytes(b):
    return hashlib.sha256(b).hexdigest()


def sha256_file(path):
    with open(path, "rb") as fh:
        return sha256_bytes(fh.read())


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------- relabelling


def _neg(v):
    if isinstance(v, int):
        return -v
    p, q = v.split("/")
    return f"{-int(p)}/{q}"


def _flat_basis(dims):
    return [(d, i) for d in sorted(dims) for i in range(dims[d])]


class Relabel:
    """Sign flips of basis vectors, one sign vector per named complex."""

    def __init__(self, seed, dims):
        rng = random.Random(seed)
        self.signs = {}
        for name in sorted(dims):
            self.signs[name] = {d: [rng.choice((1, -1)) for _ in range(n)]
                                for d, n in sorted(dims[name].items())}
        self.dims = dims
        self._tensor = {}

    def _tensor_signs(self, names):
        """Per degree, the sign of each basis tensor of the product, in
        shalg's basis order (lexicographic in each factor's flat basis)."""
        key = tuple(names)
        if key not in self._tensor:
            out = {}
            bases = [_flat_basis(self.dims[n]) for n in names]
            for combo in itertools.product(*bases):
                s = 1
                for n, (d, i) in zip(names, combo):
                    s *= self.signs[n][d][i]
                out.setdefault(sum(d for d, _ in combo), []).append(s)
            self._tensor[key] = out
        return self._tensor[key]

    def map(self, md, sources, target):
        src = self._tensor_signs(sources)
        tgt = self.signs[target]
        deg = int(md["degree"])
        blocks = {}
        for k, cols in md.get("blocks", {}).items():
            cs, rs = src[int(k)], tgt[int(k) + deg]
            blocks[k] = [[_neg(v) if cs[j] * rs[i] < 0 else v
                          for i, v in enumerate(col)]
                         for j, col in enumerate(cols)]
        return dict(md, blocks=blocks)

    def complex(self, cd, name):
        s = self.signs[name]
        diff = {k: [[_neg(v) if s[int(k)][j] * s[int(k) - 1][i] < 0 else v
                     for i, v in enumerate(col)]
                    for j, col in enumerate(cols)]
                for k, cols in cd.get("differential", {}).items()}
        return dict(cd, differential=diff)

    def algebra(self, ad, name):
        ops = {n: self.map(md, [name] * int(n), name)
               for n, md in ad.get("operations", {}).items()}
        return dict(ad, complex=self.complex(ad["complex"], name),
                    operations=ops)

    def certificate(self, cert, layout):
        """A certificate recorded on the corpus, as shalg writes it for
        the relabelled inputs.  Only map witnesses (the first nonzero
        entry of a residual) depend on the labels: the entry keeps its
        place and changes sign with the basis vectors it sits on.  layout
        is that of the job's first input file, or None if it reads none.
        Raises ValueError for a witness it has no rule for."""
        checks = []
        for c in cert["checks"]:
            w = c.get("witness")
            if w is not None and layout is not None:
                m = re.fullmatch(r"(stasheff|morphism)-identity-n(\d+)",
                                 c["name"])
                if not m or layout[0] != ("ainf" if m[1] == "stasheff"
                                          else "morphism"):
                    raise ValueError(f"no relabelling for the witness of "
                                     f"{c['name']} on {layout[0]} input")
                n = int(m[2])
                if m[1] == "stasheff":
                    src, tgt, deg = layout[1], layout[1], n - 3
                else:
                    src, tgt, deg = layout[1], layout[2], n - 2
                k = w["degree"]
                s = (self._tensor_signs([src] * n)[k][w["column"]]
                     * self.signs[tgt][k + deg][w["row"]])
                c = dict(c, witness=dict(w, value=w["value"] if s > 0
                                         else _neg(w["value"])))
            checks.append(c)
        return dict(cert, checks=checks)

    def file(self, data, layout):
        kind = layout[0]
        if kind == "raw":
            return data
        if kind == "ainf":
            return self.algebra(data, layout[1])
        if kind == "morphism":
            src, tgt = layout[1], layout[2]
            comps = {n: self.map(md, [src] * int(n), tgt)
                     for n, md in data.get("components", {}).items()}
            return dict(data, source=self.algebra(data["source"], src),
                        target=self.algebra(data["target"], tgt),
                        components=comps)
        if kind == "sdr":
            big, small = layout[1], layout[2]
            return dict(data, big=self.complex(data["big"], big),
                        small=self.complex(data["small"], small),
                        nabla=self.map(data["nabla"], [small], big),
                        f=self.map(data["f"], [big], small),
                        phi=self.map(data["phi"], [big], big))
        if kind == "action":
            colors = layout[1]
            assignment = {
                g: self.map(md, [colors[RISO_COLORS[g][0]]],
                            colors[RISO_COLORS[g][1]])
                for g, md in data.get("assignment", {}).items()}
            return dict(data, assignment=assignment,
                        complexes={c: self.complex(cd, colors[c])
                                   for c, cd in data["complexes"].items()})
        if kind == "maps":
            out = dict(data)
            for key, spec in layout[1].items():
                if isinstance(spec, str):
                    out[key] = self.complex(data[key], spec)
                else:
                    out[key] = self.map(data[key], [spec[0]], spec[1])
            return out
        raise ValueError(f"unknown layout {kind!r}")


def complex_dims():
    """Per-degree dimensions of every named complex, read from the corpus."""
    dims = {}

    def note(name, cd):
        dims[name] = {int(k): int(n) for k, n in cd["dims"].items()}

    for fname, layout in LAYOUTS.items():
        kind = layout[0]
        if kind == "raw":
            continue
        data = load_json(_corpus_path(fname))
        if kind == "ainf":
            note(layout[1], data["complex"])
        elif kind == "morphism":
            note(layout[1], data["source"]["complex"])
            note(layout[2], data["target"]["complex"])
        elif kind == "sdr":
            note(layout[1], data["big"])
            note(layout[2], data["small"])
        elif kind == "action":
            for color, name in layout[1].items():
                note(name, data["complexes"][color])
    return dims


def _corpus_path(fname):
    inp = os.path.join(CORPUS, fname)
    if os.path.exists(inp):
        return inp
    return os.path.join(CORPUS, "expected", fname)


def check_manifest():
    """Names of corpus files whose sha256 differs from the manifest."""
    manifest = load_json(MANIFEST)
    bad = []
    for rel, digest in sorted(manifest.items()):
        path = os.path.join(CORPUS, rel)
        if not os.path.exists(path) or sha256_file(path) != digest:
            bad.append(rel)
    return bad


def expectations(workload, seed, dest, oracle):
    """Write the relabelled inputs of one workload into dest; return, per
    job, its oracle entry for this seed: exit status, certificate, and the
    sha256 of every output file keyed by its path relative to dest."""
    relabel = Relabel(seed, complex_dims())
    expect = {}
    for name, argv, _, outputs in JOBS[workload]:
        inputs = {}
        for arg in argv:
            if arg.endswith(".json"):
                text = dump_text(relabel.file(load_json(_corpus_path(arg)),
                                              LAYOUTS[arg]))
                with open(os.path.join(dest, arg), "w",
                          encoding="utf-8") as fh:
                    fh.write(text)
                inputs[arg] = sha256_bytes(text.encode("utf-8"))
        want = oracle[workload][name]
        cert = want["cert"]
        if cert is not None:
            layout = LAYOUTS[next(iter(inputs))] if inputs else None
            cert = dict(relabel.certificate(cert, layout), inputs=inputs)
        sha = {}
        for fname in outputs:
            data = relabel.file(load_json(_corpus_path(fname)),
                                LAYOUTS[fname])
            sha[os.path.join("out", fname)] = sha256_bytes(
                dump_text(data).encode("utf-8"))
        expect[name] = {"exit": want["exit"], "cert": cert, "sha": sha}
    os.makedirs(os.path.join(dest, "out"), exist_ok=True)
    return expect


# ------------------------------------------------------------- generation


def _build_base(seed):
    """Every input structure, built with shalg from seed."""
    from fractions import Fraction

    from shalg import serialize
    from shalg.ainfty import (AInfinityAlgebra, AInfinityMorphism,
                              an_residual, fn_residual)
    from shalg.exactlin import (ChainComplex, GradedMap, GradedVectorSpace,
                                hom_differential, kernel_basis, make_matrix,
                                rref, solve_map_equation, tensor_basis_tuples,
                                tensor_maps_many, tensor_power)
    from shalg.transfer import riso_zero_extension, sdr_onto_homology

    rng = random.Random(seed)

    def exterior_dga(N):
        sp = GradedVectorSpace({0: 2, 1: 2}, {0: ("1", "u"), 1: ("v", "uv")})
        cx = ChainComplex(sp, GradedMap(sp, sp, -1, {1: [[0, 0], [1, 0]]}))
        table = {("1", "1"): "1", ("1", "u"): "u", ("1", "v"): "v",
                 ("1", "uv"): "uv", ("u", "1"): "u", ("v", "1"): "v",
                 ("uv", "1"): "uv", ("u", "v"): "uv", ("v", "u"): "uv"}
        idx = {0: {"1": 0, "u": 1}, 1: {"v": 0, "uv": 1}}
        blocks = {}
        for k, tuples in tensor_basis_tuples([sp, sp]).items():
            mat = [[0] * len(tuples) for _ in range(sp.dim(k))]
            for col, ((d1, i1), (d2, i2)) in enumerate(tuples):
                prod = table.get((sp.labels[d1][i1], sp.labels[d2][i2]))
                if prod is not None:
                    mat[idx[k][prod]][col] = 1
            blocks[k] = mat
        return AInfinityAlgebra(
            cx, {2: GradedMap(tensor_power(sp, 2), sp, 0, blocks)}, N)

    def truncated_polynomial_dga():
        sp = GradedVectorSpace({0: 3}, {0: ("1", "x", "x2")})
        cx = ChainComplex(sp, GradedMap.zero(sp, sp, -1))
        table = {("1", "1"): "1", ("1", "x"): "x", ("x", "1"): "x",
                 ("1", "x2"): "x2", ("x2", "1"): "x2", ("x", "x"): "x2"}
        idx = {"1": 0, "x": 1, "x2": 2}
        tuples = tensor_basis_tuples([sp, sp])[0]
        mat = [[0] * len(tuples) for _ in range(3)]
        for col, ((_, i1), (_, i2)) in enumerate(tuples):
            prod = table.get((sp.labels[0][i1], sp.labels[0][i2]))
            if prod is not None:
                mat[idx[prod]][col] = 1
        return AInfinityAlgebra(
            cx, {2: GradedMap(tensor_power(sp, 2), sp, 0, {0: mat})}, 4)

    def random_map(source, target, degree):
        return GradedMap(source, target, degree, {
            k: [[rng.randint(-2, 2) for _ in range(source.dim(k))]
                for _ in range(target.dim(k + degree))]
            for k in source.degrees() if target.dim(k + degree)})

    def random_chain_complex(dims):
        space = GradedVectorSpace(dims)
        blocks, prev = {}, None
        for k in sorted(dims):
            n, m = dims[k], dims.get(k - 1, 0)
            if m == 0:
                prev = None
                continue
            if prev is None:
                mat = [[rng.randint(-2, 2) for _ in range(n)]
                       for _ in range(m)]
            else:
                mat = [[Fraction(0)] * n for _ in range(m)]
                kb = kernel_basis(prev)
                for j in range(n):
                    for v in kb:
                        c = rng.randint(-2, 2)
                        for i in range(m):
                            mat[i][j] += c * v[i]
            blocks[k] = mat
            prev = make_matrix(mat, m, n)
        return ChainComplex(space, GradedMap(space, space, -1, blocks))

    def bracket_solve(inner, c, n, degree):
        res = solve_map_equation(lambda x: hom_differential(x, [c] * n, c),
                                 inner, tensor_power(c.space, n), c.space,
                                 degree)
        if not res.consistent:
            raise RuntimeError(f"tower obstruction at arity {n}")
        return res.solution

    def solve_structure(c, mu2, N):
        mu = {2: mu2}
        for n in range(3, N + 1):
            # mu_n is still zero, so the residual is the inner sum alone
            sol = bracket_solve(an_residual(AInfinityAlgebra(c, mu, N), n),
                                c, n, n - 2)
            if not sol.is_zero():
                mu[n] = sol
        return AInfinityAlgebra(c, mu, N)

    def coherent_morphism(N, dims):
        c = random_chain_complex(dims)
        sq = tensor_power(c.space, 2)
        a = solve_structure(
            c, hom_differential(random_map(sq, c.space, 1), [c, c], c), N)
        b = solve_structure(
            c, hom_differential(random_map(sq, c.space, 1), [c, c], c), N)
        comps = {1: GradedMap.identity(c.space)}
        for n in range(2, N + 1):
            sol = bracket_solve(
                fn_residual(AInfinityMorphism(a, b, dict(comps), n), n),
                c, n, n - 1)
            if not sol.is_zero():
                comps[n] = sol
        return AInfinityMorphism(a, b, comps, N)

    def conjugate(a):
        """P^-1 . a . P^(x n) for a random invertible degree-0 P."""
        sp = a.space
        while True:
            p = random_map(sp, sp, 0)
            if all(len(rref(p.block(k))[2]) == sp.dim(k)
                   for k in sp.degrees()):
                break
        p_inv = GradedMap(sp, sp, 0, {k: rref(p.block(k))[1]
                                      for k in sp.degrees()})
        d = p_inv.compose(a.complex.differential).compose(p)
        mu2 = p_inv.compose(a.mu(2)).compose(tensor_maps_many([p, p]))
        return AInfinityAlgebra(ChainComplex(sp, d), {2: mu2}, a.N)

    ext5 = exterior_dga(5)
    sdr = sdr_onto_homology(ext5.complex)
    act = riso_zero_extension(sdr)["action"]
    poly = serialize.algebra_to_data(truncated_polynomial_dga())
    poly_bad = json.loads(json.dumps(poly))
    # x (x) x2 -> x2: with a zero differential n2 still passes, but
    # associativity breaks at n3
    poly_bad["operations"]["2"]["blocks"]["0"][5][2] = 1
    tower = coherent_morphism(4, {0: 1, 1: 2, 2: 1})
    V, W = tower.source, tower.target
    h = random_map(V.space, W.space, 1)
    g = tower.f(1).add(hom_differential(h, [V.complex], W.complex), 1, 1)
    zero_h = GradedMap.zero(sdr.small.space, sdr.small.space, 1)
    smap = serialize.map_to_data
    return {
        "ext5.json": serialize.algebra_to_data(ext5),
        "ext6.json": serialize.algebra_to_data(exterior_dga(6)),
        "extc4.json": serialize.algebra_to_data(conjugate(exterior_dga(4))),
        "poly.json": poly,
        "poly_bad.json": poly_bad,
        "tower_mor.json": serialize.morphism_to_data(tower),
        "tower_pert.json": {"g": smap(g), "h": smap(h)},
        "ext_sdr.json": serialize.sdr_to_data(sdr),
        "ext_action.json": {
            "kind": "action", "presentation": "riso",
            "complexes": {"a": serialize.complex_to_data(act.small),
                          "b": serialize.complex_to_data(act.big)},
            "assignment": {n: smap(m) for n, m in act.assignment.items()},
            "truncation": 1},
        "ext_onesided.json": {
            "target": serialize.complex_to_data(sdr.small),
            "f": smap(sdr.f), "g": smap(sdr.nabla), "h": smap(sdr.phi)},
        "ext_inverse.json": {"g": smap(sdr.f), "h": smap(zero_h),
                             "l": smap(sdr.phi)},
        "malformed.json": {"kind": "ainf", "N": 3},
    }


def _record(argv, outputs, workdir):
    """Run one job with the seed program; return its oracle entry."""
    from run import job_env, parse_cert, spawn_job

    res = spawn_job(["run"] + argv + ["--format", "machine"], workdir,
                    job_env(), timeout=600)
    cert = parse_cert(res.stdout)
    if cert is not None:
        # the input hashes depend on the seed; each run fills them in
        want = {a: sha256_file(_corpus_path(a)) for a in argv
                if a.endswith(".json")}
        if cert.pop("inputs") != want:
            raise SystemExit(f"{argv}: certificate hashes other inputs")
    for fname in outputs:
        os.replace(os.path.join(workdir, "out", fname),
                   os.path.join(CORPUS, "expected", fname))
    return {"exit": res.exit, "cert": cert}


def generate():
    """Rebuild the corpus, the expected outputs and the oracle."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    os.makedirs(os.path.join(CORPUS, "expected"), exist_ok=True)
    for fname, data in _build_base(BASE_SEED).items():
        with open(os.path.join(CORPUS, fname), "w", encoding="utf-8") as fh:
            fh.write(dump_text(data))
    import shutil
    import tempfile
    from run import WORK
    os.makedirs(WORK, exist_ok=True)
    oracle = {}
    # construct first: m3 and m4 read the recorded outputs of m1 and m3
    for workload in ("construct", "certify", "operad"):
        oracle[workload] = {}
        for name, argv, want, outputs in JOBS[workload]:
            workdir = tempfile.mkdtemp(dir=WORK)
            try:
                for arg in argv:
                    if arg.endswith(".json"):
                        shutil.copy(_corpus_path(arg),
                                    os.path.join(workdir, arg))
                os.makedirs(os.path.join(workdir, "out"))
                entry = _record(argv, outputs, workdir)
            finally:
                shutil.rmtree(workdir)
            if name == KNOWN_FAILURE["job"]:
                entry = {"exit": want, "cert": None}
            elif entry["exit"] != want:
                raise SystemExit(f"{name}: exit {entry['exit']}, "
                                 f"expected {want}")
            oracle[workload][name] = entry
            print(f"{workload}/{name}: exit {entry['exit']}", file=sys.stderr)
    # every witness of the oracle must have a relabelling rule
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        for workload in JOBS:
            expectations(workload, BASE_SEED + 1, workdir, oracle)
    finally:
        shutil.rmtree(workdir)
    with open(ORACLE, "w", encoding="utf-8") as fh:
        fh.write(dump_text(oracle))
    manifest = {}
    for root, _, files in os.walk(CORPUS):
        for f in files:
            path = os.path.join(root, f)
            rel = os.path.relpath(path, CORPUS)
            if rel != "manifest.json":
                manifest[rel] = sha256_file(path)
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        fh.write(dump_text(manifest))


if __name__ == "__main__":
    generate()
