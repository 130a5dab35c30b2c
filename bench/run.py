"""shalg CLI benchmark.

    python3 bench/run.py --workload certify|construct|operad --seed N
                         --seconds S --trace 0|1
    python3 bench/run.py --report [--seed N] [--seconds S]

Each run derives its input files from the seed (see corpus.py), then
runs the workload's job list as a closed loop with one client: every
job is a fresh ``shalg`` process, spawned only after the previous one
exited, timed from spawn to exit, with its max-RSS read by ``os.wait4``
and its exit status, certificate and output bytes compared with the
oracle.  Whole batches repeat until the next one would overrun
``--seconds``.  Timings are scaled to a nominal machine speed with a
calibration loop timed between jobs (see README.md, "Scaled times").

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced batch and then traced batches, and reports the per-layer split
(see README.md).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--report`` runs every workload both ways, prints the provenance and
every metric, and exits 1 on any oracle mismatch other than the known
malformed-input failure.
"""

import argparse
import dataclasses
import json
import marshal
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402
from child import LAYERS  # noqa: E402

WORK = os.path.join(HERE, "_work")
CHILD = os.path.join(HERE, "child.py")
JOB_TIMEOUT_S = 120
SETUP_SAMPLES = 9
# Reference time of calibrate(), about its time on a quiet 2-vCPU Xeon VM
# with Python 3.11.  A fixed constant, so scaled times compare between
# runs and commits; see README.md.
CAL_NOMINAL_S = 0.05

E2E_UNITS = {"batch_s": "s", "max_job_s": "s", "peak_rss_mb": "MB",
             "match_share": "share", "setup_s": "s"}

# Per-layer metric -> unit.  A name is <layer>[.<function>].<metric>.
_FN_METRICS = {
    "exactlin.mat_add": ("entries", "nonzero_share"),
    "exactlin.mat_mul": ("entries", "nonzero_share"),
    "exactlin.tensor_maps_many": ("entries", "nonzero_share"),
    "exactlin.tensor_spaces": ("distinct_share",),
    "exactlin.hom_differential": (),
    "exactlin.rref": ("entries", "rank_share"),
    "exactlin.solve_map_equation": ("unknowns", "equations"),
    "exactlin.homology_with_splitting": (),
    "ainfty.an_residual": (),
    "ainfty.fn_residual": (),
    "ainfty.compose_morphisms": (),
    "transfer.transfer_M1": (),
    "transfer.transfer_S": (),
    "transfer.perturb_M2": (),
    "transfer.invert_M3": (),
    "transfer.chain_M4": (),
    "transfer.check_side_conditions": (),
    "transfer.riso_zero_extension": (),
    "operadcore.enumerate_trees": ("trees",),
    "operadcore.derivation_extend": ("terms",),
    "operadcore.d_squared_check": (),
    "operadcore.truncated_homology": (),
    "operadcore.kunneth_check": (),
    "operadcore.tree_decomposition_dims": (),
    "operadcore.action_check": (),
    "serialize.load": ("bytes",),
    "serialize.dump": ("bytes",),
}
_UNIT = {"calls": "count", "self_s": "s", "entries": "count",
         "nonzero_share": "share", "distinct_share": "share",
         "rank_share": "share", "unknowns": "count", "equations": "count",
         "trees": "count", "terms": "count", "bytes": "bytes"}


def layer_metric_units():
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        for fn, extra in _FN_METRICS.items():
            if fn.startswith(layer + "."):
                for m in ("calls", "self_s") + extra:
                    units[f"{fn}.{m}"] = _UNIT[m]
    units["cli.self_s"] = "s"
    units["trace.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# --------------------------------------------------------------- one job


def job_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # Jobs use cached byte code, as an installed shalg does, kept out of
    # the source tree; otherwise every process start would compile shalg.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK, "pycache")
    return env


@dataclasses.dataclass
class JobResult:
    exit: int
    wall: float
    maxrss_kb: int
    stdout: str
    stderr: str
    timed_out: bool
    cals: list  # calibration times just before and just after the job


def calibrate():
    """Seconds this process takes for a fixed exact-arithmetic loop."""
    start = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 12000):
        acc += Fraction(1, i % 97 + 1) * 3
        seen[i, i % 7] = acc
    return time.perf_counter() - start


def speed(cals):
    """Machine slowness relative to nominal, from calibration samples."""
    return statistics.median(cals) / CAL_NOMINAL_S


# Forks, execs and reaps one job.  It runs as its own small process
# (python3 -S, a few MB), because ru_maxrss of a process includes the
# memory of the process it was spawned from, and run.py is bigger than
# the smallest shalg jobs.  Prints status, ru_maxrss, start and end.
SPAWNER = """
import os, signal, sys, time
timeout, out, err, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        os.dup2(os.open(out, flags, 0o644), 1)
        os.dup2(os.open(err, flags, 0o644), 2)
        os.execv(argv[0], argv)
    finally:
        os._exit(127)
signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
signal.alarm(timeout)
_, status, usage = os.wait4(pid, 0)
end = time.perf_counter()
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, repr(start), repr(end))
"""


def spawn_job(child_argv, cwd, env, timeout=JOB_TIMEOUT_S):
    """Run child.py with child_argv in cwd and wait for it with
    os.wait4."""
    out_path = os.path.join(cwd, "_stdout")
    err_path = os.path.join(cwd, "_stderr")
    cals = [calibrate()]
    line = subprocess.run(
        [sys.executable, "-S", "-c", SPAWNER, str(timeout), out_path,
         err_path, sys.executable, CHILD] + child_argv,
        cwd=cwd, env=env, stdin=subprocess.DEVNULL, capture_output=True,
        check=True, timeout=timeout + 60).stdout.split()
    cals.append(calibrate())
    code, maxrss = int(line[0]), int(line[1])
    wall = float(line[3]) - float(line[2])
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return JobResult(code, wall, maxrss, stdout, stderr,
                     code < 0 and wall >= timeout, cals)


def parse_cert(stdout):
    """A machine certificate without its run-dependent fields (wall time
    and any future stats section), or None if stdout holds none."""
    try:
        cert = json.loads(stdout)
    except ValueError:
        return None
    if not isinstance(cert, dict):
        return None
    cert.pop("wall_time", None)
    cert.pop("stats", None)
    return cert


def judge(name, res, want, cwd):
    """'ok', 'known' (the documented seed failure) or a mismatch text."""
    if res.timed_out:
        return "timed out"
    known = corpus.KNOWN_FAILURE
    if (name == known["job"] and res.exit == known["exit"]
            and known["stderr"] in res.stderr):
        return "known"
    if res.exit != want["exit"]:
        return f"exit {res.exit}, expected {want['exit']}"
    if parse_cert(res.stdout) != want["cert"]:
        return "certificate differs"
    for rel, digest in want["sha"].items():
        path = os.path.join(cwd, rel)
        if not os.path.exists(path) or corpus.sha256_file(path) != digest:
            return f"output {rel} differs"
    return "ok"


# ------------------------------------------------------------- one batch


class Batch:
    def __init__(self):
        self.jobs = []   # (name, JobResult, verdict)
        self.layers = None

    @property
    def wall(self):
        return sum(r.wall for _, r, _ in self.jobs)


def run_batch(workload, cwd, env, expect, trace=False):
    batch = Batch()
    if trace:
        batch.layers = LayerTotals()
    for job_id, (name, argv, _, _) in enumerate(corpus.JOBS[workload]):
        want = expect[name]
        spans_path = os.path.join(cwd, "_spans")
        for path in [os.path.join(cwd, rel) for rel in want["sha"]] + [
                spans_path]:
            if os.path.exists(path):
                os.unlink(path)
        head = ["trace", spans_path, str(job_id)] if trace else ["run"]
        res = spawn_job(head + argv + ["--format", "machine"], cwd, env)
        batch.jobs.append((name, res, judge(name, res, want, cwd)))
        if trace:
            batch.layers.add_job(spans_path, res)
    return batch


# --------------------------------------------------------------- tracing


class LayerTotals:
    """Per-layer sums over the traced jobs of one batch."""

    def __init__(self):
        self.v = dict.fromkeys(layer_metric_units(), 0.0)
        self.c = {}      # auxiliary sums for the shares
        self.split = []  # per job: (wall, {part: self_s}, top function)

    def _acc(self, key, x):
        self.c[key] = self.c.get(key, 0) + x

    def add_job(self, path, res):
        """Adds one job's spans.  A job that died before writing them all
        (killed, or a span left open) adds nothing; its verdict already
        counts it as failed."""
        try:
            with open(path, "rb") as fh:
                rec = marshal.load(fh)
                write_s = marshal.load(fh) - rec["write_start"]
        except (OSError, EOFError, ValueError, TypeError):
            rec = None
        if rec is None or None in rec["spans"]:
            self.split.append((res.wall, {}, None, 0.0))
            return
        names, spans = rec["names"], rec["spans"]
        covered = [0.0] * len(spans)
        for nid, start, end, cend, parent, counts in spans:
            if parent >= 0:
                covered[parent] += cend - start
        roots = 0.0
        trace_s = write_s
        keys = set()
        v = self.v
        parts = dict.fromkeys(LAYERS, 0.0)
        fns = {}
        for i, (nid, start, end, cend, parent, counts) in enumerate(spans):
            name = names[nid]
            if name == "serialize.dump_raw":
                name = "serialize.dump"
            self_s = end - start - covered[i]
            layer = name.split(".", 1)[0]
            v[f"{layer}.self_s"] += self_s
            parts[layer] += self_s
            fns[name] = fns.get(name, 0.0) + self_s
            trace_s += cend - end
            if parent < 0:
                roots += cend - start
            if name not in _FN_METRICS:
                continue
            v[f"{name}.calls"] += 1
            v[f"{name}.self_s"] += self_s
            if not counts:
                continue
            if name in ("exactlin.mat_add", "exactlin.mat_mul",
                        "exactlin.tensor_maps_many"):
                v[f"{name}.entries"] += counts[0]
                self._acc(f"{name}.nonzero", counts[1])
            elif name == "exactlin.tensor_spaces":
                keys.add(counts[0])
            elif name == "exactlin.rref":
                v[f"{name}.entries"] += counts[0]
                self._acc("rref.rank", counts[1])
                self._acc("rref.maxrank", counts[2])
            elif name == "exactlin.solve_map_equation":
                v[f"{name}.unknowns"] += counts[0]
                v[f"{name}.equations"] += counts[1]
            else:
                metric = _FN_METRICS[name][0]
                v[f"{name}.{metric}"] += counts[0]
        self._acc("tensor_spaces.distinct", len(keys))
        wall = res.wall
        cli_s = wall - write_s - roots
        v["cli.self_s"] += cli_s
        v["trace.self_s"] += trace_s
        parts["cli"], parts["trace"] = cli_s, trace_s
        top = max(fns, key=fns.get) if fns else None
        self.split.append((wall, parts, top, fns.get(top, 0.0)))

    def metrics(self):
        out = dict(self.v)
        c = self.c
        for fn in ("exactlin.mat_add", "exactlin.mat_mul",
                   "exactlin.tensor_maps_many"):
            e = out[f"{fn}.entries"]
            out[f"{fn}.nonzero_share"] = c.get(f"{fn}.nonzero", 0) / e if e \
                else 0.0
        calls = out["exactlin.tensor_spaces.calls"]
        out["exactlin.tensor_spaces.distinct_share"] = (
            c.get("tensor_spaces.distinct", 0) / calls if calls else 0.0)
        mx = c.get("rref.maxrank", 0)
        out["exactlin.rref.rank_share"] = c.get("rref.rank", 0) / mx if mx \
            else 0.0
        return out


# ------------------------------------------------------------ provenance


def git_sha(root):
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed):
    return {"git_sha": git_sha(ROOT), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu_model(), "seed": seed}


# -------------------------------------------------------------- one run


def setup_runs(cwd, env):
    """Fresh processes that import shalg.cli and parse arguments."""
    out = []
    for _ in range(SETUP_SAMPLES):
        res = spawn_job(["setup"], cwd, env)
        if res.exit != 0:
            raise RuntimeError(f"setup process failed: {res.stderr}")
        out.append(res)
    return out


def measure(workload, seed, seconds, trace, log):
    """One benchmark run; logs it and returns the result object."""
    env = job_env()
    os.makedirs(WORK, exist_ok=True)
    cwd = tempfile.mkdtemp(dir=WORK, prefix=f"{workload}-")
    try:
        expect = corpus.expectations(workload, seed, cwd,
                                     corpus.load_json(corpus.ORACLE))
        spawn_job(["setup"], cwd, env)  # warm the byte-code cache
        start = time.perf_counter()
        setup = setup_runs(cwd, env) if not trace else []
        untraced, traced = [], []
        if trace:
            untraced.append(run_batch(workload, cwd, env, expect))
        while True:
            batch = run_batch(workload, cwd, env, expect, trace)
            (traced if trace else untraced).append(batch)
            elapsed = time.perf_counter() - start
            if elapsed + batch.wall > seconds:
                break
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    batches = untraced + traced
    run_speed = speed([c for r in setup for c in r.cals]
                      + [c for b in batches for _, r, _ in b.jobs
                         for c in r.cals])
    verdicts = [v for b in batches for _, _, v in b.jobs]
    attempted = len(verdicts)
    matched = sum(v == "ok" for v in verdicts)
    correct = all(v in ("ok", "known") for v in verdicts)
    if trace:
        per = [b.layers.metrics() for b in traced]
        metrics = {k: statistics.median(p[k] for p in per)
                   for k in layer_metric_units()}
        metrics["trace.overhead_s"] = (
            statistics.median(b.wall for b in traced)
            - statistics.median(b.wall for b in untraced)) / run_speed
        units = layer_metric_units()
    else:
        headline = corpus.JOBS[workload][0][0]
        metrics = {
            "batch_s": statistics.median(b.wall for b in untraced)
            / run_speed,
            "max_job_s": statistics.median(
                r.wall for b in untraced for n, r, _ in b.jobs
                if n == headline) / run_speed,
            "peak_rss_mb": max(r.maxrss_kb for b in untraced
                               for _, r, _ in b.jobs) / 1024,
            "match_share": matched / attempted,
            "setup_s": statistics.median(r.wall for r in setup)
            / run_speed,
        }
        units = E2E_UNITS
    samples = {"batch": len(untraced), "traced_batch": len(traced),
               "setup": len(setup), "speed": run_speed}
    for k, unit in units.items():
        if unit in ("count", "bytes"):
            metrics[k] = int(metrics[k])  # equal in every traced batch
    result = {"correct": correct, "attempted": attempted,
              "failed": attempted - matched,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    log_run(log, workload, seed, trace, batches, samples, result)
    return result


def log_run(log, workload, seed, trace, batches, samples, result):
    prov = provenance(seed)
    log(f"# shalg benchmark  workload={workload} trace={trace}")
    for k, v in prov.items():
        log(f"#   {k}: {v}")
    log(f"#   samples: {samples['batch']} untraced batch(es), "
        f"{samples['traced_batch']} traced batch(es), "
        f"{samples['setup']} setup spawn(s); every timing is the median "
        f"over these samples, peak_rss_mb the maximum")
    log(f"#   machine speed: {samples['speed']:.3f} x nominal time (median "
        f"of the calibration loops around every job); timings are raw "
        f"wall time divided by it")
    for i, b in enumerate(batches):
        tag = "traced" if b.layers is not None else "untraced"
        log(f"# batch {i} ({tag}): {b.wall:.3f} s wall")
        for name, r, verdict in b.jobs:
            log(f"#   {name:16s} exit={r.exit} wall={r.wall:8.3f} s "
                f"rss={r.maxrss_kb / 1024:7.1f} MB  {verdict}")
        if b.layers is not None:
            for (name, _, _), (wall, parts, top, top_s) in zip(
                    b.jobs, b.layers.split):
                if not parts:
                    log(f"#   {name:16s} split: no spans written")
                    continue
                shown = " ".join(f"{k}={x:.3f}" for k, x in parts.items()
                                 if x >= 0.0005)
                log(f"#   {name:16s} split: {shown}  (top {top} "
                    f"{top_s:.3f} s; wall - sum = "
                    f"{wall - sum(parts.values()):.1e} s)")
    for k, m in result["metrics"].items():
        log(f"#   {k:48s} {m['value']:.6g} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(corpus.JOBS))
    ap.add_argument("--seed", type=int, default=corpus.BASE_SEED)
    ap.add_argument("--seconds", type=float, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "shalg", "cli.py")):
        sys.stderr.write(f"error: no shalg sources under {ROOT}/src\n")
        return 2
    bad = corpus.check_manifest()
    if bad:
        sys.stderr.write("error: corpus files differ from the manifest: "
                         + ", ".join(bad) + "\n")
        return 2
    if args.report:
        ok = True
        for trace in (0, 1):
            for w in sorted(corpus.JOBS):
                res = measure(w, args.seed, args.seconds, trace, print)
                ok = ok and res["correct"]
        return 0 if ok else 1
    if args.workload is None:
        ap.error("--workload is required without --report")
    res = measure(args.workload, args.seed, args.seconds, args.trace,
                  print)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
