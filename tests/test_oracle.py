"""The benchmark's byte-identity gate, run in process.

bench/corpus.py derives each workload's inputs from a seed and returns,
per job, the exit status, the certificate (less its wall time) and the
sha256 of every output file that the frozen oracle expects.  Every job
of bench/corpus.py's JOBS runs here through shalg.cli.main, with the
workload's directory as working directory, and must match its oracle
entry byte for byte.  Nothing under bench/ is written.
"""

import hashlib
import importlib.util
import json
import pathlib

import pytest

from shalg.cli import main

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _corpus():
    spec = importlib.util.spec_from_file_location("bench_corpus",
                                                  BENCH / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


corpus = _corpus()


@pytest.mark.parametrize("seed", [corpus.BASE_SEED, corpus.BASE_SEED + 6])
@pytest.mark.parametrize("workload", sorted(corpus.JOBS))
def test_every_job_matches_the_oracle(workload, seed, tmp_path, monkeypatch,
                                      capsys):
    oracle = corpus.load_json(corpus.ORACLE)
    expect = corpus.expectations(workload, seed, str(tmp_path), oracle)
    monkeypatch.chdir(tmp_path)
    for name, argv, _, _ in corpus.JOBS[workload]:
        want = expect[name]
        status = main([*argv, "--format", "machine"])
        out = capsys.readouterr().out
        cert = json.loads(out) if out else None
        if cert is not None:
            del cert["wall_time"]
        assert (status, cert) == (want["exit"], want["cert"]), name
        for rel, digest in want["sha"].items():
            data = (tmp_path / rel).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, (name, rel)
