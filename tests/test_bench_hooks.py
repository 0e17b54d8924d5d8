"""The benchmark's trace hooks find in the package everything they read.

bench/spans.py wraps the functions its LAYERS table names and, after each
call, its NOTES read attributes of the arguments and the result;
bench/run.py times `xdicheck.cli.library.builtin_library()` as set-up.
If a name either of them reads leaves the package, traced benchmark jobs
fail. This test runs those hooks as the benchmark does, in a fresh
interpreter, so that no wrapped module leaks into other tests.
"""

import json
import os
import subprocess
import sys

from conftest import MACHINES, REPO, bench_catalogs

# Run in the temporary directory: argv[1] is bench/spans.py, argv[2] the jobs as
# JSON, one subdirectory job<i> holding each one's files. Every NOTES entry
# counts its reads. Prints per job the exit code and stdout, the notes read
# and every note.
CHILD = r"""
import contextlib, importlib.util, io, json, os, sys

spec = importlib.util.spec_from_file_location("bench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
read = set()

def counted(name, note):
    def note_read(*args):
        read.add(name)
        return note(*args)
    return note_read

spans.NOTES.update({name: counted(name, note) for name, note in spans.NOTES.items()})

import xdicheck.cli

xdicheck.cli.library.builtin_library()
spans.Tracer.install()
results = []
for index, argv in enumerate(json.loads(sys.argv[2])):
    os.chdir(f"job{index}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = xdicheck.cli.main(argv)
    results.append((code, out.getvalue()))
    os.chdir("..")
print(json.dumps({"results": results, "read": sorted(read), "notes": sorted(spans.NOTES)}))
"""


def test_trace_hooks_read_only_what_the_package_has(monkeypatch, tmp_path):
    """One job of each workload, the first that writes SMT-LIB, and a
    g query, which no benchmark job makes, run traced: every job answers
    as the benchmark expects, and every NOTES entry is read."""

    catalogs = bench_catalogs(monkeypatch)
    smt = next(job for job in catalogs["solve"] if "--emit-smt" in job.argv)
    g_query = type(smt)(
        "g_query",
        ("query", "join.xdi", "--handshake", "a", "--op", "g", "--mode", "blocking"),
        (("join.xdi", (MACHINES / "join.xdi").read_text()),),
        1,
        ("holds: no",),
    )
    jobs = [catalog[0] for catalog in catalogs.values()] + [smt, g_query]
    for index, job in enumerate(jobs):
        (tmp_path / f"job{index}").mkdir()
        for name, text in job.files:
            (tmp_path / f"job{index}" / name).write_text(text, encoding="utf-8")

    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONDONTWRITEBYTECODE="1")
    argvs = json.dumps([list(job.argv) for job in jobs])
    spans = str(REPO / "bench" / "spans.py")
    child = subprocess.run(
        [sys.executable, "-c", CHILD, spans, argvs],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    for job, (code, out) in zip(jobs, report["results"], strict=True):
        assert code == job.code, (job.argv, out)
        for line in job.lines:
            assert line in out.splitlines(), (job.argv, line)
    assert report["read"] == report["notes"]
