"""Reachability census: which functions under ``src/repro`` does a user path call?

    python benchmarks/census.py

Copies the checkout into a temporary directory and runs every non-test
driver there, each in its own process: the examples, E24 ``--quick``
untraced and traced, CI's "Paper claims" reports, E16-E22 ``--quick``
and a smoke of every ``repro`` subcommand.  A ``sitecustomize`` on the
drivers' path installs ``sys.setprofile`` / ``threading.setprofile`` in
every Python process they start, and writes each code object under
``src/repro`` the first time it is called.  Calls are mapped onto the
``def`` statements by file and first line (a decorated function's code
starts at its first decorator).

It prints, per module, the functions no driver reached, and checks them
against ``census_allow.json``: every unreached function must be listed
there with one reason, and every listed function must still exist and
still be unreached.  Exit status 1 names the unlisted and stale entries.
Nothing in the checkout is written.
"""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
ALLOW = Path(__file__).resolve().parent / "census_allow.json"
# Each allow-list reason starts with one of these.
REASONS = (
    "ROADMAP",  # reserved by a named open item
    "safety",  # snapshot/restore, error and fault paths, reference code
    "dunder/stub",  # dunder value semantics, abstract base or null-object stubs
    "test builder",  # a builder the test suite uses throughout
)
QUERY = ("PATTERN SEQ(T1 v1, T2 v2, T3 v3) WHERE (v1.part == v2.part) "
         "AND (v2.part == v3.part) WITHIN 50")
# The rest of the query language over the same trace: a negated step,
# constants, OR / NOT / nested AND, and two predicates staged together.
RICH_QUERY = ("PATTERN SEQ(T1 v1, !X1 x, T2 v2, T3 v3) WHERE v1.part == v3.part "
              "AND x.part == v1.part AND v2.part >= v1.part AND v3.part != v2.part "
              "AND (v2.part < 3 OR NOT (v2.part == 9 AND v3.part > 9.5)) WITHIN 50")
DRILL_QUERY = "PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 20"
PAPER_CLAIMS = ("e1_inorder_breakage", "e3_latency_vs_k", "e4_memory", "e5_purge",
                "e6_optimizations", "e7_query_length", "e8_negation", "e9_window",
                "e10_rfid", "e11_aggressive", "e12_kslack", "e14_kleene")
QUICK_BENCHES = ("e16_batch_parallel", "e17_recovery", "e18_observability",
                 "e19_equality_index", "e20_speculative", "e21_ingest_soak",
                 "e22_latency_attribution")

HOOK = '''\
import os, sys, threading
_root = os.environ["CENSUS_ROOT"]
_out = open(os.path.join(os.environ["CENSUS_OUT"], "%d.txt" % os.getpid()),
            "a", buffering=1, encoding="utf-8")
_seen = set()
def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_root):
                _out.write("%s\\t%d\\n" % (code.co_filename, code.co_firstlineno))
sys.setprofile(_profile)
threading.setprofile(_profile)
'''

# A trace the gateway drill sends: two event types and watermarks.
DRILL_INPUTS = '''\
from repro import Event
from repro.core.event import Punctuation
from repro.ingest import EventSchema, FieldSpec, StreamSchema
from repro.ingest.schema import dump_schema
from repro.streams import dump_trace

fields = [FieldSpec("ts", "int"), FieldSpec("x", "int")]
schema = StreamSchema(
    "orders", t_event="ts", ordering_scope="global", source_slack=2,
    events=[EventSchema(etype, list(fields)) for etype in "AB"],
)
dump_schema(schema, "drill.schema.json")
trace = [Event("AB"[i % 2], i, {"x": (i // 2) % 5}) for i in range(400)]
dump_trace(trace, "drill.trace.jsonl")
punctuated = []
for event in trace:
    punctuated.append(event)
    if event.ts % 50 == 49:
        punctuated.append(Punctuation(event.ts - 10))
dump_trace(punctuated, "punct.trace.jsonl")
'''


class Def(NamedTuple):
    qualname: str
    first: int  # first line, decorators included
    last: int


def definitions(source: str) -> List[Def]:
    """Every ``def`` in ``source``, with the line its code object starts on.

    Qualified names follow ``__qualname__``; a name defined twice in one
    scope (a property and its setter) gets ``#2``, ``#3``, ... after the
    first.
    """
    found: List[Def] = []
    seen: Dict[str, int] = {}

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                seen[name] = seen.get(name, 0) + 1
                key = name if seen[name] == 1 else f"{name}#{seen[name]}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append(Def(key, first, child.end_lineno or child.lineno))
                walk(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(source), "")
    return found


def module_defs(src: Path) -> Dict[str, List[Def]]:
    """``{"repro/core/engine.py": [Def, ...]}`` for every module under ``src``."""
    return {
        path.relative_to(src).as_posix(): definitions(path.read_text(encoding="utf-8"))
        for path in sorted((src / "repro").rglob("*.py"))
    }


def reached_starts(out_dir: Path, src: Path) -> Set[Tuple[str, int]]:
    """(module, first line) of every code object a driver process called."""
    prefix = str(src) + os.sep
    starts = set()
    for record in out_dir.glob("*.txt"):
        for line in record.read_text(encoding="utf-8").splitlines():
            filename, _, lineno = line.rpartition("\t")
            if filename.startswith(prefix):
                starts.add((filename[len(prefix):].replace(os.sep, "/"), int(lineno)))
    return starts


def run_drivers(work: Path, env: Dict[str, str]) -> Iterator[Tuple[str, float]]:
    """Run each driver in ``work``; yield its name and wall time."""
    py = sys.executable

    def step(name: str, *argv: str) -> Tuple[str, float]:
        started = time.monotonic()
        done = subprocess.run(argv, cwd=work, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stdout.write(done.stdout[-4000:])
            raise SystemExit(f"census: driver {name!r} exited {done.returncode}")
        return name, time.monotonic() - started

    for example in sorted((work / "examples").glob("*.py")):
        keep = ("--keep", "drill-state") if example.name == "gateway_ingestion.py" else ()
        yield step(f"examples/{example.name}", py, str(example), *keep)
    yield step("explain --flight", py, "-m", "repro", "explain", "--flight", "drill-state")
    for trace in ("0", "1"):
        yield step(f"e24 --quick --trace {trace}", py, "benchmarks/e24/run.py", "--quick",
                   "--trace", trace, "--out", f"e24-trace{trace}.json")
    yield step("paper claims", py, "-m", "pytest", "-p", "no:cacheprovider",
               *(f"benchmarks/bench_{name}.py" for name in PAPER_CLAIMS),
               "-k", "report", "--benchmark-disable", "-q")
    for bench in QUICK_BENCHES:
        yield step(f"{bench.split('_')[0]} --quick", py, f"benchmarks/bench_{bench}.py", "--quick")

    repro = (py, "-m", "repro")
    yield step("generate", *repro, "generate", "--workload", "synthetic", "--events", "2000",
               "--seed", "0", "--disorder", "0.3:20", "--out", "ci-trace.jsonl")
    yield step("inspect", *repro, "inspect", "ci-trace.jsonl")
    yield step("run --crash-at", *repro, "run", "--query", QUERY, "--trace", "ci-trace.jsonl",
               "--k", "20", "--checkpoint-every", "250", "--checkpoint-dir", "ci-ckpt",
               "--crash-at", "1000", "--metrics-out", "ci-metrics.jsonl", "--verify")
    yield step("run --metrics-every", *repro, "run", "--query", RICH_QUERY, "--trace",
               "ci-trace.jsonl", "--k", "20", "--metrics-out", "every.jsonl",
               "--metrics-every", "500", "--verify")
    yield step("explain --missing", *repro, "explain", "--query", QUERY, "--trace",
               "ci-trace.jsonl", "--missing", "--limit", "1", "--k", "5")
    for engine in ("ooo", "reorder"):
        yield step(f"explain --engine {engine}", *repro, "explain", "--engine", engine,
                   "--query", RICH_QUERY, "--trace", "ci-trace.jsonl", "--limit", "1",
                   "--k", "20")
    yield step("drill inputs", py, "-c", DRILL_INPUTS)
    yield step("run --engine partitioned", *repro, "run", "--engine", "partitioned",
               "--query", DRILL_QUERY, "--trace", "punct.trace.jsonl", "--k", "8", "--verify")
    for engine, trace, where in (
        ("ooo", "drill.trace.jsonl", ("--dir", "cli-drill", "--flight")),
        ("reorder", "punct.trace.jsonl", ("--dir", "cli-reorder", "--flight")),
        ("ooo", "drill.trace.jsonl", ("--telemetry-port", "0")),
    ):
        started = time.monotonic()
        serve_drill(work, env, engine, trace, where)
        yield f"serve --engine {engine} {' '.join(where)} + send", time.monotonic() - started
    yield step("explain --gateway", *repro, "explain", "--gateway", "cli-drill",
               "--flight", "cli-drill")


def serve_drill(work: Path, env: Dict[str, str], engine: str, trace: str,
                where: Tuple[str, ...]) -> None:
    """CI's CLI gateway drill: serve, send a trace, SIGTERM, expect exit 0.

    With a telemetry port, each telemetry route is fetched once before
    the signal.
    """
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--schema", "drill.schema.json",
         "--k", "8", "--port", "0", "--engine", engine, *where, "--query", DRILL_QUERY],
        cwd=work, env=dict(env, PYTHONUNBUFFERED="1"), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    assert serve.stdout is not None
    try:
        banner = serve.stdout.readline()
        port = re.search(r" on [^:]*:(\d+)", banner)
        if port is None:
            raise SystemExit(f"census: serve did not start: {banner!r}")
        subprocess.run(
            [sys.executable, "-m", "repro", "send", "--port", port.group(1),
             "--source", "s1", "--stream", "orders", "--trace", trace, "--stats"],
            cwd=work, env=env, stdout=subprocess.DEVNULL, check=True,
        )
        if "--telemetry-port" in where:
            telemetry = re.search(r"http://([^/]*)/", serve.stdout.readline())
            if telemetry is None:
                raise SystemExit("census: serve printed no telemetry address")
            for route in ("/metrics", "/healthz", "/sources"):
                urllib.request.urlopen(f"http://{telemetry.group(1)}{route}", timeout=30).read()
        serve.send_signal(signal.SIGTERM)
        if serve.wait(60) != 0:
            raise SystemExit(f"census: serve --engine {engine} exited {serve.returncode}")
    finally:
        if serve.poll() is None:
            serve.kill()
            serve.wait()
        serve.stdout.close()


def report(defs: Dict[str, List[Def]], reached: Set[Tuple[str, int]],
           allow: Dict[str, str]) -> int:
    """Print the unreached functions per module and check the allow-list."""
    all_lines: Set[Tuple[str, int]] = set()
    dead_lines: Set[Tuple[str, int]] = set()
    unreached: Dict[str, Def] = {}
    count = 0
    for module, items in defs.items():
        dead = [d for d in items if (module, d.first) not in reached]
        count += len(items)
        for d in items:
            all_lines.update((module, n) for n in range(d.first, d.last + 1))
        if not dead:
            continue
        lines = {(module, n) for d in dead for n in range(d.first, d.last + 1)}
        dead_lines |= lines
        print(f"{module}: {len(dead)} of {len(items)} functions, {len(lines)} lines")
        for d in dead:
            key = f"{module}:{d.qualname}"
            unreached[key] = d
            print(f"  {d.first:>5}-{d.last:<5} {d.qualname}  [{allow.get(key, 'UNLISTED')}]")
    print(f"\nunreached: {len(unreached)} of {count} functions, "
          f"{len(dead_lines)} of {len(all_lines)} lines in definitions")

    problems = [f"unlisted: {key}" for key in unreached if key not in allow]
    problems += [f"stale (reached or gone): {key}" for key in allow if key not in unreached]
    problems += [f"reason not one of {REASONS}: {key}" for key, why in allow.items()
                 if not why.startswith(REASONS)]
    for problem in problems:
        print(problem)
    return 1 if problems else 0


def main() -> int:
    allow = json.loads(ALLOW.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix="repro-census-") as tmp:
        work = Path(tmp) / "repo"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", "*.egg-info", "out", ".pytest_cache"))
        hook, out_dir = Path(tmp) / "hook", Path(tmp) / "calls"
        hook.mkdir()
        out_dir.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        src = work / "src"
        env = dict(os.environ, PYTHONPATH=f"{hook}{os.pathsep}{src}",
                   CENSUS_ROOT=str(src / "repro") + os.sep, CENSUS_OUT=str(out_dir))
        for name, seconds in run_drivers(work, env):
            print(f"driver {name}: {seconds:.1f} s", file=sys.stderr)
        return report(module_defs(src), reached_starts(out_dir, src), allow)


if __name__ == "__main__":
    sys.exit(main())
