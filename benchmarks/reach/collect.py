"""Which ``src/repro`` functions do the workloads, examples and benchmarks reach?

    python3 benchmarks/reach/collect.py [--out benchmarks/reach/REACH.json]

Each driver runs in its own interpreter under a ``sys.settrace`` hook that
records the first line of every ``src/repro`` function it sees called and
returns ``None`` (no line tracing).  The drivers are the four e2e workloads
at smoke size, every ``examples/*.py`` and every ``benchmarks/bench_*.py``
(with ``-k "not 1000000"``, as CI runs them, and ``--benchmark-disable``:
pytest-benchmark pauses ``sys.settrace`` around a timed call, a disabled
benchmark runs its target once, traced).  Work done in a driver's own
subprocesses is not seen.  A driver that runs past ``DRIVER_TIMEOUT_S`` is
killed and recorded as failed (exit 124, ``"timed_out": true``).

``REACH.json`` lists the drivers (with their exit status), the number of
functions ``src/repro`` defines, and per module the qualified names of the
functions some driver called.  Names, not line numbers: an edit that only
moves code leaves the file as it is.  ``tests/unit/test_reachability.py``
reads it; every function it does not name needs a reason row there.
A run takes 420-450 s on one core of a 2-core Xeon.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import pathlib
import runpy
import subprocess
import sys
import tempfile
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
WORKLOADS = ("honest_steady", "spam_flood", "membership_churn", "production_fleet")
DRIVER_TIMEOUT_S = 900


def drivers() -> list[tuple[str, str]]:
    """(kind, target) of every driver, in run order."""
    found = [("e2e", name) for name in WORKLOADS]
    found += [("example", p.relative_to(ROOT).as_posix()) for p in sorted(ROOT.glob("examples/*.py"))]
    found += [("bench", p.relative_to(ROOT).as_posix()) for p in sorted(ROOT.glob("benchmarks/bench_*.py"))]
    return found


def functions() -> dict[str, list[tuple[str, int, int]]]:
    """Per module (path under ``src``): (qualname, first line, last line)."""
    table: dict[str, list[tuple[str, int, int]]] = {}
    for path in sorted(SRC.rglob("*.py")):
        rows: list[tuple[str, int, int]] = []

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    rows.append((prefix + child.name, first, child.end_lineno))
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
        table[path.relative_to(ROOT / "src").as_posix()] = rows
    return table


def probe(kind: str, target: str, out: pathlib.Path) -> int:
    """Run one driver in this interpreter; write the (file, line) pairs it called."""
    files = {str(path) for path in SRC.rglob("*.py")}
    reached: set[tuple[str, int]] = set()

    def hook(frame, event, arg):
        code = frame.f_code
        if code.co_filename in files:
            reached.add((code.co_filename, code.co_firstlineno))

    threading.settrace(hook)
    sys.settrace(hook)
    status = 0
    try:
        if kind == "e2e":
            from benchmarks.e2e import run

            status = run.main(["--workload", target, "--smoke"])
        elif kind == "example":
            sys.argv = [target]
            runpy.run_path(str(ROOT / target), run_name="__main__")
        else:
            import pytest

            status = int(pytest.main(
                [target, "-q", "-k", "not 1000000", "-p", "no:cacheprovider", "--benchmark-disable"]
            ))
    except SystemExit as stop:
        status = stop.code if isinstance(stop.code, int) else int(stop.code is not None)
    finally:
        sys.settrace(None)
        threading.settrace(None)
        out.write_text(json.dumps(sorted(reached)))
    return status


def collect(out: pathlib.Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    reached: set[tuple[str, int]] = set()
    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        for kind, target in drivers():
            sink = pathlib.Path(scratch) / "reached.json"
            print(f"== {kind} {target}", file=sys.stderr, flush=True)
            run = {"kind": kind, "target": target}
            try:
                done = subprocess.run(
                    [sys.executable, __file__, "--probe", kind, target, "--reached", str(sink)],
                    cwd=ROOT, env=env, stdout=subprocess.DEVNULL, timeout=DRIVER_TIMEOUT_S,
                )
                run["exit"] = done.returncode
            except subprocess.TimeoutExpired:
                run.update(exit=124, timed_out=True)
            if sink.exists():
                reached.update((f, line) for f, line in json.loads(sink.read_text()))
                sink.unlink()
            runs.append(run)
    hit = {(pathlib.Path(f).relative_to(ROOT / "src").as_posix(), line) for f, line in reached}
    modules = {}
    total = unreached = unreached_lines = 0
    for module, rows in functions().items():
        total += len(rows)
        names = sorted({name for name, first, _ in rows if (module, first) in hit})
        missed = [(first, last) for name, first, last in rows if (module, first) not in hit]
        unreached += len(missed)
        unreached_lines += sum(last - first + 1 for first, last in missed)
        if names:
            modules[module] = names
    record = {"drivers": runs, "functions": total, "reached": modules}
    out.write_text(json.dumps(record, indent=1) + "\n")
    return {**record, "unreached": unreached, "unreached_lines": unreached_lines}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path(__file__).with_name("REACH.json"))
    parser.add_argument("--probe", nargs=2, metavar=("KIND", "TARGET"), help=argparse.SUPPRESS)
    parser.add_argument("--reached", type=pathlib.Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        return probe(*args.probe, args.reached)
    start = time.perf_counter()
    record = collect(args.out)
    failed = [d for d in record["drivers"] if d["exit"] != 0]
    print(
        f"{record['functions']} functions, {record['unreached']} unreached "
        f"({record['unreached_lines']} lines); {len(failed)} driver(s) failed -> {args.out} "
        f"in {time.perf_counter() - start:.0f} s"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
