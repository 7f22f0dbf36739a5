"""Mutation sweep over the integrity guards: does some test reach each one?

For each ``raise ModelIntegrityError(...)`` in ``src/conjtop``, a copy of the
repository gets that one statement turned into a no-op, by prefixing it with
``if False:``, and tier-1 runs in the copy, stopping at the first failure.
The prefix keeps every line count and the guard count that tier-1 pins, so a
mutant fails only when a test reaches the guard.  A guard whose mutant passes
every test survives.  Stdlib only (the tests themselves need pytest); pytest
does not collect this file, since each guard costs a tier-1 run.

    python tests/mutation_sweep.py [FILTER ...]

A FILTER keeps the guards whose ``path:line`` contains it.  Exits 1 when a
guard survives.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEFT_OUT = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", ".benchmarks",
                                  ".bench_work", "__pycache__")


def guards(src):
    """(path under ``src``, line, column) of each raise of ModelIntegrityError."""
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "ModelIntegrityError":
                found.append((path.relative_to(src), node.lineno, node.col_offset))
    return found


def first_failure(output):
    return next((line for line in output.splitlines() if line.startswith(("FAILED", "ERROR"))),
                "no test failed")


def main(filters):
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=LEFT_OUT)
        src = copy / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        todo = [g for g in guards(src) if not filters or any(f in f"{g[0]}:{g[1]}" for f in filters)]
        survivors = []
        for rel, line, col in todo:
            path = src / rel
            original = path.read_text("utf-8")
            lines = original.splitlines(keepends=True)
            lines[line - 1] = f"{lines[line - 1][:col]}if False: {lines[line - 1][col:]}"
            path.write_text("".join(lines), "utf-8")
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"],
                    cwd=copy, env=env, capture_output=True, text=True, timeout=1200, check=False)
            finally:
                path.write_text(original, "utf-8")
            where = f"src/{rel}:{line}"
            if proc.returncode == 0:
                survivors.append(where)
                print(f"{where}: SURVIVES", flush=True)
            else:
                print(f"{where}: killed, {first_failure(proc.stdout)}", flush=True)
        print(f"{len(todo)} guards, {len(survivors)} survivors")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
