"""Mutation sweep of one module against chosen test files.

Run from the root of a checkout:

    python3 tools/mutation_sweep.py src/artinalg/linalg.py tests/test_linalg.py

Every mutation site of the module gets one mutant, made with the stdlib
`ast` module:
- a comparison operator flipped: < and <=, > and >=, == and !=;
- an int constant raised by one (bools are left alone);
- a boolean `and` turned into `or`, or `or` into `and`.
Each mutant is the module's tree, changed at one site and written back
with `ast.unparse`; the given test files then run with `pytest -x`.  A
mutant is killed when the tests fail or run past `--timeout` seconds, and
it survives when they pass.  The module's own text is restored when the
sweep ends, also when it is interrupted.  The sweep prints one line per
survivor and a summary, and always exits 0: it reports, it does not gate.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys

FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}


def sites(tree: ast.AST) -> list:
    """(node, index, description) of every mutation site, in source order;
    `index` is the position of the operator in a chained comparison."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    new = FLIPS[type(op)]
                    found.append((node, i, f"{SYMBOLS[type(op)]} -> {SYMBOLS[new]}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((node, None, f"{node.value} -> {node.value + 1}"))
        elif isinstance(node, ast.BoolOp):
            old, new = ("and", "or") if isinstance(node.op, ast.And) else ("or", "and")
            found.append((node, None, f"{old} -> {new}"))
    return sorted(found, key=lambda site: (site[0].lineno, site[0].col_offset, site[1] or 0))


def mutate(node: ast.AST, index) -> None:
    """Apply the one change of a site to its node, in place."""
    if isinstance(node, ast.Compare):
        node.ops[index] = FLIPS[type(node.ops[index])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()


def run_tests(tests, timeout: float) -> bool:
    """Whether the test files pass; a run past the timeout counts as failing."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            capture_output=True, timeout=timeout, env=env,
        )
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def sweep(module: str, tests, timeout: float) -> list:
    """The survivors, as (line, description), of every mutant of the module."""
    with open(module, encoding="utf-8") as fh:
        original = fh.read()
    count = len(sites(ast.parse(original)))
    survivors = []
    try:
        for k in range(count):
            tree = ast.parse(original)  # a fresh tree: each mutant changes one site
            node, index, what = sites(tree)[k]
            mutate(node, index)
            with open(module, "w", encoding="utf-8") as fh:
                fh.write(ast.unparse(tree) + "\n")
            if run_tests(tests, timeout):
                survivors.append((node.lineno, what))
                print(f"survived: {module}:{node.lineno}: {what}", flush=True)
    finally:
        with open(module, "w", encoding="utf-8") as fh:
            fh.write(original)
    print(f"{module}: {count} sites, {count - len(survivors)} killed, {len(survivors)} survived")
    return survivors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mutation sweep of one module")
    parser.add_argument("module", help="the module to mutate, e.g. src/artinalg/linalg.py")
    parser.add_argument("tests", nargs="+", help="the test files to run against each mutant")
    parser.add_argument("--timeout", type=float, default=30, help="seconds per test run (default 30)")
    args = parser.parse_args(argv)
    if not run_tests(args.tests, args.timeout):
        print("the tests fail on the unmutated module; nothing to sweep", file=sys.stderr)
        return 0
    sweep(args.module, args.tests, args.timeout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
