"""Write the benchmark's algebra definition files into perfbench/inputs.

The files are checked in; this script is their single source.  Run from
the repository root:

    python3 perfbench/make_inputs.py          # (re)write the files
    python3 perfbench/make_inputs.py --check  # exit 1 if any file differs
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import combinations_with_replacement

INPUT_DIR = os.path.join("perfbench", "inputs")


def power_ideal(variables: str, k: int) -> str:
    """<vars>^k: every monomial of degree k in the given one-letter variables."""
    gens = []
    for combo in combinations_with_replacement(range(len(variables)), k):
        factors = []
        for i, name in enumerate(variables):
            e = combo.count(i)
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        gens.append("*".join(factors))
    return f"vars: {' '.join(variables)}\ngens: {'; '.join(gens)}\n"


def staircase(r: int) -> str:
    """Q(r) = Q[X,Y]/<X^(r+1), X^r Y, Y^2>, of dimension 2r+1."""
    return f"vars: X Y\ngens: X^{r + 1}; X^{r}*Y; Y^2\n"


def input_files() -> dict[str, str]:
    files = {
        # the 12-dimensional unembeddable Gorenstein algebra of the README
        "golden.alg": "vars: Y X\ngens: X^3*Y; X^5; X*Y^3 + 2*X^3; 3*X^2*Y^2 + 5*Y^4\n",
        "power_xyz_6.alg": power_ideal("XYZ", 6),
        "power_x_40.alg": power_ideal("X", 40),
        "xyz_fourth.alg": "vars: X Y Z\ngens: X^4; Y^4; Z^4; X*Y*Z\n",
        "diag_xyz.alg": "vars: X Y Z\ngens: X^2 - Y^2; Y^2 - Z^2; X*Y; X*Z; Y*Z\n",
        "power_xy_4.alg": power_ideal("XY", 4),
    }
    for r in range(1, 6):
        files[f"q{r}.alg"] = staircase(r)
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare instead of writing")
    args = parser.parse_args(argv)
    stale = []
    for name, text in input_files().items():
        path = os.path.join(INPUT_DIR, name)
        if args.check:
            try:
                with open(path, encoding="utf-8") as fh:
                    if fh.read() != text:
                        stale.append(path)
            except FileNotFoundError:
                stale.append(path)
        else:
            os.makedirs(INPUT_DIR, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    for path in stale:
        print(f"differs from generator: {path}", file=sys.stderr)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
