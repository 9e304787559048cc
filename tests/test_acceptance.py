"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line.  All
assertions are exact (rational arithmetic, tolerance zero); the stated
wall-clock budgets are asserted too.  Run with `pytest -s
tests/test_acceptance.py` to see the lines as they complete.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from artinalg import linalg
from artinalg.algebra import (
    AlgebraElement,
    build_algebra,
    grading_info,
    is_gorenstein,
    nilradical,
    quotient_algebra,
    socle,
)
from artinalg.berger import (
    critical_degree_search,
    omega_witness,
    q_algebra,
    socle_kill_check,
    tau_membership_check,
    tau_witness_gorenstein,
)
from artinalg.errors import TrivialAlgebraError
from artinalg.groebner import buchberger, normal_form
from artinalg.kahler import (
    d,
    embedding_obstruction,
    h0_de_rham,
    kahler_module,
    pushforward,
)
from artinalg.polycore import parse_polynomial
from artinalg.truncated import make_hom, search_homs, triangularize
from conftest import GOLDEN_GENS, GOLDEN_VARS, algebra_from_strings
from oracles import (
    MacaulayMembership,
    brute_force_nilpotent,
    random_element,
    random_graded_gens,
    random_polynomial,
    random_zero_dim_gens,
)

SEED = 7
ZERO = Fraction(0)


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number} ({description}): FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} took {elapsed:.1f}s, limit {limit_seconds}s"
    )
    print(
        f"[ACCEPTANCE] criterion {number} ({description}): PASS ({elapsed:.1f}s)"
    )


def both_strategy_search(algebra, n_max, monomial_budget, dense_budget):
    return search_homs(
        algebra,
        n_max,
        strategy=("monomial", "dense-random"),
        budget={"monomial": monomial_budget, "dense-random": dense_budget},
        seed=SEED,
    )


def test_criterion_1_golden_example():
    with criterion(1, "golden example suite", 60):
        A = algebra_from_strings(GOLDEN_VARS, GOLDEN_GENS)

        assert A.dim == 12
        assert {m.as_string(A.variables) for m in A.basis} == {
            "1", "X", "Y", "X^2", "Y*X", "Y^2",
            "X^3", "Y*X^2", "Y^2*X", "Y^3", "X^4", "Y^2*X^2",
        }

        quintic = parse_polynomial("X^4 + X^2*Y^3 + Y^5", A.variables)
        assert normal_form(quintic, A.gb) == parse_polynomial("1/5*X^4", A.variables)

        x4 = A.from_string("X^4")
        assert d(x4).is_zero()

        obstruction = embedding_obstruction(A)
        assert not obstruction.is_zero()
        assert obstruction.contains(x4.scale(Fraction(1, 5)))

        soc = socle(A)
        assert soc.dim == 1 and soc.contains(x4)

        w = A.from_string("X^2*Y^2")
        dw = d(w)
        assert not dw.is_zero()
        _, pi = quotient_algebra(A, ["X^3"])
        assert not pushforward(pi, dw).is_zero()

        homs = both_strategy_search(A, 24, monomial_budget=30000, dense_budget=1500)
        assert len(homs) > 1000
        element_violations = [h for h in homs if not h.apply(w).is_zero()]
        assert element_violations == []
        report = tau_membership_check(A, dw, homs, certificate_map=pi)
        assert report.all_killed and not report.violations
        assert report.certificate["quotient_image_nonzero"]


def test_criterion_2_staircase_suite():
    with criterion(2, "staircase algebras r = 1..5", 120):
        for r in range(1, 6):
            A = q_algebra(r)
            assert A.dim == 2 * r + 1

            soc = socle(A)
            assert soc.dim == 2 and not is_gorenstein(A)

            x = A.variable_element("X")
            y = A.variable_element("Y")
            omega = omega_witness(A, x, y, r)
            assert not omega.is_zero()

            n_max = 4 * r + 4
            homs = both_strategy_search(A, n_max, monomial_budget=2500, dense_budget=400)
            assert len(homs) >= 100
            report = tau_membership_check(A, omega, homs)
            assert report.all_killed and not report.violations

            cd = critical_degree_search(A, homs)
            expected = r // 2 + 1
            assert cd.lower_bound == expected
            assert max(cd.degrees_achieved) == expected  # no found hom exceeds it
            assert cd.reverify(A)


def test_criterion_3_fourth_power_pin():
    with criterion(3, "critical degree pin for the fourth-power quotient", 60):
        A = algebra_from_strings(
            ("X", "Y"), ("X^4", "X^3*Y", "X^2*Y^2", "X*Y^3", "Y^4")
        )
        homs = both_strategy_search(A, 16, monomial_budget=2200, dense_budget=300)
        report = critical_degree_search(A, homs)
        assert report.lower_bound == 3
        assert report.upper_bound == 3  # nilpotency index
        assert report.lower_bound == report.upper_bound  # exact value certified
        witness = report.witnesses[3]
        assert witness.hom.describe() == "[N=15] X -> t^4, Y -> t^5"
        assert report.reverify(A)


def test_criterion_4_gorenstein_socle_kill():
    with criterion(4, "Gorenstein socle killing", 60):
        for gens in (("X^2 - Y^2", "X*Y"), ("X^3", "Y^2")):
            A = algebra_from_strings(("X", "Y"), gens)
            homs = both_strategy_search(A, 12, monomial_budget=8000, dense_budget=800)
            assert len(homs) >= 200

            kill = socle_kill_check(A, homs)
            assert kill.all_killed and not kill.violations

            differential = tau_witness_gorenstein(A, homs=homs)
            assert differential.nonzero  # d(socle) != 0 in the graded case
            assert differential.all_killed and not differential.violations


def test_criterion_5_property_suites():
    with criterion(5, "randomized property suites", 300):
        counts = {}

        # shared pools -----------------------------------------------------
        golden = algebra_from_strings(GOLDEN_VARS, GOLDEN_GENS)
        q2, q3 = q_algebra(2), q_algebra(3)
        m4 = algebra_from_strings(
            ("X", "Y"), ("X^4", "X^3*Y", "X^2*Y^2", "X*Y^3", "Y^4")
        )
        diag = algebra_from_strings(("X", "Y"), ("X^2 - Y^2", "X*Y"))
        mixed = algebra_from_strings(("X", "Y"), ("X^3", "Y^2"))

        # 5a: normal-form idempotence and linearity -------------------------
        rng = random.Random(SEED)
        gbs = [
            golden.gb,
            q2.gb,
            m4.gb,
            buchberger([parse_polynomial(s, ("X", "Y")) for s in ("X^2 - Y^2", "X*Y")]),
            buchberger(
                [parse_polynomial(s, ("X", "Y", "Z")) for s in ("X^2", "Y^2 - Z", "Z^2")]
            ),
        ]
        counts["normal_form"] = 0
        for _ in range(1000):
            gb = rng.choice(gbs)
            p = random_polynomial(rng, gb.variables, max_degree=5, max_terms=4)
            q = random_polynomial(rng, gb.variables, max_degree=5, max_terms=4)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            nf_p = normal_form(p, gb)
            assert normal_form(nf_p, gb) == nf_p
            assert normal_form(p.scale(a) + q.scale(b), gb) == nf_p.scale(a) + normal_form(q, gb).scale(b)
            counts["normal_form"] += 1

        # 5b: Macaulay membership agreement ---------------------------------
        rng = random.Random(SEED + 1)
        counts["macaulay"] = 0
        while counts["macaulay"] < 1000:
            nvars = rng.choice((1, 2, 2, 3))
            variables = ("X", "Y", "Z")[:nvars]
            gens = [
                random_polynomial(rng, variables, max_degree=3, max_terms=3, allow_zero=False)
                for _ in range(rng.randint(1, 3))
            ]
            gb = buchberger(gens)
            oracle = MacaulayMembership(gens, variables)
            cap = 8 if nvars <= 2 else 6
            for _ in range(20):
                if rng.random() < 0.5:
                    p = gens[0] * random_polynomial(rng, variables, max_degree=2, max_terms=2)
                    for g in gens[1:]:
                        p = p + g * random_polynomial(rng, variables, max_degree=2, max_terms=2)
                else:
                    p = random_polynomial(rng, variables, max_degree=3, max_terms=4)
                claimed = normal_form(p, gb).is_zero()
                certified = oracle.member_up_to(p, cap)
                if claimed and not certified:
                    # a true member may need a certificate above the base
                    # cap; escalate once (a false claim never certifies)
                    certified = oracle.member_up_to(p, cap + 4)
                assert claimed == certified
                counts["macaulay"] += 1

        # 5c: multiplication-table associativity -----------------------------
        rng = random.Random(SEED + 2)
        algebras = [golden, q2, q3, m4, diag, mixed]
        counts["associativity"] = 0
        for _ in range(1000):
            A = rng.choice(algebras)
            a, b, c = (random_element(rng, A) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            counts["associativity"] += 1

        # 5d: nilradical against brute-force nilpotency ----------------------
        rng = random.Random(SEED + 3)
        nil_pool = []
        while len(nil_pool) < 8:
            try:
                A = build_algebra(("X", "Y"), random_zero_dim_gens(rng, ("X", "Y")))
            except TrivialAlgebraError:
                continue
            nil_pool.append((A, nilradical(A)))
        nil_pool.append((golden, nilradical(golden)))
        nil_pool.append((diag, nilradical(diag)))
        counts["nilradical"] = 0
        for _ in range(1000):
            A, nil = rng.choice(nil_pool)
            v = random_element(rng, A)
            assert nil.contains(v) == brute_force_nilpotent(A, v)
            counts["nilradical"] += 1

        # 5e: Leibniz rule for the universal derivation ----------------------
        rng = random.Random(SEED + 4)
        leibniz_pool = [q2, q3, diag, mixed]
        modules = {id(A): kahler_module(A) for A in leibniz_pool}
        counts["leibniz"] = 0
        for _ in range(1000):
            A = rng.choice(leibniz_pool)
            km = modules[id(A)]
            a = random_element(rng, A)
            b = random_element(rng, A)
            assert km.d(a * b) == km.act(a, km.d(b)) + km.act(b, km.d(a))
            counts["leibniz"] += 1

        # 5f: pushforward naturality ------------------------------------------
        rng = random.Random(SEED + 5)
        chains = []
        q2_quot, q2_pi = quotient_algebra(q2, ["Y"])
        chains.append((q2, q2_pi, make_hom(q2_quot, 2, ["t", "0"])))
        golden_quot, golden_pi = quotient_algebra(golden, ["X^3"])
        chains.append((golden, golden_pi, make_hom(golden_quot, 2, ["t", "t"])))
        m4_quot, m4_pi = quotient_algebra(m4, ["X - Y"])
        chains.append((m4, m4_pi, make_hom(m4_quot, 3, ["t", "t"])))
        counts["naturality"] = 0
        for _ in range(1000):
            A, pi, hom = rng.choice(chains)
            km = kahler_module(A)
            omega = km.d(random_element(rng, A))
            if rng.random() < 0.5:
                omega = km.act(random_element(rng, A), omega)
            composite = pi.then(hom)
            assert pushforward(composite, omega) == pushforward(
                hom, pushforward(pi, omega)
            )
            counts["naturality"] += 1

        # 5g: valuation laws ---------------------------------------------------
        rng = random.Random(SEED + 6)
        val_pool = []
        for A in (q2, q3, mixed):
            homs = search_homs(
                A, 9, strategy=("monomial", "dense-random"),
                budget={"monomial": 350, "dense-random": 120}, seed=SEED,
            )
            val_pool.extend((A, h) for h in homs[:40])
        counts["valuation"] = 0
        for _ in range(1000):
            A, hom = rng.choice(val_pool)
            a = random_element(rng, A)
            b = random_element(rng, A)
            assert hom.valuation(a * b) == hom.valuation(a).add(
                hom.valuation(b), hom.truncation
            )
            assert hom.valuation(a + b) >= min(hom.valuation(a), hom.valuation(b))
            counts["valuation"] += 1

        # 5h: triangularization -------------------------------------------------
        rng = random.Random(SEED + 7)
        counts["triangularize"] = 0
        while counts["triangularize"] < 1000:
            A, hom = rng.choice(val_pool)
            family = [random_element(rng, A) for _ in range(rng.randint(1, 4))]
            rows = [list(e.coords) for e in family]
            if linalg.rank(rows) != len(family):
                continue
            out = triangularize(hom, family)
            values = [hom.valuation(e) for e in out]
            finite = [v.value for v in values if not v.is_infinite]
            assert finite == sorted(finite) and len(set(finite)) == len(finite)
            assert all(v.is_infinite for v in values[len(finite):])
            assert linalg.rref(rows)[0] == linalg.rref([list(e.coords) for e in out])[0]
            counts["triangularize"] += 1

        # 5i: graded de Rham and Euler kernel -------------------------------------
        rng = random.Random(SEED + 8)
        graded_pool = [q2, q3, m4, diag, mixed]
        while len(graded_pool) < 25:
            try:
                A = build_algebra(("X", "Y"), random_graded_gens(rng, ("X", "Y")))
            except TrivialAlgebraError:
                continue
            if grading_info(A).is_standard_graded:
                graded_pool.append(A)
        for A in graded_pool:
            h0 = h0_de_rham(A)
            assert h0.dim == 1 and h0.contains(A.one())
            euler_rows = [
                [Fraction(A.degrees[i]) if i == j else ZERO for j in range(A.dim)]
                for i in range(A.dim)
            ]
            kernel = linalg.kernel_basis(euler_rows, A.dim)
            positive = nilradical(A)
            for vec in kernel:
                reduced = positive.reduce(vec)
                assert reduced == list(vec)  # kernel meets the positive part in 0
        counts["graded_euler"] = 0
        for _ in range(1000):
            A = rng.choice(graded_pool)
            v = random_element(rng, A)
            positive_coords = [
                c if deg > 0 else ZERO for c, deg in zip(v.coords, A.degrees)
            ]
            positive = AlgebraElement(A, positive_coords)
            if positive.is_zero():
                continue
            scaled = [c * deg for c, deg in zip(positive.coords, A.degrees)]
            assert any(c != 0 for c in scaled)  # Euler derivation nonzero on A_+
            counts["graded_euler"] += 1

        assert all(n >= 1000 for k, n in counts.items() if k != "graded_euler"), counts
        assert counts["graded_euler"] >= 900, counts


def test_criterion_6_byte_identical_reports(tmp_path):
    with criterion(6, "deterministic JSON reports", 120):
        golden_file = tmp_path / "golden.alg"
        golden_file.write_text(
            "vars: Y X\n"
            "gens: X^3*Y; X^5; X*Y^3 + 2*X^3; 3*X^2*Y^2 + 5*Y^4\n"
        )
        staircase_file = tmp_path / "staircase.alg"
        staircase_file.write_text("vars: X Y\ngens: X^3; X^2*Y; Y^2\n")
        diag_file = tmp_path / "diag.alg"
        diag_file.write_text("vars: X Y\ngens: X^2 - Y^2; X*Y\n")

        search = [
            "--nmax", "8", "--budget", "250",
            "--seed", "13", "--strategy", "monomial,dense-random",
        ]
        commands = [
            ["analyze", str(golden_file)],
            ["homs", str(staircase_file), *search],
            ["critdeg", str(staircase_file), "--nmax", "12", "--budget", "2500", "--seed", "13"],
            ["tau", str(golden_file), "--witness", "X^2*Y^2", *search],
            ["socle-kill", str(diag_file), *search, "--include-homs"],
        ]
        for argv in commands:
            runs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "artinalg.cli", *argv, "--json"],
                    capture_output=True,
                    check=False,
                )
                assert proc.returncode == 0, proc.stderr.decode()
                runs.append(proc.stdout)
            assert runs[0] == runs[1], f"non-deterministic output for {argv[0]}"
            json.loads(runs[0].decode())  # and it is valid JSON
