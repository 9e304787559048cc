import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from artinalg import berger, cli, linalg, truncated
from artinalg.algebra import AlgebraMap
from artinalg.cli import main, parse_algebra_file
from artinalg.errors import AlgebraFileError, ArtinalgError
from artinalg.polycore import parse_polynomial

GOLDEN_FILE = """\
# quotient with an ungradable Gorenstein structure
vars: Y X
gens: X^3*Y; X^5;
      X*Y^3 + 2*X^3;
      3*X^2*Y^2 + 5*Y^4
"""

STAIRCASE_FILE = """\
vars: X Y
gens: X^3; X^2*Y; Y^2
"""

CHAIN_FILE = """\
vars: X
gens: X^3
"""

FOURTH_POWER_FILE = """\
vars: X Y
gens: X^4; X^3*Y; X^2*Y^2; X*Y^3; Y^4
"""

# text built from polynomial and file syntax and from digits that are not
# ASCII: the superscripts are str.isdigit() but not decimal, the
# Arabic-Indic and full-width ones are decimal
NOISY = st.lists(
    st.sampled_from(
        list("XYZt019+-*/^(); :#\n\t_") + ["vars:", "gens:", "²", "³", "٣", "１", "\u00a0"]
    ),
    max_size=40,
).map("".join)


@pytest.fixture()
def golden_path(tmp_path):
    path = tmp_path / "golden.alg"
    path.write_text(GOLDEN_FILE)
    return str(path)


@pytest.fixture()
def staircase_path(tmp_path):
    path = tmp_path / "staircase.alg"
    path.write_text(STAIRCASE_FILE)
    return str(path)


@pytest.fixture(scope="module")
def staircase_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("alg") / "staircase.alg"
    path.write_text(STAIRCASE_FILE)
    return str(path)


@pytest.fixture()
def chain_path(tmp_path):
    path = tmp_path / "chain.alg"
    path.write_text(CHAIN_FILE)
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestFileParsing:
    def test_golden_file(self, golden_path):
        variables, gens = parse_algebra_file(golden_path)
        assert variables == ("Y", "X")
        assert len(gens) == 4
        assert gens[2] == "X*Y^3 + 2*X^3"

    def test_missing_vars(self, tmp_path):
        p = tmp_path / "bad.alg"
        p.write_text("gens: X^2\n")
        with pytest.raises(AlgebraFileError):
            parse_algebra_file(str(p))

    def test_stray_line(self, tmp_path):
        p = tmp_path / "bad.alg"
        p.write_text("hello\nvars: X\ngens: X^2\n")
        with pytest.raises(AlgebraFileError):
            parse_algebra_file(str(p))

    def test_comments_stripped(self, tmp_path):
        p = tmp_path / "ok.alg"
        p.write_text("vars: X  # ambient\ngens: X^2 # the square\n")
        variables, gens = parse_algebra_file(str(p))
        assert variables == ("X",) and gens == ["X^2"]

    def test_not_utf8(self, capsys, tmp_path):
        p = tmp_path / "bad.alg"
        p.write_bytes(b"vars: X\ngens: X^2 \xff\xfe\n")
        with pytest.raises(AlgebraFileError):
            parse_algebra_file(str(p))
        assert main(["analyze", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestArbitraryInput:
    """Parsing either returns or raises an ArtinalgError, whatever the input."""

    @settings(
        deadline=None,
        max_examples=200,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        content=st.one_of(
            st.binary(max_size=120),
            NOISY.map(
                lambda body: ("vars: X Y\ngens: " + body).encode("utf-8")
            ),
            st.text(max_size=80).map(lambda text: text.encode("utf-8")),
        )
    )
    def test_file_bytes(self, tmp_path, content):
        p = tmp_path / "fuzz.alg"
        p.write_bytes(content)
        try:
            variables, gens = parse_algebra_file(str(p))
            for g in gens:
                parse_polynomial(g, variables)
        except ArtinalgError:
            pass

    @settings(deadline=None, max_examples=300)
    @given(text=st.one_of(NOISY, st.text(max_size=60)))
    def test_polynomial_text(self, text):
        try:
            parse_polynomial(text, ("X", "Y"))
        except ArtinalgError:
            pass


class TestAnalyze:
    def test_each_invariant_is_one_kernel(self, capsys, monkeypatch, golden_path):
        # nilradical, socle and H0_dR are one kernel each, and the
        # obstruction is one more: the common kernel of d and the trace form
        calls = []
        kernel_basis = linalg.kernel_basis

        def counting(rows, ncols):
            calls.append(ncols)
            return kernel_basis(rows, ncols)

        monkeypatch.setattr(linalg, "kernel_basis", counting)
        code, report = run_json(capsys, ["analyze", golden_path])
        assert code == 0 and report["results"]["gorenstein"] is True
        assert len(calls) == 4

    def test_golden_analysis(self, capsys, golden_path):
        code, report = run_json(capsys, ["analyze", golden_path])
        assert code == 0
        res = report["results"]
        assert res["dim"] == 12
        assert res["standard_graded"] is False
        assert res["local_over_q"] is True
        assert res["gorenstein"] is True
        assert res["socle"]["elements"] == ["X^4"]
        assert res["obstruction_nonzero"] is True
        assert res["embedding_dimension"] == 2
        assert res["principal_ideal_algebra"] is False

    def test_dual_numbers(self, capsys, tmp_path):
        p = tmp_path / "dual.alg"
        p.write_text("vars: X\ngens: X^2\n")
        code, report = run_json(capsys, ["analyze", str(p)])
        assert code == 0
        res = report["results"]
        assert res["principal_ideal_algebra"] is True
        assert res["obstruction_nonzero"] is False

    def test_fourth_power_components(self, capsys, tmp_path):
        p = tmp_path / "m4.alg"
        p.write_text(FOURTH_POWER_FILE)
        code, report = run_json(capsys, ["analyze", str(p)])
        assert code == 0
        res = report["results"]
        assert res["standard_graded"] is True
        assert res["component_dims"] == [1, 2, 3, 4]

    def test_non_local_algebra_skips_socle_data(self, capsys, tmp_path):
        p = tmp_path / "split.alg"
        p.write_text("vars: X\ngens: X^2 - 1\n")
        code, report = run_json(capsys, ["analyze", str(p)])
        assert code == 0
        res = report["results"]
        assert res["local_over_q"] is False
        assert res["socle"] is None
        assert res["nilradical"]["dim"] == 0

    def test_parse_error_exit_code(self, capsys, tmp_path):
        p = tmp_path / "bad.alg"
        p.write_text("vars: X\ngens: X^^2\n")
        assert main(["analyze", str(p)]) == 2

    @pytest.mark.parametrize(
        "gens",
        ["X^\u00b2", "X\u00b2", "1" * 5000 + "*X^2", "X^2 + 1/" + "7" * 5000],
        ids=["superscript-exponent", "superscript-in-name", "long-coefficient", "long-denominator"],
    )
    def test_bad_number_is_input_error(self, capsys, tmp_path, gens):
        p = tmp_path / "bad.alg"
        p.write_text(f"vars: X\ngens: {gens}\n", encoding="utf-8")
        assert main(["analyze", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_positive_dimensional_exit_code(self, capsys, tmp_path):
        p = tmp_path / "bad.alg"
        p.write_text("vars: X Y\ngens: X^2\n")
        assert main(["analyze", str(p)]) == 2

    @pytest.mark.parametrize(
        "vars_line, named",
        [("X X", "'X'"), ("X Y X", "'X'"), ("1", "'1'"), ("X 2Y", "'2Y'"), ("X-Y", "'X-Y'")],
    )
    def test_bad_variable_is_input_error(self, capsys, tmp_path, vars_line, named):
        p = tmp_path / "bad.alg"
        p.write_text(f"vars: {vars_line}\ngens: X^2\n")
        assert main(["analyze", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: variable ") and named in err
        assert "pure power" not in err


class TestHoms:
    def test_staircase_search(self, capsys, staircase_path):
        code, report = run_json(
            capsys,
            ["homs", staircase_path, "--nmax", "5", "--budget", "500"],
        )
        assert code == 0
        res = report["results"]
        assert res["count"] >= 10
        witness = {
            "N": 5,
            "images": [["0", "0", "1", "0", "0", "0"], ["0", "0", "0", "1", "0", "0"]],
        }
        trimmed = [
            {"N": h["N"], "images": h["images"]} for h in res["homs"]
        ]
        assert witness in trimmed

    def test_variable_valuations_print_oo_for_a_zero_image(self, capsys, staircase_path):
        # a zero variable image prints "oo", any other image its t-order
        argv = ["homs", staircase_path, "--nmax", "5", "--budget", "400",
                "--strategy", "monomial,user", "--images", "t^2;0"]
        code, report = run_json(capsys, argv)
        assert code == 0
        homs = report["results"]["homs"]
        for h in homs:
            for (name, value), image in zip(h["variable_valuations"].items(), h["images"]):
                orders = [k for k, c in enumerate(image) if c != "0"]
                assert value == (str(orders[0]) if orders else "oo"), (name, image)
        valuations = [h["variable_valuations"] for h in homs]
        assert {"X": "2", "Y": "oo"} in valuations and {"X": "2", "Y": "3"} in valuations

    def test_user_strategy_violation_is_input_error(self, capsys, staircase_path):
        code = main(
            [
                "homs",
                staircase_path,
                "--nmax",
                "6",
                "--strategy",
                "user",
                "--images",
                "t^2;t^3",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: relation violated: X^3 maps to nonzero <t^6>\n"

    @pytest.mark.parametrize("strategy", ["user", "monomial,user"])
    def test_user_images_are_verified_once(self, capsys, monkeypatch, staircase_path, strategy):
        made, checked = [], []
        make_hom, violation = truncated.make_hom, AlgebraMap.violation

        def counting_make_hom(*args):
            made.append(args)
            return make_hom(*args)

        def counting_violation(hom):
            if hom.images[0].coords == (0, 0, 1, 0, 0, 0):
                checked.append(hom)
            return violation(hom)

        monkeypatch.setattr(cli, "make_hom", counting_make_hom)
        monkeypatch.setattr(truncated, "make_hom", counting_make_hom)
        monkeypatch.setattr(AlgebraMap, "violation", counting_violation)
        argv = ["homs", staircase_path, "--nmax", "5", "--budget", "3", "--strategy", strategy,
                "--images", "t^2;t^3"]
        code, report = run_json(capsys, argv)
        assert code == 0
        assert len(made) == 1 and len(checked) == 1
        kept = [h["images"] for h in report["results"]["homs"]]
        assert [["0", "0", "1", "0", "0", "0"], ["0", "0", "0", "1", "0", "0"]] in kept


class TestBadSearchFlags:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["homs", "--strategy", "bogus"], "unknown strategy 'bogus'"),
            (["homs", "--nmax", "0", "--strategy", "dense-random"], "n_max must be >= 1, got 0"),
            (["homs", "--nmax", "-3"], "n_max must be >= 1, got -3"),
            (["homs", "--budget", "-5"], "budget must be >= 0, got -5"),
            (["tau", "--r", "-1"], "r must be >= 1, got -1"),
            (["tau", "--r", "0"], "r must be >= 1, got 0"),
            (
                ["homs", "--nmax", "-1", "--strategy", "user", "--images", "t;t"],
                "n_max must be >= 1, got -1",
            ),
            (["homs", "--strategy", "user", "--images", ";"], "the user strategy needs images"),
            (["homs", "--strategy", ","], "no strategy given"),
            (["homs", "--strategy", "user"], "the user strategy needs images"),
            (["homs", "--strategy", "monomial,user"], "the user strategy needs images"),
            (["tau", "--r", "2", "--strategy", ","], "no strategy given"),
            (["tau", "--r", "2", "--strategy", "user"], "the user strategy needs images"),
            (["critdeg", "--strategy", "user", "--images", ";"], "the user strategy needs images"),
            (
                ["homs", "--nmax", "6", "--strategy", "xuser", "--images", "t^2;t^3"],
                "unknown strategy 'xuser'; expected one of monomial, dense-random, user",
            ),
            (
                ["homs", "--nmax", "6", "--strategy", "xuser,user", "--images", "t^2;t^3"],
                "unknown strategy 'xuser'; expected one of monomial, dense-random, user",
            ),
            (
                ["homs", "--nmax", "6", "--strategy", "user,dense-random", "--budget", "-1",
                 "--images", "t^2;t^3"],
                "budget must be >= 0, got -1",
            ),
        ],
        ids=[
            "unknown-strategy",
            "nmax-zero-dense",
            "nmax-negative",
            "budget-negative",
            "r-negative",
            "r-zero",
            "nmax-negative-user-images",
            "empty-user-images",
            "no-strategy",
            "user-without-images",
            "monomial-and-user-without-images",
            "tau-no-strategy",
            "tau-user-without-images",
            "critdeg-user-empty-images",
            "unknown-strategy-with-images",
            "unknown-strategy-beside-user-with-violating-images",
            "negative-budget-with-violating-user-images",
        ],
    )
    def test_input_error(self, capsys, staircase_path, argv, message):
        code = main([argv[0], staircase_path, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: {message}")
        assert "Traceback" not in captured.err

    @settings(deadline=None, max_examples=30)
    @given(
        command=st.sampled_from(["homs", "critdeg", "tau"]),
        nmax=st.integers(-2, 6),
        budget=st.integers(-2, 30),
        r=st.integers(-2, 3),
        strategy=st.lists(
            st.sampled_from(["monomial", "dense-random", "user", "bogus"]),
            min_size=1,
            max_size=3,
        ),
    )
    def test_any_flags_end_in_a_documented_code(
        self, staircase_file, command, nmax, budget, r, strategy
    ):
        argv = [
            command,
            staircase_file,
            "--nmax", str(nmax),
            "--budget", str(budget),
            "--strategy", ",".join(strategy),
        ]
        if command == "tau":
            argv += ["--r", str(r)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in {0, 2, 3, 4}


class TestCritdeg:
    def test_staircase_lower_bound(self, capsys, staircase_path):
        code, report = run_json(
            capsys,
            ["critdeg", staircase_path, "--nmax", "12", "--budget", "2500"],
        )
        assert code == 0
        res = report["results"]
        assert res["lower_bound"] == 2
        assert res["upper_bound"] == 2
        assert res["witnesses_reverified"] is True

    def test_overstated_rank_fails_reverification(self, capsys, monkeypatch, staircase_path):
        bounds = berger._rank_bounds
        calls = []

        def overstate_first(rows, orders, truncation, single_term):
            # the first call ranks degree one under the quadratic-kill hom
            lo, hi = bounds(rows, orders, truncation, single_term)
            calls.append(rows)
            return (lo + 1, hi + 1) if len(calls) == 1 else (lo, hi)

        monkeypatch.setattr(berger, "_rank_bounds", overstate_first)
        code, report = run_json(
            capsys, ["critdeg", staircase_path, "--nmax", "6", "--budget", "50"]
        )
        assert code == 3
        assert report["results"]["witnesses_reverified"] is False
        assert report["results"]["witnesses"]["1"]["rank"] == 3

    def test_principal_is_input_error(self, capsys, chain_path):
        assert main(["critdeg", chain_path, "--nmax", "6"]) == 2


class TestTau:
    def test_golden_witness_killed(self, capsys, golden_path):
        code, report = run_json(
            capsys,
            [
                "tau",
                golden_path,
                "--witness",
                "X^2*Y^2",
                "--nmax",
                "10",
                "--budget",
                "400",
            ],
        )
        assert code == 0
        res = report["results"]
        assert res["all_killed"] is True
        assert res["element_killed_by_all"] is True
        assert res["nonzero"] is True

    def test_element_check_is_the_kill_report(self, capsys, monkeypatch, chain_path):
        reports = []
        kill_report = berger._kill_report

        def recording(*args, **kwargs):
            reports.append(kill_report(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "_kill_report", recording)
        code, report = run_json(
            capsys, ["tau", chain_path, "--witness", "X", "--nmax", "4", "--budget", "50"]
        )
        assert code == 3
        (check,) = reports
        assert check.kind == "element" and check.violations
        res = report["results"]
        assert res["element"] == check.witness_text == "X"
        assert res["element_killed_by_all"] is check.all_killed is False
        assert res["element_violations"] == [h.to_record() for h in check.violations]

    def test_violation_exit_code(self, capsys, chain_path):
        code = main(
            ["tau", chain_path, "--witness", "X", "--nmax", "4", "--budget", "50"]
        )
        assert code == 3

    def test_missing_witness_is_input_error(self, capsys, golden_path):
        assert main(["tau", golden_path]) == 2

    @pytest.mark.parametrize(
        "path, flags, message",
        [
            ("staircase", ["--r", "0"], "r must be >= 1, got 0"),
            ("staircase", [], "tau needs --witness <polynomial> or --r <int>"),
            ("staircase", ["--witness", "X^^2"], "expected int, found '^' (token 2)"),
            ("staircase", ["--witness", "Z"], "unknown variable 'Z'"),
            ("chain", ["--r", "2"], "need two degree-one basis monomials for --r mode"),
            ("staircase", ["--witness", "X*Y", "--r", "2"], "tau takes --witness or --r, not both"),
        ],
        ids=["r-zero", "no-witness", "bad-polynomial", "unknown-variable", "one-variable",
             "witness-and-r"],
    )
    def test_bad_witness_is_rejected_before_the_search(
        self, capsys, monkeypatch, staircase_path, chain_path, path, flags, message
    ):
        def no_search(*args, **kwargs):
            raise AssertionError("searched before checking the witness")

        monkeypatch.setattr(cli, "search_homs", no_search)
        file = staircase_path if path == "staircase" else chain_path
        code = main(["tau", file, "--nmax", "24", "--budget", "5000", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {message}\n"

    def test_budget_exhaustion_exit_code(self, capsys, golden_path):
        code = main(
            [
                "tau",
                golden_path,
                "--witness",
                "X^2*Y^2",
                "--nmax",
                "10",
                "--budget",
                "0",
            ]
        )
        assert code == 4

    def test_staircase_witness_form_mode(self, capsys, staircase_path):
        code, report = run_json(
            capsys,
            ["tau", staircase_path, "--r", "2", "--nmax", "8", "--budget", "300"],
        )
        assert code == 0
        res = report["results"]
        assert res["all_killed"] is True
        assert res["nonzero"] is True


class TestSocleKill:
    def test_diagonal_gorenstein(self, capsys, tmp_path):
        p = tmp_path / "diag.alg"
        p.write_text("vars: X Y\ngens: X^2 - Y^2; X*Y\n")
        code, report = run_json(
            capsys,
            ["socle-kill", str(p), "--nmax", "8", "--budget", "300"],
        )
        assert code == 0
        res = report["results"]
        assert res["socle_kill"]["all_killed"] is True
        assert res["socle_differential"]["nonzero"] is True

    def test_principal_diagnostic(self, capsys, chain_path):
        assert main(["socle-kill", chain_path]) == 2

    def test_ungradable_gorenstein_differential_route_fails(self, capsys, golden_path):
        code, report = run_json(
            capsys,
            ["socle-kill", golden_path, "--nmax", "8", "--budget", "300"],
        )
        assert code == 0
        res = report["results"]
        assert res["socle_kill"]["all_killed"] is True
        assert res["socle_differential"]["nonzero"] is False
        assert "fails" in res["socle_differential"]["notes"]["socle_differential_route"]


class TestDeterminism:
    def test_byte_identical_json(self, capsys, staircase_path):
        argv = [
            "homs",
            staircase_path,
            "--nmax",
            "6",
            "--budget",
            "150",
            "--seed",
            "11",
            "--strategy",
            "monomial,dense-random",
            "--json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_json_is_written_in_batches(self, monkeypatch, golden_path):
        # one write per encoder chunk kept ~10^5 small strings alive in a
        # captured stdout; the bytes are those of json.dump
        class CountingOut(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        out = CountingOut()
        monkeypatch.setattr(sys, "stdout", out)
        argv = ["homs", golden_path, "--nmax", "8", "--budget", "400", "--json"]
        assert main(argv) == 0
        monkeypatch.undo()
        text = out.getvalue()
        reference = io.StringIO()
        json.dump(json.loads(text), reference, sort_keys=True, indent=2)
        assert text == reference.getvalue() + "\n"
        chunks = len(list(json.JSONEncoder(sort_keys=True, indent=2).iterencode(json.loads(text))))
        assert chunks > 2 * 4096 and out.writes <= chunks // 4096 + 2

    def test_human_output_runs(self, capsys, staircase_path):
        assert main(["analyze", staircase_path]) == 0
        out = capsys.readouterr().out
        assert "dim: 5" in out


class TestStaircaseCritdegAtSeedThree:
    """The exact bytes of the staircase critdeg reports at a seed other than
    the default: each pins which dense-random candidates the seeded rng
    draws, on every Python the suite runs on."""

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("q1", "10f541cff6308d0735cd014c74e150ebf78f21b0ee300f910896d97240c32fe4"),
            ("q2", "d4f8f9d48e3bb2d167028e02a21ec8dbc2d23dcd508720b49c1ef12522191625"),
            ("q3", "be0a541cb78f697995aa2a1bc8ca397644bf3361c9e0a54f8b9c62f214e495c0"),
            ("q4", "4f116ea406429f5041b31490fb563ec4694036cae4f9d6485dafa8fa41f1617e"),
            ("q5", "1698be9ec6b955aa4f77519f2d1d41f47e79ef22bae7cc26afa5604a251201ef"),
            ("power_xy_4", "214c64bd45b8b65db2a9ca15226e9c20197259569d7bd81d28f126dd698d8e1e"),
        ],
    )
    def test_report_bytes_are_pinned(self, capsys, monkeypatch, name, digest):
        monkeypatch.chdir(Path(__file__).resolve().parents[1])
        argv = ["critdeg", f"perfbench/inputs/{name}.alg", "--nmax", "12", "--budget", "2500",
                "--strategy", "monomial,dense-random", "--seed", "3", "--json"]
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestColdStart:
    def test_import_loads_no_dataclasses_inspect_or_typing(self):
        # `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, and
        # runs generated code per class: about half of a bare CLI import.
        src = Path(cli.__file__).resolve().parents[1]
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); import artinalg.cli; "
            "print(' '.join(sorted(sys.modules)))"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-S", "-c", code],
            capture_output=True, text=True, timeout=60, check=True,
        )
        loaded = set(done.stdout.split())
        assert "artinalg.cli" in loaded
        assert loaded & {"dataclasses", "inspect", "typing"} == set()


class TestClosedStdout:
    def test_a_reader_that_stops_early_gets_no_traceback(self, golden_path):
        # the report is about 1 MB, far past a pipe's buffer, so the CLI is
        # still writing when the reader closes its end
        src = Path(cli.__file__).resolve().parents[1]
        code = f"import sys; sys.path.insert(0, {str(src)!r}); from artinalg.cli import main; sys.exit(main())"
        argv = ["homs", golden_path, "--nmax", "8", "--budget", "2000",
                "--strategy", "monomial,dense-random", "--json"]
        proc = subprocess.Popen([sys.executable, "-I", "-c", code, *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert head == b'{\n  "comma'
        assert err == b""
