import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
                "truncation must be >= 0, got -1",
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

    def test_violation_exit_code(self, capsys, chain_path):
        code = main(
            ["tau", chain_path, "--witness", "X", "--nmax", "4", "--budget", "50"]
        )
        assert code == 3

    def test_missing_witness_is_input_error(self, capsys, golden_path):
        assert main(["tau", golden_path]) == 2

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

    def test_human_output_runs(self, capsys, staircase_path):
        assert main(["analyze", staircase_path]) == 0
        out = capsys.readouterr().out
        assert "dim: 5" in out
