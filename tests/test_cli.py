import csv
import io
import json
import math

import numpy as np
import pytest

from gentrig import bvp, cli, gtf, integrals, quadrature, verify
from gentrig.gtf import ParamPair
from gentrig.integrals import WallisQuery


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_pi_human(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--fn", "pi", "--p", "2", "--q", "2")
        assert code == 0
        assert f"{math.pi:.10g}" in out

    def test_sin_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--fn", "sin", "--p", "2", "--q", "4", "--x", "0.5",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["command"] == "eval"
        assert data["inputs"]["x"] == 0.5
        assert data["value"] == pytest.approx(gtf.sin_pq(2.0, 4.0, 0.5), rel=1e-15)

    def test_pi_rejects_x(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--fn", "pi", "--p", "2", "--q", "2", "--x", "0.5"
        )
        assert code == 2
        assert "not accepted" in err

    def test_sin_requires_x(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--fn", "sin", "--p", "2", "--q", "2")
        assert code == 2

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--fn", "sin", "--p", "0.5", "--q", "2", "--x", "0.1"
        )
        assert code == 2
        assert err.strip() != ""


class TestVerify:
    def test_pythagorean_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "pythagorean")
        assert code == 0
        assert "SUITE pythagorean PASS" in out

    def test_appendix_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "appendix")
        assert code == 0
        assert "SUITE appendix PASS" in out

    def test_product_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "product")
        assert code == 0
        assert "SUITE product PASS" in out

    @pytest.mark.parametrize(
        "suite,count",
        [
            # 9 pairs x 2 lengths x (ode, phase, boundary) + 3 closure + 3 symmetry
            ("bvp", 60),
            # 9 pairs x 3 n x (3 sine + 2 cosine exponents)
            ("wallis", 135),
        ],
    )
    def test_suite_passes_every_case(self, capsys, suite, count):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--grid", "small")
        assert code == 0
        cases = [l for l in out.splitlines() if l.startswith("  ")]
        assert len(cases) == count
        assert all(l.endswith(" ok") for l in cases)
        assert f"SUITE {suite} PASS" in out

    def test_all_suites_full_grid(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--grid", "full")
        assert code == 0
        cases = [l for l in out.splitlines() if l.startswith("  ")]
        assert len(cases) == 597
        assert all(l.endswith(" ok") for l in cases)
        summaries = [l for l in out.splitlines() if l.startswith("SUITE")]
        assert len(summaries) == 6
        assert all(" PASS " in l for l in summaries)

    def test_reports_max_residual(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--suite", "pythagorean")
        line = [l for l in out.splitlines() if l.startswith("SUITE")][0]
        assert "max_residual=" in line
        value = float(line.split("max_residual=")[1])
        assert 0.0 <= value <= 1e-11

    def test_oracle_failure_names_where(self, capsys, monkeypatch):
        # with two refinement levels no moment can be certified
        monkeypatch.setattr(quadrature, "_MAX_LEVEL", 1)
        code, _, err = run_cli(capsys, "verify", "--suite", "wallis")
        assert code == 1
        assert err.startswith("numerical failure: quadrature: tolerance 1e-10 not met")
        # the grid is one batch, its rows the suite's 135 cases in order
        assert f"not met in rows {list(range(135))} of 135 after its budget of 2 levels" in err
        assert err.count("levels") == 1

    @pytest.mark.parametrize("suite,calls", [("pythagorean", 1), ("appendix", 2)])
    def test_one_gtf_call_for_all_pairs(self, monkeypatch, suite, calls):
        """The pythagorean suite inverts every pair of the grid in one gtf
        call, the appendix in two (the pair and its reflection): each call
        of gtf's array lane gives values for all 25 pairs."""
        seen = []
        real = gtf._sincos_arrays

        def spy(*args):
            out = real(*args)
            seen.append(out[0].shape)
            return out

        monkeypatch.setattr(gtf, "_sincos_arrays", spy)
        verify.run(suite, verify.GRIDS["full"])
        assert len(seen) == calls and all(shape[:2] == (5, 5) for shape in seen)

    def test_residual_above_tolerance_fails(self, capsys, monkeypatch):
        cases = [("held", 1e-12, 1e-11), ("broken", 2e-11, 1e-11)]
        monkeypatch.setattr(verify, "run", lambda name, grid: cases)
        code, out, _ = run_cli(capsys, "verify", "--suite", "pythagorean")
        assert code == 1
        lines = out.splitlines()
        assert "  held: residual=1.000e-12 tol=1.0e-11 ok" in lines
        assert "  broken: residual=2.000e-11 tol=1.0e-11 FAIL" in lines
        assert "SUITE pythagorean FAIL max_residual=2.000e-11" in lines


class TestParser:
    def test_built_once_per_process(self, capsys, monkeypatch):
        """main builds its parser on the first call only; later calls parse
        with the same one, and bad flags still exit 2 with the same text."""
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            errors = []
            for _ in range(2):
                code, out, _ = run_cli(capsys, "eval", "--fn", "pi", "--p", "2", "--q", "2")
                assert code == 0 and out == f"pi(p=2.0, q=2.0) = {math.pi:.10g}\n"
                with pytest.raises(SystemExit) as exc:
                    cli.main(["verify", "--suite", "nope"])
                assert exc.value.code == 2
                errors.append(capsys.readouterr().err)
            assert len(built) == 1
            assert errors[0] == errors[1] and "invalid choice: 'nope'" in errors[0]
        finally:
            cli._parser.cache_clear()

    def test_commands_looked_up_at_each_call(self, monkeypatch):
        """A command rebound after the parser was built is the one that runs."""
        argv = ["eval", "--fn", "pi", "--p", "2", "--q", "2"]
        cli._parser()
        monkeypatch.setattr(cli, "cmd_eval", lambda args: 7)
        assert cli.main(argv) == 7


class TestTable:
    def test_lemniscate_row_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--kind", "lemniscate", "--nmax", "3"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 16  # (nmax + 1) residues x 4 classes
        assert set(rows[0]) == {"n", "residue", "exponent", "value"}

    def test_lemniscate_values(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--kind", "lemniscate", "--nmax", "0")
        rows = list(csv.DictReader(io.StringIO(out)))
        first = [r for r in rows if r["residue"] == "0"][0]
        varpi = gtf.pi_pq(2.0, 4.0)
        assert float(first["value"]) == pytest.approx(varpi / 2.0, rel=1e-15)

    def test_wallis_sin_requires_params(self, capsys):
        code, _, err = run_cli(capsys, "table", "--kind", "wallis_sin")
        assert code == 2

    def test_wallis_sin_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--kind", "wallis_sin", "--p", "2", "--q", "2",
            "--nmax", "2", "--format", "json",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines() if line.strip()]
        assert all("exponent" in r["inputs"] and "value" in r for r in records)
        assert records[0]["value"] == pytest.approx(math.pi / 2.0, rel=1e-14)

    def test_product_partials_monotone(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--kind", "product_partials", "--p", "2", "--q", "3",
            "--N", "50",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        vals = [float(r["partial"]) for r in rows]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_bvp_profile(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--kind", "bvp_profile", "--m", "1.0", "--H", "2.0",
            "--samples", "11",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 11
        assert float(rows[0]["u"]) == pytest.approx(0.0, abs=1e-12)
        assert float(rows[-1]["u"]) == pytest.approx(0.0, abs=1e-12)

    def test_bvp_profile_rejects_both_m_and_p(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "table", "--kind", "bvp_profile", "--m", "1.0", "--p", "2.0",
        )
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--kind", "lemniscate", "--nmax", "-1"],
        ["--kind", "wallis_sin", "--p", "2", "--q", "3", "--nmax", "-1"],
        ["--kind", "wallis_cos", "--p", "2", "--q", "3", "--nmax", "-1"],
        ["--kind", "bvp_profile", "--m", "1", "--samples", "0"],
        ["--kind", "bvp_profile", "--m", "1", "--samples", "-1"],
        ["--kind", "bvp_profile", "--p", "3", "--samples", "0"],
        ["--kind", "product_partials", "--p", "2", "--q", "3", "--N", "-5"],
    ], ids=lambda argv: " ".join(argv[1::2]))
    def test_bad_count_flags_exit_2(self, capsys, argv):
        # --nmax below 0 printed only a header, --samples -1 a numpy traceback
        code, out, err = run_cli(capsys, "table", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"domain error: {argv[-2]}: need an integer >= ")

    def test_pq_equal_profile_needs_unit_interval(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "--kind", "bvp_profile", "--p", "3", "--H", "2")
        assert code == 2 and out == ""
        assert "the p = q profile is defined on H = 1" in err

    def test_out_into_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "t.csv"
        code, out, err = run_cli(
            capsys, "table", "--kind", "lemniscate", "--nmax", "1", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"cannot write {target}")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "t.csv"
        code, _, _ = run_cli(
            capsys,
            "table", "--kind", "lemniscate", "--nmax", "1", "--out", str(target),
        )
        assert code == 0
        rows = list(csv.DictReader(target.open()))
        assert len(rows) == 8


def _wallis(kind, p, q, r, nmax):
    func, base = ((integrals.wallis_sin, q) if kind == "wallis_sin"
                  else (integrals.wallis_cos, p))
    return [({"kind": kind, "p": p, "q": q, "n": n, "r": r, "exponent": base * n + r},
             func(WallisQuery(ParamPair(p, q), n, r))) for n in range(nmax + 1)]


def _profile(sol, inputs, samples):
    xs = np.linspace(0.0, sol.H, samples)
    return [(dict(inputs, x=float(x)), float(u)) for x, u in zip(xs, sol(xs))]


# argv, CSV columns, JSON input keys, and the rows rebuilt from library calls
# as (inputs, value) pairs
TABLES = {
    "wallis_sin": (
        ["--kind", "wallis_sin", "--p", "2.5", "--q", "3", "--nmax", "2"],
        ["n", "r", "exponent", "value"], ["kind", "p", "q", "n", "r", "exponent"],
        lambda: _wallis("wallis_sin", 2.5, 3.0, 0.0, 2)),
    "wallis_cos": (
        ["--kind", "wallis_cos", "--p", "2.5", "--q", "3", "--r", "0.5", "--nmax", "2"],
        ["n", "r", "exponent", "value"], ["kind", "p", "q", "n", "r", "exponent"],
        lambda: _wallis("wallis_cos", 2.5, 3.0, 0.5, 2)),
    "lemniscate": (
        ["--kind", "lemniscate", "--nmax", "1"],
        ["n", "residue", "exponent", "value"], ["kind", "n", "residue", "exponent"],
        lambda: [({"kind": "lemniscate", "n": n, "residue": k, "exponent": 4 * n + k},
                  integrals.lemniscate_wallis(n, k)) for n in range(2) for k in range(4)]),
    "product_partials": (
        ["--kind", "product_partials", "--p", "2", "--q", "3", "--N", "4"],
        ["n", "partial"], ["kind", "p", "q", "n"],
        lambda: [({"kind": "product_partials", "p": 2.0, "q": 3.0, "n": n}, float(v))
                 for n, v in enumerate(np.cumprod(integrals.product_factors(2, 3, 4)), 1)]),
    "bvp_nonlocal": (
        ["--kind", "bvp_profile", "--m", "1", "--H", "2", "--samples", "5"],
        ["x", "u"], ["kind", "m", "H", "x"],
        lambda: _profile(bvp.solve_nonlocal(2.0, 1.0),
                         {"kind": "bvp_profile", "m": 1.0, "H": 2.0}, 5)),
    "bvp_pq_equal": (
        ["--kind", "bvp_profile", "--p", "3", "--samples", "5"],
        ["x", "u"], ["kind", "p", "H", "x"],
        lambda: _profile(bvp.solve_pq_equal(3.0),
                         {"kind": "bvp_profile", "p": 3.0, "H": 1.0}, 5)),
}


class TestFormat:
    """The exact text of tables and eval records, rebuilt from library calls
    so that a value moving at rounding level moves both sides."""

    @pytest.mark.parametrize("name", TABLES)
    def test_table_csv(self, capsys, name):
        argv, columns, _, rows = TABLES[name]
        code, out, err = run_cli(capsys, "table", *argv)
        assert (code, err) == (0, "")
        lines = [",".join(columns)] + [
            ",".join([f"{v:.17g}" if isinstance(v, float) else str(v)
                      for v in (inputs[c] for c in columns[:-1])] + [f"{value:.17g}"])
            for inputs, value in rows()
        ]
        assert out == "".join(line + "\n" for line in lines)

    @pytest.mark.parametrize("name", TABLES)
    def test_table_json(self, capsys, name):
        argv, _, keys, rows = TABLES[name]
        code, out, err = run_cli(capsys, "table", *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert out == "".join(
            json.dumps({"command": "table", "inputs": inputs, "value": value}) + "\n"
            for inputs, value in rows()
        )
        for line in out.splitlines():
            record = json.loads(line)
            assert list(record) == ["command", "inputs", "value"]
            assert list(record["inputs"]) == keys

    def test_numbers_in_csv(self, capsys):
        # ints stay ints, floats take 17 significant digits, r = 0.0 reads 0
        _, out, _ = run_cli(capsys, "table", *TABLES["wallis_sin"][0])
        lines = out.splitlines()
        assert lines[0] == "n,r,exponent,value"
        assert lines[1].startswith("0,0,0,")
        assert lines[2].startswith("1,0,3,")
        value = integrals.wallis_sin(WallisQuery(ParamPair(2.5, 3.0), 1, 0.0))
        assert lines[2].split(",")[3] == f"{value:.17g}"
        _, out, _ = run_cli(capsys, "table", *TABLES["bvp_nonlocal"][0])
        assert out.splitlines()[2].startswith("0.5,")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", TABLES)
    def test_out_file_equals_stdout(self, capsys, tmp_path, name, fmt):
        argv = TABLES[name][0] + ["--format", fmt]
        _, out, _ = run_cli(capsys, "table", *argv)
        target = tmp_path / "t.txt"
        code, printed, err = run_cli(capsys, "table", *argv, "--out", str(target))
        assert (code, printed, err) == (0, "", "")
        assert target.read_bytes() == out.encode()

    @pytest.mark.parametrize("argv,inputs,value", [
        (["--fn", "asin", "--p", "2.5", "--q", "3", "--x", "0.3"],
         {"fn": "asin", "p": 2.5, "q": 3.0, "x": 0.3}, lambda: gtf.asin_pq(2.5, 3.0, 0.3)),
        (["--fn", "pi", "--p", "2", "--q", "4"],
         {"fn": "pi", "p": 2.0, "q": 4.0}, lambda: gtf.pi_pq(2.0, 4.0)),
    ], ids=["asin", "pi"])
    def test_eval_json(self, capsys, argv, inputs, value):
        code, out, err = run_cli(capsys, "eval", *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert out == json.dumps(
            {"command": "eval", "inputs": inputs, "value": value()}) + "\n"
        assert list(json.loads(out)) == ["command", "inputs", "value"]
        assert list(json.loads(out)["inputs"]) == list(inputs)

    def test_eval_human(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--fn", "sin", "--p", "2", "--q", "4",
                               "--x", "0.5")
        assert code == 0
        assert out == f"sin(p=2.0, q=4.0, x=0.5) = {gtf.sin_pq(2.0, 4.0, 0.5):.10g}\n"
