import csv
import io
import json
import math

import pytest

from gentrig import cli, gtf, quadrature


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
        assert "in rows [0, 1, 2, 3, 4, 5, 6, 7, 8] of 9 after 2 levels" in err
        # the grid is one batch: the error names the spec of those rows
        assert "not met for p=1.5 q=1.5 flavor=sin in rows" in err
        assert "budget of 2000000" in err

    def test_residual_above_tolerance_fails(self, capsys, monkeypatch):
        cases = [("held", 1e-12, 1e-11), ("broken", 2e-11, 1e-11)]
        monkeypatch.setitem(cli._SUITE_FUNCS, "pythagorean", lambda grid: cases)
        code, out, _ = run_cli(capsys, "verify", "--suite", "pythagorean")
        assert code == 1
        lines = out.splitlines()
        assert "  held: residual=1.000e-12 tol=1.0e-11 ok" in lines
        assert "  broken: residual=2.000e-11 tol=1.0e-11 FAIL" in lines
        assert "SUITE pythagorean FAIL max_residual=2.000e-11" in lines


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

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "t.csv"
        code, _, _ = run_cli(
            capsys,
            "table", "--kind", "lemniscate", "--nmax", "1", "--out", str(target),
        )
        assert code == 0
        rows = list(csv.DictReader(target.open()))
        assert len(rows) == 8
