import csv
import json
import subprocess
import sys
from importlib import resources
from itertools import zip_longest

import jsonschema
import numpy as np
import pytest

from priorstab import DecisionProblem, Prior
from priorstab.cli import main
from priorstab.core import expected_utility

from conftest import (
    PLANTED_WEIGHTS_CSV,
    PORTFOLIO_ACTS,
    PORTFOLIO_UTILITIES,
    REGIME_STATES,
    build_planted_panel,
    planted_monthly_csv,
)

TOY_UTILITIES = "act,s1,s2\na,1.0,0.0\nb,0.0,1.0\n"
TOY_PRIORS = "prior,s1,s2\nref,0.7,0.3\n"


@pytest.fixture(scope="module")
def schema():
    resource = resources.files("priorstab").joinpath("data", "report.schema.json")
    with resource.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_tidy(path):
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rows[(row["prior"], row["act"], row["measure"])] = row["value"]
    return rows


def portfolio_csv():
    lines = ["act," + ",".join(REGIME_STATES)]
    for act, row in zip(PORTFOLIO_ACTS, PORTFOLIO_UTILITIES):
        lines.append(act + "," + ",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


class TestAnalyze:
    def test_toy_report(self, tmp_path, schema):
        u = write(tmp_path, "u.csv", TOY_UTILITIES)
        p = write(tmp_path, "p.csv", TOY_PRIORS)
        assert main(["analyze", "--utilities", u, "--priors", p, "--out", str(tmp_path)]) == 0
        rows = read_tidy(tmp_path / "stability.csv")
        assert rows[("ref", "a", "rob")] == "0.2"
        assert float(rows[("ref", "b", "con")]) == pytest.approx(0.2, abs=1e-9)
        assert rows[("ref", "b", "rob")] == "NOT_BAYES"
        assert rows[("ref", "a", "is_bayes")] == "1"
        assert rows[("ref", "b", "is_bayes")] == "0"
        report = json.loads((tmp_path / "stability.json").read_text())
        jsonschema.validate(report, schema)
        assert abs(report["rows"][0]["rob"] - 0.2) <= 1e-12
        assert report["rows"][1]["rob"] == "NOT_BAYES"

    def test_portfolio_with_packaged_priors(self, tmp_path, schema):
        u = write(tmp_path, "u.csv", portfolio_csv())
        assert main(["analyze", "--utilities", u, "--out", str(tmp_path)]) == 0
        rows = read_tidy(tmp_path / "stability.csv")
        for act in PORTFOLIO_ACTS:
            assert rows[("uniform", act, "is_bayes")] == ("1" if act == "multi_asset" else "0")
        report = json.loads((tmp_path / "stability.json").read_text())
        jsonschema.validate(report, schema)
        assert len(report["rows"]) == 48

    def test_inadmissible_act_certificate_in_report(self, tmp_path, schema):
        u = write(tmp_path, "u.csv", "act,s1,s2\nmid,0.4,0.4\nup,1.0,0.0\ndown,0.0,1.0\n")
        p = write(tmp_path, "p.csv", "prior,s1,s2\nhalf,0.5,0.5\n")
        assert main(["analyze", "--utilities", u, "--priors", p, "--out", str(tmp_path)]) == 0
        rows = read_tidy(tmp_path / "stability.csv")
        assert rows[("half", "mid", "con")] == "INADMISSIBLE"
        report = json.loads((tmp_path / "stability.json").read_text())
        jsonschema.validate(report, schema)
        cert = report["rows"][0]["certificate"]
        assert cert is not None
        assert cert["weights"]["up"] == pytest.approx(0.5, abs=1e-9)

    def test_act_bayes_only_by_the_tie_rule_keeps_a_finite_need(self, tmp_path, schema):
        # b beats a in both states, by 1e-9 and 1e-3; the first lead is inside
        # the tie tolerance, so a is Bayes at (1, 0) and pending next to c at
        # the even prior, with a finite need there
        u = write(tmp_path, "u.csv", "act,s1,s2\na,1000,-1000\nb,1000.000000001,-999.999\nc,0,0\n")
        p = write(tmp_path, "p.csv", "prior,s1,s2\neven,0.5,0.5\nv,1,0\n")
        assert main(["analyze", "--utilities", u, "--priors", p, "--out", str(tmp_path)]) == 0
        rows = read_tidy(tmp_path / "stability.csv")
        assert float(rows[("even", "a", "con")]) == pytest.approx(0.5 - 1e-6, abs=1e-6)
        assert float(rows[("even", "c", "con")]) > 0.0
        assert rows[("v", "a", "is_bayes")] == "1"
        report = json.loads((tmp_path / "stability.json").read_text())
        jsonschema.validate(report, schema)
        assert all(row["certificate"] is None for row in report["rows"])

    def test_dominance_small_next_to_the_largest_gain_is_certified(self, tmp_path, schema):
        # b beats a in both states, by 5e-7 and 1e-3, against a largest gain
        # of 1000 (c over a in s2); a is pending next to c at the even prior
        u = write(tmp_path, "u.csv", "act,s1,s2\na,1000,-1000\nb,1000.0000005,-999.999\nc,0,0\n")
        p = write(tmp_path, "p.csv", "prior,s1,s2\neven,0.5,0.5\n")
        assert main(["analyze", "--utilities", u, "--priors", p, "--out", str(tmp_path)]) == 0
        rows = read_tidy(tmp_path / "stability.csv")
        assert rows[("even", "a", "con")] == "INADMISSIBLE"
        assert float(rows[("even", "c", "con")]) > 0.0
        report = json.loads((tmp_path / "stability.json").read_text())
        jsonschema.validate(report, schema)
        cert = report["rows"][0]["certificate"]
        assert cert["weights"] == {"b": 1.0, "c": 0.0}
        assert cert["margins"] == pytest.approx([5e-7, 1e-3], rel=1e-6)

    def test_empty_priors_file_is_exit_2(self, tmp_path, capsys):
        u = write(tmp_path, "u.csv", TOY_UTILITIES)
        p = write(tmp_path, "p.csv", "prior,s1,s2\n")
        assert main(["analyze", "--utilities", u, "--priors", p, "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_csv_is_exit_2_with_line(self, tmp_path, capsys):
        u = write(tmp_path, "u.csv", "act,s1,s2\na,1.0\n")
        p = write(tmp_path, "p.csv", TOY_PRIORS)
        assert main(["analyze", "--utilities", u, "--priors", p, "--out", str(tmp_path)]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_state_mismatch_is_exit_3(self, tmp_path):
        u = write(tmp_path, "u.csv", TOY_UTILITIES)
        p = write(tmp_path, "p.csv", "prior,other1,other2\nref,0.7,0.3\n")
        assert main(["analyze", "--utilities", u, "--priors", p, "--out", str(tmp_path)]) == 3

    def test_tol_is_an_unknown_flag(self, tmp_path, capsys):
        # the radius is exact, so there is no tolerance to set
        u = write(tmp_path, "u.csv", TOY_UTILITIES)
        p = write(tmp_path, "p.csv", TOY_PRIORS)
        for command in ("analyze", "path"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--utilities", u, "--priors", p, "--tol", "1e-6", "--out", str(tmp_path)])
            assert exc.value.code == 2
            assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_byte_order_marks_are_accepted(self, tmp_path):
        # spreadsheet exports start their CSV files with a UTF-8 byte order mark
        u = tmp_path / "u.csv"
        u.write_bytes(b"\xef\xbb\xbf" + TOY_UTILITIES.encode())
        p = tmp_path / "p.csv"
        p.write_bytes(b"\xef\xbb\xbf" + TOY_PRIORS.encode())
        out = tmp_path / "out"
        assert main(["analyze", "--utilities", str(u), "--priors", str(p), "--out", str(out)]) == 0
        report = json.loads((out / "stability.json").read_text())
        assert report["states"] == ["s1", "s2"]
        assert [prior["name"] for prior in report["priors"]] == ["ref"]

    def test_prior_columns_may_be_permuted(self, tmp_path):
        u = write(tmp_path, "u.csv", TOY_UTILITIES)
        p = write(tmp_path, "p.csv", "prior,s2,s1\nref,0.3,0.7\n")
        assert main(["analyze", "--utilities", u, "--priors", p, "--out", str(tmp_path)]) == 0
        rows = read_tidy(tmp_path / "stability.csv")
        assert rows[("ref", "a", "is_bayes")] == "1"


class TestPath:
    def test_engineered_crossing(self, tmp_path, schema):
        # sole optimal act scores +1, sole runner-up scores -1; with costs
        # (1.0, 0.2) the lines cross at 2 / 0.8 = 2.5
        u = write(tmp_path, "u.csv", TOY_UTILITIES)
        p = write(tmp_path, "p.csv", TOY_PRIORS)
        c = write(tmp_path, "c.csv", "act,cost\na,1.0\nb,0.2\n")
        code = main(
            [
                "path", "--utilities", u, "--priors", p, "--costs", c,
                "--cost-mode", "file", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "path.json").read_text())
        jsonschema.validate(report, schema)
        assert len(report["breakpoints"]) == 1
        assert abs(report["breakpoints"][0] - 2.5) <= 1e-9
        acts = {line["act"]: line for line in report["lines"]}
        assert acts["a"]["intercept"] == 1.0
        assert acts["b"]["intercept"] == -1.0
        with open(tmp_path / "path_breakpoints.csv") as fh:
            assert fh.read().splitlines()[0] == "lambda"

    def test_equal_costs_no_breakpoints(self, tmp_path):
        u = write(tmp_path, "u.csv", TOY_UTILITIES)
        p = write(tmp_path, "p.csv", TOY_PRIORS)
        c = write(tmp_path, "c.csv", "act,cost\na,0.5\nb,0.5\n")
        code = main(
            [
                "path", "--utilities", u, "--priors", p, "--costs", c,
                "--cost-mode", "file", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "path.json").read_text())
        assert report["breakpoints"] == []
        assert {g["selected"] for g in report["grid"]} == {"a"}

    def test_grid_matches_lambda_count(self, tmp_path):
        u = write(tmp_path, "u.csv", TOY_UTILITIES)
        p = write(tmp_path, "p.csv", TOY_PRIORS)
        assert main(
            ["path", "--utilities", u, "--priors", p, "--lambda-max", "3",
             "--grid", "0.01", "--out", str(tmp_path)]
        ) == 0
        with open(tmp_path / "path_grid.csv") as fh:
            data_rows = fh.read().strip().splitlines()[1:]
        assert len(data_rows) == 301

    def test_tiny_lambda_max_prints_its_one_segment(self, tmp_path, capsys):
        u = write(tmp_path, "u.csv", TOY_UTILITIES)
        p = write(tmp_path, "p.csv", TOY_PRIORS)
        assert main(
            ["path", "--utilities", u, "--priors", p, "--lambda-max", "1e-13",
             "--out", str(tmp_path)]
        ) == 0
        assert "lambda in [0, 1e-13]: a" in capsys.readouterr().out
        report = json.loads((tmp_path / "path.json").read_text())
        assert report["segments"] == [{"lo": 0.0, "hi": 1e-13, "act": "a"}]
        assert [g["selected"] for g in report["grid"]] == ["a", "a"]

    def test_nonpositive_lambda_max_is_exit_2(self, tmp_path):
        u = write(tmp_path, "u.csv", TOY_UTILITIES)
        p = write(tmp_path, "p.csv", TOY_PRIORS)
        assert main(
            ["path", "--utilities", u, "--priors", p, "--lambda-max", "-1", "--out", str(tmp_path)]
        ) == 2

    def test_oversized_grid_is_exit_2(self, tmp_path, capsys):
        # rejected from the ratio alone, before any grid is allocated
        u = write(tmp_path, "u.csv", TOY_UTILITIES)
        p = write(tmp_path, "p.csv", TOY_PRIORS)
        assert main(
            ["path", "--utilities", u, "--priors", p, "--lambda-max", "1e12", "--grid", "1",
             "--out", str(tmp_path)]
        ) == 2
        assert "grid points" in capsys.readouterr().err
        assert not (tmp_path / "path.json").exists()

    def test_cost_file_mismatch_is_exit_3(self, tmp_path):
        u = write(tmp_path, "u.csv", TOY_UTILITIES)
        p = write(tmp_path, "p.csv", TOY_PRIORS)
        c = write(tmp_path, "c.csv", "act,cost\na,1.0\nzz,0.2\n")
        assert main(
            ["path", "--utilities", u, "--priors", p, "--costs", c,
             "--cost-mode", "file", "--out", str(tmp_path)]
        ) == 3

    def test_unknown_prior_is_exit_2(self, tmp_path):
        u = write(tmp_path, "u.csv", TOY_UTILITIES)
        p = write(tmp_path, "p.csv", TOY_PRIORS)
        assert main(
            ["path", "--utilities", u, "--priors", p, "--prior", "nope", "--out", str(tmp_path)]
        ) == 2

    @pytest.mark.parametrize("utilities, priors, costs", [
        # one state: every utility row is constant, so every variance cost is 0
        ("act,s1\na,1\nb,2\n", "prior,s1\nref,1\n", None),
        (TOY_UTILITIES, TOY_PRIORS, "act,cost\na,0\nb,1\n"),
    ], ids=["variance", "file"])
    def test_a_zero_cost_gives_slope_zero_not_minus_zero(self, tmp_path, utilities, priors,
                                                        costs):
        u = write(tmp_path, "u.csv", utilities)
        p = write(tmp_path, "p.csv", priors)
        mode = ["--cost-mode", "file", "--costs", write(tmp_path, "c.csv", costs)] if costs else []
        assert main(["path", "--utilities", u, "--priors", p, *mode, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "path_lines.csv", newline="") as fh:
            slopes = {row["act"]: row["slope"] for row in csv.DictReader(fh)}
        report = json.loads((tmp_path / "path.json").read_text())
        free = [line for line in report["lines"] if line["cost"] == 0.0]
        assert free
        for line in free:
            assert slopes[line["act"]] == "0"
            assert line["slope"] == 0.0 and np.copysign(1.0, line["slope"]) == 1.0

    def test_portfolio_variance_path_structure(self, tmp_path, schema):
        u = write(tmp_path, "u.csv", portfolio_csv())
        code = main(
            ["path", "--utilities", u, "--prior", "uniform", "--cost-mode", "variance",
             "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "path.json").read_text())
        jsonschema.validate(report, schema)
        breakpoints = report["breakpoints"]
        assert all(0.0 < b < 3.0 for b in breakpoints)
        assert all(a < b for a, b in zip(breakpoints, breakpoints[1:]))
        assert {line["act"] for line in report["lines"]} == set(PORTFOLIO_ACTS)
        # segments tile [0, 3] and agree with the per-lambda grid argmax
        assert report["segments"][0]["lo"] == 0.0
        assert report["segments"][-1]["hi"] == 3.0
        for earlier, later in zip(report["segments"], report["segments"][1:]):
            assert earlier["hi"] == later["lo"]
            assert earlier["act"] != later["act"]


def table_csv(key, names, matrix):
    lines = [f"{key}," + ",".join(f"s{j}" for j in range(matrix.shape[1]))]
    lines += [name + "," + ",".join(repr(float(x)) for x in row) for name, row in zip(names, matrix)]
    return "\n".join(lines) + "\n"


def dense_inputs():
    """A seeded uniform(-1, 1) 20x8 table under four Dirichlet priors."""
    rng = np.random.default_rng(14)
    table = rng.uniform(-1.0, 1.0, size=(20, 8))
    table[7] = table[3] - 0.05  # strictly dominated by act03
    priors = rng.dirichlet(np.ones(8), size=4)
    return (table_csv("act", [f"act{i:02d}" for i in range(20)], table),
            table_csv("prior", [f"p{k + 1}" for k in range(4)], priors))


def csv_cell(value):
    """A JSON report value as its CSV twin prints it."""
    if isinstance(value, str):
        return f'"{value}"'  # the only string values are the sentinels
    if isinstance(value, bool):
        return "1" if value else "0"
    return f"{value:.9g}"


# (utilities, priors, path prior); the dense table holds both sentinels and
# its path has a breakpoint
TWIN_CASES = {"toy": (TOY_UTILITIES, TOY_PRIORS, "ref"), "dense": (*dense_inputs(), "p4")}


class TestReportTwins:
    """Each CSV report holds its JSON twin's values at 9 significant digits."""

    @pytest.mark.parametrize("case", sorted(TWIN_CASES))
    def test_stability_csv_matches_its_json(self, tmp_path, case):
        utilities, priors, _ = TWIN_CASES[case]
        u = write(tmp_path, "u.csv", utilities)
        p = write(tmp_path, "p.csv", priors)
        assert main(["analyze", "--utilities", u, "--priors", p, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "stability.json").read_text())
        expected = ["prior,act,measure,value"] + [
            f"{row['prior']},{row['act']},{measure},{csv_cell(row[measure])}"
            for row in report["rows"]
            for measure in ("expected_utility", "is_bayes", "rob", "con")
        ]
        assert (tmp_path / "stability.csv").read_text().splitlines() == expected
        if case == "dense":
            assert any(row["rob"] == "NOT_BAYES" for row in report["rows"])
            assert any(row["con"] == "INADMISSIBLE" for row in report["rows"])

    @pytest.mark.parametrize("case", sorted(TWIN_CASES))
    def test_path_csvs_match_their_json(self, tmp_path, case):
        utilities, priors, prior = TWIN_CASES[case]
        u = write(tmp_path, "u.csv", utilities)
        p = write(tmp_path, "p.csv", priors)
        assert main(["path", "--utilities", u, "--priors", p, "--prior", prior,
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "path.json").read_text())
        lines = ["act,intercept,slope,cost"] + [
            f"{x['act']},{csv_cell(x['intercept'])},{csv_cell(x['slope'])},{csv_cell(x['cost'])}"
            for x in report["lines"]
        ]
        grid = ["lambda,act,score"] + [
            f"{csv_cell(g['lambda'])},{g['selected']},{csv_cell(g['score'])}"
            for g in report["grid"]
        ]
        breakpoints = ["lambda"] + [csv_cell(b) for b in report["breakpoints"]]
        assert (tmp_path / "path_lines.csv").read_text().splitlines() == lines
        assert (tmp_path / "path_grid.csv").read_text().splitlines() == grid
        assert (tmp_path / "path_breakpoints.csv").read_text().splitlines() == breakpoints
        if case == "dense":
            assert any(x["intercept"] == "INADMISSIBLE" for x in report["lines"])
            assert report["breakpoints"]


class TestScenarios:
    def run_scenarios(self, tmp_path, outdir, seed="42", k="4"):
        panel = build_planted_panel()
        m = write(tmp_path, "monthly.csv", planted_monthly_csv(panel))
        w = write(tmp_path, "weights.csv", PLANTED_WEIGHTS_CSV)
        out = tmp_path / outdir
        out.mkdir(exist_ok=True)
        code = main(
            ["scenarios", "--monthly", m, "--weights", w, "--seed", seed, "--k", k,
             "--out", str(out)]
        )
        return code, out, panel

    def test_planted_structure_recovered(self, tmp_path):
        code, out, panel = self.run_scenarios(tmp_path, "run1")
        assert code == 0
        with open(out / "regimes.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 120
        agreement = np.mean(
            [r["label"] == name for r, name in zip(rows, panel["planted_names"])]
        )
        assert agreement >= 0.95

    def test_utilities_round_trip_identically(self, tmp_path):
        from priorstab.scenarios import (
            PortfolioBook,
            ReturnPanel,
            kmeans_partition,
            label_regimes,
            monthly_features,
            portfolio_returns,
            utility_matrix,
        )
        from priorstab.io import load_utilities

        code, out, panel = self.run_scenarios(tmp_path, "run1")
        assert code == 0
        parsed = load_utilities(out / "utilities.csv")
        assert parsed.acts == ("all_market", "defensive_mix", "balanced")
        assert parsed.states == REGIME_STATES

        # rebuild the decision problem in-process; the written file must
        # parse back into exactly the same matrix, bit for bit
        panel_obj = ReturnPanel(
            panel["months"], panel["assets"], panel["returns"],
            volatility=panel["volatility"],
        )
        book = PortfolioBook(
            ("all_market", "defensive_mix", "balanced"),
            panel["assets"],
            [[1.0, 0.0, 0.0], [0.2, 0.7, 0.1], [0.4, 0.4, 0.2]],
        )
        features = monthly_features(panel_obj, "market")
        model = label_regimes(kmeans_partition(features, k=4, seed=42, months=panel_obj.months))
        expected = utility_matrix(portfolio_returns(panel_obj, book), model, book.names)
        assert parsed.states == expected.states
        assert np.array_equal(parsed.utilities, expected.utilities)

    def test_byte_identical_reruns(self, tmp_path):
        code1, out1, _ = self.run_scenarios(tmp_path, "run1")
        code2, out2, _ = self.run_scenarios(tmp_path, "run2")
        assert code1 == code2 == 0
        for name in ("regimes.csv", "utilities.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_k1_gives_overall_means(self, tmp_path):
        from priorstab.io import load_utilities

        code, out, panel = self.run_scenarios(tmp_path, "run1", k="1")
        assert code == 0
        problem = load_utilities(out / "utilities.csv")
        assert problem.states == ("regime_1",)
        port = panel["returns"] @ np.array([1.0, 0.0, 0.0])
        assert problem.utilities[0, 0] == pytest.approx(float(port.mean()), abs=1e-15)

    def test_missing_cells_exit_2_listing_months(self, tmp_path, capsys):
        text = (
            "date,market,bond_fund\n"
            "2020-01,0.01,0.02\n"
            "2020-02,,0.01\n"
            "2020-03,0.005,\n"
        )
        m = write(tmp_path, "monthly.csv", text)
        w = write(tmp_path, "weights.csv", "portfolio,market,bond_fund\nall,0.5,0.5\n")
        assert main(["scenarios", "--monthly", m, "--weights", w, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "2020-02" in err and "2020-03" in err
        assert f"{m}:3:" in err

    def test_weights_asset_mismatch_exit_3(self, tmp_path):
        panel = build_planted_panel()
        m = write(tmp_path, "monthly.csv", planted_monthly_csv(panel))
        w = write(tmp_path, "weights.csv", "portfolio,unknown_asset\nall,1.0\n")
        assert main(["scenarios", "--monthly", m, "--weights", w, "--out", str(tmp_path)]) == 3

    def test_daily_volatility_route(self, tmp_path):
        # one month, ten trading days; volatility from the daily file
        monthly = "date,market\n2020-01,0.02\n2020-02,0.01\n"
        daily_lines = ["date,market"]
        rng = np.random.default_rng(9)
        for month in ("2020-01", "2020-02"):
            for day in range(1, 11):
                daily_lines.append(f"{month}-{day:02d},{rng.normal(0, 0.01)!r}")
        m = write(tmp_path, "monthly.csv", monthly)
        d = write(tmp_path, "daily.csv", "\n".join(daily_lines) + "\n")
        w = write(tmp_path, "weights.csv", "portfolio,market\nall,1.0\n")
        code = main(
            ["scenarios", "--monthly", m, "--weights", w, "--daily", d, "--k", "1",
             "--out", str(tmp_path)]
        )
        assert code == 0

    def test_market_vol_reads_only_the_daily_header(self, tmp_path, capsys):
        # beside a market_vol column the daily rows are never parsed, so a
        # malformed one goes unnoticed; the header's market column is checked
        monthly = "date,market,market_vol\n2020-01,0.02,0.01\n2020-02,0.01,0.02\n"
        m = write(tmp_path, "monthly.csv", monthly)
        w = write(tmp_path, "weights.csv", "portfolio,market\nall,1.0\n")
        for header, code in (("date,market", 0), ("date,other", 3), ("day,market", 2),
                             ("date,market,extra", 2)):
            d = write(tmp_path, "daily.csv", f"\n{header}\n2020-01-02,abc\n2020-01-02,\n")
            argv = ["scenarios", "--monthly", m, "--weights", w, "--daily", d, "--k", "1",
                    "--out", str(tmp_path)]
            assert main(argv) == code
            out, err = capsys.readouterr()
            assert ("daily file ignored" in out) == (code == 0)
            if code == 2:
                assert f"{d}:2: header must be 'date,<market>'" in err

    def test_daily_column_mismatch_exit_3(self, tmp_path):
        monthly = "date,market\n2020-01,0.02\n"
        daily = "date,other\n2020-01-02,0.01\n"
        m = write(tmp_path, "monthly.csv", monthly)
        d = write(tmp_path, "daily.csv", daily)
        w = write(tmp_path, "weights.csv", "portfolio,market\nall,1.0\n")
        assert main(
            ["scenarios", "--monthly", m, "--weights", w, "--daily", d, "--out", str(tmp_path)]
        ) == 3


class TestBaselines:
    def test_zero_radius_matches_expected_utility(self, tmp_path):
        u = write(tmp_path, "u.csv", portfolio_csv())
        code = main(
            ["baselines", "--utilities", u, "--prior", "uniform", "--epsilon", "0",
             "--out", str(tmp_path)]
        )
        assert code == 0
        rows = read_tidy(tmp_path / "baselines.csv")
        problem = DecisionProblem(PORTFOLIO_ACTS, REGIME_STATES, PORTFOLIO_UTILITIES)
        uniform = Prior("uniform", [0.25] * 4)
        for act in PORTFOLIO_ACTS:
            eu = expected_utility(problem, act, uniform)
            assert float(rows[("uniform", act, "gamma_min")]) == pytest.approx(eu, abs=1e-9)
            assert float(rows[("uniform", act, "gamma_max")]) == pytest.approx(eu, abs=1e-9)

    def test_full_trust_ranking_matches_expected_utility(self, tmp_path, capsys):
        u = write(tmp_path, "u.csv", portfolio_csv())
        code = main(
            ["baselines", "--utilities", u, "--prior", "uniform", "--mu", "1",
             "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trust blend (mu=1) optimal: multi_asset" in out

    def test_zero_trust_ranking_is_maximin(self, tmp_path, capsys):
        u = write(tmp_path, "u.csv", portfolio_csv())
        code = main(
            ["baselines", "--utilities", u, "--prior", "uniform", "--mu", "0",
             "--out", str(tmp_path)]
        )
        assert code == 0
        rows = read_tidy(tmp_path / "baselines.csv")
        problem = DecisionProblem(PORTFOLIO_ACTS, REGIME_STATES, PORTFOLIO_UTILITIES)
        best = max(float(problem.row(a).min()) for a in PORTFOLIO_ACTS)
        winners = [
            a for a in PORTFOLIO_ACTS if float(problem.row(a).min()) >= best - 1e-12
        ]
        out = capsys.readouterr().out
        assert f"trust blend (mu=0) optimal: {', '.join(winners)}" in out

    def test_out_of_range_parameters_exit_2(self, tmp_path):
        u = write(tmp_path, "u.csv", portfolio_csv())
        for flag, value in (("--epsilon", "1.5"), ("--eta", "-0.1"), ("--mu", "2")):
            assert main(
                ["baselines", "--utilities", u, "--prior", "uniform", flag, value,
                 "--out", str(tmp_path)]
            ) == 2


class TestFailureExits:
    def run_exit(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        return code, err

    def test_missing_priors_file_is_exit_2(self, tmp_path, capsys):
        u = write(tmp_path, "u.csv", TOY_UTILITIES)
        missing = str(tmp_path / "missing.csv")
        code, err = self.run_exit(
            capsys, ["analyze", "--utilities", u, "--priors", missing, "--out", str(tmp_path)]
        )
        assert code == 2
        assert "missing.csv" in err

    def test_out_naming_a_file_is_exit_2(self, tmp_path, capsys):
        u = write(tmp_path, "u.csv", TOY_UTILITIES)
        p = write(tmp_path, "p.csv", TOY_PRIORS)
        code, err = self.run_exit(capsys, ["analyze", "--utilities", u, "--priors", p, "--out", p])
        assert code == 2
        assert "output directory" in err

    @pytest.mark.parametrize("command, reports", [
        ("analyze", ["stability.csv", "stability.json"]),
        ("path", ["path_lines.csv", "path_grid.csv", "path_breakpoints.csv", "path.json"]),
    ])
    def test_a_failed_write_leaves_no_new_report(self, tmp_path, capsys, monkeypatch,
                                                 command, reports):
        # The second report cannot be written: the run exits 2 with one line,
        # the reports of an earlier run stay as they were, and no report of
        # this run, nor any temp file, is left behind
        import errno
        import os

        u = write(tmp_path, "u.csv", TOY_UTILITIES)
        p = write(tmp_path, "p.csv", TOY_PRIORS)
        out = tmp_path / "out"
        out.mkdir()
        (out / reports[0]).write_text("earlier run\n")
        opened = []
        open_file = os.open

        def full_disk(path, *args):
            opened.append(path)
            if len(opened) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return open_file(path, *args)

        monkeypatch.setattr(os, "open", full_disk)
        code, err = self.run_exit(
            capsys, [command, "--utilities", u, "--priors", p, "--out", str(out)]
        )
        monkeypatch.undo()
        assert code == 2
        assert reports[1] in err and "No space left on device" in err
        assert len(opened) == 2
        assert os.listdir(out) == [reports[0]]
        assert (out / reports[0]).read_text() == "earlier run\n"

    def test_reports_follow_the_umask(self, tmp_path):
        import os

        u = write(tmp_path, "u.csv", TOY_UTILITIES)
        p = write(tmp_path, "p.csv", TOY_PRIORS)
        old = os.umask(0o022)
        try:
            assert main(["analyze", "--utilities", u, "--priors", p, "--out", str(tmp_path / "out")]) == 0
        finally:
            os.umask(old)
        for name in ("stability.csv", "stability.json"):
            assert (tmp_path / "out" / name).stat().st_mode & 0o777 == 0o644
        assert sorted(os.listdir(tmp_path / "out")) == ["stability.csv", "stability.json"]

    @pytest.mark.parametrize("flag", ["--lambda-max", "--grid"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_path_parameters_are_exit_2(self, tmp_path, capsys, flag, value):
        u = write(tmp_path, "u.csv", TOY_UTILITIES)
        p = write(tmp_path, "p.csv", TOY_PRIORS)
        code, err = self.run_exit(
            capsys, ["path", "--utilities", u, "--priors", p, flag, value, "--out", str(tmp_path)]
        )
        assert code == 2
        assert flag in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    def test_a_bad_cost_names_its_file_and_line(self, tmp_path, capsys, value):
        u = write(tmp_path, "u.csv", TOY_UTILITIES)
        p = write(tmp_path, "p.csv", TOY_PRIORS)
        c = write(tmp_path, "c.csv", f"act,cost\na,0.5\nb,{value}\n")
        code, err = self.run_exit(
            capsys, ["path", "--utilities", u, "--priors", p, "--cost-mode", "file",
                     "--costs", c, "--out", str(tmp_path)]
        )
        assert code == 2
        assert f"{c}:3: cost must be finite and nonnegative" in err
        assert not (tmp_path / "path.json").exists()

    @pytest.mark.parametrize("name, text, message", [
        ("costs", "\n\nact,price\na,0.5\nb,0.1\n", ":3: header must be 'act,cost'"),
        ("costs", "act,cost,extra\na,0.5,1\nb,0.1,1\n", ":1: header must be 'act,cost'"),
        ("monthly", "\ndate,market_vol\n2020-01,0.02\n2020-02,0.03\n", ":2: no asset columns"),
        ("utilities", "\n  \n\n", ": file is empty"),
    ])
    def test_a_bad_header_names_its_line(self, tmp_path, capsys, name, text, message):
        bad = write(tmp_path, f"{name}.csv", text)
        u = write(tmp_path, "u.csv", TOY_UTILITIES)
        p = write(tmp_path, "p.csv", TOY_PRIORS)
        w = write(tmp_path, "w.csv", "portfolio,market\nall,1.0\n")
        argv = {
            "costs": ["path", "--utilities", u, "--priors", p, "--cost-mode", "file",
                      "--costs", bad],
            "monthly": ["scenarios", "--monthly", bad, "--weights", w, "--k", "1"],
            "utilities": ["analyze", "--utilities", bad, "--priors", p],
        }[name]
        code, err = self.run_exit(capsys, argv + ["--out", str(tmp_path)])
        assert code == 2
        assert f"{bad}{message}" in err

    def test_negative_seed_names_the_flag(self, tmp_path, capsys):
        m = write(tmp_path, "monthly.csv", planted_monthly_csv(build_planted_panel()))
        w = write(tmp_path, "weights.csv", PLANTED_WEIGHTS_CSV)
        code, err = self.run_exit(
            capsys, ["scenarios", "--monthly", m, "--weights", w, "--seed", "-1",
                     "--out", str(tmp_path)]
        )
        assert code == 2
        assert "--seed must be nonnegative, got -1" in err
        assert not (tmp_path / "regimes.csv").exists()

    def test_duplicate_prior_states_are_exit_2(self, tmp_path, capsys):
        # dropping either s1 column would leave a valid prior
        u = write(tmp_path, "u.csv", TOY_UTILITIES)
        p = write(tmp_path, "p.csv", "prior,s1,s1,s2\nref,0.3,0.5,0.7\n")
        code, err = self.run_exit(capsys, ["analyze", "--utilities", u, "--priors", p, "--out", str(tmp_path)])
        assert code == 2
        assert "duplicate state names" in err

    def test_duplicate_weight_assets_are_exit_2(self, tmp_path, capsys):
        # only the first market column would be read, halving the split's returns
        m = write(tmp_path, "monthly.csv", planted_monthly_csv(build_planted_panel()))
        w = write(
            tmp_path, "weights.csv",
            "portfolio,market,market,bond_fund,commodity_fund\nsplit,0.5,0.5,0.0,0.0\n",
        )
        code, err = self.run_exit(
            capsys, ["scenarios", "--monthly", m, "--weights", w, "--out", str(tmp_path)]
        )
        assert code == 2
        assert "asset names must be unique" in err

    def test_duplicate_monthly_assets_are_exit_2(self, tmp_path, capsys):
        m = write(
            tmp_path, "monthly.csv",
            "date,market,market,market_vol\n2020-01,0.01,0.01,0.02\n2020-02,0.02,0.02,0.03\n",
        )
        w = write(tmp_path, "weights.csv", "portfolio,market\nall,1.0\n")
        code, err = self.run_exit(
            capsys, ["scenarios", "--monthly", m, "--weights", w, "--k", "1", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "asset names must be unique" in err

    def test_overflowing_utility_range_is_exit_2(self, tmp_path, capsys):
        u = write(tmp_path, "u.csv", "act,s1,s2\na,1e308,0\nb,-1e308,1\n")
        p = write(tmp_path, "p.csv", "prior,s1,s2\nref,0.9,0.1\n")
        code, err = self.run_exit(capsys, ["analyze", "--utilities", u, "--priors", p, "--out", str(tmp_path)])
        assert code == 2
        assert f"{u}: the utility range" in err

    def test_bad_prior_sum_prints_a_plain_float(self, tmp_path, capsys):
        u = write(tmp_path, "u.csv", TOY_UTILITIES)
        p = write(tmp_path, "p.csv", "prior,s1,s2\nref,0.3,0.4\n")
        code, err = self.run_exit(capsys, ["analyze", "--utilities", u, "--priors", p, "--out", str(tmp_path)])
        assert code == 2
        assert "mass sums to 0.7, not 1" in err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        u = tmp_path / "u.csv"
        u.write_text(TOY_UTILITIES)
        p = tmp_path / "p.csv"
        p.write_text(TOY_PRIORS)
        proc = subprocess.run(
            [sys.executable, "-m", "priorstab", "analyze", "--utilities", str(u),
             "--priors", str(p), "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "optimal a" in proc.stdout

    def test_no_command_is_exit_2(self):
        assert main([]) == 2

    def test_no_command_loads_numpy_random_or_ma(self, tmp_path):
        # this process has both loaded already, so each command runs in a
        # fresh interpreter
        u = write(tmp_path, "u.csv", portfolio_csv())
        m = write(tmp_path, "monthly.csv", planted_monthly_csv(build_planted_panel()))
        w = write(tmp_path, "weights.csv", PLANTED_WEIGHTS_CSV)
        out = str(tmp_path / "out")
        script = ("import sys; from priorstab.cli import main; print(main(sys.argv[1:]), "
                  "'numpy.random' in sys.modules, 'numpy.ma' in sys.modules)")
        for argv in (["analyze", "--utilities", u, "--out", out],
                     ["path", "--utilities", u, "--prior", "uniform", "--out", out],
                     ["baselines", "--utilities", u, "--prior", "uniform", "--out", out],
                     ["scenarios", "--monthly", m, "--weights", w, "--out", out]):
            proc = subprocess.run([sys.executable, "-c", script, *argv],
                                  capture_output=True, text=True)
            assert proc.stdout.splitlines()[-1] == "0 False False", (argv[0], proc.stderr)


def planted_daily_csv(panel, days=6):
    """``days`` daily market returns per month of ``panel``, spread by its
    volatility around its monthly return."""
    rng = np.random.default_rng(24)
    lines = ["date,market"]
    for i, month in enumerate(panel["months"]):
        obs = panel["returns"][i, 0] / days + panel["volatility"][i] * rng.normal(size=days)
        lines += [f"{month}-{d + 1:02d},{x!r}" for d, x in enumerate(obs.tolist())]
    return "\n".join(lines) + "\n"


# Valid inputs of every kind the CLI reads; each fuzz case corrupts one.
FUZZ_PANEL = build_planted_panel(months=24)
FUZZ_FILES = {
    "utilities": "act,s1,s2\na,1.0,0.0\nb,0.0,1.0\nc,0.4,0.4\n",
    "priors": "prior,s1,s2\nref,0.7,0.3\nalt,0.2,0.8\n",
    "costs": "act,cost\na,0.1\nb,0.2\nc,0.3\n",
    "weights": PLANTED_WEIGHTS_CSV,
    "monthly": planted_monthly_csv(FUZZ_PANEL),
    "daily": planted_daily_csv(FUZZ_PANEL),
}
# The daily file is read only beside a monthly file without market_vol.
DAILY_MONTHLY = "".join(
    line.rsplit(",", 1)[0] + "\n" for line in FUZZ_FILES["monthly"].splitlines()
)
BAD_NUMBERS = ("abc", "1.2.3", "0x1p", "--1", "1e", "nan", "NaN", "inf", "-inf", "1e999")
CORRUPTIONS = [*(("cell", token) for token in BAD_NUMBERS), ("drop", None),
               ("extra", "0.5"), ("file", ""), ("file", "\n \n"), ("header", None)]
# Negative entries are malformed only where the file holds masses, costs or
# weights; negative utilities and returns are valid.
FUZZ_CASES = [(target, corruption) for target in sorted(FUZZ_FILES) for corruption in CORRUPTIONS]
FUZZ_CASES += [(target, ("cell", "-0.25")) for target in ("costs", "priors", "weights")]
# A repeated day would count twice in its month's volatility.
FUZZ_CASES += [("daily", ("repeat", None)), ("daily", ("date", "1985-13-45")),
               ("daily", ("date", "2021-02-29"))]
# Every row label is unique in its file.
FUZZ_CASES += [(target, ("repeat", None)) for target in sorted(FUZZ_FILES) if target != "daily"]
# Months are YYYY-MM labels in increasing order, and each portfolio's
# weights sum to 1.
FUZZ_CASES += [("monthly", ("date", "2020-3")), ("monthly", ("swap", None)),
               ("weights", ("cell", "0.05"))]


def corrupt(text, corruption, rng):
    kind, token = corruption
    lines = text.splitlines()
    if kind == "file":
        return token
    if kind == "header":
        return lines[0] + "\n"
    r = int(rng.integers(1, len(lines)))
    if kind == "repeat":
        lines.insert(r, lines[r])
        return "\n".join(lines) + "\n"
    if kind == "swap":
        r = min(r, len(lines) - 2)
        lines[r], lines[r + 1] = lines[r + 1], lines[r]
        return "\n".join(lines) + "\n"
    cells = lines[r].split(",")
    c = 0 if kind == "date" else int(rng.integers(1, len(cells)))
    if kind in ("cell", "date"):
        cells[c] = token
    elif kind == "drop":
        del cells[c]
    else:
        cells.insert(c, token)
    lines[r] = ",".join(cells)
    return "\n".join(lines) + "\n"


def fuzz_argv(files, out):
    """The command that reads every file in ``files``."""
    if "monthly" in files:
        daily = ["--daily", files["daily"]] if "daily" in files else []
        return ["scenarios", "--monthly", files["monthly"], "--weights", files["weights"],
                *daily, "--k", "2", "--out", out]
    if "costs" in files:
        return ["path", "--utilities", files["utilities"], "--priors", files["priors"],
                "--prior", "ref", "--cost-mode", "file", "--costs", files["costs"], "--out", out]
    return ["analyze", "--utilities", files["utilities"], "--priors", files["priors"],
            "--out", out]


def fuzz_files(tmp_path, target, text):
    """Write ``text`` as the ``target`` file and valid files for the rest of
    its command's inputs; returns their paths by kind."""
    group = {"weights": ("monthly", "weights"), "monthly": ("monthly", "weights"),
             "daily": ("monthly", "weights", "daily"),
             "costs": ("utilities", "priors", "costs")}.get(target, ("utilities", "priors"))
    valid = {**FUZZ_FILES, "monthly": DAILY_MONTHLY} if target == "daily" else FUZZ_FILES
    files = {}
    for kind in group:
        files[kind] = write(tmp_path, f"{kind}.csv", text if kind == target else valid[kind])
    return files


class TestCliFuzz:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("target", sorted(FUZZ_FILES))
    def test_uncorrupted_inputs_run(self, tmp_path, target, capsys):
        files = fuzz_files(tmp_path, target, FUZZ_FILES[target])
        assert main(fuzz_argv(files, str(tmp_path / "out"))) == 0
        assert capsys.readouterr().err == ""

    # numpy warns on stderr outside pytest, so a warning fails the case too
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "target,corruption", FUZZ_CASES, ids=[f"{t}-{c[0]}-{c[1]!r}" for t, c in FUZZ_CASES]
    )
    def test_malformed_input_is_one_line_and_exit_2_or_3(self, tmp_path, target, corruption, capsys):
        rng = np.random.default_rng(FUZZ_CASES.index((target, corruption)))
        for _ in range(3):
            text = corrupt(FUZZ_FILES[target], corruption, rng)
            files = fuzz_files(tmp_path, target, text)
            code = main(fuzz_argv(files, str(tmp_path / "out")))
            err = capsys.readouterr().err
            assert code in (2, 3), (text, err)
            assert err.endswith("\n") and err.count("\n") == 1, err
            assert "Traceback" not in err
            if corruption[0] in ("cell", "repeat", "date", "swap"):
                # a bad number or label, a repeated row or months out of
                # order, wherever it is, names its file and line: for a swap,
                # the line of the month that does not follow the one before
                pairs = zip_longest(FUZZ_FILES[target].splitlines(), text.splitlines())
                line = next(i for i, (was, now) in enumerate(pairs, start=1) if was != now)
                line += corruption[0] == "swap"
                assert f"{files[target]}:{line}:" in err, err
