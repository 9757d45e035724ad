import csv
import itertools

import pytest
from click.testing import CliRunner

from bratsfuse.cli import main
from bratsfuse.errors import ConfigError
from bratsfuse.metrics import REGION_ORDER, CaseMetrics
from bratsfuse.pipeline import read_cases_csv, run_rank
from bratsfuse.report import rank_models

HEADER = "model,DSC_ET,DSC_TC,DSC_WT,HD95_ET,HD95_TC,HD95_WT\n"

# Region-averaged DSC / HD95: top 0.9 / 6, gamma 0.85008 / 6, beta 0.85004 / 4,
# alpha 0.85 / 4, low 0.8 / 1. gamma, beta and alpha tie through a chain of
# DSC differences of 4e-5 (gamma and alpha differ by 8e-5): HD95 puts gamma
# last of them, and the name puts alpha before beta.
ROWS = {
    "low": (0.8, 0.8, 0.8, 1, 1, 1),
    "beta": (0.85004, 0.85004, 0.85004, 3, 4, 5),
    "top": (0.85, 0.9, 0.95, 5, 6, 7),
    "alpha": (0.8, 0.85, 0.9, 4, 4, 4),
    "gamma": (0.80008, 0.85008, 0.90008, 5, 6, 7),
}
ORDER = ["top", "alpha", "beta", "gamma", "low"]


def _summary(name):
    values = ROWS[name]
    return CaseMetrics(name, dict(zip(REGION_ORDER, values[:3])),
                       dict(zip(REGION_ORDER, values[3:])))


def test_rank_models_orders_by_dsc_then_a_chained_tie_by_hd95_then_name():
    for names in itertools.permutations(ROWS):
        ranked = rank_models([_summary(n) for n in names])
        assert [s.case_id for s in ranked] == ORDER


def test_rank_writes_the_hand_worked_ranking(tmp_path):
    path = tmp_path / "models.csv"
    path.write_text(HEADER + "".join(f"{n},{','.join(map(str, v))}\n" for n, v in ROWS.items()))
    table = run_rank(path, tmp_path / "out")
    assert (tmp_path / "out" / "ranking.csv").read_bytes() == \
        b"model,rank\ntop,1\nalpha,2\nbeta,3\ngamma,4\nlow,5\n"
    assert [line.split()[0] for line in table.splitlines()[1:]] == ORDER
    assert (tmp_path / "out" / "ranking.txt").read_text() == table


def test_a_model_name_with_a_comma_and_a_quote_reads_back_from_ranking_csv(tmp_path):
    path = tmp_path / "models.csv"
    path.write_text(HEADER + '"top, ""v2""",0.85,0.9,0.95,5,6,7\nlow,0.8,0.8,0.8,1,1,1\n')
    run_rank(path, tmp_path / "out")
    with open(tmp_path / "out" / "ranking.csv", newline="") as fh:
        assert list(csv.reader(fh)) == [["model", "rank"], ['top, "v2"', "1"], ["low", "2"]]


def _rank_cli(tmp_path, rows):
    path = tmp_path / "models.csv"
    path.write_text(HEADER + "".join(rows))
    result = CliRunner().invoke(main, ["rank", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert result.output.count("\n") == 1
    assert not (tmp_path / "out").exists()
    return result.output


@pytest.mark.parametrize("bad", ["b,nan,0.8,0.88,4,5,6\n", "b,0.7,0.8,0.88,4,5,inf\n",
                                 "b,0.7,-inf,0.88,4,5,6\n"],
                         ids=["nan_dsc", "inf_hd95", "minus_inf_dsc"])
@pytest.mark.parametrize("first", [True, False])
def test_a_score_that_is_not_finite_is_refused(tmp_path, bad, first):
    # A NaN average compares false with every other, so the position of its
    # row would decide the model's rank.
    good = "a,0.8,0.85,0.9,3,4,5\n"
    output = _rank_cli(tmp_path, [bad, good] if first else [good, bad])
    assert output.startswith("Error: bad model summary row {'model': 'b', ")
    assert output.endswith(": metrics must be finite\n")


def test_a_model_named_by_two_rows_is_refused(tmp_path):
    # ranking.txt would print one of the two rows' scores twice.
    output = _rank_cli(tmp_path, ["a,0.8,0.85,0.9,3,4,5\n", "b,0.7,0.8,0.88,4,5,6\n",
                                  "a,0.7,0.8,0.88,4,5,6\n"])
    assert output == ("Error: bad model summary row {'model': 'a', 'DSC_ET': '0.7', "
                      "'DSC_TC': '0.8', 'DSC_WT': '0.88', 'HD95_ET': '4', 'HD95_TC': '5', "
                      "'HD95_WT': '6'}: model 'a' is named by an earlier row\n")


CASES_CSV = ("case_id,DSC_ET,DSC_TC,DSC_WT,HD95_ET,HD95_TC,HD95_WT\n"
             "c0,0.8,0.85,0.9,3,4,5\nc1,0.6,0.75,0.95,7,2.5,1\n")
MODELS_CSV = HEADER + "".join(f"{n},{','.join(map(str, v))}\n" for n, v in ROWS.items())


@pytest.mark.parametrize("command, text", [("report", CASES_CSV), ("rank", MODELS_CSV)],
                         ids=["report", "rank"])
def test_a_csv_with_a_byte_order_mark_reads_as_the_plain_file(tmp_path, command, text):
    # Spreadsheets save UTF-8 CSV with a byte-order mark before the header.
    outputs = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(prefix + text.encode())
        out = tmp_path / name
        result = CliRunner().invoke(main, [command, str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append((result.output.replace(str(out), "<out>"),
                        {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1]) == {"report": 2, "rank": 3}[command]


# A score no evaluation gives, in the row of "b": (its column after the id,
# its text, the reason the error ends with).
OUT_OF_RANGE = {
    "dsc_above_1": (0, "1.5", "DSC_ET 1.5 lies outside [0, 1]"),
    "dsc_below_0": (2, "-0.2", "DSC_WT -0.2 lies outside [0, 1]"),
    "negative_hd95": (4, "-3", "HD95_TC -3.0 is negative"),
}


@pytest.mark.parametrize("bad", sorted(OUT_OF_RANGE))
@pytest.mark.parametrize("command, id_column, kind", [
    ("report", "case_id", "metrics"),
    ("rank", "model", "model summary"),
], ids=["report", "rank"])
def test_a_score_outside_its_range_is_refused(tmp_path, command, id_column, kind, bad):
    # A mean DSC of 1.5, or an average HD95 pulled down by a negative one,
    # would be reported and ranked as if an evaluation had given it.
    column, text, reason = OUT_OF_RANGE[bad]
    values = ["0.8", "0.85", "0.9", "3", "4", "5"]
    values[column] = text
    path = tmp_path / "scores.csv"
    path.write_text(HEADER.replace("model", id_column) + "a,0,1,1,0,0,0\n"
                    + ",".join(["b", *values]) + "\n")
    with pytest.raises(ConfigError) as refused:
        read_cases_csv(path, id_column, kind)
    message = str(refused.value)
    assert message.startswith(f"bad {kind} row {{'{id_column}': 'b', ")
    assert message.endswith(f": {reason}")
    result = CliRunner().invoke(main, [command, str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert result.output == f"Error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, text, column", [
    ("report", CASES_CSV.replace(",DSC_TC", "", 1), "DSC_TC"),
    ("rank", MODELS_CSV.replace(",DSC_TC", "", 1), "DSC_TC"),
    ("rank", MODELS_CSV.replace("model", "Model", 1), "model"),
], ids=["report", "rank", "rank_id"])
def test_a_header_without_a_column_is_refused_naming_the_column(tmp_path, command, text,
                                                                column):
    # The header is checked before any row, so the rows' extra field does
    # not matter: the error names the column, not a row.
    path = tmp_path / "scores.csv"
    path.write_text(text)
    result = CliRunner().invoke(main, [command, str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert result.output == f"Error: {path}: no column {column!r}\n"
    assert not (tmp_path / "out").exists()


# Two cases whose scores are dyadic, so every statistic is exact: per column
# the mean and median are the midpoint, the population stddev half the gap,
# and the 25/75 quantiles a quarter of the gap from each end.
HAND_CASES_CSV = ("case_id,DSC_ET,DSC_TC,DSC_WT,HD95_ET,HD95_TC,HD95_WT\n"
                  "c0,0.5,0.75,1,2,4,8\nc1,0.25,0.5,0.875,1,3,0\n")
HAND_SUMMARY_TXT = (
    "            DSC                           HD95                          \n"
    "                    ET        TC        WT        ET        TC        WT\n"
    "Mean            0.3750    0.6250    0.9375      1.50      3.50      4.00\n"
    "StdDev          0.1250    0.1250    0.0625      0.50      0.50      4.00\n"
    "Median          0.3750    0.6250    0.9375      1.50      3.50      4.00\n"
    "25quantile      0.3125    0.5625    0.9062      1.25      3.25      2.00\n"
    "75quantile      0.4375    0.6875    0.9688      1.75      3.75      6.00\n"
)
HAND_SUMMARY_JSON = (
    '{\n'
    '  "n_cases": 2,\n'
    '  "stats": {\n'
    '    "DSC": {\n'
    '      "ET": {\n'
    '        "mean": 0.375,\n'
    '        "median": 0.375,\n'
    '        "q25": 0.3125,\n'
    '        "q75": 0.4375,\n'
    '        "stddev": 0.125\n'
    '      },\n'
    '      "TC": {\n'
    '        "mean": 0.625,\n'
    '        "median": 0.625,\n'
    '        "q25": 0.5625,\n'
    '        "q75": 0.6875,\n'
    '        "stddev": 0.125\n'
    '      },\n'
    '      "WT": {\n'
    '        "mean": 0.9375,\n'
    '        "median": 0.9375,\n'
    '        "q25": 0.90625,\n'
    '        "q75": 0.96875,\n'
    '        "stddev": 0.0625\n'
    '      }\n'
    '    },\n'
    '    "HD95": {\n'
    '      "ET": {\n'
    '        "mean": 1.5,\n'
    '        "median": 1.5,\n'
    '        "q25": 1.25,\n'
    '        "q75": 1.75,\n'
    '        "stddev": 0.5\n'
    '      },\n'
    '      "TC": {\n'
    '        "mean": 3.5,\n'
    '        "median": 3.5,\n'
    '        "q25": 3.25,\n'
    '        "q75": 3.75,\n'
    '        "stddev": 0.5\n'
    '      },\n'
    '      "WT": {\n'
    '        "mean": 4.0,\n'
    '        "median": 4.0,\n'
    '        "q25": 2.0,\n'
    '        "q75": 6.0,\n'
    '        "stddev": 4.0\n'
    '      }\n'
    '    }\n'
    '  }\n'
    '}\n'
)


def test_report_writes_the_hand_worked_summary(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text(HAND_CASES_CSV)
    result = CliRunner().invoke(main, ["report", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "out" / "summary.txt").read_text() == HAND_SUMMARY_TXT
    assert (tmp_path / "out" / "summary.json").read_text() == HAND_SUMMARY_JSON


def test_rank_writes_the_hand_worked_ranking_json_and_table(tmp_path):
    # beta's and gamma's averages print as 0.8500 and 0.8501: the table
    # rounds, the ranking does not.
    path = tmp_path / "models.csv"
    path.write_text(MODELS_CSV)
    result = CliRunner().invoke(main, ["rank", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "out" / "ranking.json").read_text() == (
        '[{"name": "top", "rank": 1}, {"name": "alpha", "rank": 2}, '
        '{"name": "beta", "rank": 3}, {"name": "gamma", "rank": 4}, '
        '{"name": "low", "rank": 5}]\n')
    table = (
        "Model      DSC_ET    DSC_TC    DSC_WT   DSC_Avg   HD95_ET   HD95_TC   HD95_WT"
        "  HD95_Avg  Rank\n"
        "top        0.8500    0.9000    0.9500    0.9000      5.00      6.00      7.00"
        "      6.00     1\n"
        "alpha      0.8000    0.8500    0.9000    0.8500      4.00      4.00      4.00"
        "      4.00     2\n"
        "beta       0.8500    0.8500    0.8500    0.8500      3.00      4.00      5.00"
        "      4.00     3\n"
        "gamma      0.8001    0.8501    0.9001    0.8501      5.00      6.00      7.00"
        "      6.00     4\n"
        "low        0.8000    0.8000    0.8000    0.8000      1.00      1.00      1.00"
        "      1.00     5\n"
    )
    assert (tmp_path / "out" / "ranking.txt").read_text() == table
    assert result.output == table
