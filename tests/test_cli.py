import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

import poolregions
from poolregions import __version__, cli, seq1d, seq2d, verify
from poolregions.cli import main
from poolregions.polyalg import rational_gf


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_vertices_gf(capsys):
    code, payload = run_json(capsys, "vertices", "--k", "3", "--s", "1", "--n", "5", "--method", "gf")
    assert code == 0
    assert payload["result"] == "81"
    assert payload["provenance"] == ["gf"]
    assert payload["command"] == "vertices"
    assert set(payload) == {"command", "params", "result", "provenance", "version"}


def test_vertices_all_methods(capsys):
    code, payload = run_json(capsys, "vertices", "--k", "4", "--s", "2", "--n", "3")
    assert code == 0
    assert payload["result"] == "48"
    assert "matrix" in payload["provenance"] and "gf" in payload["provenance"]


def test_vertices_oracle_budget(capsys):
    code, payload = run_json(
        capsys, "--budget", "10", "vertices", "--k", "3", "--s", "1", "--n", "5",
        "--method", "oracle",
    )
    assert code == 3
    assert payload["error"] == "budget-exceeded"


def test_invalid_params_exit_code(capsys):
    code, payload = run_json(capsys, "vertices", "--k", "3", "--s", "5", "--n", "2", "--method", "matrix")
    assert code == 2


def test_gf_command(capsys):
    code, payload = run_json(capsys, "gf", "--k", "3", "--s", "1")
    assert code == 0
    assert payload["result"]["gf"] == {"num": ["3", "1", "-1"], "den": ["1", "-2", "-1", "1"]}
    # the transfer-matrix form is the default, with no flag to select it
    with pytest.raises(SystemExit) as exc:
        main(["gf", "--k", "3", "--s", "1", "--matrix"])
    assert exc.value.code == 2


def test_gf_closed_command(capsys):
    code, payload = run_json(capsys, "gf", "--k", "6", "--s", "3", "--closed")
    assert code == 0
    assert payload["result"]["gf"] == {"num": ["1"], "den": ["1", "-6", "6"]}
    assert sorted(payload["provenance"]) == ["large-strides", "proportional"]


def test_gf_closed_not_covered(capsys):
    code, payload = run_json(capsys, "gf", "--k", "5", "--s", "2", "--closed")
    assert code == 2


def test_gf_closed_forms_disagree_is_verification_failure(capsys, monkeypatch):
    monkeypatch.setattr(seq1d, "_gf_proportional", lambda k, s: rational_gf((1,), (1, -k)))
    code, payload = run_json(capsys, "gf", "--k", "6", "--s", "3", "--closed")
    assert code == 4
    assert payload["error"] == "verification-failure"
    assert payload["detail"] == "closed forms disagree at (k=6, s=3)"


def test_grid3xn_b6(capsys):
    code, payload = run_json(capsys, "grid3xn", "--n", "4", "--method", "b6")
    assert code == 0
    assert payload["result"] == "1536"


def test_grid3xn_class_counts(capsys):
    code, payload = run_json(capsys, "grid3xn", "--n", "3", "--class-counts")
    assert code == 0
    assert payload["result"]["total"] == "150"
    assert len(payload["result"]["class_counts"]) == 14


def test_grid3xn_class_counts_over_budget(capsys):
    code, payload = run_json(capsys, "grid3xn", "--n", "8", "--class-counts")
    assert code == 3
    assert payload["error"] == "budget-exceeded"


def test_grid2xn(capsys):
    code, payload = run_json(capsys, "grid2xn", "--n", "5")
    assert code == 0
    assert payload["result"] == "164"
    assert payload["provenance"] == ["matrix"]


def test_fvector(capsys):
    code, payload = run_json(capsys, "fvector", "--k", "3", "--s", "1", "--n", "2")
    assert code == 0
    assert payload["result"]["counts"] == {"0": "7", "1": "11", "2": "6", "3": "1"}
    assert payload["provenance"] == ["frontier"]


def test_fvector_output_bytes(capsys):
    code, out = run_cli(capsys, "fvector", "--k", "3", "--s", "1", "--n", "2")
    assert code == 0
    assert out == (
        '{"command": "fvector", "params": {"n": 2, "k": 3, "s": 1}, '
        '"result": {"counts": {"0": "7", "1": "11", "2": "6", "3": "1"}, '
        '"polytope_dim": 3, "total_nonempty": "25"}, "provenance": ["frontier"], '
        f'"version": "{__version__}"}}\n'
    )


def test_total_faces_grid(capsys):
    code, payload = run_json(capsys, "total-faces", "--k", "4", "--s", "1", "--n", "2")
    assert code == 0
    assert payload["result"] == "58"
    assert payload["provenance"] == ["frontier"]


def test_total_faces_budget_exceeded(capsys):
    code, payload = run_json(capsys, "--budget", "10", "total-faces", "--grid3xn", "4")
    assert code == 3
    assert payload["error"] == "budget-exceeded"


def test_facets_hrep(capsys):
    code, payload = run_json(capsys, "facets", "--k", "3", "--s", "1", "--n", "2", "--hrep", "--oracle")
    assert code == 0
    assert payload["result"]["count"] == "6"
    rows = payload["result"]["hrep"]
    assert len(rows) == 7  # one equality + six facets
    assert sum(1 for r in rows if r["sense"] == "=") == 1


def test_facets_paper_literal(capsys):
    code, payload = run_json(capsys, "facets", "--k", "3", "--s", "1", "--n", "2", "--paper-literal")
    assert code == 0
    assert payload["result"]["rows_violated"] > 0


def test_facets_paper_literal_checks_params_before_the_oracle_walk(capsys):
    # k <= s has no printed description; the walk of 3^20 words would
    # exceed the budget (exit 3) if it ran first
    code, payload = run_json(capsys, "facets", "--k", "3", "--s", "3", "--n", "20", "--paper-literal")
    assert code == 2
    assert payload["error"] == "InvalidParamsError"
    assert payload["detail"].startswith("printed description")


def test_facets_paper_literal_budget_covers_the_row_scan(capsys):
    # k = s + 1: all 3^12 candidates are vertices, and each would be scanned
    # against 36 rows of 25 coordinates; the default budget stops it first
    start = time.perf_counter()
    code, payload = run_json(capsys, "facets", "--k", "3", "--s", "2", "--n", "12", "--paper-literal")
    assert code == 3
    assert payload["error"] == "budget-exceeded"
    assert time.perf_counter() - start < 1


def test_facets_paper_literal_small_budget_still_exceeds(capsys):
    # budget // (rows x K) is 0 here; the walk gets one candidate, not zero
    code, payload = run_json(
        capsys, "--budget", "1", "facets", "--k", "3", "--s", "1", "--n", "2", "--paper-literal"
    )
    assert code == 3
    assert payload["error"] == "budget-exceeded"


def test_facets_paper_literal_report_n10(capsys):
    # the largest k = 3, s = 2 report under the default budget
    code, payload = run_json(capsys, "facets", "--k", "3", "--s", "2", "--n", "10", "--paper-literal")
    assert code == 0
    report = payload["result"]
    assert {k: v for k, v in report.items() if k != "entries"} == {
        "n": 10, "k": 3, "s": 2, "vertex_count": 59049, "printed_rows": 30, "rows_violated": 20,
    }
    digest = hashlib.sha256(json.dumps(report).encode()).hexdigest()
    assert digest == "40e6eaf35bd3b2f072e2e17ab4feef83e8fd7d149f552d5144c6ea04191fed6b"


def test_growth(capsys):
    code, payload = run_json(capsys, "growth", "--k", "3", "--s", "1")
    assert code == 0
    assert abs(float(payload["result"]) - 0.8096) < 5e-4


def test_growth_large_strides_flag(capsys):
    code, payload = run_json(capsys, "growth", "--k", "5", "--s", "3", "--large-strides")
    assert code == 0
    assert "closed-form" in payload["provenance"]


def test_growth_2d(capsys):
    code, payload = run_json(capsys, "growth", "--grid3xn")
    assert code == 0
    assert abs(float(payload["result"]) - 2.3156) < 1e-3


def test_regions(capsys):
    code, payload = run_json(
        capsys, "regions", "--k", "3", "--s", "1", "--n", "2", "--sample", "20000", "--seed", "7"
    )
    assert code == 0
    assert payload["result"] == {"distinct": "7", "all_faces": True}


def test_regions_grid(capsys):
    code, payload = run_json(capsys, "regions", "--grid3xn", "2", "--sample", "3000", "--seed", "1")
    assert code == 0
    assert payload["result"]["all_faces"] is True


def test_output_byte_stable(capsys):
    _, first = run_cli(capsys, "vertices", "--k", "3", "--s", "1", "--n", "4")
    _, second = run_cli(capsys, "vertices", "--k", "3", "--s", "1", "--n", "4")
    assert first == second


def test_csv_format(capsys):
    code, out = run_cli(capsys, "--format", "csv", "vertices", "--k", "3", "--s", "1", "--n", "5", "--method", "gf")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert "result,81" in lines


def test_tables_csv(capsys):
    code, out = run_cli(capsys, "--format", "csv", "tables", "--kind", "total", "--nmax", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("k\\n,")
    assert lines[1] == "3,8,26"
    assert lines[4] == "6,64,250"


def test_tables_json(capsys):
    code, payload = run_json(capsys, "tables", "--kind", "edges", "--nmax", "2")
    assert code == 0
    assert payload["result"]["3"] == ["3", "11"]


@pytest.mark.parametrize("kind, table", [("edges", verify.EDGES_TABLE), ("total", verify.TOTAL_FACES_TABLE)])
def test_tables_nmax5_under_default_budget(capsys, kind, table):
    code, payload = run_json(capsys, "tables", "--kind", kind, "--nmax", "5")
    assert code == 0
    assert {k: row[4] for k, row in payload["result"].items()} == {
        str(k): str(row[4]) for k, row in table.items()
    }


def test_vertices_default_route_k_at_most_s(capsys):
    code, payload = run_json(capsys, "vertices", "--k", "3", "--s", "5", "--n", "2")
    assert code == 0
    assert payload["result"] == "9"
    assert payload["provenance"] == ["closed"]


def test_results_beyond_int_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    answers = []
    for method in ("gf", "b6"):
        code, payload = run_json(capsys, "grid3xn", "--n", "4500", "--method", method)
        assert code == 0
        answers.append(payload["result"])
    assert answers[0] == answers[1]
    assert len(answers[0]) > limit
    assert sys.get_int_max_str_digits() == limit


LARGE_STRIDES_UNCOVERED = [
    ("growth", "--k", "5", "--s", "2", "--large-strides"),
    ("growth", "--k", "3", "--s", "1", "--large-strides"),
]


@pytest.mark.parametrize("argv", [
    ("regions", "--k", "3", "--s", "1", "--n", "2", "--sample", "0"),
    ("--budget", "0", "total-faces", "--k", "3", "--s", "1", "--n", "2"),
    ("--budget", "-5", "vertices", "--k", "3", "--s", "1", "--n", "3", "--method", "oracle"),
    # contradictory flags: each would drop part of the request
    ("growth", "--grid3xn", "--large-strides"),
    ("growth", "--grid3xn", "--k", "3", "--s", "1"),
    ("grid3xn", "--n", "3", "--class-counts", "--method", "gf"),
    ("facets", "--k", "3", "--s", "1", "--n", "2", "--paper-literal", "--oracle"),
    ("facets", "--k", "3", "--s", "1", "--n", "2", "--paper-literal", "--hrep"),
    ("fvector", "--grid3xn", "2", "--k", "3"),
    ("total-faces", "--grid3xn", "2", "--s", "1"),
    ("regions", "--grid3xn", "2", "--n", "2", "--sample", "10"),
    # the default routes of a nonpositive stride or window: no ZeroDivisionError
    ("vertices", "--k", "3", "--s", "0", "--n", "3"),
    ("vertices", "--k", "0", "--s", "1", "--n", "3"),
    # the closed growth holds only from s = ceil(k/2), as `gf --closed`
    *LARGE_STRIDES_UNCOVERED,
])
def test_invalid_input_exit_code(capsys, argv):
    code, payload = run_json(capsys, *argv)
    assert code == 2
    expected = "RegimeNotCoveredError" if argv in LARGE_STRIDES_UNCOVERED else "InvalidParamsError"
    assert payload["error"] == expected


@pytest.mark.parametrize("argv", [("fvector", "--grid3xn", "1"), ("total-faces", "--grid3xn", "0")])
def test_grid3xn_below_two_columns_names_the_column_count(capsys, argv):
    # the 3-row layer alone would reject n = 1 as a window wider than the input
    code, payload = run_json(capsys, *argv)
    assert code == 2
    assert payload == {"error": "InvalidParamsError", "detail": "need n >= 2 columns"}


@pytest.mark.parametrize("argv", [
    ("vertices", "--k", "1", "--s", "1", "--n", "2000", "--method", "oracle"),
    ("--budget", "1" + "0" * 800, "grid3xn", "--n", "600", "--class-counts"),
])
def test_oracle_walk_over_its_window_bound_is_budget_exceeded(capsys, argv):
    # the candidate products fit these budgets, but the walks recurse once
    # per window and would hit Python's recursion limit
    code, payload = run_json(capsys, *argv)
    assert code == 3
    assert payload["error"] == "budget-exceeded"


# one valid argv per command
ONE_PER_COMMAND = {
    "vertices": ("--k", "3", "--s", "1", "--n", "4"),
    "gf": ("--k", "3", "--s", "1"),
    "fvector": ("--k", "3", "--s", "1", "--n", "2"),
    "total-faces": ("--grid3xn", "2"),
    "facets": ("--k", "3", "--s", "1", "--n", "2"),
    "growth": ("--k", "3", "--s", "1"),
    "grid3xn": ("--n", "5"),
    "grid2xn": ("--n", "5"),
    "regions": ("--k", "3", "--s", "1", "--n", "2", "--sample", "10"),
    "tables": ("--kind", "edges", "--nmax", "1"),
    "verify": (),
}


@pytest.mark.parametrize("command", sorted(ONE_PER_COMMAND))
def test_every_command_rejects_a_budget_below_one(capsys, command):
    assert set(ONE_PER_COMMAND) == set(cli.COMMANDS)
    code, payload = run_json(capsys, "--budget", "0", command, *ONE_PER_COMMAND[command])
    assert code == 2
    assert payload == {"error": "InvalidParamsError", "detail": "budget must be >= 1, got 0"}


@pytest.mark.parametrize("command", sorted(set(ONE_PER_COMMAND) - {"verify"}))
def test_payload_names_the_command_by_its_table_key(capsys, monkeypatch, command):
    # `verify` prints its report, which names no command
    code, payload = run_json(capsys, command, *ONE_PER_COMMAND[command])
    assert (code, payload["command"]) == (0, command)
    # the handlers spell no name of their own: renaming the entry renames the payload
    renamed = f"{command}-renamed"
    monkeypatch.setattr(cli, "COMMANDS", {renamed: cli.COMMANDS[command]})
    monkeypatch.setattr(cli, "_PARSER", None)
    code, payload = run_json(capsys, renamed, *ONE_PER_COMMAND[command])
    assert (code, payload["command"]) == (0, renamed)


@pytest.mark.parametrize("n", range(2, 7))
def test_grid3xn_default_routes_are_the_library_routes(capsys, n):
    code, payload = run_json(capsys, "grid3xn", "--n", str(n))
    assert code == 0
    assert payload["provenance"] == sorted(seq2d.count_methods(n))


# argv, the number of fields of every row, rows that must appear
CSV_OUTPUTS = [
    (("facets", "--k", "3", "--s", "1", "--n", "2", "--hrep"), 2,
     [["result.hrep.0.coeffs", "1;1;1;1"], ["result.hrep.0.rhs", "2"]]),
    (("facets", "--k", "3", "--s", "1", "--n", "2", "--paper-literal"), 2,
     [["result.entries.0.printed.coeffs", "1;1;1;1"],
      ["result.entries.0.example_violating_vertex", ""]]),
    (("verify",), 3, [["PASS", "two-dim", "V_2..V_5 = 14,150,1536,15594; 14x14 matrix "
                       "reproduced (150 ones); Q facets 8,21,40,67; 2xn 4,14,48,164"]]),
]


@pytest.mark.parametrize("argv, width, expected", CSV_OUTPUTS)
def test_csv_output_parses_as_csv(capsys, argv, width, expected):
    code, out = run_cli(capsys, "--format", "csv", *argv)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [row for row in rows if len(row) != width] == []
    assert [row for row in expected if row not in rows] == []


def test_tables_mismatch_is_verification_failure(capsys, monkeypatch):
    monkeypatch.setitem(verify.EDGES_TABLE, 3, (4, 11, 34, 96, 260))
    code, payload = run_json(capsys, "tables", "--kind", "total", "--nmax", "1")
    assert code == 4
    assert payload["error"] == "verification-failure"
    assert "edges 3 != 4" in payload["detail"]


def test_method_disagreement_is_verification_failure(capsys, monkeypatch):
    count_2d = seq2d.count_2d
    monkeypatch.setattr(
        seq2d, "count_2d", lambda n, method, **kw: count_2d(n, method, **kw) + (method == "gf")
    )
    code, payload = run_json(capsys, "grid3xn", "--n", "5")
    assert code == 4
    assert payload["error"] == "verification-failure"
    assert payload["detail"] == "grid3xn: methods disagree: b6=15594, gf=15595"


# valid commands of several kinds, with an argparse rejection (exit 2) between
MIXED_ARGV = [
    ("vertices", "--k", "4", "--s", "2", "--n", "9"),
    ("growth", "--k", "5", "--s", "2"),
    ("vertices", "--k", "3", "--n", "2"),
    ("--format", "csv", "grid3xn", "--n", "6"),
    ("gf", "--k", "6", "--s", "3", "--closed"),
    ("grid2xn", "--n", "5"),
]


def run_alone(argv):
    src = os.path.dirname(os.path.dirname(poolregions.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "poolregions.cli", *argv], env=env, capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_main_calls_in_one_process_match_separate_runs(capsys):
    for argv in MIXED_ARGV:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == run_alone(argv), argv
    assert [run_alone(argv)[0] for argv in MIXED_ARGV] == [0, 0, 2, 0, 0, 0]


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    for argv in MIXED_ARGV[:2]:
        assert main(list(argv)) == 0
    assert built == [1]
    # the public builder still hands out a fresh parser
    assert build_parser() is not build_parser()


def loaded_modules(code):
    src = os.path.dirname(os.path.dirname(poolregions.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    script = f"import sys\n{code}\nprint(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split("\n")[-2].split())


def test_cold_start_imports_neither_dataclasses_nor_fractions():
    bare = loaded_modules("pass")
    growth = loaded_modules(
        "from poolregions import cli\ncli.build_parser()\n"
        "cli.main(['growth', '--k', '3', '--s', '1'])"
    )
    assert "poolregions.cli" in growth
    assert {"dataclasses", "fractions"} & (growth - bare) == set()


def test_cli_import_loads_no_process_pool():
    # the oracle's split walk forks with os alone
    loaded = loaded_modules("from poolregions import cli")
    assert {"multiprocessing", "concurrent.futures"} & loaded == set()
