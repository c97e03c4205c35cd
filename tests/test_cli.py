import json
import os
import subprocess
import sys

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
])
def test_invalid_input_exit_code(capsys, argv):
    code, payload = run_json(capsys, *argv)
    assert code == 2
    assert payload["error"] == "InvalidParamsError"


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
