"""Command-line interface: outputs, exit codes, and round trips."""

import json

import pytest

from qdscodes.cli import main
from qdscodes.codes import catalog, read_code_file
from qdscodes.qds import identity_qds, qds_min_distance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

def test_catalog_list_names(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    for name in ("shor", "bacon-shor", "steane", "five-qubit", "example-6-1-3", "8-3-3"):
        assert name in out


def test_catalog_show_example_rows(capsys):
    code, out, _ = run(capsys, "catalog", "show", "example-6-1-3")
    assert code == 0
    rows = [line for line in out.strip().split("\n")]
    assert rows == ["IIIZIZ", "YIZXXY", "ZXIIXZ", "IZXXXX", "ZZZIZI"]


def test_catalog_show_sm_code(capsys):
    code, out, _ = run(capsys, "catalog", "show", "cw-12-2-8")
    assert code == 0
    assert out.strip().split("\n") == ["111111110000", "000011111111"]


def test_catalog_show_unknown_exits_2(capsys):
    code, _, err = run(capsys, "catalog", "show", "mystery-code")
    assert code == 2
    assert "mystery-code" in err


# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------

def test_check_example_prime_reports_qds_yes(capsys):
    code, out, _ = run(capsys, "check", "--code", "example-6-1-3-prime")
    assert code == 0
    assert "[[6,1,3:0]] QDS: yes" in out


def test_check_five_qubit_reports_qds_no(capsys):
    code, out, _ = run(capsys, "check", "--code", "five-qubit")
    assert code == 0
    assert "[[5,1,3:0]] QDS: no" in out


def test_check_shor_with_parity_sm(capsys):
    code, out, _ = run(capsys, "check", "--code", "shor", "--sm", "parity-8", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["qds"] is True
    assert (report["n"], report["k"], report["l"]) == (9, 1, 1)
    assert report["qds_distance"] >= 3


def test_check_bacon_shor_json(capsys):
    code, out, _ = run(capsys, "check", "--code", "bacon-shor", "--subsystem", "--json")
    assert code == 0
    report = json.loads(out)
    assert (report["r"], report["m"], report["base_distance"]) == (4, 4, 3)
    assert report["measured_weights"] == [6, 6, 6, 6]


def test_check_subsystem_flag_rejects_stabilizer(capsys):
    code, _, err = run(capsys, "check", "--code", "steane", "--subsystem")
    assert code == 2
    assert "subsystem" in err


def test_check_bad_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("XZQ\n")
    code, _, err = run(capsys, "check", "--code", str(bad))
    assert code == 2
    assert "line 1" in err


# ----------------------------------------------------------------------
# construct
# ----------------------------------------------------------------------

def test_construct_five_qubit(capsys):
    code, out, _ = run(capsys, "construct", "--code", "five-qubit", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["params"] == "[[5,1,3:1]]"
    assert report["l"] == 1


def test_construct_subsystem(capsys):
    code, out, _ = run(capsys, "construct", "--code", "bacon-shor", "--json")
    assert code == 0
    assert json.loads(out)["params"] == "[[9,1,4,3:1]]"


def test_construct_rejects_low_distance(capsys, tmp_path):
    path = tmp_path / "d2.txt"
    path.write_text("XXXX\nZZZZ\n")
    code, _, err = run(capsys, "construct", "--code", str(path))
    assert code == 3


# ----------------------------------------------------------------------
# search-impure
# ----------------------------------------------------------------------

def test_search_impure_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "found.txt"
    code, out, _ = run(
        capsys, "search-impure", "--code", "example-6-1-3", "--out", str(out_path), "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["pivot"] == "IIIZIZ"
    assert report["modifier"] == "00011"
    reloaded = read_code_file(out_path)
    assert [str(r) for r in reloaded.rows] == report["rows"]
    assert qds_min_distance(identity_qds(reloaded)) == 3


def test_search_impure_pure_input_exits_3(capsys):
    code, _, err = run(capsys, "search-impure", "--code", "five-qubit")
    assert code == 3
    assert "pure" in err


def test_search_impure_after_permutation(capsys, tmp_path):
    # an equivalent presentation of an impure code still succeeds
    from qdscodes.codes import make_stabilizer, write_code_file

    rows = [r.permute([3, 0, 5, 1, 4, 2]) for r in catalog("example-6-1-3").rows]
    path = tmp_path / "permuted.txt"
    write_code_file(make_stabilizer(rows), path)
    code, out, _ = run(capsys, "search-impure", "--code", str(path), "--json")
    assert code == 0
    assert json.loads(out)["params"] == "[[6,1,3:0]]"


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------

def test_bounds_check_verdicts(capsys):
    code, out, _ = run(capsys, "bounds", "--check", "22", "15", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["impure_bound"] is True
    assert report["conjectured_bound"] is True
    code, out, _ = run(capsys, "bounds", "--check", "21", "15", "--json")
    assert json.loads(out)["impure_bound"] is False


def test_bounds_families(capsys):
    code, out, _ = run(capsys, "bounds", "--families", "3")
    assert code == 0
    assert "[[5,1,3]]" in out and "[[21,15,3]]" in out


def test_bounds_table(capsys):
    code, out, _ = run(capsys, "bounds", "--table", "19..26")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,singleton_k,hamming_k,impure_k,conjecture_k"
    assert lines[1] == "19,15,13,13,12"
    assert lines[-1] == "26,22,19,19,18"


@pytest.mark.parametrize("values", [["5"], ["9", "1", "3", "0", "7"]])
def test_bounds_check_rejects_wrong_value_count(capsys, values):
    code, _, err = run(capsys, "bounds", "--check", *values)
    assert code == 2
    assert "n k [d l]" in err


def test_bounds_requires_one_mode(capsys):
    code, _, err = run(capsys, "bounds", "--check", "9", "1", "--families", "3")
    assert code == 2


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def test_simulate_exact_point(capsys):
    code, out, _ = run(
        capsys, "simulate", "--scheme", "fig1-bs-sm", "--pm-log2", "-4", "--method", "exact"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "total_measurements: 144"
    assert lines[1].startswith("log2_pm,")
    log2_pse = float(lines[2].split(",")[1])
    assert abs(log2_pse - (-0.9508)) <= 0.1


def test_simulate_range_to_file(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys, "simulate", "--scheme", "fig1-shor-6fold", "--pm-log2=-2..-4:1",
        "--method", "exact", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert len(lines) == 4  # header + three grid points
    assert [line.split(",")[0] for line in lines[1:]] == ["-2", "-3", "-4"]


def test_simulate_mc_deterministic(capsys):
    argv = ["simulate", "--scheme", "fig1-bs-6fold", "--pm-log2", "-3", "--method", "mc",
            "--trials", "20000", "--seed", "7"]
    code_a, out_a, _ = run(capsys, *argv)
    code_b, out_b, _ = run(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_simulate_zero_trials_usage_error(capsys):
    code, _, err = run(
        capsys, "simulate", "--scheme", "fig1-bs-sm", "--pm-log2", "-3", "--method", "mc",
        "--trials", "0",
    )
    assert code == 2


def test_simulate_missing_import_exits_5(capsys):
    code, _, err = run(capsys, "simulate", "--scheme", "fig1-shor-sm", "--pm-log2", "-3")
    assert code == 5
    assert "grassl-18-6-8" in err


def test_simulate_shor_sm_with_offline_stand_in(capsys, shor_sm_data_dir):
    code, out, _ = run(capsys, "simulate", "--scheme", "fig1-shor-sm", "--pm-log2=-3",
                       "--data-dir", str(shor_sm_data_dir))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "total_measurements: 144"
    assert lines[2].endswith(",144,fig1-shor-sm,exact")


def test_simulate_unknown_scheme_exits_3(capsys):
    code, _, err = run(capsys, "simulate", "--scheme", "fig9", "--pm-log2", "-3")
    assert code == 3
