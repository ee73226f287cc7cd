"""Command-line interface: outputs, exit codes, and round trips."""

import argparse
import ast
import inspect
import json
import os
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from qdscodes import bounds, cli, codes, errors, qds
from qdscodes.bounds import MAX_FAMILY_EXPONENT, MAX_REGION_ROWS
from qdscodes.cli import MAX_GRID_POINTS, _parse_pm_grid, build_parser, main
from qdscodes.codes import catalog, read_code_file
from qdscodes.qds import identity_qds, qds_min_distance
from qdscodes.smcodes import (
    MAX_GENERATED_SIZE,
    read_binary_code_file,
    sm_catalog,
    write_binary_code_file,
)


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


def test_catalog_list_reads_the_sm_names_from_smcodes(capsys, monkeypatch):
    from qdscodes import smcodes

    code, out, _ = run(capsys, "catalog", "list")
    assert out.endswith("  parity-<m> / repetition-<l> / identity-<m>\n"
                        "  grassl-18-6-8 / grassl-25-6-11\n")
    code, out, _ = run(capsys, "catalog", "list", "--json")
    assert json.loads(out)["sm"][-2:] == [
        {"name": "parity-<m> / repetition-<l> / identity-<m>"},
        {"name": "grassl-18-6-8 / grassl-25-6-11", "import": "QDS_DATA_DIR"},
    ]
    # an import-only code declared in smcodes is listed with the others
    monkeypatch.setitem(smcodes.IMPORTED_PARAMS, "import-20-4-8", (20, 4, 8))
    code, out, _ = run(capsys, "catalog", "list")
    assert out.endswith("  grassl-18-6-8 / grassl-25-6-11 / import-20-4-8\n")


def test_catalog_list_and_check_give_every_code_the_same_m(capsys):
    # m is the number of stabilizer generators measured: 4 for bacon-shor
    code, out, _ = run(capsys, "catalog", "list", "--json")
    listed = {entry["name"]: entry["m"] for entry in json.loads(out)["quantum"]}
    assert listed["bacon-shor"] == 4 and set(listed) == set(codes.catalog_names())
    for name, m in listed.items():
        code, out, _ = run(capsys, "check", "--code", name, "--json")
        assert (code, json.loads(out)["m"]) == (0, m), name
        assert m == len(catalog(name).rows)


def test_catalog_show_example_rows(capsys):
    code, out, _ = run(capsys, "catalog", "show", "example-6-1-3")
    assert code == 0
    rows = [line for line in out.strip().split("\n")]
    assert rows == ["IIIZIZ", "YIZXXY", "ZXIIXZ", "IZXXXX", "ZZZIZI"]


def test_catalog_show_subsystem_code_prints_its_gauge_rows(capsys):
    code, out, _ = run(capsys, "catalog", "show", "bacon-shor")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "GAUGE"
    assert lines[1:] == [str(r) for r in catalog("bacon-shor").gauge.rows]
    assert len(lines[1:]) == 12
    assert codes.parse_code_text(out) == catalog("bacon-shor")


def test_catalog_show_sm_code(capsys):
    code, out, _ = run(capsys, "catalog", "show", "cw-12-2-8")
    assert code == 0
    assert out.strip().split("\n") == ["111111110000", "000011111111"]


def test_catalog_show_unknown_exits_2(capsys):
    code, _, err = run(capsys, "catalog", "show", "mystery-code")
    assert code == 2
    assert "mystery-code" in err


@pytest.mark.parametrize(
    "argv, message",
    [(["catalog", "show", "nosuch"], "error: unknown SM code 'nosuch'; known: cw-12-2-8, "),
     (["check", "--code", "shor", "--sm", "identity-0"],
      "error: size in 'identity-0' must be positive\n")],
)
def test_catalog_errors_print_their_message_unquoted(capsys, argv, message):
    # CatalogError is a KeyError, whose str() would wrap the message in quotes
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(message)


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


def test_check_refuses_a_generated_sm_code_above_the_cap(capsys):
    code, out, err = run(capsys, "check", "--code", "shor", "--sm",
                         f"identity-{MAX_GENERATED_SIZE + 1}")
    assert code == 2
    assert out == ""
    assert f"cap of {MAX_GENERATED_SIZE}" in err


def test_check_subsystem_flag_rejects_stabilizer(capsys):
    code, _, err = run(capsys, "check", "--code", "steane", "--subsystem")
    assert code == 2
    assert "subsystem" in err


def test_check_unknown_code_exits_2(capsys):
    code, out, err = run(capsys, "check", "--code", "no-such-file")
    assert code == 2
    assert out == ""
    assert "'no-such-file' is neither a catalog code nor an existing file" in err


def test_check_reads_the_sm_code_from_a_file(capsys, tmp_path):
    path = tmp_path / "parity-8.txt"
    write_binary_code_file(sm_catalog("parity-8"), path)
    code, out, _ = run(capsys, "check", "--code", "shor", "--sm", str(path), "--json")
    assert code == 0
    assert out == run(capsys, "check", "--code", "shor", "--sm", "parity-8", "--json")[1]


@pytest.mark.parametrize("sm", [[], ["--sm", "parity-2"]])
def test_check_refuses_a_code_with_no_stabilizer_generator_by_name(capsys, tmp_path, sm):
    # gauge XI, ZI: r = 1 and k = 1, but a trivial stabilizer, so no SM code
    # (not the identity-0 that check would otherwise look up) has anything to protect
    path = tmp_path / "gauge-only.txt"
    path.write_text("GAUGE\nXI\nZI\n")
    code, out, err = run(capsys, "check", "--code", str(path), *sm)
    assert code == 2
    assert out == ""
    assert err == ("error: the code has no stabilizer generator to measure: its gauge group "
                   "(r = 1, k = 1) has a trivial stabilizer\n")


# a gauge group whose rows commute, and a stabilizer code, each leaving no logical qubit
NO_LOGICAL_QUBIT = {"gauge": "GAUGE\nXXI\nZZI\nIIX\n", "stabilizer": "XX\nZZ\n"}


@pytest.mark.parametrize("command, kind", [
    ("check", "gauge"), ("check", "stabilizer"), ("construct", "gauge"),
    ("construct", "stabilizer"), ("search-impure", "stabilizer"),
])
def test_a_code_with_no_logical_qubit_is_refused_by_name(capsys, tmp_path, command, kind):
    # not by the search cap, which no search reaches: every error of zero
    # syndrome lies in the gauge group
    path = tmp_path / f"{kind}.txt"
    path.write_text(NO_LOGICAL_QUBIT[kind])
    code, out, err = run(capsys, command, "--code", str(path))
    assert (code, out) == (2, "")
    assert err == "error: the code encodes no logical qubit (k = 0), so it has no distance\n"


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


def test_construct_writes_the_parity_sm_code(capsys, tmp_path):
    path = tmp_path / "sm.txt"
    code, out, _ = run(capsys, "construct", "--code", "shor", "--out-sm", str(path))
    assert code == 0
    assert out.endswith(f"  sm generator written to {path}\n")
    written, parity = read_binary_code_file(path), sm_catalog("parity-8")
    assert (written.length, written.rows) == (parity.length, parity.rows)


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


@pytest.mark.parametrize(
    "rows, exit_code, message",
    [(None, 2, "error: search-impure operates on stabilizer codes"),
     (["XXXX", "ZZZZ"], 3, "error: construction needs a distance-3 code, got d=2")],
)
def test_search_impure_refuses_a_code_outside_its_domain(capsys, tmp_path, rows, exit_code,
                                                         message):
    spec = "bacon-shor"
    if rows is not None:
        spec = str(tmp_path / "code.txt")
        Path(spec).write_text("\n".join(rows) + "\n")
    code, out, err = run(capsys, "search-impure", "--code", spec)
    assert code == exit_code
    assert out == ""
    assert err.startswith(message)


def test_search_impure_reports_a_defect_with_exit_4(capsys, monkeypatch):
    monkeypatch.setattr(qds, "qds_min_distance", lambda code: 2)
    code, out, err = run(capsys, "search-impure", "--code", "example-6-1-3")
    assert code == 4
    assert out == ""
    assert err.startswith("defect: pivot IIIZIZ with string 00011 passed the weight-1 test")


def test_construct_reports_a_parity_augmentation_below_distance_3_as_a_defect(capsys,
                                                                              monkeypatch):
    monkeypatch.setattr(qds, "qds_min_distance", lambda code: 2)
    code, out, err = run(capsys, "construct", "--code", "steane")
    assert code == 4
    assert out == ""
    assert err == "defect: parity augmentation failed to preserve distance 3\n"


def test_search_impure_after_permutation(capsys, tmp_path):
    # an equivalent presentation of an impure code still succeeds
    from qdscodes.codes import make_stabilizer, write_code_file

    rows = [r.permute([3, 0, 5, 1, 4, 2]) for r in catalog("example-6-1-3").rows]
    path = tmp_path / "permuted.txt"
    write_code_file(make_stabilizer(rows), path)
    code, out, _ = run(capsys, "search-impure", "--code", str(path), "--json")
    assert code == 0
    assert json.loads(out)["params"] == "[[6,1,3:0]]"


@pytest.mark.parametrize("argv", [
    ["check", "--code", "example-6-1-3-prime"],
    ["check", "--code", "bacon-shor", "--sm", "parity-4"],
    ["construct", "--code", "steane"],
    ["construct", "--code", "bacon-shor"],
    ["search-impure", "--code", "example-6-1-3"],
    ["search-impure", "--code", "shor"],
])
def test_each_command_searches_each_distance_once(capsys, monkeypatch, argv):
    # one base distance search and one QDS distance search, whatever reads them
    searches = Counter()
    for module, name in ((codes, "min_distance"), (qds, "min_distance"),
                         (qds, "qds_min_distance")):
        def counting(code, name=name, search=getattr(module, name)):
            searches[name] += 1
            return search(code)
        monkeypatch.setattr(module, name, counting)
    assert run(capsys, *argv)[0] == 0
    assert searches == {"min_distance": 1, "qds_min_distance": 1}


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
    code, out, _ = run(capsys, "bounds", "--families", "3", "--json")
    assert code == 0
    assert json.loads(out) == [{"n": 5, "k": 1}, {"n": 21, "k": 15}, {"n": 168, "k": 159}]


def test_bounds_families_at_and_past_the_cap(capsys):
    code, out, _ = run(capsys, "bounds", "--families", str(MAX_FAMILY_EXPONENT))
    assert code == 0
    assert len(out.splitlines()) == 25_877
    code, out, err = run(capsys, "bounds", "--families", str(MAX_FAMILY_EXPONENT + 1))
    assert code == 2
    assert out == ""
    assert "exceeds the family cap" in err


def test_bounds_table(capsys):
    code, out, _ = run(capsys, "bounds", "--table", "19..26")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,singleton_k,hamming_k,impure_k,conjecture_k"
    assert lines[1] == "19,15,13,13,12"
    assert lines[-1] == "26,22,19,19,18"


def test_bounds_table_refuses_one_row_past_the_cap_before_building_any(capsys, monkeypatch):
    built, region_row = [], bounds.RegionRow
    monkeypatch.setattr(bounds, "RegionRow", lambda **row: built.append(row) or region_row(**row))
    code, out, err = run(capsys, "bounds", "--table", f"7..{7 + MAX_REGION_ROWS}")
    assert code == 2
    assert out == "" and built == []
    assert err == (f"error: table n=7..{7 + MAX_REGION_ROWS} has {MAX_REGION_ROWS + 1} rows, "
                   f"above the cap of {MAX_REGION_ROWS}\n")
    # the cap itself is one range of that many rows
    monkeypatch.setattr(bounds, "MAX_REGION_ROWS", 8)
    assert run(capsys, "bounds", "--table", "19..26")[0] == 0
    assert len(built) == 8
    assert run(capsys, "bounds", "--table", "19..27")[0] == 2


@pytest.mark.parametrize("spec", ["26..19", "0..0", "0..4", "-2..3"])
def test_bounds_table_refuses_an_empty_or_non_positive_range(capsys, spec):
    code, out, err = run(capsys, "bounds", f"--table={spec}")
    assert code == 3
    assert out == ""
    assert err.startswith("error: need 1 <= n1 <= n2")


def test_bounds_table_refuses_a_spec_without_a_range(capsys):
    code, out, err = run(capsys, "bounds", "--table", "19")
    assert code == 2
    assert out == ""
    assert err == "error: expected n1..n2, got '19'\n"


@pytest.mark.parametrize("args, message", [
    (["--table", "abc..3"], "--table takes n1..n2 with integer n1, n2, got 'abc..3'"),
    (["--table", "1..x"], "--table takes n1..n2 with integer n1, n2, got '1..x'"),
    (["--families", "abc"], "--families takes an integer A_MAX, got 'abc'"),
    (["--check", "a", "1"], "--check takes integers n k [d l], got 'a 1'"),
])
def test_bounds_names_the_option_of_a_value_that_is_not_an_integer(capsys, args, message):
    code, out, err = run(capsys, "bounds", *args)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


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


@pytest.mark.parametrize("out", ["missing/sweep.csv", "."])
def test_simulate_refuses_an_out_it_cannot_write_before_the_sweep(capsys, monkeypatch, tmp_path,
                                                                   out):
    # a file in a missing directory, or a directory: refused before any scheme is built
    from qdscodes import noise

    def refuse(*args, **kwargs):
        raise AssertionError("simulate evaluated a sweep it could not write")

    monkeypatch.setattr(noise, "build_scheme", refuse)
    monkeypatch.setattr(noise, "sweep", refuse)
    path = str(tmp_path / out)
    code, stdout, err = run(capsys, "simulate", "--scheme", "fig1-bs-sm",
                            "--pm-log2=-3..-4:0.5", "--out", path)
    assert code == 2 and stdout == ""
    assert err == f"error: --out {path} must name a file in an existing directory\n"


@pytest.mark.parametrize(
    "spec, count, last",
    [("-1..-2.9:0.5", 4, "-2.5"), ("-2.9..-1:0.5", 4, "-1.4"), ("-1.5..-8:0.1", 66, "-8")],
)
def test_simulate_range_stops_at_its_end(capsys, spec, count, last):
    code, out, _ = run(capsys, "simulate", "--scheme", "fig1-shor-6fold", f"--pm-log2={spec}",
                       "--method", "exact")
    assert code == 0
    points = [line.split(",")[0] for line in out.strip().split("\n")[2:]]
    assert len(points) == count
    assert points[-1] == last


@pytest.mark.parametrize(
    "spec, message",
    [
        ("-1..-2:inf", "must be finite"),
        ("-1..-3:0", "step must be nonzero"),
        ("-1..-inf:0.5", "must be finite"),
        ("nan..-2:0.5", "must be finite"),
        ("-2..-3:1e-300", f"cap of {MAX_GRID_POINTS} points"),
        (f"0..{MAX_GRID_POINTS}:1", f"cap of {MAX_GRID_POINTS} points"),
    ],
)
def test_simulate_refuses_a_bad_range_before_any_output(capsys, spec, message):
    code, out, err = run(capsys, "simulate", "--scheme", "fig1-bs-sm", f"--pm-log2={spec}")
    assert code == 2
    assert out == ""
    assert message in err


def test_simulate_refuses_a_single_nan_before_any_output(capsys):
    code, out, err = run(capsys, "simulate", "--scheme", "fig1-bs-sm", "--pm-log2=nan",
                         "--method", "exact")
    assert code == 2
    assert out == ""
    assert "must be a number" in err


def test_simulate_refuses_an_empty_pm_log2_before_any_output(capsys):
    code, out, err = run(capsys, "simulate", "--scheme", "fig1-bs-sm", "--pm-log2=--",
                         "--method", "exact")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --pm-log2 needs a value")


@pytest.mark.parametrize(
    "spec, p_m",
    [("1", "2.0"), ("inf", "inf"), ("2000", "inf"), ("-1..1:0.5", "1.4142135623730951")],
)
def test_simulate_refuses_p_m_above_one_before_any_output(capsys, spec, p_m):
    code, out, err = run(capsys, "simulate", "--scheme", "fig1-bs-sm", f"--pm-log2={spec}",
                         "--method", "exact")
    assert code == 3
    assert out == ""
    assert f"p_m={p_m} outside [0, 1]" in err


@pytest.mark.parametrize("spec, row", [("-inf", "-inf,-inf,"), ("1e-17", "1e-17,")])
def test_simulate_accepts_p_m_zero_and_one(capsys, spec, row):
    code, out, _ = run(capsys, "simulate", "--scheme", "fig1-bs-sm", f"--pm-log2={spec}",
                       "--method", "exact")
    assert code == 0
    assert out.strip().split("\n")[2].startswith(row)


def test_grid_of_exactly_the_cap_is_accepted():
    assert len(_parse_pm_grid(f"0..{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS


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


def test_simulate_negative_seed_usage_error(capsys):
    code, out, err = run(
        capsys, "simulate", "--scheme", "fig1-bs-sm", "--pm-log2", "-3", "--method", "mc",
        "--seed", "-1",
    )
    assert code == 2
    assert out == ""
    assert "--seed must be non-negative" in err


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


# ----------------------------------------------------------------------
# README
# ----------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_lines_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QDS_DATA_DIR", raising=False)
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("qdscodes ")]
    assert len(lines) >= 10
    for line in lines:
        command, _, expected = line.partition("# -> ")
        code, out, err = run(capsys, *shlex.split(command)[1:])
        assert code == 0, (line, err)
        assert expected.strip() in out, line


# ----------------------------------------------------------------------
# parser contract
# ----------------------------------------------------------------------

COMMANDS = ("catalog", "check", "construct", "search-impure", "bounds", "simulate")
OPTIONS = {
    "catalog": ("{list,show}", "name", "--json", "--data-dir"),
    "check": ("--code", "--sm", "--subsystem", "--json", "--data-dir"),
    "construct": ("--code", "--out-sm", "--json"),
    "search-impure": ("--code", "--out", "--json"),
    "bounds": ("--check", "--table", "--families", "--json"),
    "simulate": ("--scheme", "--pm-log2", "--method", "--trials", "--seed", "--decoder",
                 "--out", "--data-dir"),
}


def exits(capsys, *argv):
    """Exit code, stdout and stderr of an argv that argparse ends with SystemExit."""
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


@pytest.fixture
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_top_level_help_lists_the_commands_in_order(capsys, columns, flag):
    code, out, _ = exits(capsys, flag)
    assert code == 0
    assert out.startswith("usage: qdscodes [-h] {" + ",".join(COMMANDS) + "} ...\n")
    listed = [out.index(f"\n    {name} ") for name in COMMANDS]
    assert listed == sorted(listed)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_names_every_option(capsys, columns, command):
    code, out, _ = exits(capsys, command, "--help")
    assert code == 0
    assert out.startswith(f"usage: qdscodes {command} [-h]")
    for option in OPTIONS[command]:
        assert option in out, option
    # the help text is the one the full command tree gives the same command
    tree = build_parser()
    sub = next(a for a in tree._actions if isinstance(a, argparse._SubParsersAction))
    assert out == sub.choices[command].format_help()


@pytest.mark.parametrize("argv", [["frobnicate"], ["chek", "--code", "shor"], ["CHECK"]])
def test_unknown_command_exits_2(capsys, columns, argv):
    code, out, err = exits(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage: qdscodes [-h] {")
    assert f"invalid choice: '{argv[0]}'" in err


@pytest.mark.parametrize("argv", [[], ["--json"], ["-x"]])
def test_no_command_exits_2(capsys, columns, argv):
    code, _, err = exits(capsys, *argv)
    assert code == 2
    assert err.endswith("qdscodes: error: the following arguments are required: command\n")


@pytest.mark.parametrize(
    "argv, missing",
    [(["check"], "--code"), (["construct", "--json"], "--code"), (["search-impure"], "--code"),
     (["simulate", "--scheme", "fig1-bs-sm"], "--pm-log2"), (["catalog"], "action")],
)
def test_missing_required_argument_exits_2_and_names_it(capsys, columns, argv, missing):
    code, out, err = exits(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage: qdscodes {argv[0]} [-h]")
    assert err.endswith(
        f"qdscodes {argv[0]}: error: the following arguments are required: {missing}\n"
    )


def test_main_reads_sys_argv_when_argv_is_none(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["qdscodes", "check", "--code", "example-6-1-3-prime"])
    assert main() == 0
    assert "[[6,1,3:0]] QDS: yes" in capsys.readouterr().out


def test_a_leading_double_dash_goes_to_the_full_command_tree(capsys, columns):
    # argparse hands the '--' itself to the subcommand choice, so no command runs
    code, out, err = exits(capsys, "--", "check", "--code", "example-6-1-3-prime")
    assert code == 2
    assert out == ""
    assert err.startswith("usage: qdscodes [-h] {")
    assert "invalid choice: '--'" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["catalog", "show"], "catalog show requires a code name"),
        (["check", "--code", "shor", "--extra"], "unrecognized arguments: --extra"),
        (["catalog", "list", "extra", "more"], "unrecognized arguments: more"),
    ],
)
def test_command_errors_print_the_command_usage(capsys, columns, argv, message):
    code, out, err = exits(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage: qdscodes {argv[0]} [-h]")
    assert err.endswith(f"qdscodes {argv[0]}: error: {message}\n")


def test_a_command_declares_only_its_own_arguments(capsys, monkeypatch):
    declared = []
    add_argument = argparse.ArgumentParser.add_argument

    def spy(self, *flags, **kwargs):
        declared.extend(flags)
        return add_argument(self, *flags, **kwargs)

    # a parser built by an earlier call would declare nothing the spy sees
    cli._command_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    assert main(["check", "--code", "example-6-1-3-prime"]) == 0
    capsys.readouterr()
    assert "--pm-log2" not in declared
    assert sorted(declared) == sorted(("-h", "--help") + OPTIONS["check"])


def test_calls_through_one_cached_parser_share_no_state(capsys, columns):
    cli._command_parser.cache_clear()
    code, out, _ = run(capsys, "check", "--code", "shor", "--json")
    assert code == 0 and json.loads(out)["base_distance"] == 3
    # --json is not carried over into the next call's namespace
    code, out, _ = run(capsys, "check", "--code", "shor")
    assert code == 0 and out.startswith("[[9,1,3:0]] QDS: no\n")
    # a bad option on a second call still exits 2 with the command's usage
    code, out, err = exits(capsys, "check", "--code", "shor", "--extra")
    assert code == 2 and out == ""
    assert err.startswith("usage: qdscodes check [-h]")
    assert err.endswith("qdscodes check: error: unrecognized arguments: --extra\n")
    assert cli._command_parser.cache_info().misses == 1
    # a later command gets its own parser, which declares no check option
    simulate = cli._command_parser("simulate")
    assert simulate is not cli._command_parser("check")
    declared = {flag for action in simulate._actions for flag in action.option_strings}
    assert declared == {"-h", "--help"} | set(OPTIONS["simulate"])
    code, out, _ = run(capsys, "simulate", "--scheme", "fig1-bs-6fold", "--pm-log2=-4")
    assert code == 0 and out.startswith("total_measurements: 144\n")


def src_env() -> dict[str, str]:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


@pytest.mark.parametrize(
    "argv, exit_code, needle",
    [(["--help"], 0, "usage: qdscodes"),
     (["check", "--code", "example-6-1-3-prime"], 0, "[[6,1,3:0]] QDS: yes"),
     (["frobnicate"], 2, "invalid choice: 'frobnicate'")],
)
def test_shell_entry_point(argv, exit_code, needle):
    done = subprocess.run([sys.executable, "-m", "qdscodes.cli", *argv], env=src_env(),
                          capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode == exit_code, done.stderr
    assert needle in done.stdout + done.stderr


def test_bounds_check_refuses_a_distance_past_the_cap_at_once():
    # d = 1,000,001 is past the cap, so no term of the Hamming sum is formed;
    # all t^2 / 2 = 1.25e11 of them, zeros included, would take hours
    done = subprocess.run([sys.executable, "-m", "qdscodes", "bounds", "--check", "10", "3",
                           "1000001"], env=src_env(), capture_output=True, text=True, timeout=20,
                          check=False)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == (f"error: d=1000001 exceeds the Hamming-check cap "
                           f"{bounds.MAX_CHECK_DISTANCE}\n")


def test_bounds_check_of_a_100_digit_length_answers_at_once():
    # a bound settles the Hamming check; summing its 1,000 terms of
    # 100-digit binomials took about 19 s
    n = str(10**100)
    done = subprocess.run([sys.executable, "-m", "qdscodes", "bounds", "--check", n, "1", "2001"],
                          env=src_env(), capture_output=True, text=True, timeout=10, check=False)
    assert done.returncode == 0, done.stderr
    assert "qds_hamming: True" in done.stdout.splitlines()


@pytest.mark.parametrize("k, verdict", [("1", "True"), (str(10**4299 - 100), "False")])
def test_bounds_check_at_the_digit_limit_forms_no_binomial(capsys, monkeypatch, k, verdict):
    # n = 10^4299 has the most digits a command line may give; bit lengths
    # settle both verdicts, where C(n, 1000) took 6.4 s
    def refuse(*_):
        raise AssertionError("bounds.comb called")

    monkeypatch.setattr(bounds, "comb", refuse)
    code, out, _ = run(capsys, "bounds", "--check", str(10**4299), k, "2001")
    assert code == 0 and f"qds_hamming: {verdict}" in out.splitlines()


def test_the_package_runs_as_a_module():
    done = subprocess.run([sys.executable, "-m", "qdscodes", "bounds", "--check", "22", "15"],
                          env=src_env(), capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode == 0, done.stderr
    assert "qds_hamming: True" in done.stdout.splitlines()


# ----------------------------------------------------------------------
# start-up: a command imports only the modules it runs
# ----------------------------------------------------------------------

def fresh_interpreter(source: str, *argv: str) -> tuple[int, str, set[str]]:
    """Exit code, stdout and loaded module names of a new interpreter that
    runs `source` (which sets `status`) with this checkout's src."""
    source += "\nprint(*sys.modules, file=sys.stderr)\nsys.exit(status)"
    done = subprocess.run([sys.executable, "-c", source, *argv], env=src_env(),
                          capture_output=True, text=True, timeout=60, check=False)
    return done.returncode, done.stdout, set(done.stderr.splitlines()[-1].split())


RUN_CLI = "import sys\nfrom qdscodes.cli import main\nstatus = main(sys.argv[1:])"


def package_modules(loaded: set[str]) -> set[str]:
    return {name for name in loaded if name == "numpy" or name.startswith("qdscodes.")}


def test_importing_the_cli_loads_no_command_module():
    code, _, loaded = fresh_interpreter("import sys\nimport qdscodes.cli\nstatus = 0")
    assert code == 0
    assert package_modules(loaded) == {"qdscodes.cli", "qdscodes.errors"}


def test_readme_bounds_lines_run_without_numpy(capsys):
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("qdscodes bounds ")]
    assert len(lines) == 3
    for line in lines:
        argv = shlex.split(line.partition("# -> ")[0])[1:]
        expected = run(capsys, *argv)
        code, out, loaded = fresh_interpreter(RUN_CLI, *argv)
        assert (code, out) == expected[:2] and expected[0] == 0, line
        assert package_modules(loaded) == {"qdscodes.cli", "qdscodes.errors", "qdscodes.bounds"}


def test_check_loads_neither_noise_nor_bounds():
    code, out, loaded = fresh_interpreter(RUN_CLI, "check", "--code", "example-6-1-3-prime")
    assert code == 0 and "[[6,1,3:0]] QDS: yes" in out
    assert "numpy" in loaded
    assert not {"qdscodes.noise", "qdscodes.montecarlo", "qdscodes.bounds"} & loaded


@pytest.mark.parametrize("method, sampled", [("exact", False), ("mc", True)])
def test_only_a_monte_carlo_run_loads_the_sampler(method, sampled):
    code, out, loaded = fresh_interpreter(RUN_CLI, "simulate", "--scheme", "fig1-bs-sm",
                                          "--pm-log2=-3", "--method", method, "--trials", "1000")
    assert code == 0 and f",fig1-bs-sm,{'monte-carlo' if sampled else 'exact'}\n" in out
    assert "qdscodes.noise" in loaded
    assert ("qdscodes.montecarlo" in loaded) == sampled


def test_exact_p_se_loads_no_sampler():
    source = ("import sys\nimport qdscodes.noise as noise\n"
              "result = noise.pse_exact(noise.build_scheme('fig2-bs-216'), [2.0**-3, 2.0**-5])\n"
              "status = 0 if len(result) == 2 else 1")
    code, _, loaded = fresh_interpreter(source)
    assert code == 0
    assert "qdscodes.noise" in loaded and "qdscodes.montecarlo" not in loaded


def test_package_names_load_on_first_use():
    source = (
        "import sys, importlib\n"
        "import qdscodes\n"
        "lazy = not {'numpy', 'qdscodes.codes'} & set(sys.modules)\n"
        "from qdscodes import *\n"
        "wrong = [name for name in qdscodes.__all__ if globals()[name] is not getattr(\n"
        "    importlib.import_module('qdscodes.' + qdscodes._SUBMODULE[name]), name)]\n"
        "listed = set(qdscodes.__all__) <= set(dir(qdscodes))\n"
        "print(lazy, wrong, listed, len(qdscodes.__all__))\n"
        "status = 0"
    )
    code, out, _ = fresh_interpreter(source)
    assert (code, out) == (0, "True [] True 59\n")


def test_an_unknown_package_attribute_raises_attribute_error():
    import qdscodes

    with pytest.raises(AttributeError, match="'qdscodes' has no attribute 'no_such_name'"):
        qdscodes.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from qdscodes import no_such_name", {})


def test_every_raise_names_a_package_error():
    # cli.main maps the package's error classes onto exit codes, so a raw
    # ValueError or KeyError raised in a module would reach it unnamed.  The
    # one exception is the AttributeError that PEP 562 requires of the
    # package's __getattr__, the only function in __init__.py.
    package = {name for name, value in vars(errors).items()
               if inspect.isclass(value) and issubclass(value, errors.QDSError)}
    offenders = []
    for path in sorted((README.parent / "src" / "qdscodes").glob("*.py")):
        allowed = package | ({"AttributeError"} if path.name == "__init__.py" else set())
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            call = node.exc
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id in allowed):
                offenders.append(f"{path.name}:{node.lineno}: raise {ast.unparse(call)}")
    assert offenders == []
