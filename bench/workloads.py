"""The three benchmark workloads: seed-generated inputs, one round of ops, output checks.

A round is a fixed list of ops built once per worker from the workload seed;
the worker repeats whole rounds, so every run measures the same op mix.
Each op returns its raw outcome and the op's check turns that outcome into
``None`` (correct) or a one-line reason (failed).  Checks are independent of
the code under test: reference values come from the acceptance criteria, the
README and the paper, or from small computations written out here.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from qdscodes import cli, codes, noise, qds, smcodes
from qdscodes.gf4 import pauli_string_parse

CSV_HEADER = "log2_pm,log2_pse,stderr,trials,total_measurements,scheme,method"
CURVE_GRID_ARG = "--pm-log2=-1.5..-8:0.1"
CURVE_GRID = [round(-1.5 - 0.1 * i, 12) for i in range(66)]
MC_GRID_ARG = "--pm-log2=-3..-5:1"
MC_GRID = [-3.0, -4.0, -5.0]
MC_TRIALS = 1 << 18
MC_SIGMAS = 5.0
COSET, WML = "coset-leader", "weighted-ml"

# Acceptance criterion 2 (repetition points) and 3 (fig1-bs-sm calibration):
# scheme -> {log2_pm: (reference log2_pse, tolerance)}.
REFERENCE_POINTS = {
    "fig1-shor-6fold": {-1.5: (-0.001055, 0.02), -4.0: (-1.105477, 0.01)},
    "fig1-bs-6fold": {-4.0: (-0.702967, 0.01)},
    "fig1-bs-sm": {-2.0: (-0.0353, 0.1), -3.0: (-0.1576, 0.1),
                   -4.0: (-0.9508, 0.1), -5.0: (-2.9848, 0.1)},
}
# Acceptance criterion 4: documented measurement totals.
TOTALS = {"fig1-bs-sm": 144, "fig1-shor-6fold": 144, "fig1-bs-6fold": 144,
          "fig2-bs-204": 204, "fig2-bs-216": 216}

CURVE_OPS = [("fig1-bs-sm", COSET), ("fig1-bs-sm", WML), ("fig1-shor-6fold", COSET),
             ("fig1-bs-6fold", COSET), ("fig2-bs-204", COSET), ("fig2-bs-204", WML),
             ("fig2-bs-216", COSET), ("fig2-bs-216", WML)]
MC_OPS = [("fig1-bs-sm", COSET), ("fig1-bs-sm", WML), ("fig1-shor-6fold", COSET),
          ("fig1-bs-6fold", COSET), ("fig2-bs-216", COSET)]

# The Shor code's Z generators as supports; the import op measures their products.
SHOR_Z_SUPPORTS = [{0, 1}, {1, 2}, {3, 4}, {4, 5}, {6, 7}, {7, 8}]
SHOR_X_TOTAL = 72  # X part of the Shor code under cw-12-2-8 (acceptance criterion 4)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    points: int = 0
    trials: int = 0


@dataclass
class Workload:
    """One round of ops, plus a cheap op run once untimed to warm up."""

    ops: list[Op]
    warmup: Op


# ----------------------------------------------------------------------
# running the CLI in-process
# ----------------------------------------------------------------------

def cli_call(argv: list[str]) -> tuple[int, str, str]:
    """cli.main with stdout/stderr captured; argparse exits become exit codes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def expect_exit(expected: int, needle: str = "") -> Callable[[object], str | None]:
    def check(outcome):
        code, _, err = outcome
        if code != expected:
            return f"exit {code}, documented {expected}"
        if not err.startswith("error:") or needle not in err:
            return f"stderr {err.strip()[:80]!r} lacks 'error:' and {needle!r}"
        return None
    return check


def _exit_ok(outcome) -> str | None:
    code, _, err = outcome
    return None if code == 0 else f"exit {code}: {err.strip()[:80]}"


# ----------------------------------------------------------------------
# curve checks
# ----------------------------------------------------------------------

def check_curve(text: str, scheme: str, grid: list[float], total: int, method: str,
                trials: int) -> str | None:
    lines = text.strip().split("\n")
    if lines[0] != CSV_HEADER:
        return f"header {lines[0]!r}"
    rows = list(csv.reader(lines[1:]))
    if len(rows) != len(grid):
        return f"{len(rows)} rows, expected {len(grid)}"
    for row, lp in zip(rows, grid):
        if abs(float(row[0]) - lp) > 1e-9:
            return f"grid point {row[0]} != {lp}"
        if (int(row[3]), int(row[4]), row[5], row[6]) != (trials, total, scheme, method):
            return f"row {row} != trials {trials}, total {total}, {scheme}, {method}"
    return None


def check_exact_curve(text: str, scheme: str, total: int) -> str | None:
    bad = check_curve(text, scheme, CURVE_GRID, total, "exact", 0)
    if bad:
        return bad
    values = {round(float(r[0]), 6): float(r[1]) for r in csv.reader(text.strip().split("\n")[1:])}
    series = list(values.values())
    if not all(math.isfinite(v) and v <= 0.0 for v in series):
        return "log2_pse not finite and <= 0"
    if any(a < b for a, b in zip(series, series[1:])):
        return "log2_pse rises as p_m falls"
    for lp, (ref, tol) in REFERENCE_POINTS.get(scheme, {}).items():
        if abs(values[lp] - ref) > tol:
            return f"log2_pse {values[lp]} at {lp} is more than {tol} from {ref}"
    return None


def exact_curve_op(scheme: str, decoder: str, workdir: Path) -> Op:
    out = workdir / f"{scheme}-{decoder}.csv"
    argv = ["simulate", "--scheme", scheme, CURVE_GRID_ARG, "--method", "exact",
            "--decoder", decoder, "--out", str(out)]

    def check(outcome):
        return _exit_ok(outcome) or check_exact_curve(out.read_text(), scheme, TOTALS[scheme])
    return Op(f"exact {scheme} {decoder}", lambda: cli_call(argv), check, points=len(CURVE_GRID))


def random_sm_matrix(rng: random.Random, dim: int, length: int) -> list[str]:
    """Systematic [I | A] rows as 0/1 strings, A random with no zero column
    (a zero column would measure the identity, which has no weight)."""
    columns = [rng.randrange(1, 1 << dim) for _ in range(length - dim)]
    return ["".join("1" if j == i else "0" for j in range(dim))
            + "".join(str((col >> i) & 1) for col in columns) for i in range(dim)]


def shor_z_total(rows: list[str]) -> int:
    """Measurements of the Shor Z part under a systematic SM code: each Z
    generator once, then one product per redundant column of A."""
    total = sum(len(s) for s in SHOR_Z_SUPPORTS)
    for col in range(len(rows), len(rows[0])):
        support: set[int] = set()
        for i, row in enumerate(rows):
            if row[col] == "1":
                support ^= SHOR_Z_SUPPORTS[i]
        total += len(support)
    return total


def import_curve_op(rng: random.Random) -> Op:
    """The import path: a [20,6] SM matrix through parse -> sm_scheme -> sweep."""
    rows = random_sm_matrix(rng, 6, 20)
    text = "# seed-generated [20,6] SM code\n" + "\n".join(rows) + "\n"
    name = "import-20-6"

    def run():
        sm = smcodes.parse_binary_code_text(text, name)
        scheme = noise.sm_scheme(codes.catalog("shor"), smcodes.sm_catalog("cw-12-2-8"), sm,
                                 name=name)
        return noise.sweep_csv(noise.sweep(scheme, CURVE_GRID, method="exact"))

    def check(csv_text):
        return check_exact_curve(csv_text, name, SHOR_X_TOTAL + shor_z_total(rows))
    return Op(f"import {name}", run, check, points=len(CURVE_GRID))


def curves(rng: random.Random, workdir: Path) -> Workload:
    ops = [exact_curve_op(s, d, workdir) for s, d in CURVE_OPS] + [import_curve_op(rng)]
    rng.shuffle(ops)
    return Workload(ops, exact_curve_op("fig1-bs-6fold", COSET, workdir))


# ----------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------

def within_sigmas(p_hat: float, p: float, trials: int) -> bool:
    return abs(p_hat - p) <= MC_SIGMAS * math.sqrt(p * (1.0 - p) / trials)


def mc_op(scheme: str, decoder: str, rng: random.Random, refs: dict) -> Op:
    def run():
        argv = ["simulate", "--scheme", scheme, MC_GRID_ARG, "--method", "mc", "--trials",
                str(MC_TRIALS), "--seed", str(rng.randrange(1 << 31)), "--decoder", decoder]
        return cli_call(argv)

    def check(outcome):
        bad = _exit_ok(outcome)
        if bad:
            return bad
        text = outcome[1].split("\n", 1)[1]
        bad = check_curve(text, scheme, MC_GRID, TOTALS[scheme], "monte-carlo", MC_TRIALS)
        if bad:
            return bad
        for row in csv.reader(text.strip().split("\n")[1:]):
            p, p_hat = refs[(scheme, decoder, float(row[0]))], 2.0 ** float(row[1])
            if not within_sigmas(p_hat, p, MC_TRIALS):
                return f"mc {p_hat:.6g} at {row[0]} is beyond {MC_SIGMAS} sigma of exact {p:.6g}"
        return None
    return Op(f"mc {scheme} {decoder}", run, check, points=len(MC_GRID),
              trials=len(MC_GRID) * MC_TRIALS)


def montecarlo(rng: random.Random, workdir: Path) -> Workload:
    refs = {}
    for scheme, decoder in MC_OPS:
        built = noise.build_scheme(scheme, decoder=decoder)
        for lp in MC_GRID:
            refs[(scheme, decoder, lp)] = noise.pse_exact(built, 2.0**lp).p_se
    ops = [mc_op(s, d, rng, refs) for s, d in MC_OPS]
    rng.shuffle(ops)
    return Workload(ops, mc_op("fig1-bs-6fold", COSET, rng, refs))


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def rotated_surface_rows(d: int) -> list[str]:
    """Rotated surface code on a d x d grid: weight-4 plaquettes plus weight-2
    X faces on the top/bottom edges and Z faces on the left/right edges."""
    n, rows = d * d, []
    for i in range(-1, d):
        for j in range(-1, d):
            qubits = [(a, b) for a in (i, i + 1) for b in (j, j + 1) if 0 <= a < d and 0 <= b < d]
            x_type = (i + j) % 2 == 0
            interior = 0 <= i <= d - 2 and 0 <= j <= d - 2
            edge = len(qubits) == 2 and (i in (-1, d - 1) if x_type else j in (-1, d - 1))
            if interior or edge:
                s = ["I"] * n
                for a, b in qubits:
                    s[a * d + b] = "X" if x_type else "Z"
                rows.append("".join(s))
    return rows


def bacon_shor_gauge_rows(m: int) -> list[str]:
    """m x m Bacon-Shor gauge generators: XX on row neighbours, ZZ on column neighbours."""
    n, rows = m * m, []
    for r in range(m):
        for c in range(m - 1):
            rows.append("".join("X" if q in (r * m + c, r * m + c + 1) else "I" for q in range(n)))
    for c in range(m):
        for r in range(m - 1):
            rows.append("".join("Z" if q in (r * m + c, (r + 1) * m + c) else "I" for q in range(n)))
    return rows


@dataclass(frozen=True)
class Base:
    """Known parameters of a code presentation: [[n,k,r,d]], impurity, and the
    QDS distance of its generators measured once each (identity SM code)."""

    rows: tuple[str, ...]
    n: int
    k: int
    r: int
    d: int
    impure: bool
    qds_d: int

    @property
    def gauge(self) -> bool:
        return self.r > 0


def _catalog_rows(name: str) -> tuple[str, ...]:
    code = codes.catalog(name)
    rows = code.gauge.rows if isinstance(code, codes.SubsystemCode) else code.rows
    return tuple(str(r) for r in rows)


def verify_bases() -> dict[str, Base]:
    return {
        "five-qubit": Base(_catalog_rows("five-qubit"), 5, 1, 0, 3, False, 2),
        "steane": Base(_catalog_rows("steane"), 7, 1, 0, 3, False, 2),
        "shor": Base(_catalog_rows("shor"), 9, 1, 0, 3, True, 2),
        "example-6-1-3": Base(_catalog_rows("example-6-1-3"), 6, 1, 0, 3, True, 2),
        "example-6-1-3-prime": Base(_catalog_rows("example-6-1-3-prime"), 6, 1, 0, 3, True, 3),
        "8-3-3": Base(_catalog_rows("8-3-3"), 8, 3, 0, 3, False, 2),
        "bacon-shor": Base(_catalog_rows("bacon-shor"), 9, 1, 4, 3, False, 2),
        "surface-9": Base(tuple(rotated_surface_rows(3)), 9, 1, 0, 3, True, 2),
        "surface-16": Base(tuple(rotated_surface_rows(4)), 16, 1, 0, 4, True, 2),
        "bacon-shor-16": Base(tuple(bacon_shor_gauge_rows(4)), 16, 1, 9, 4, False, 2),
    }


def random_moves(rng: random.Random, rows: tuple[str, ...], count: int) -> list[str]:
    """Apply seed-drawn local-equivalence moves (permute, scale, conjugate)."""
    vectors = [pauli_string_parse(s) for s in rows]
    n = vectors[0].n
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            perm = list(range(n))
            rng.shuffle(perm)
            move = qds.Permute(tuple(perm))
        elif kind == 1:
            move = qds.Scale(rng.randrange(n), rng.choice((2, 3)))
        else:
            move = qds.Conjugate(rng.randrange(n))
        vectors = list(qds.equivalence_apply(vectors, move))
    return [str(v) for v in vectors]


def code_file_text(rows: list[str], gauge: bool) -> str:
    return ("GAUGE\n" if gauge else "") + "\n".join(rows) + "\n"


def _json_outcome(outcome) -> tuple[dict | None, str | None]:
    bad = _exit_ok(outcome)
    if bad:
        return None, bad
    return json.loads(outcome[1]), None


def params_text(base: Base, d: int, l: int) -> str:
    middle = f"{base.r}," if base.gauge else ""
    return f"[[{base.n},{base.k},{middle}{d}:{l}]]"


def moved_code_ops(base: Base, path: Path, workdir: Path) -> list[Op]:
    spec, name = str(path), path.stem

    def check_check(outcome):
        report, bad = _json_outcome(outcome)
        if bad:
            return bad
        want = {"n": base.n, "k": base.k, "r": base.r, "base_distance": base.d,
                "impure": base.impure, "qds_distance": base.qds_d, "l": 0,
                "qds": base.qds_d >= base.d}
        got = {key: report.get(key) for key in want}
        return None if got == want else f"check {got} != known {want}"

    ops = [Op(f"check {name}", lambda: cli_call(["check", "--code", spec, "--json"]),
              check_check)]

    construct = ["construct", "--code", spec, "--json"]
    if base.d == 3:
        def check_construct(outcome):
            report, bad = _json_outcome(outcome)
            want = params_text(base, 3, 1)
            return bad or (None if report["params"] == want else f"{report['params']} != {want}")
        ops.append(Op(f"construct {name}", lambda: cli_call(construct), check_construct))
    else:
        ops.append(Op(f"construct {name} (d=4, exit 3)", lambda: cli_call(construct),
                      expect_exit(cli.EXIT_PRECONDITION, "distance-3")))

    out = workdir / f"found-{path.stem}.txt"
    search = ["search-impure", "--code", spec, "--out", str(out), "--json"]
    if base.gauge:
        ops.append(Op(f"search-impure {name} (subsystem, exit 2)", lambda: cli_call(search),
                      expect_exit(cli.EXIT_INPUT, "stabilizer codes")))
    elif base.d != 3 or not base.impure:
        ops.append(Op(f"search-impure {name} (exit 3)", lambda: cli_call(search),
                      expect_exit(cli.EXIT_PRECONDITION)))
    else:
        def check_search(outcome):
            report, bad = _json_outcome(outcome)
            want = params_text(base, 3, 0)
            return bad or (None if report["params"] == want else f"{report['params']} != {want}")
        ops.append(Op(f"search-impure {name}", lambda: cli_call(search), check_search))
    return ops


def readme_ops(workdir: Path) -> list[Op]:
    """The README's catalog/check/construct/search-impure/bounds lines."""
    def has(*needles):
        def check(outcome):
            bad = _exit_ok(outcome)
            missing = [s for s in needles if s not in outcome[1]]
            return bad or (f"output lacks {missing}" if missing else None)
        return check

    def first_line(want):
        def check(outcome):
            bad = _exit_ok(outcome)
            line = outcome[1].split("\n", 1)[0]
            return bad or (None if line == want else f"{line!r} != {want!r}")
        return check

    def shor_parity(outcome):
        report, bad = _json_outcome(outcome)
        if bad:
            return bad
        got = (report["base_distance"], report["qds_distance"], report["l"], report["qds"])
        return None if got == (3, 3, 1, True) else f"shor + parity-8 gave {got}"

    found = workdir / "found.txt"
    return [
        Op("catalog list", lambda: cli_call(["catalog", "list"]),
           has("[[8,3,3]]", "[[9,1,4,3]]", "[[6,1,3]] impure", "[[5,1,3]]", "[[9,1,3]] impure",
               "[[7,1,3]]", "[12,2,8]", "[17,2,11]", "[18,2,12]")),
        Op("catalog show example-6-1-3",
           lambda: cli_call(["catalog", "show", "example-6-1-3"]),
           has("IIIZIZ\nYIZXXY\nZXIIXZ\nIZXXXX\nZZZIZI\n")),
        Op("check example-6-1-3-prime",
           lambda: cli_call(["check", "--code", "example-6-1-3-prime"]),
           first_line("[[6,1,3:0]] QDS: yes")),
        Op("check shor --sm parity-8",
           lambda: cli_call(["check", "--code", "shor", "--sm", "parity-8", "--json"]),
           shor_parity),
        Op("construct bacon-shor", lambda: cli_call(["construct", "--code", "bacon-shor"]),
           first_line("constructed [[9,1,4,3:1]]")),
        Op("search-impure example-6-1-3",
           lambda: cli_call(["search-impure", "--code", "example-6-1-3", "--out", str(found)]),
           has("found [[6,1,3:0]] generator choice", "pivot: IIIZIZ",
               "even-weight string: 00011")),
        Op("bounds --check 22 15", lambda: cli_call(["bounds", "--check", "22", "15"]),
           has("qds_hamming: True", "impure_bound: True", "conjectured_bound: True")),
        Op("bounds --table 19..26", lambda: cli_call(["bounds", "--table", "19..26"]),
           has("n,singleton_k,hamming_k,impure_k,conjecture_k\n19,15,13,13,12\n",
               "\n26,22,19,19,18\n")),
        Op("bounds --families 3", lambda: cli_call(["bounds", "--families", "3"]),
           has("[[5,1,3]]\n", "[[21,15,3]]\n")),
    ]


def error_ops(workdir: Path) -> list[Op]:
    """Documented error exits that are not covered by the moved-code ops."""
    bs25 = workdir / "bacon-shor-25.txt"
    bs25.write_text(code_file_text(bacon_shor_gauge_rows(5), gauge=True))
    return [
        Op("check bacon-shor-25 (n > 16, exit 2)",
           lambda: cli_call(["check", "--code", str(bs25)]),
           expect_exit(cli.EXIT_INPUT, "n=25")),
        Op("simulate fig1-shor-sm without data (exit 5)",
           lambda: cli_call(["simulate", "--scheme", "fig1-shor-sm", "--pm-log2=-3"]),
           lambda outcome: (None if outcome[0] == cli.EXIT_MISSING_DATA
                            and "grassl-18-6-8" in outcome[2]
                            else f"exit {outcome[0]}, documented 5: {outcome[2][:80]!r}")),
    ]


VERIFY_VARIANTS = 2
VERIFY_MOVES = 8


def verify(rng: random.Random, workdir: Path) -> Workload:
    ops = readme_ops(workdir) + error_ops(workdir)
    for name, base in verify_bases().items():
        for v in range(VERIFY_VARIANTS):
            path = workdir / f"{name}-v{v}.txt"
            path.write_text(code_file_text(random_moves(rng, base.rows, VERIFY_MOVES), base.gauge))
            ops += moved_code_ops(base, path, workdir)
    rng.shuffle(ops)
    return Workload(ops, readme_ops(workdir)[0])


BUILDERS = {"curves": curves, "montecarlo": montecarlo, "verify": verify}


def build(name: str, rng: random.Random, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    workload = BUILDERS[name](rng, workdir)
    if len({op.name for op in workload.ops}) != len(workload.ops):
        raise ValueError(f"{name}: op names in a round must be unique")
    return workload
