"""Command-line interface.

Subcommands: catalog, check, construct, search-impure, bounds, simulate.
Exit codes: 0 success, 2 input error, 3 violated precondition, 4 internal
defect (a search the theory guarantees cannot fail found nothing), 5
missing external data (import-only SM code matrices, resolved from
--data-dir or the QDS_DATA_DIR environment variable).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import codes as codes_mod
from . import noise as noise_mod
from . import qds as qds_mod
from . import smcodes as sm_mod
from .errors import (
    AvailabilityError,
    ConstructionFailureError,
    PreconditionError,
    QDSError,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_DEFECT = 4
EXIT_MISSING_DATA = 5


def _load_code(spec: str):
    if spec in codes_mod.catalog_names():
        return codes_mod.catalog(spec)
    path = Path(spec)
    if path.exists():
        return codes_mod.read_code_file(path)
    raise QDSError(f"{spec!r} is neither a catalog code nor an existing file")


def _load_sm(spec: str, data_dir: str | None):
    path = Path(spec)
    if path.exists() and path.is_file():
        return sm_mod.read_binary_code_file(path)
    return sm_mod.sm_catalog(spec, data_dir)


def _code_summary(name: str, code) -> dict:
    if isinstance(code, codes_mod.SubsystemCode):
        return {
            "name": name,
            "kind": "subsystem",
            "n": code.n,
            "k": code.k,
            "r": code.r,
            "m": code.m,
            "d": codes_mod.min_distance(code),
        }
    d = codes_mod.min_distance(code)
    return {
        "name": name,
        "kind": "stabilizer",
        "n": code.n,
        "k": code.k,
        "m": code.m,
        "d": d,
        "impure": codes_mod.is_impure(code, d),
    }


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def cmd_catalog(args) -> int:
    if args.action == "list":
        quantum = [_code_summary(n, codes_mod.catalog(n)) for n in codes_mod.catalog_names()]
        sm = []
        for name in sm_mod.CORDARO_WAGNER_BLOCKS:
            code = sm_mod.sm_catalog(name)
            sm.append(
                {"name": name, "length": code.length, "dim": code.dim,
                 "d": code.minimum_distance()}
            )
        sm.append({"name": "parity-<m> / repetition-<l> / identity-<m>"})
        sm.append({"name": "grassl-18-6-8 / grassl-25-6-11", "import": "QDS_DATA_DIR"})
        if args.json:
            _print_json({"quantum": quantum, "sm": sm})
            return EXIT_OK
        print("quantum codes:")
        for entry in quantum:
            params = (
                f"[[{entry['n']},{entry['k']},{entry['r']},{entry['d']}]]"
                if entry["kind"] == "subsystem"
                else f"[[{entry['n']},{entry['k']},{entry['d']}]]"
            )
            extra = " impure" if entry.get("impure") else ""
            print(f"  {entry['name']:<22} {params}{extra}")
        print("sm codes:")
        for entry in sm:
            if "length" in entry:
                print(f"  {entry['name']:<22} [{entry['length']},{entry['dim']},{entry['d']}]")
            else:
                print(f"  {entry['name']}")
        return EXIT_OK
    # show
    name = args.name
    if name in codes_mod.catalog_names():
        code = codes_mod.catalog(name)
        if isinstance(code, codes_mod.SubsystemCode):
            print("GAUGE")
            for row in code.gauge.rows:
                print(str(row))
        else:
            for row in code.rows:
                print(str(row))
        return EXIT_OK
    sm = _load_sm(name, args.data_dir)
    sys.stdout.write(sm_mod.binary_code_file_text(sm))
    return EXIT_OK


def cmd_check(args) -> int:
    code = _load_code(args.code)
    if args.subsystem and not isinstance(code, codes_mod.SubsystemCode):
        raise QDSError(f"{args.code!r} is not a subsystem code")
    m = len(code.rows)
    sm = _load_sm(args.sm, args.data_dir) if args.sm else sm_mod.sm_catalog(f"identity-{m}")
    qds = qds_mod.build_qds(code, sm)
    base_d = codes_mod.min_distance(code)
    qds_d = qds_mod.qds_min_distance(qds)
    r = code.r if isinstance(code, codes_mod.SubsystemCode) else 0
    report = {
        "n": code.n,
        "k": code.k,
        "r": r,
        "m": m,
        "impure": codes_mod.is_impure(code, base_d),
        "base_distance": base_d,
        "qds_distance": qds_d,
        "l": qds.l,
        "measured_weights": list(qds.weights),
        "total_measurements": sum(qds.weights),
        "qds": qds_d >= base_d,
    }
    if args.json:
        _print_json(report)
        return EXIT_OK
    params = qds_mod.QDSParams(code.n, code.k, r, base_d, qds.l)
    print(f"{params} QDS: {'yes' if report['qds'] else 'no'}")
    for key in ("n", "k", "r", "m", "impure", "base_distance", "qds_distance", "l",
                "total_measurements"):
        print(f"  {key}: {report[key]}")
    print(f"  measured_weights: {report['measured_weights']}")
    return EXIT_OK


def cmd_construct(args) -> int:
    code = _load_code(args.code)
    qds = qds_mod.augment_parity(code)
    params = qds_mod.qds_params(qds)
    extra = qds.measured[-1]
    report = {
        "params": str(params),
        "l": qds.l,
        "extra_element": str(extra),
        "measured_weights": list(qds.weights),
        "total_measurements": sum(qds.weights),
    }
    if args.out_sm:
        sm_mod.write_binary_code_file(qds.sm, args.out_sm, comment=f"parity SM code for {args.code}")
        report["sm_file"] = args.out_sm
    if args.json:
        _print_json(report)
    else:
        print(f"constructed {params}")
        print(f"  extra measured element: {extra}")
        print(f"  total_measurements: {report['total_measurements']}")
        if args.out_sm:
            print(f"  sm generator written to {args.out_sm}")
    return EXIT_OK


def cmd_search_impure(args) -> int:
    code = _load_code(args.code)
    if isinstance(code, codes_mod.SubsystemCode):
        raise QDSError("search-impure operates on stabilizer codes")
    result = qds_mod.impure_zero_redundancy(code)
    verified = codes_mod.make_stabilizer(result.rows)
    params = qds_mod.qds_params(qds_mod.identity_qds(verified))
    report = {
        "params": str(params),
        "pivot": str(result.pivot),
        "modifier": str(result.modifier),
        "pivots_tried": result.pivots_tried,
        "strings_examined": result.strings_examined,
        "rows": [str(r) for r in result.rows],
    }
    if args.out:
        codes_mod.write_code_file(
            verified, args.out, comment=f"zero-redundancy generators found for {args.code}"
        )
        report["file"] = args.out
    if args.json:
        _print_json(report)
    else:
        print(f"found {params} generator choice")
        print(f"  pivot: {report['pivot']}")
        print(f"  even-weight string: {report['modifier']}")
        print(f"  strings examined: {result.strings_examined}")
        for row in report["rows"]:
            print(f"  {row}")
        if args.out:
            print(f"  written to {args.out}")
    return EXIT_OK


def _parse_range(spec: str) -> tuple[int, int]:
    lo, sep, hi = spec.partition("..")
    if not sep:
        raise QDSError(f"expected n1..n2, got {spec!r}")
    return int(lo), int(hi)


def cmd_bounds(args) -> int:
    given = [x for x in (args.check, args.table, args.families) if x is not None]
    if len(given) != 1:
        raise QDSError("choose exactly one of --check, --table, --families")
    if args.check is not None:
        if not 2 <= len(args.check) <= 4:
            raise QDSError(f"--check takes n k [d l], got {' '.join(args.check)!r}")
        # d defaults to 3 and l to 0
        n, k, d, l = [int(v) for v in args.check] + [3, 0][len(args.check) - 2 :]
        report = {
            "n": n,
            "k": k,
            "d": d,
            "l": l,
            "qds_hamming": bounds_mod.qds_hamming(bounds_mod.CodeParams(n, k, d, l)),
            "quantum_hamming": bounds_mod.quantum_hamming(n, k),
            "impure_bound": bounds_mod.impure_bound(n, k),
            "conjectured_bound": bounds_mod.conjectured_bound(n, k),
        }
        if args.json:
            _print_json(report)
        else:
            for key, value in report.items():
                print(f"{key}: {value}")
        return EXIT_OK
    if args.table is not None:
        lo, hi = _parse_range(args.table)
        rows = bounds_mod.region_table((lo, hi))
        print("n,singleton_k,hamming_k,impure_k,conjecture_k")
        for r in rows:
            print(f"{r.n},{r.singleton_k},{r.hamming_k},{r.impure_k},{r.conjecture_k}")
        return EXIT_OK
    fams = bounds_mod.pure_only_families(int(args.families))
    if args.json:
        _print_json([{"n": n, "k": k} for n, k in fams])
    else:
        for n, k in fams:
            print(f"[[{n},{k},3]]")
    return EXIT_OK


def _parse_pm_grid(spec: str) -> list[float]:
    if ".." not in spec:
        return [float(spec)]
    start_s, _, rest = spec.partition("..")
    end_s, _, step_s = rest.partition(":")
    start, end = float(start_s), float(end_s)
    step = abs(float(step_s)) if step_s else 0.5
    if step == 0:
        raise QDSError("step must be nonzero")
    if end < start:
        step = -step
    count = int(round((end - start) / step)) + 1
    if count < 1:
        raise QDSError(f"empty grid from {spec!r}")
    return [round(start + i * step, 12) for i in range(count)]


def cmd_simulate(args) -> int:
    if args.trials < 1:
        raise QDSError("--trials must be positive")
    scheme = noise_mod.build_scheme(args.scheme, args.data_dir, decoder=args.decoder)
    print(f"total_measurements: {scheme.total_measurements}")
    grid = _parse_pm_grid(args.pm_log2)
    rows = noise_mod.sweep(
        scheme, grid, method=args.method, trials=args.trials, seed=args.seed
    )
    text = noise_mod.sweep_csv(rows)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdscodes",
        description="Quantum data-syndrome codes: construction, verification, bounds, simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser("catalog", help="list bundled codes or show one")
    p_catalog.add_argument("action", choices=("list", "show"))
    p_catalog.add_argument("name", nargs="?", help="code name (for show)")
    p_catalog.add_argument("--json", action="store_true")
    p_catalog.add_argument("--data-dir", default=None)
    p_catalog.set_defaults(func=cmd_catalog)

    p_check = sub.add_parser("check", help="verify a code and report its QDS parameters")
    p_check.add_argument("--code", required=True, help="catalog name or code file")
    p_check.add_argument("--sm", default=None, help="SM code name or file (default: identity)")
    p_check.add_argument("--subsystem", action="store_true",
                         help="require the input to be a subsystem code")
    p_check.add_argument("--json", action="store_true")
    p_check.add_argument("--data-dir", default=None)
    p_check.set_defaults(func=cmd_check)

    p_construct = sub.add_parser(
        "construct", help="attach the single-parity-measurement SM code to a distance-3 code"
    )
    p_construct.add_argument("--code", required=True)
    p_construct.add_argument("--out-sm", default=None, help="write the parity SM generator here")
    p_construct.add_argument("--json", action="store_true")
    p_construct.set_defaults(func=cmd_construct)

    p_search = sub.add_parser(
        "search-impure", help="find zero-redundancy QDS generators for an impure distance-3 code"
    )
    p_search.add_argument("--code", required=True)
    p_search.add_argument("--out", default=None, help="write the found generator rows here")
    p_search.add_argument("--json", action="store_true")
    p_search.set_defaults(func=cmd_search_impure)

    p_bounds = sub.add_parser("bounds", help="bound checks, region tables, parameter families")
    p_bounds.add_argument("--check", nargs="+", metavar="N", default=None,
                          help="n k [d l]: evaluate all bound verdicts")
    p_bounds.add_argument("--table", default=None, metavar="N1..N2",
                          help="emit the region table as CSV")
    p_bounds.add_argument("--families", default=None, metavar="A_MAX",
                          help="enumerate pure-only parameter families")
    p_bounds.add_argument("--json", action="store_true")
    p_bounds.set_defaults(func=cmd_bounds)

    p_sim = sub.add_parser("simulate", help="sweep p_se over a p_m grid")
    p_sim.add_argument("--scheme", required=True,
                       help=", ".join(noise_mod.FIG1_SCHEMES + noise_mod.FIG2_SCHEMES))
    p_sim.add_argument("--pm-log2", required=True,
                       help="a..b:step or a single value; write --pm-log2=-2..-8:0.5 "
                            "so the leading minus is not read as a flag")
    p_sim.add_argument("--method", choices=("exact", "mc", "auto"), default="auto")
    p_sim.add_argument("--trials", type=int, default=10**6)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--decoder", choices=noise_mod.DECODERS, default=noise_mod.COSET_LEADER)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--data-dir", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "show" and not args.name:
        parser.error("catalog show requires a code name")
    try:
        return args.func(args)
    except AvailabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_DATA
    except ConstructionFailureError as exc:
        print(f"defect: {exc}", file=sys.stderr)
        return EXIT_DEFECT
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (QDSError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
