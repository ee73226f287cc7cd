"""Command-line interface.

Subcommands: catalog, check, construct, search-impure, bounds, simulate,
each declared once in ``COMMANDS`` (help line, handler, arguments). A call
that names its command builds only that command's parser, since a shell
user pays for every parser built on every run; help, a missing or unknown
command, and a leading ``--`` go through the full tree of ``build_parser``.
For the same reason each handler imports the modules it calls, so
``bounds`` runs without numpy and only ``simulate`` loads ``noise``.
Exit codes: 0 success, 2 input error, 3 violated precondition, 4 internal
defect (a search the theory guarantees cannot fail found nothing), 5
missing external data (import-only SM code matrices, resolved from
--data-dir or the QDS_DATA_DIR environment variable).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import (
    AvailabilityError,
    CapacityError,
    ConstructionFailureError,
    PreconditionError,
    QDSError,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_DEFECT = 4
EXIT_MISSING_DATA = 5

# points in a --pm-log2 range
MAX_GRID_POINTS = 10000


def _load_code(spec: str):
    from . import codes as codes_mod

    if spec in codes_mod.catalog_names():
        return codes_mod.catalog(spec)
    path = Path(spec)
    if path.exists():
        return codes_mod.read_code_file(path)
    raise QDSError(f"{spec!r} is neither a catalog code nor an existing file")


def _load_sm(spec: str, data_dir: str | None):
    from . import smcodes as sm_mod

    path = Path(spec)
    if path.exists() and path.is_file():
        return sm_mod.read_binary_code_file(path)
    return sm_mod.sm_catalog(spec, data_dir)


def _code_summary(name: str, code) -> dict:
    from . import codes as codes_mod

    d = codes_mod.min_distance(code)
    if isinstance(code, codes_mod.StabilizerCode):
        return {
            "name": name,
            "kind": "stabilizer",
            "n": code.n,
            "k": code.k,
            "m": code.m,
            "d": d,
            "impure": codes_mod.is_impure(code, d),
        }
    return {
        "name": name,
        "kind": "subsystem",
        "n": code.n,
        "k": code.k,
        "r": code.r,
        "m": code.m,
        "d": d,
    }


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def cmd_catalog(args) -> int:
    from . import codes as codes_mod, smcodes as sm_mod

    if args.action == "list":
        quantum = [_code_summary(n, codes_mod.catalog(n)) for n in codes_mod.catalog_names()]
        sm = []
        for name in sm_mod.CORDARO_WAGNER_BLOCKS:
            code = sm_mod.sm_catalog(name)
            sm.append(
                {"name": name, "length": code.length, "dim": code.dim,
                 "d": code.minimum_distance()}
            )
        sm.append({"name": " / ".join(sm_mod.GENERATED_NAMES)})
        sm.append({"name": " / ".join(sorted(sm_mod.IMPORTED_PARAMS)),
                   "import": sm_mod.DATA_DIR_ENV})
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
        sys.stdout.write(codes_mod.code_file_text(codes_mod.catalog(name)))
        return EXIT_OK
    sm = _load_sm(name, args.data_dir)
    sys.stdout.write(sm_mod.binary_code_file_text(sm))
    return EXIT_OK


def cmd_check(args) -> int:
    from . import codes as codes_mod, qds as qds_mod

    code = _load_code(args.code)
    if args.subsystem and isinstance(code, codes_mod.StabilizerCode):
        raise QDSError(f"{args.code!r} is not a subsystem code")
    m = len(code.rows)
    if args.sm:
        qds = qds_mod.build_qds(code, _load_sm(args.sm, args.data_dir))
    else:
        qds = qds_mod.identity_qds(code)
    base_d = codes_mod.min_distance(code)
    qds_d = qds.distance
    report = {
        "n": code.n,
        "k": code.k,
        "r": code.r,
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
    params = qds_mod.QDSParams(code.n, code.k, code.r, base_d, qds.l)
    print(f"{params} QDS: {'yes' if report['qds'] else 'no'}")
    for key in ("n", "k", "r", "m", "impure", "base_distance", "qds_distance", "l",
                "total_measurements"):
        print(f"  {key}: {report[key]}")
    print(f"  measured_weights: {report['measured_weights']}")
    return EXIT_OK


def cmd_construct(args) -> int:
    from . import qds as qds_mod, smcodes as sm_mod

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
    from . import codes as codes_mod, qds as qds_mod

    code = _load_code(args.code)
    if not isinstance(code, codes_mod.StabilizerCode):
        raise QDSError("search-impure operates on stabilizer codes")
    result = qds_mod.impure_zero_redundancy(code)
    params = qds_mod.qds_params(result.qds)
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
            result.qds.base, args.out, comment=f"zero-redundancy generators found for {args.code}"
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


def _integers(values: list[str], usage: str, given: str) -> list[int]:
    """values as integers; a value that is not one is refused with usage,
    which names the option and the form it takes, and the given text."""
    try:
        return [int(v) for v in values]
    except ValueError:
        raise QDSError(f"{usage}, got {given!r}") from None


def _parse_range(spec: str) -> tuple[int, int]:
    lo, sep, hi = spec.partition("..")
    if not sep:
        raise QDSError(f"expected n1..n2, got {spec!r}")
    lo, hi = _integers([lo, hi], "--table takes n1..n2 with integer n1, n2", spec)
    return lo, hi


def cmd_bounds(args) -> int:
    from . import bounds as bounds_mod

    given = [x for x in (args.check, args.table, args.families) if x is not None]
    if len(given) != 1:
        raise QDSError("choose exactly one of --check, --table, --families")
    if args.check is not None:
        if not 2 <= len(args.check) <= 4:
            raise QDSError(f"--check takes n k [d l], got {' '.join(args.check)!r}")
        # d defaults to 3 and l to 0
        n, k, d, l = (_integers(args.check, "--check takes integers n k [d l]",
                                " ".join(args.check))
                      + [3, 0][len(args.check) - 2 :])
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
    (a_max,) = _integers([args.families], "--families takes an integer A_MAX", args.families)
    fams = bounds_mod.pure_only_families(a_max)
    if args.json:
        _print_json([{"n": n, "k": k} for n, k in fams])
    else:
        for n, k in fams:
            print(f"[[{n},{k},3]]")
    return EXIT_OK


def _parse_pm_grid(spec: str) -> list[float]:
    if not isinstance(spec, str):
        # argparse reads the value of --pm-log2=-- as the end of options and passes []
        raise QDSError("--pm-log2 needs a value, such as --pm-log2=-2..-8:0.5")
    if ".." not in spec:
        value = float(spec)
        if math.isnan(value):
            raise QDSError(f"log2 p_m must be a number, got {spec!r}")
        return [value]
    start_s, _, rest = spec.partition("..")
    end_s, _, step_s = rest.partition(":")
    start, end = float(start_s), float(end_s)
    step = abs(float(step_s)) if step_s else 0.5
    if not all(map(math.isfinite, (start, end, step))):
        raise QDSError(f"grid bounds and step must be finite, got {spec!r}")
    if step == 0:
        raise QDSError("step must be nonzero")
    # the slack keeps an end point that the division lands just below
    steps = abs(end - start) / step + 1e-9
    if steps >= MAX_GRID_POINTS:
        raise CapacityError(f"grid {spec!r} exceeds the cap of {MAX_GRID_POINTS} points")
    if end < start:
        step = -step
    return [round(start + i * step, 12) for i in range(math.floor(steps) + 1)]


def cmd_simulate(args) -> int:
    from . import noise as noise_mod

    if args.trials < 1:
        raise QDSError("--trials must be positive")
    if args.seed < 0:
        raise QDSError("--seed must be non-negative")
    grid = _parse_pm_grid(args.pm_log2)
    scheme = noise_mod.build_scheme(args.scheme, args.data_dir, decoder=args.decoder)
    rows = noise_mod.sweep(
        scheme, grid, method=args.method, trials=args.trials, seed=args.seed
    )
    print(f"total_measurements: {scheme.total_measurements}")
    text = noise_mod.sweep_csv(rows)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


_JSON = (("--json",), {"action": "store_true"})
_DATA_DIR = (("--data-dir",), {"default": None})


def _simulate_arguments():
    """simulate's declarations, which name noise's schemes and decoders; they
    are built only with simulate's parser, so no other command imports noise."""
    from . import noise as noise_mod

    return (
        (("--scheme",), {"required": True,
                         "help": ", ".join(noise_mod.SCHEMES)}),
        (("--pm-log2",), {"required": True,
                          "help": "a..b:step or a single value; write --pm-log2=-2..-8:0.5 "
                                  "so the leading minus is not read as a flag"}),
        (("--method",), {"choices": ("exact", "mc", "auto"), "default": "auto"}),
        (("--trials",), {"type": int, "default": 10**6}),
        (("--seed",), {"type": int, "default": 0}),
        (("--decoder",), {"choices": noise_mod.DECODERS, "default": noise_mod.COSET_LEADER}),
        (("--out",), {"default": None}),
        _DATA_DIR,
    )


# name -> (help in the command list, handler, add_argument declarations or a
# function returning them)
COMMANDS = {
    "catalog": ("list bundled codes or show one", cmd_catalog, (
        (("action",), {"choices": ("list", "show")}),
        (("name",), {"nargs": "?", "help": "code name (for show)"}),
        _JSON,
        _DATA_DIR,
    )),
    "check": ("verify a code and report its QDS parameters", cmd_check, (
        (("--code",), {"required": True, "help": "catalog name or code file"}),
        (("--sm",), {"default": None, "help": "SM code name or file (default: identity)"}),
        (("--subsystem",), {"action": "store_true",
                            "help": "require the input to be a subsystem code"}),
        _JSON,
        _DATA_DIR,
    )),
    "construct": (
        "attach the single-parity-measurement SM code to a distance-3 code", cmd_construct, (
            (("--code",), {"required": True}),
            (("--out-sm",), {"default": None, "help": "write the parity SM generator here"}),
            _JSON,
        )),
    "search-impure": (
        "find zero-redundancy QDS generators for an impure distance-3 code", cmd_search_impure, (
            (("--code",), {"required": True}),
            (("--out",), {"default": None, "help": "write the found generator rows here"}),
            _JSON,
        )),
    "bounds": ("bound checks, region tables, parameter families", cmd_bounds, (
        (("--check",), {"nargs": "+", "metavar": "N", "default": None,
                        "help": "n k [d l]: evaluate all bound verdicts"}),
        (("--table",), {"default": None, "metavar": "N1..N2",
                        "help": "emit the region table as CSV"}),
        (("--families",), {"default": None, "metavar": "A_MAX",
                           "help": "enumerate pure-only parameter families"}),
        _JSON,
    )),
    "simulate": ("sweep p_se over a p_m grid", cmd_simulate, _simulate_arguments),
}


def _declare(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Add command `name`'s arguments and its `command`/`func` defaults to `parser`."""
    _, func, arguments = COMMANDS[name]
    if callable(arguments):
        arguments = arguments()
    for flags, kwargs in arguments:
        parser.add_argument(*flags, **kwargs)
    parser.set_defaults(command=name, func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full command tree, for help, a missing or unknown command, and a leading '--'."""
    parser = argparse.ArgumentParser(
        prog="qdscodes",
        description="Quantum data-syndrome codes: construction, verification, bounds, simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _declare(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in COMMANDS:
        parser = _declare(argparse.ArgumentParser(prog=f"qdscodes {argv[0]}"), argv[0])
        args = parser.parse_args(argv[1:])
    else:
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
