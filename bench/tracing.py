"""Spans recorded from the benchmark's side of each call into a qdscodes module.

Tracing wraps module-level public functions (and the coset-table property)
with span recorders while a traced round runs, and removes the wrappers
afterwards.  Only coarse boundaries (about a millisecond or more) are
wrapped; gf4 and f2 are timed by batched microcalls instead, because a
wrapper would cost as much as the call.  Spans stay in memory and are
written out when the worker ends.  Nothing here feeds an end-to-end metric.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict

from qdscodes import bounds, cli, codes, f2, gf4, noise, qds, smcodes
from qdscodes.errors import QDSError

LAYERS = ("cli", "noise", "smcodes", "qds", "codes", "gf4", "f2", "bounds")
MODULES = (bounds, cli, codes, f2, gf4, noise, qds, smcodes)


def _decoder(scheme, *_, **__) -> str:
    sm = [p for p in scheme.parts if isinstance(p, noise.SMPart)]
    return sm[0].decoder if sm else "repetition"


def _errors_below(n: int, d: int) -> int:
    """F4 vectors of weight < d on n coordinates: sum C(n, w) 3^w."""
    return sum(math.comb(n, w) * 3**w for w in range(d))


# (module, function, label from the call's arguments, counts from its result).
# Calls of about a millisecond or more, plus the cheaper ones a metric names.
WRAPPED = [
    (cli, "main", None, None),
    (noise, "build_scheme", None, None),
    (noise, "sweep", None, None),
    (noise, "pse_exact", _decoder, None),
    (noise, "pse_monte_carlo", _decoder,
     lambda r, scheme, p_m, trials, seed=0, chunk_size=noise.DEFAULT_CHUNK_SIZE:
     {"trials": trials, "chunks": -(-trials // chunk_size)}),
    (noise, "sweep_csv", None, None),
    (smcodes, "parse_binary_code_text", None, None),
    (codes, "read_code_file", None, None),
    (codes, "min_distance", lambda code, *_, **__: f"n{code.n}",
     lambda d, code, *_, **__: {"vectors": _errors_below(code.n, d)}),
    (codes, "is_impure", None, None),
    (qds, "qds_min_distance", None,
     lambda d, code, *_, **__: {"vectors": _errors_below(code.n, d)}),
    (qds, "augment_parity", None, None),
    (qds, "impure_zero_redundancy", None,
     lambda result, *_, **__: {"strings": result.strings_examined}),
    (bounds, "region_table", None, None),
    (bounds, "pure_only_families", None, None),
]


class Tracer:
    """Spans as [name, start, end, parent index, op id, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id: int | str | None = None
        self.unexpected: Counter = Counter()
        self._attributed: list[BaseException] = []
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name, fn, args, kwargs, count=None):
        span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
                self.op_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span[2], span[5] = time.perf_counter(), {"error": type(exc).__name__}
            if not isinstance(exc, QDSError) and not any(e is exc for e in self._attributed):
                self._attributed.append(exc)
                self.unexpected[name.split(".")[0]] += 1
            raise
        finally:
            self.stack.pop()
        span[2] = time.perf_counter()
        if count is not None:
            span[5] = count(result, *args, **kwargs)
        return result

    def _wrapper(self, name, fn, label, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            full = name if label is None else f"{name}.{label(*args, **kwargs)}"
            return self.call(full, fn, args, kwargs, count)
        return wrapper

    def install(self) -> None:
        """Replace every binding of each wrapped function in the qdscodes modules."""
        for module, attr, label, count in WRAPPED:
            original = getattr(module, attr)
            wrapper = self._wrapper(f"{module.__name__.split('.')[-1]}.{attr}", original,
                                    label, count)
            for m in MODULES:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, value))
                        setattr(m, key, wrapper)
        prop = smcodes.BinaryLinearCode.__dict__["coset_table"]
        tracer = self

        def coset_table(code):
            return tracer.call(f"smcodes.coset_table.n{code.length}", prop.func, (code,), {})
        traced = functools.cached_property(coset_table)
        traced.__set_name__(smcodes.BinaryLinearCode, "coset_table")
        self._restore.append((smcodes.BinaryLinearCode, "coset_table", prop))
        smcodes.BinaryLinearCode.coset_table = traced

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def top(self, name: str, fn, *args):
        """A span opened by the benchmark itself (an op or a probe call)."""
        return self.call(name, fn, args, {})

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# ----------------------------------------------------------------------
# per-layer metrics from spans
# ----------------------------------------------------------------------

def _layer(name: str) -> str:
    return name.split(".")[0]


def span_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_time: dict[str, float] = defaultdict(float)
    entries: Counter = Counter()
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        layer = _layer(s[0])
        self_time[layer] += dur[i] - child[i]
        if s[3] < 0 or _layer(spans[s[3]][0]) != layer:
            entries[layer] += 1
        if not (s[5] and "error" in s[5]):
            by_name[s[0]].append(i)  # per-call figures use calls that returned

    def median_ms(name):
        return 1e3 * statistics.median(dur[i] for i in by_name[name])

    def rate(prefix, key):
        idx = [i for n, ix in by_name.items() if n.startswith(prefix) for i in ix]
        return sum(spans[i][5][key] for i in idx) / sum(dur[i] for i in idx)

    def mean_count(name, key):
        return statistics.fmean(spans[i][5][key] for i in by_name[name])

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        if entries[layer]:
            out[f"{layer}.self_ms"] = (1e3 * self_time[layer] / entries[layer], "ms")
    out["noise.build_scheme_ms"] = (median_ms("noise.build_scheme"), "ms")
    for dec in ("coset-leader", "weighted-ml", "repetition"):
        out[f"noise.exact_point_ms.{dec}"] = (median_ms(f"noise.pse_exact.{dec}"), "ms")
        out[f"noise.mc_trials_per_s.{dec}"] = (rate(f"noise.pse_monte_carlo.{dec}", "trials"),
                                              "trial/s")
    out["noise.sweep_csv_ms"] = (median_ms("noise.sweep_csv"), "ms")
    mc = [n for n in by_name if n.startswith("noise.pse_monte_carlo.")]
    out["noise.mc_chunks"] = (statistics.fmean(spans[i][5]["chunks"] for n in mc
                                               for i in by_name[n]), "count")
    for n in (12, 17, 18, 20):
        out[f"smcodes.coset_table_ms.n{n}"] = (median_ms(f"smcodes.coset_table.n{n}"), "ms")
    tables = [i for n, ix in by_name.items() if n.startswith("smcodes.coset_table.") for i in ix]
    words = sum(1 << int(spans[i][0].rsplit(".n", 1)[1]) for i in tables)
    out["smcodes.coset_table_words_per_s"] = (words / sum(dur[i] for i in tables), "word/s")
    out["smcodes.parse_ms"] = (median_ms("smcodes.parse_binary_code_text"), "ms")
    out["codes.read_code_ms"] = (median_ms("codes.read_code_file"), "ms")
    for n in (9, 16):
        out[f"codes.min_distance_ms.n{n}"] = (median_ms(f"codes.min_distance.n{n}"), "ms")
    out["codes.min_distance_vectors_per_s"] = (rate("codes.min_distance.", "vectors"),
                                               "vector/s")
    out["codes.is_impure_ms"] = (median_ms("codes.is_impure"), "ms")
    out["qds.qds_min_distance_ms"] = (median_ms("qds.qds_min_distance"), "ms")
    out["qds.vectors_searched"] = (mean_count("qds.qds_min_distance", "vectors"), "count")
    out["qds.impure_search_ms"] = (median_ms("qds.impure_zero_redundancy"), "ms")
    out["qds.strings_examined"] = (mean_count("qds.impure_zero_redundancy", "strings"), "count")
    out["qds.augment_parity_ms"] = (median_ms("qds.augment_parity"), "ms")
    out["bounds.region_table_ms"] = (median_ms("bounds.region_table"), "ms")
    out["bounds.families_ms"] = (median_ms("bounds.pure_only_families"), "ms")
    return out


# ----------------------------------------------------------------------
# batched microcalls
# ----------------------------------------------------------------------

def _per_call_s(fn, inputs, repeats=5) -> tuple[float, float]:
    """(median seconds per call over repeated batches, total seconds spent)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for args in inputs:
            fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / len(inputs), sum(times)


def _random_f4(rng: random.Random, n: int) -> gf4.F4Vector:
    return gf4.F4Vector(n, rng.getrandbits(n), rng.getrandbits(n))


def microcalls(rng: random.Random) -> dict[str, tuple[float, str]]:
    """gf4, f2 and single-word decoder costs on seed-drawn inputs."""
    n, batch = 16, 2000
    rows = [_random_f4(rng, n) for _ in range(15)]
    vecs = [(_random_f4(rng, n), _random_f4(rng, n)) for _ in range(batch)]
    out: dict[str, tuple[float, str]] = {}
    gf4_total = 0.0
    for name, fn, inputs in (
        ("syndrome", gf4.syndrome, [(rows, u) for u, _ in vecs]),
        ("trace_inner_product", gf4.trace_inner_product, vecs),
        ("add", gf4.F4Vector.__add__, vecs),
    ):
        per_call, total = _per_call_s(fn, inputs)
        out[f"gf4.{name}_ns"] = (1e9 * per_call, "ns")
        gf4_total += total
    out["gf4.self_ms"] = (1e3 * gf4_total, "ms")

    basis = f2.Basis(rng.getrandbits(2 * n) for _ in range(15))
    words = [(rng.getrandbits(2 * n),) for _ in range(batch)]
    per_call, contains_total = _per_call_s(basis.contains, words)
    out["f2.basis_contains_ns"] = (1e9 * per_call, "ns")
    matrices = [([rng.getrandbits(2 * n) for _ in range(15)],) for _ in range(batch // 10)]
    per_call, rank_total = _per_call_s(f2.rank, matrices)
    out["f2.rank_us"] = (1e6 * per_call, "us")
    out["f2.self_ms"] = (1e3 * (contains_total + rank_total), "ms")

    code = smcodes.sm_catalog("cw-12-2-8")
    code.coset_table  # built outside the timed batches
    received = [(code, gf4.BitVector(12, rng.getrandbits(12))) for _ in range(200)]
    per_call, _ = _per_call_s(smcodes.coset_leader_decode, received)
    out["smcodes.coset_leader_decode_us"] = (1e6 * per_call, "us")
    scheme = noise.build_scheme("fig1-bs-sm", decoder="weighted-ml")
    probs = [noise.p_err(w, 2.0**-4) for w in scheme.parts[0].weights]
    per_call, _ = _per_call_s(smcodes.weighted_ml_decode,
                              [(c, r, probs) for c, r in received[:50]])
    out["smcodes.weighted_ml_decode_us"] = (1e6 * per_call, "us")
    return out


def coset_table_peak_mb(rows: list[str]) -> float:
    """tracemalloc peak around one coset-table build (length-20 code)."""
    code = smcodes.parse_binary_code_text("\n".join(rows))
    tracemalloc.start()
    try:
        code.coset_table
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# ----------------------------------------------------------------------
# the layer probe suite: every wrapped boundary at least once per traced run
# ----------------------------------------------------------------------

def layer_probes(tracer: Tracer, workdir, sm20_rows: list[str], surface16: str) -> None:
    """Direct library calls so that every per-layer metric has samples on every
    workload; run with the tracer installed, after the traced rounds."""
    tracer.op_id = "layer-probes"
    path = workdir / "probe-surface-16.txt"
    path.write_text(surface16)
    steps = [
        lambda: cli.main(["bounds", "--check", "22", "15"]),
        lambda: bounds.region_table((19, 26)),
        lambda: bounds.pure_only_families(3),
        lambda: codes.min_distance(codes.catalog("shor")),
        lambda: codes.min_distance(codes.read_code_file(path)),
        lambda: codes.is_impure(codes.catalog("shor"), 3),
        lambda: qds.qds_min_distance(qds.identity_qds(codes.catalog("example-6-1-3-prime"))),
        lambda: qds.impure_zero_redundancy(codes.catalog("example-6-1-3")),
        lambda: qds.augment_parity(codes.catalog("steane")),
        lambda: smcodes.parse_binary_code_text("\n".join(sm20_rows)).coset_table,
    ]
    for name in ("cw-12-2-8", "cw-17-2-11", "cw-18-2-12"):
        steps.append(lambda name=name: smcodes.sm_catalog(name).coset_table)
    for scheme, decoder in (("fig1-bs-sm", "coset-leader"), ("fig1-bs-sm", "weighted-ml"),
                            ("fig1-bs-6fold", "coset-leader")):
        def point(scheme=scheme, decoder=decoder):
            built = noise.build_scheme(scheme, decoder=decoder)
            rows = noise.sweep(built, [-4.0], method="exact")
            rows += noise.sweep(built, [-4.0], method="mc", trials=1 << 16, seed=1)
            return noise.sweep_csv(rows)
        steps.append(point)
    for i, step in enumerate(steps):
        with contextlib.redirect_stdout(io.StringIO()):
            tracer.top(f"probe.{i}", step)
