"""Untimed probes: p_se precision at small p_m, and the long weighted-ML Monte Carlo.

Both run once per worker after its timed rounds, so they never enter an op
latency.  Their references are computed here, independently of the p_se
evaluators under test.
"""

from __future__ import annotations

import csv
import math
import random

from qdscodes import noise, smcodes
from qdscodes.errors import QDSError
from qdscodes.gf4 import BitVector
from workloads import WML, cli_call, within_sigmas

PRECISION_GRID_ARG = "--pm-log2=-12..-20:4"
PRECISION_POINTS = (-12.0, -16.0, -20.0)


def _flip_probability(w: int, p_m: float) -> float:
    """(1 - (1 - 2 p_m)^w) / 2, written without cancellation at small p_m."""
    return -math.expm1(w * math.log1p(-2.0 * p_m)) / 2.0


def reference_log2_pse(scheme: noise.MeasurementScheme, points) -> dict[float, float]:
    """log2 p_se of a coset-leader SM scheme from the failure mass alone.

    Every word of each part is classified with the public coset_leader_decode;
    the failing words' probabilities are summed with fsum, and the parts are
    combined as -expm1(sum log1p(-f_i)), so nothing is taken as 1 - success.
    """
    failing = []
    for part in scheme.parts:
        n = part.code.length
        failing.append([
            word for word in range(1 << n)
            if not ((out := smcodes.coset_leader_decode(part.code, BitVector(n, word))).success
                    and out.message.bits == 0)
        ])
    result = {}
    for lp in points:
        total = 0.0
        for part, words in zip(scheme.parts, failing):
            q = [_flip_probability(w, 2.0**lp) for w in part.weights]
            f = math.fsum(
                math.prod(q[j] if (word >> j) & 1 else 1.0 - q[j] for j in range(len(q)))
                for word in words
            )
            total += math.log1p(-f)
        result[lp] = math.log2(-math.expm1(total))
    return result


def precision_probe() -> dict:
    """max |log2 p_se (CLI, exact) - log2 p_se (reference)| for fig1-bs-sm."""
    code, out, err = cli_call(["simulate", "--scheme", "fig1-bs-sm", PRECISION_GRID_ARG,
                               "--method", "exact"])
    if code != 0:
        raise RuntimeError(f"precision probe: simulate exited {code}: {err.strip()}")
    rows = list(csv.reader(out.strip().split("\n")[2:]))
    library = {float(r[0]): float(r[1]) for r in rows}
    reference = reference_log2_pse(noise.build_scheme("fig1-bs-sm"), PRECISION_POINTS)
    errors = {lp: abs(library[lp] - reference[lp]) for lp in PRECISION_POINTS}
    return {"pse_log2_err": max(errors.values()),
            "points": {str(lp): {"library": library[lp], "reference": reference[lp],
                                 "abs_err_bits": errors[lp]} for lp in PRECISION_POINTS}}


def dim2_weighted_ml_exact(rows: tuple[int, int], q: float) -> float:
    """Exact p_se of a dimension-2 code under one flip probability q.

    With one likelihood class, weighted ML is minimum-distance decoding and
    the zero word is decoded iff |e & c| < |c| / 2 for each nonzero codeword
    c.  The codewords r1, r2, r1 ^ r2 cover three column blocks, so the
    success mass is a triple sum over per-block flip counts.
    """
    r1, r2 = rows
    a, b, c = (r1 & ~r2).bit_count(), (r1 & r2).bit_count(), (r2 & ~r1).bit_count()

    def binom(n):
        return [math.comb(n, x) * q**x * (1.0 - q) ** (n - x) for x in range(n + 1)]
    pa, pb, pc = binom(a), binom(b), binom(c)
    ok = math.fsum(
        pa[x] * pb[y] * pc[z]
        for x in range(a + 1) for y in range(b + 1) for z in range(c + 1)
        if 2 * (x + y) < a + b and 2 * (y + z) < b + c and 2 * (x + z) < a + c
    )
    return 1.0 - ok


def long_weighted_ml_probe(rng: random.Random) -> dict:
    """Weighted-ML Monte Carlo on a seed-generated dimension-2 code longer than 32.

    Known defect at the commit that added this benchmark: packing words into
    uint32 raises a raw OverflowError.  The outcome is reported by the probe
    (and by noise.errors_unexpected in a traced run), outside the timed ops.
    """
    length = rng.randrange(33, 41)
    while True:
        r1, r2 = rng.getrandbits(length), rng.getrandbits(length)
        if r1 and r2 and r1 != r2:
            break
    weight, log2_pm, trials = rng.choice((2, 4, 6)), -4.0, 1 << 16
    code = smcodes.BinaryLinearCode(length, (r1, r2), f"random-{length}-2")
    scheme = noise.MeasurementScheme(code.name, (noise.SMPart(code, (weight,) * length, WML),))
    record = {"op": f"pse_monte_carlo weighted-ml [{length},2] weight {weight}"}
    try:
        got = noise.pse_monte_carlo(scheme, 2.0**log2_pm, trials, seed=rng.randrange(1 << 31))
    except QDSError as exc:
        return record | {"outcome": "refused", "detail": f"{type(exc).__name__}: {exc}"}
    except Exception as exc:  # noqa: BLE001 - the defect this probe reports
        return record | {"outcome": "unexpected-exception",
                         "detail": f"{type(exc).__name__}: {exc}"}
    exact = dim2_weighted_ml_exact((r1, r2), _flip_probability(weight, 2.0**log2_pm))
    ok = within_sigmas(got.p_se, exact, trials)
    return record | {"outcome": "ok" if ok else "wrong",
                     "detail": f"mc {got.p_se:.6g} vs exact {exact:.6g}"}
