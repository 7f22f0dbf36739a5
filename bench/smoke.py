"""Smoke test of the benchmark itself.

Runs every workload at its smallest size with two seeds, and checks that a
corrupted expected value is counted as a failure instead of crashing the
loop.  Run either way:

    python3 -m pytest -q bench/smoke.py
    python3 bench/smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import families as F  # noqa: E402
import reference as R  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from spans import NullTracer  # noqa: E402

NULL = NullTracer()


def smallest(name, seed):
    return W.SETUPS[name](seed, ROOT, True, NULL)


def test_every_workload_passes_at_its_smallest_size():
    for name in W.SETUPS:
        for seed in (1, 2):
            wl = smallest(name, seed)
            m = run.measure(wl, 0, NULL)
            assert m["failures"] == [], (name, seed, m["failures"])
            assert len(m["latencies"]) == len(wl.round(0)) > 0


def corrupted_ops():
    """One op per workload whose expected answer is wrong."""
    rng = random.Random(1)
    torus = F.coned_torus(4)
    torus.expect["betti"] = (1, 0, 1)
    double = F.m_double(2, 2, rng)
    double.expect["relative_h1"] += 1
    gram, values, brown = F.z4_form(6, rng)
    expected = W.load_cli_expected()
    key = " ".join(W.README_COMMANDS[-1])
    expected[key] = dict(expected[key], sha256="0" * 64)
    return {
        "homology-scaling": W.homology_op(torus, "homology"),
        "real-structures": W.m_double_op(double),
        "invariants": W.brown_op(6, gram, values, (brown + 1) % 8),
        "cli-cold": W.cli_op(W.README_COMMANDS[-1], ROOT, W.cli_env(ROOT), expected),
    }


def test_corrupted_expected_value_is_a_failure_not_a_crash():
    for name, bad in corrupted_ops().items():
        wl = smallest(name, 1)
        ops = wl.round(0)
        wl.rounds = [[bad] + ops]
        m = run.measure(wl, 0, NULL)
        assert len(m["latencies"]) == len(ops) + 1, name
        assert len(m["failures"]) == 1 and "Mismatch" in m["failures"][0], (name, m["failures"])


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = run.tail([i / 100 for i in range(100)])
    assert (value, pct, beyond) == (0.89, 90.0, 10)
    assert run.tail([0.5]) == (0.5, 100.0, 0)


def test_reference_clock_scales_by_the_kernel():
    passes = iter([2 * R.REFERENCE_S, 4 * R.REFERENCE_S, 2 * R.REFERENCE_S])
    saved = R.reference_seconds
    R.reference_seconds = lambda: next(passes)
    try:
        clock = R.Clock()
        out, wall, ref = clock.time(lambda: 7)
        assert out == 7 and abs(ref - wall / 3) < 1e-12
        _, wall, ref = clock.time(lambda: None)
        assert abs(ref - wall / 3) < 1e-12
        assert len(clock.scales) == 2 and all(abs(x - 1 / 3) < 1e-12 for x in clock.scales)
    finally:
        R.reference_seconds = saved


def test_last_line_is_the_result_object():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "invariants", "--seed", "3", "--seconds", "0"]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = run.load_spec()
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
