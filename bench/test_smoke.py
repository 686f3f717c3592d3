"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest bench/test_smoke.py

Checks that every metric BENCHMARK.json names comes out with its unit on
every workload, that metric names keep to the allowed characters, that a
wrong expectation is counted as failed operations instead of crashing the
run, and that tracing leaves the program's names and outputs untouched.
"""

import dataclasses
import json
import math
import re

import pytest

from checkout import ROOT, use_checkout_sources

use_checkout_sources()

import run  # noqa: E402
from tracer import patched_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEED = 3


def tiny(workload, **changes):
    """The workload on its smallest dimension with a short pool."""
    dims = workload.dims[:1]
    return dataclasses.replace(workload, dims=dims, pool=6, trace_reports=len(dims),
                               **changes)


def tiny_run(workload, trace):
    return run.run(workload, SEED, 0.2, trace, window_s=0.1, cold_n=1, setup_n=1,
                   warmup_s=0.0)


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


def test_metric_names_use_allowed_characters():
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in SPEC[group]:
            assert NAME.fullmatch(entry["name"]), entry["name"]


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_appears_with_its_unit(name, trace):
    result, detail = tiny_run(tiny(WORKLOADS[name]), trace)
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    for key, metric in result["metrics"].items():
        assert NAME.fullmatch(key)
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), key
    ungated = detail["ungated_metrics"]
    assert ungated["failed_frac"] == {"value": 0.0, "unit": "frac"}
    if not trace:
        assert ungated["report_p90_s"]["unit"] == "s"
        assert ungated["report_p90_s"]["value"] >= result["metrics"]["report_p50_s"]["value"]
    assert detail["digests"]["mismatched_reports"] == 0


def test_wrong_expectation_is_counted_not_raised():
    workload = WORKLOADS["cp_lindblad"]
    result, detail = tiny_run(tiny(workload, expect_violated=True), False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert detail["ungated_metrics"]["failed_frac"]["value"] == 1.0
    assert "contradicts the instance" in detail["failures"][0]


def test_traced_runs_repeat_counts_and_restore_names():
    workload = tiny(WORKLOADS["violated_flip"])
    first, first_detail = tiny_run(workload, True)
    second, second_detail = tiny_run(workload, True)
    assert patched_names() == []
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] == "count/report" or k.endswith("distinct_frac")}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert first_detail["digests"] == second_detail["digests"]
    samples = first_detail["samples"]
    assert samples["self_sum_s"] <= samples["traced_wall_s"]
