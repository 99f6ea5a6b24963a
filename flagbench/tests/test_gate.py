"""Self-test of the benchmark's correctness gate.

    python3 -m pytest flagbench/tests -q

A wrong output or an Unsolvable raised by the sign solver must raise
failed_frac above zero; a clean pass must leave it at zero.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import env  # noqa: E402

env.use_checkout_sources()

import flagcoh  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SMALL = ("A4", "D4")  # the cheap types of the cohomology workloads


@pytest.fixture(scope="module")
def reference() -> dict:
    with open(env.REFERENCE) as fh:
        return json.load(fh)


def _small_items(reference, workload="cohomology-split"):
    items = workloads.make_items(workload, 7, reference)
    return [it for it in items if it.lie_type in SMALL]


def _run(reference, items, traced=False):
    result = workloads.PassRunner(reference, Tracer(traced)).run(items)
    failed = [r["id"] for r in result["items"] if not r["ok"]]
    return len(failed) / len(result["items"]), failed, result


def test_items_depend_only_on_seed(reference):
    for w in workloads.WORKLOADS:
        assert workloads.make_items(w, 3, reference) == workloads.make_items(w, 3, reference)
    a, b = (workloads.make_items("pq-sweep", s, reference) for s in (3, 4))
    assert a != b and sorted(a, key=repr) == sorted(b, key=repr)  # the seed only reorders


@pytest.mark.parametrize("workload", ["cohomology-split", "cohomology-whole"])
def test_clean_pass_has_no_failures(reference, workload):
    frac, failed, _ = _run(reference, _small_items(reference, workload))
    assert frac == 0, failed


def test_corrupted_cohomology_reference_is_counted(reference):
    bad = copy.deepcopy(reference)
    bad["cohomology"]["A4"]["----"]["free"][0] += 1
    frac, failed, _ = _run(bad, _small_items(bad))
    assert frac > 0
    assert failed == ["coh:A4:----"]


def test_corrupted_flow_reference_is_counted(reference):
    items = [it for it in workloads.make_items("tau-flow", 7, reference) if it.kind == "flow"]
    r, k = items[0].arg
    bad = copy.deepcopy(reference)
    bad["flow"][str(r)][k]["zeros"] += 1
    frac, failed, _ = _run(bad, items[:3])
    assert frac > 0
    assert failed == [items[0].id]


def test_injected_unsolvable_is_counted(reference, monkeypatch):
    real = flagcoh.cohomology.assign_signs

    def solver(graph, *args, **kwargs):
        if str(graph.group.lie_type) == "D4":
            raise flagcoh.Unsolvable("injected")
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(flagcoh.cohomology, "assign_signs", solver)
    items = _small_items(reference)
    frac, failed, result = _run(reference, items, traced=True)
    d4 = [it.id for it in items if it.lie_type == "D4"]
    assert frac > 0
    assert sorted(failed) == sorted(d4)
    assert result["counters"]["cohomology.assign_signs.unsolvable"] == len(d4)


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(env.HERE, tmp_path / "flagbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "flagbench/run.py", "--workload", "tau-flow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    one = {"wall_s": 1.0, "max_rss_kb": 1024, "counters": {}, "self_s": {},
           "items": [{"seconds": 0.5}]}
    e2e = run._end_to_end_metrics([one], [{"setup_s": 0.1}])
    layers = run._layer_metrics([one], [one])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, u) for k, (_, u) in e2e.items()]
    assert sorted((m["name"], m["unit"]) for m in spec["per_layer"]) == sorted(
        (k, u) for k, (_, u) in layers.items()
    )
