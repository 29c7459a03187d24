"""The benchmark's own tests: smoke runs of every workload, the metric names
and counts in BENCHMARK.json, and the refusal to run without a source tree.

    python3 -m pytest bench/tests
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from tracing import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = ["enum-f21xz2", "check-mix", "recipes"]


def _run(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "7", "--seconds", "0.5", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace, spec):
    proc = _run(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_metric_names_and_counts(spec):
    e2e, layers = spec["end_to_end"], spec["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [(m["name"], m["unit"]) for m in e2e] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in layers] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_refuses_without_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "recipes", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracing_rebinds_and_restores():
    import cca

    original = cca.engine.autc_group
    tracer = Tracer()
    patches = tracer.install(cca)
    try:
        assert cca.engine.autc_group is not original
        assert cca.recipes.autc_group is cca.engine.autc_group
        G = cca.builders.build_spec("q8")
        cca.autc_group(cca.graphs.ColouredCayleyGraph(G, [2, 3, 4, 5]))
    finally:
        patches.undo()
    assert cca.engine.autc_group is original
    assert cca.recipes.autc_group is original
    summary = tracer.summary()
    assert summary["engine.autc_group"]["calls"] == 1
    assert summary["builders.build_spec"]["calls"] == 1
    assert summary["engine.autc_stabiliser"]["s"] <= \
        summary["engine.autc_group"]["s"]


def test_host_speed_excludes_sampler_time():
    from speed import HostSpeed

    speed = HostSpeed(every=0.05)
    with speed.sampling():
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            pass
        end = time.perf_counter()
    busy = speed.busy(start, end)
    assert len(speed.kernel_s) >= 5 and 0 < busy < end - start
    assert speed.reference_seconds(start, end) == pytest.approx(
        (end - start - busy) * speed.factor(start, end))
    with pytest.raises(ValueError):
        speed.factor(end, end + 1)
