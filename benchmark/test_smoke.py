"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest -q benchmark/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from simclock import SimClock  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True,
                          cwd=cwd, timeout=170)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    return proc, last[0]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tiny_workload_passes_its_output_checks(workload, trace):
    proc, last = _bench("--workload", workload, "--seed", str(inputs.DEFAULT_SEED),
                        "--seconds", "0.1", "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(last)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] is not None for m in result["metrics"].values())


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    # anon-throttled is run by hand only: see run.py.
    assert [w["name"] for w in spec["workloads"]] == ["bulk-replay", "paged-latency"]


def test_every_default_seed_digest_is_recorded():
    recorded = json.loads(run.DIGESTS.read_text())
    assert set(recorded) == {f"{w}/{s}" for w in inputs.WORKLOADS for s in inputs.SCALES}


def test_check_catches_a_lost_issue_and_a_leaked_category():
    workload = inputs.build("bulk-replay", 0, "tiny")
    gone = next(issue for issue in workload.issues if issue.kind == "empty")
    omitted = "id,html_url,api_url,reason\n".encode()
    results = "id,html_url,api_url,comment_id,line_index,comment_line,category,confidence\n"
    match = next(issue for issue in workload.issues if issue.kind == "match")
    results += f"{match.id},u,a,{match.comments[0]['id']},0,thanks,{inputs.OMIT_CATEGORY},0.5000\n"
    summary = {"issues_searched": len(workload.issues), "issues_classified": len(workload.issues)}
    problems, _ = checks.check(workload, results.encode(), omitted, summary)
    assert any(str(gone.id) in p and "no_discussion" in p for p in problems)
    assert any("filtered category" in p for p in problems)


def test_rescale_keeps_waiting_time_and_scales_cpu_time():
    rep = {"setup_s": 0.2, "run_s": 3.0, "cpu_s": 1.0, "sim_elapsed_s": 100.0}
    scaled = run._rescale(rep, 0.5)
    assert scaled == {"setup_s": 0.1, "cpu_s": 0.5, "run_s": 2.5, "elapsed_s": 102.5}
    assert run._rescale(rep, 1.0) == {"setup_s": 0.2, "cpu_s": 1.0, "run_s": 3.0, "elapsed_s": 103.0}
    probe = hostspeed.REFERENCE_S
    assert hostspeed.speed_factor([probe * 3, probe * 2, probe * 9]) == 0.5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, last = _bench("--workload", "bulk-replay", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path, script=tmp_path / "benchmark" / "run.py")
    assert proc.returncode != 0
    assert not last.startswith("{")


def _simulate(parallelism: int):
    sys.path.insert(0, str(ROOT / "src"))
    from issuesift.github_client import RateGate

    clock = SimClock(1000.0)
    gate = RateGate(clock=clock.time, sleep=clock.sleep, wait=True, budgets={"core": (5, 100.0)})
    events = []

    def fetch(issue):
        for _ in range(3):
            gate.acquire("core")
            time.sleep(0.0002)  # a request's real latency lets other threads run
            events.append((clock.time(), issue.id))
        if issue.id % 7 == 0:
            clock.sleep(30.0)  # a Retry-After wait between two requests
            gate.acquire("core")
            events.append((clock.time(), issue.id))
        return issue.id

    issues = [SimpleNamespace(id=i) for i in range(40)]
    clock.begin_fetch([issue.id for issue in issues], parallelism)
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        done = list(pool.map(clock.wrap_fetch(fetch), issues))
    assert done == list(range(40))
    return events, clock.slept, clock.sleeps, clock.time()


def test_simulated_clock_repeats_exactly_under_thread_interleaving():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [_simulate(8) for _ in range(3)]
    finally:
        sys.setswitchinterval(old)
    events, _, _, end = runs[0]
    assert all(run_ == runs[0] for run_ in runs[1:])
    assert len(events) == 40 * 3 + 6
    assert end - 1000.0 >= 100.0 * (len(events) // 5 - 1)  # the gate's 5-per-100-s budget held
