"""The traced run observes without changing behaviour, and its counts agree
with the program's own counters.  Every run happens in a fresh
interpreter, as in the benchmark.  Run with ``python3 -m pytest perfbench``."""

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

import spans

HERE = pathlib.Path(__file__).resolve().parent

SPECS = {
    "plain": "RunSpec(n=24, peers=4, seed=0, horizon=10.0)",
    # two Daemon crashes (both restore a Backup), a Super-Peer crash and a
    # Spawner crash taken over by the standby: exercises restores, call
    # errors, drops from dead hosts and gossip
    "faults": (
        "RunSpec(n=24, peers=4, seed=1, horizon=10.0, gossip=True, standby=True,"
        " faults=FaultPlan.of(SuperPeerCrash(time=0.05, downtime=0.15),"
        " DaemonCrash(time=0.06, downtime=0.1), DaemonCrash(time=0.1, downtime=0.1),"
        " SpawnerCrash(time=0.08)))"
    ),
}


def run(spec: str, mode: str) -> dict:
    code = (
        "import json, worker\n"
        "from repro.exec import RunSpec\n"
        "from repro.faults import *\n"
        f"print(json.dumps(worker.run_spec({spec}, {mode!r})))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                          capture_output=True, text=True, timeout=120, check=True,
                          env={"PYTHONPATH": str(HERE.parent / "src")})
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(SPECS))
def pair(request):
    spec = SPECS[request.param]
    return run(spec, "op"), run(spec, "traced")


def test_tracing_leaves_the_run_bit_identical(pair):
    plain, traced = pair
    assert plain["result"]["converged"]
    assert traced["result"] == plain["result"]
    assert traced["events"] == plain["events"]
    assert traced["fragments"] == plain["fragments"]


def test_wrapper_counts_match_the_program_counters(pair):
    _, traced = pair
    layers, program = traced["layers"], traced["program"]
    for name in ("net.sent", "net.bytes_sent", "p2p.iterations",
                 "checkpoint.saves", "des.events"):
        assert layers[name] == program[name], name
    assert layers["p2p.iterations"] == traced["result"]["total_iterations"]
    assert layers["checkpoint.saves"] == traced["result"]["checkpoints_sent"]
    assert traced["trace_problems"] == []


def test_layer_self_times_sum_to_the_traced_window(pair):
    _, traced = pair
    total = sum(traced["layers"][name] for name in spans.SELF_METRICS)
    assert total == pytest.approx(traced["window_s"], rel=1e-9)
    assert all(traced["layers"][name] >= 0.0 for name in spans.SELF_METRICS)


def test_reported_metrics_match_benchmark_json(pair):
    import run as bench

    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == bench.PER_LAYER_UNITS
    computed_by_run = {"des.events_per_s", "trace.overhead_s"}
    assert set(pair[1]["layers"]) | computed_by_run == set(bench.PER_LAYER_UNITS)
    assert {w["name"] for w in config["workloads"]} <= set(bench.WORKLOADS)


def test_fault_spec_exercises_the_fault_layers():
    traced = run(SPECS["faults"], "traced")["layers"]
    assert traced["checkpoint.restores"] > 0
    assert traced["faults.recoveries"] > 0
    assert traced["p2p.takeover_s"] > 0
    assert traced["rmi.call_errors"] > 0
    assert traced["gossip.rumors_merged"] > 0


def test_a_seed_repeats_exactly_across_fresh_processes():
    first, second = run(SPECS["plain"], "op"), run(SPECS["plain"], "op")
    assert first["result"] == second["result"]
    assert first["events"] == second["events"]


def test_peak_rss_is_the_worker_own_not_its_parents():
    ballast = np.ones(20_000_000)  # 160 MB held while the worker starts
    worker_rss = run(SPECS["plain"], "op")["peak_rss_mb"]
    assert worker_rss < ballast.nbytes / 2**20 / 2


def test_self_time_is_duration_minus_children_and_the_rest_is_des():
    rec = spans.Recorder(traced=True)
    send = [row[0] for row in spans.SPANS].index("Network.send")
    solve = [row[0] for row in spans.SPANS].index("CgOperator.solve")
    # run [1, 9] > send [2, 3] and solve [4, 8] > send [5, 6]; window [0, 10]
    for kind, parent, start, end in [(0, -1, 1, 9), (send, 0, 2, 3),
                                     (solve, 0, 4, 8), (send, 2, 5, 6)]:
        rec.kind.append(kind)
        rec.parent.append(parent)
        rec.start.append(start)
        rec.end.append(end)
    selfs = rec.self_times((0.0, 10.0))
    assert selfs["net.send_s"] == 2.0
    assert selfs["numerics.solve_s"] == 3.0
    assert selfs["des.self_s"] == (8 - 1 - 4) + 2.0  # run's own + uncovered
    assert sum(selfs.values()) == 10.0


def test_spans_are_written_out(tmp_path):
    rec = spans.Recorder(traced=True)
    rec.kind.append(1)
    rec.parent.append(-1)
    rec.start.append(0.5)
    rec.end.append(0.75)
    rec.write(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as data:
        assert data["names"][data["kind"][0]] == "Network.send"
        assert data["end"][0] - data["start"][0] == 0.25


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "paper-16", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
