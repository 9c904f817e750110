"""The runtime's benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload {paper-16,swarm-10k,churn-storm}
                             --seed N --seconds S --trace {0,1}

An operation is one solve to global convergence plus collection of the
solution, run through ``RunSpec.run()`` in a fresh interpreter
(``worker.py``).  Every operation's answer is checked against the
benchmark's own ``spsolve`` (``check.py``); one that fails the check counts
in ``failed``.

A run's seed selects a round of specs (``workloads.spec_seeds``).
``--trace 0`` repeats whole rounds until ``--seconds`` have passed (at
least one).  A round runs in batches of ``len(CPUS)`` operations at once,
each pinned to its own CPU; after each batch, ``SETUP_BATCHES`` batches of
set-up-only workers take further set-up samples.  The end-to-end metrics
are medians over the operations (``setup_s``: over all set-up samples).
``--trace 1`` runs the round's first spec once untraced and once traced,
one process at a time, and reports the per-layer metrics of the traced
one; the two must agree on every result field and event count, or the run
is not correct.

Why batches: every RunSpec seed draws another testbed, so the work of a
solve varies from seed to seed, and a run of about a minute is all the
time there is.  Two CPUs solve twice the seeds in that minute, and the
median over more seeds moves less from run to run.

The last line of stdout is the JSON result; the lines before it say the
same for a reader.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

from check import Reference  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, spec_seeds  # noqa: E402

#: the CPUs a batch of untraced operations runs on, one operation each
CPUS = sorted(os.sched_getaffinity(0))[:2]
#: batches of set-up-only workers run after each batch of operations;
#: setup_s is the median of their samples and the operations' own
SETUP_BATCHES = 2
#: every child must be done this long after the run started
RUN_BUDGET_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "sim_time_s": "s",
              "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "des.events": "count", "des.events_per_s": "1/s", "des.self_s": "s",
    "des.wheel_timers_fired": "count",
    "net.sent": "count", "net.bytes_sent": "B", "net.dropped": "count",
    "net.send_s": "s",
    "rmi.calls": "count", "rmi.oneways": "count", "rmi.call_errors": "count",
    "rmi.call_s": "s", "rmi.oneway_s": "s",
    "p2p.iterations": "count", "p2p.useful_ratio": "ratio",
    "p2p.data_messages": "count", "p2p.convergence_messages": "count",
    "p2p.replacements": "count", "p2p.takeover_s": "s", "p2p.self_s": "s",
    "numerics.inner_solves": "count", "numerics.cg_iterations": "count",
    "numerics.flops": "flop", "numerics.solve_s": "s", "numerics.step_s": "s",
    "numerics.decompose_s": "s",
    "compute.deferred": "count", "compute.flushes": "count",
    "compute.batched_columns": "count", "compute.memo_hits": "count",
    "compute.begin_s": "s", "compute.collect_s": "s",
    "checkpoint.saves": "count", "checkpoint.bytes": "B",
    "checkpoint.save_s": "s", "checkpoint.restores": "count",
    "checkpoint.restore_s": "s", "checkpoint.wasted_iterations": "count",
    "faults.executed": "count", "faults.recoveries": "count",
    "faults.restarts_from_zero": "count",
    "gossip.pushes_sent": "count", "gossip.rumors_merged": "count",
    "gossip.self_s": "s",
    "trace.overhead_s": "s",
}


class Run:
    """One benchmark run: its children, answer checks and verdicts."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.spec_seeds = spec_seeds(workload, seed)
        self.started = time.monotonic()
        self.reference: Reference | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def children(self, mode: str, spec_seeds: list[int],
                 spans: str | None = None) -> list[dict | None]:
        """One worker per spec seed, all at once, each pinned to its own CPU
        of :data:`CPUS` when there are several; each one's JSON, or None if
        it crashed or ran out of time."""
        procs = []
        try:
            for i, spec_seed in enumerate(spec_seeds):
                cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
                       self.workload, "--spec-seed", str(spec_seed),
                       "--mode", mode]
                if spans:
                    cmd += ["--spans", spans]
                pin = None if len(spec_seeds) == 1 else functools.partial(
                    os.sched_setaffinity, 0, {CPUS[i]})
                procs.append(subprocess.Popen(
                    cmd, cwd=ROOT, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, text=True, preexec_fn=pin))
            return [self.finish(mode, proc) for proc in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()

    def finish(self, mode: str, proc: subprocess.Popen) -> dict | None:
        """A started worker's JSON, or None if it crashed or ran out of the
        run's budget."""
        remaining = RUN_BUDGET_S - (time.monotonic() - self.started)
        try:
            stdout, stderr = proc.communicate(timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"{mode}: no result within the run's budget", file=sys.stderr)
            return None
        if proc.returncode != 0:
            sys.stderr.write(stderr)
            return None
        return json.loads(stdout.strip().splitlines()[-1])

    def operation(self, mode: str, spec_seeds: list[int],
                  spans: str | None = None) -> list[dict]:
        """One solve per spec seed, all at once; every one that gave a
        result.  Each counts as failed unless its answer passes the check."""
        outs = []
        for spec_seed, out in zip(spec_seeds,
                                  self.children(mode, spec_seeds, spans)):
            self.attempted += 1
            label = f"op {self.attempted} ({mode}, spec seed {spec_seed})"
            if out is None:
                self.failed += 1
                print(f"{label}: FAILED, worker gave no result")
                continue
            res = out["result"]
            if self.reference is None:
                self.reference = Reference.build(res["n"], res["peers"],
                                                 res["overlap"])
            frags = {int(k): v for k, v in (out["fragments"] or {}).items()}
            reasons = self.reference.check(res["converged"], frags)
            verdict = "pass"
            if reasons:
                self.failed += 1
                verdict = "FAILED: " + "; ".join(reasons)
            elif frags:
                x, _ = self.reference.assemble(frags)
                rel, _ = self.reference.errors(x)
                verdict = (f"pass (error {rel:.2e} <= tolerance "
                           f"{self.reference.tol:.2e})")
            print(f"{label}: wall_s={out['wall_s']:.3f} s "
                  f"setup_s={out['setup_s']:.4f} s "
                  f"sim_time_s={res['simulated_time']} s "
                  f"peak_rss_mb={out['peak_rss_mb']:.1f} MB answer {verdict}")
            outs.append(out)
        return outs

    def same_behaviour(self, outs: list[dict], what: str) -> None:
        """Operations of one spec must replay identically."""
        first = outs[0]
        for other in outs[1:]:
            if other["result"] != first["result"] or other["events"] != first["events"]:
                self.problems.append(f"{what}: results differ between operations "
                                     f"of spec seed {first['result']['seed']}")


def sim_time(out: dict) -> float:
    # an unconverged run reports no execution time; it ran to its horizon
    return out["result"]["simulated_time"] or out["horizon_s"]


def untraced(run: Run, seconds: float) -> dict:
    outs, setups = [], []
    batches = [run.spec_seeds[i:i + len(CPUS)]
               for i in range(0, len(run.spec_seeds), len(CPUS))]
    while True:
        for batch in batches:
            done = run.operation("op", batch)
            outs += done
            setups += [o["setup_s"] for o in done]
            for _ in range(SETUP_BATCHES):
                samples = run.children("setup", batch)
                if None in samples:
                    run.problems.append("a set-up-only worker gave no result")
                    continue
                setups += [o["setup_s"] for o in samples]
        if time.monotonic() - run.started >= seconds:
            break
    if not outs:
        return {}
    by_seed: dict[int, list] = {}
    for out in outs:
        by_seed.setdefault(out["result"]["seed"], []).append(out)
    for same in by_seed.values():
        run.same_behaviour(same, "untraced")
    return {
        "wall_s": statistics.median(o["wall_s"] for o in outs),
        "setup_s": statistics.median(setups),
        "sim_time_s": statistics.median(sim_time(o) for o in outs),
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in outs),
    }


def traced(run: Run) -> dict:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spec_seed = run.spec_seeds[0]
    spans = out_dir / f"spans-{run.workload}-seed{spec_seed}.npz"
    plain = run.operation("op", [spec_seed])
    trace = run.operation("traced", [spec_seed], spans=str(spans))
    if not plain or not trace:
        return {}
    plain, trace = plain[0], trace[0]
    run.same_behaviour([plain, trace], "traced vs untraced")
    run.problems += trace["trace_problems"]
    layers = dict(trace["layers"])
    layers["des.events_per_s"] = plain["events"] / plain["wall_s"]
    layers["trace.overhead_s"] = trace["wall_s"] - plain["wall_s"]
    print(f"spans written to {spans.relative_to(ROOT)}")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; selects the round's RunSpec seeds")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its workers (``Run.children``)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    if args.trace:
        values, units = traced(run), PER_LAYER_UNITS
    else:
        values, units = untraced(run, args.seconds), END_TO_END
    if not values:
        print("no operation produced a measurement", file=sys.stderr)
        return 1
    for problem in run.problems:
        print(f"NOT CORRECT: {problem}")
    for name, unit in units.items():
        print(f"{name} = {values[name]} {unit}")
    print(f"attempted {run.attempted}, failed {run.failed}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
