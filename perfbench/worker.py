"""One operation of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --spec-seed N --mode MODE [--spans PATH]

``MODE`` is ``op`` (one untraced solve to convergence plus collection),
``traced`` (the same with every layer wrapper installed) or ``setup`` (stop
at the first simulated event: one set-up sample).  Prints one JSON object
on stdout.  ``run.py`` starts one of these per operation so process-wide
memos and peak memory never carry over from one operation to the next.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
from workloads import spec_for  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space.

    ``ru_maxrss`` is not it: Linux carries the high-water mark of the
    address space a process replaced at exec into it, so a worker started
    by a larger parent would report the parent's peak."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(rec: spans.Recorder, spec, result, window):
    """Per-layer metrics of a traced operation, the program's own counters
    for the same quantities, and every way the two disagree or the self
    times fail to add up (empty when sound)."""
    c = rec.c
    cluster = rec.clusters[0]
    net = cluster.network.stats()
    compute = cluster.compute.stats()
    selfs = rec.self_times(window)
    takeover_s = 0.0
    if result.takeovers:
        crash = min(a.time for a in spec.faults.actions
                    if a.kind == "spawner_crash")
        takeover_s = result.takeover_at - crash
    m = {
        "des.events": rec.events,
        "des.self_s": selfs["des.self_s"],
        "des.wheel_timers_fired": cluster.wheel.timers_fired
        if cluster.wheel is not None else 0,
        "net.sent": c["net.sent"],
        "net.bytes_sent": c["net.bytes_sent"],
        "net.dropped": sum(v for k, v in net.items() if k.startswith("dropped")),
        "net.send_s": selfs["net.send_s"],
        "rmi.calls": c["rmi.calls"],
        "rmi.oneways": c["rmi.oneways"],
        "rmi.call_errors": sum(ev.triggered and not ev.ok
                               for ev in rec.call_events),
        "rmi.call_s": selfs["rmi.call_s"],
        "rmi.oneway_s": selfs["rmi.oneway_s"],
        "p2p.iterations": c["p2p.iterations"],
        "p2p.useful_ratio": c["p2p.useful"] / max(c["p2p.iterations"], 1),
        "p2p.data_messages": c["p2p.data_messages"],
        "p2p.convergence_messages": c["p2p.convergence_messages"],
        "p2p.replacements": result.replacements,
        "p2p.takeover_s": takeover_s,
        "p2p.self_s": selfs["p2p.self_s"],
        "numerics.inner_solves": c["numerics.inner_solves"],
        "numerics.cg_iterations": c["numerics.cg_iterations"],
        "numerics.flops": c["numerics.flops"],
        "numerics.solve_s": selfs["numerics.solve_s"],
        "numerics.step_s": selfs["numerics.step_s"],
        "numerics.decompose_s": selfs["numerics.decompose_s"],
        "compute.deferred": compute["deferred"],
        "compute.flushes": compute["flushes"],
        "compute.batched_columns": compute["batched_columns"],
        "compute.memo_hits": compute["memo_hits"],
        "compute.begin_s": selfs["compute.begin_s"],
        "compute.collect_s": selfs["compute.collect_s"],
        "checkpoint.saves": c["checkpoint.saves"],
        "checkpoint.bytes": c["checkpoint.bytes"],
        "checkpoint.save_s": selfs["checkpoint.save_s"],
        "checkpoint.restores": c["checkpoint.restores"],
        "checkpoint.restore_s": selfs["checkpoint.restore_s"],
        "checkpoint.wasted_iterations": result.wasted_iterations,
        "faults.executed": result.faults_executed,
        "faults.recoveries": result.recoveries,
        "faults.restarts_from_zero": result.restarts_from_zero,
        "gossip.pushes_sent": c["gossip.pushes_sent"],
        "gossip.rumors_merged": sum(a.rumors_merged for a in rec.agents),
        "gossip.self_s": selfs["gossip.self_s"],
    }
    program = {
        "net.sent": net["sent"], "net.bytes_sent": net["bytes_sent"],
        "p2p.iterations": result.total_iterations,
        "p2p.data_messages": result.data_messages,
        "checkpoint.saves": result.checkpoints_sent,
        "checkpoint.bytes": result.checkpoint_bytes,
        "des.events": rec.sim.event_count,
    }
    problems = [f"{name} = {m[name]} but the program counted {value}"
                for name, value in program.items() if m[name] != value]
    total = window[1] - window[0]
    if abs(sum(selfs.values()) - total) > 1e-6 * total:
        problems.append(f"layer self times sum to {sum(selfs.values())}, "
                        f"not the traced window {total}")
    problems += [f"{name} is negative ({value})"
                 for name, value in selfs.items() if value < -1e-9]
    return m, program, problems


def run_spec(spec, mode: str, spans_path: str | None = None) -> dict:
    """One operation of ``spec`` in this (fresh) interpreter."""
    rec = spans.Recorder(traced=mode == "traced", setup_only=mode == "setup")
    spans.install(rec)
    t0 = spans.perf()
    try:
        result = spec.run()
    except spans.SetupDone:
        return {"setup_s": rec.first_run - t0}
    t1 = spans.perf()
    out = {
        "setup_s": rec.first_run - t0,
        "wall_s": rec.last_run_end - rec.first_run,
        "window_s": t1 - t0,
        "horizon_s": spec.horizon,
        "peak_rss_mb": peak_rss_mb(),
        "events": rec.events,
        "result": {k: v for k, v in result.to_dict().items() if k != "run_report"},
        "fragments": None if rec.fragments is None else {
            str(task): None if frag is None else [int(frag[0]), frag[1].tolist()]
            for task, frag in rec.fragments.items()},
    }
    if mode == "traced":
        out["layers"], out["program"], out["trace_problems"] = layer_metrics(
            rec, spec, result, (t0, t1))
        if spans_path:
            rec.write(spans_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--spec-seed", type=int, required=True,
                        help="the RunSpec's seed (run.py derives it from "
                             "the workload seed)")
    parser.add_argument("--mode", choices=("op", "traced", "setup"), required=True)
    parser.add_argument("--spans", default=None,
                        help="write the traced run's spans to this .npz")
    args = parser.parse_args(argv)
    spec = spec_for(args.workload, args.spec_seed)
    print(json.dumps(run_spec(spec, args.mode, args.spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
