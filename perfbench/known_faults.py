"""Reproduce the runtime faults that keep partitions and in-flight
corruption out of the benchmark's workloads (README.md, "Known faults").

    python3 perfbench/known_faults.py [a|b|c ...]

Each spec runs in a fresh interpreter; its answer goes through the same
independent check as the benchmark's operations.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent

#: case -> (what goes wrong, [RunSpec source]).  ``daemon-host-0`` and
#: ``daemon-host-1`` are the first two Daemon machines of the testbed.
ISOLATE = 'groups=(("daemon-host-0", "daemon-host-1"),)'
CASES = {
    "a": ("a 0.4 s partition at t=0.5 stops the n=64 / 16-peer run from "
          "converging within 6 simulated s (fault-free: about 2.6 s)",
          [f"RunSpec(n=64, peers=16, seed={seed}, horizon=6.0, faults=FaultPlan.of("
           f"PartitionAction(time=0.5, {ISOLATE}, duration=0.4)))"
           for seed in (0, 1, 2)]),
    "b": ("a 0.3 s partition at t=0.1 of an n=32 / 4-peer run is declared "
          "converged with a wrong answer (unsound immediate termination)",
          [f"RunSpec(n=32, peers=4, seed=1, faults=FaultPlan.of("
           f"PartitionAction(time=0.1, {ISOLATE}, duration=0.3)))"]),
    "c": ("perfect-storm at n=64 / 16 peers does not converge within 10 "
          "simulated s, with or without reject_corruption",
          ['RunSpec(n=64, peers=16, seed=0, horizon=10.0, '
           'faults=scenario("perfect-storm"))',
           'RunSpec(n=64, peers=16, seed=0, horizon=10.0, '
           'faults=scenario("perfect-storm"), reject_corruption=True)']),
}


def run_one(source: str) -> dict:
    """Run ``source``, a RunSpec expression from :data:`CASES`, in this
    interpreter; its outcome and answer check."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.exec import RunSpec  # noqa: F401  (used by eval)
    from repro.faults import FaultPlan, PartitionAction, scenario  # noqa: F401

    import worker
    from check import Reference

    spec = eval(source)  # noqa: S307  (only sources listed in CASES)
    out = worker.run_spec(spec, "op")
    res = out["result"]
    ref = Reference.build(res["n"], res["peers"], res["overlap"])
    frags = {int(k): v for k, v in (out["fragments"] or {}).items()}
    verdict = ref.check(res["converged"], frags)
    x, _ = ref.assemble(frags)
    error = ref.errors(x)[0] if res["converged"] and x is not None else None
    return {"converged": res["converged"], "simulated_time": res["simulated_time"],
            "residual": res["residual"], "relative_error": error,
            "tolerance": ref.tol, "check": verdict or ["pass"]}


def main(argv: list[str]) -> int:
    if argv[:1] == ["--one"]:
        print(json.dumps(run_one(CASES[argv[1]][1][int(argv[2])])))
        return 0
    for case in argv or sorted(CASES):
        what, sources = CASES[case]
        print(f"({case}) {what}")
        for index, source in enumerate(sources):
            proc = subprocess.run([sys.executable, __file__, "--one", case,
                                   str(index)],
                                  capture_output=True, text=True, check=True)
            print(f"    {source}\n    -> {proc.stdout.strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
