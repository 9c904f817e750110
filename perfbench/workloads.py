"""The benchmark's three workloads, each a :class:`~repro.exec.RunSpec`
built from nothing but a seed.

The spec is the only thing the program receives: ``spec_for(name, seed)``
is deterministic, so a fixed seed replays the same simulated run (same
``simulated_time``, same counters) in any fresh interpreter.

Why these three (see README.md for the full make-up; ``swarm-10k`` runs by
hand but is not in BENCHMARK.json, see README.md):

* ``paper-16`` -- the paper's section 7 run: numerics and the asynchronous
  data plane do the work, checkpoints are only written;
* ``swarm-10k`` -- 10,500 Daemons under a three-tier Super-Peer hierarchy
  with wheel heartbeats: the kernel, timer wheel and Super-Peer registers
  do the work, numerics is small;
* ``churn-storm`` -- paper-16's problem under a fault plan every action of
  which fires before the fault-free convergence time: checkpoint restores,
  replacements, gossip and the standby takeover do work that paper-16
  never exercises.
"""

from __future__ import annotations

#: the n=64 / 16-peer problem of paper-16 and churn-storm
PAPER_N = 64
PAPER_PEERS = 16

#: swarm-10k: population and Super-Peer hierarchy (32 leaves, fanout 8,
#: three tiers: 32 / 4 / 1 Super-Peers)
SWARM_DAEMONS = 10_500
SWARM_LEAVES = 32
SWARM_N = 40

#: simulated-seconds cap on every run; fault-free runs converge in
#: 2.2-3.1 s, so a run that reaches it did not converge
HORIZON = 10.0

#: churn-storm fault times (simulated s).  Every action fires before the
#: fault-free convergence time of the n=64 / 16-peer run (>= 2.1 s).
SUPERPEER_CRASH = (0.3, 0.6)          # (time, downtime)
DAEMON_CRASHES = (0.6, 1.0, 1.4, 1.8)  # each reconnects after RECONNECT_DELAY
SPAWNER_CRASH = 1.2                   # permanent; the warm standby takes over

WORKLOADS = ("paper-16", "swarm-10k", "churn-storm")
DEFAULT_SEED = 0

#: operations in one round of a run, each with its own RunSpec seed.  Each
#: seed draws a different heterogeneous testbed (simulated time varies by
#: about 12 % IQR over median from seed to seed); a round of k seeds
#: averages that down.  A round runs two operations at a time (one per
#: CPU) and takes at most about a minute: 48 runs must fit in 57 minutes.
OPS_PER_ROUND = {"paper-16": 6, "swarm-10k": 2, "churn-storm": 2}


def spec_seeds(name: str, seed: int) -> list[int]:
    """The RunSpec seeds of one round of workload ``name`` for ``seed``:
    disjoint for distinct seeds."""
    k = OPS_PER_ROUND[name]
    return [seed * k + i for i in range(k)]


def churn_storm_plan():
    from repro.experiments.config import RECONNECT_DELAY
    from repro.faults import (DaemonCrash, FaultPlan, SpawnerCrash,
                              SuperPeerCrash)

    time, downtime = SUPERPEER_CRASH
    return FaultPlan.of(
        SuperPeerCrash(time=time, downtime=downtime),
        *(DaemonCrash(time=t, downtime=RECONNECT_DELAY) for t in DAEMON_CRASHES),
        SpawnerCrash(time=SPAWNER_CRASH),
        name="churn-storm",
    )


def spec_for(name: str, seed: int):
    """The :class:`~repro.exec.RunSpec` of workload ``name`` for ``seed``."""
    from repro.exec import RunSpec
    from repro.experiments.config import EXPERIMENT_CONFIG

    if name == "paper-16":
        return RunSpec(n=PAPER_N, peers=PAPER_PEERS, seed=seed, horizon=HORIZON)
    if name == "swarm-10k":
        config = EXPERIMENT_CONFIG.with_(
            superpeer_tiers=3, superpeer_fanout=8, heartbeat_mode="wheel")
        return RunSpec(n=SWARM_N, peers=PAPER_PEERS, seed=seed,
                       n_daemons=SWARM_DAEMONS, n_superpeers=SWARM_LEAVES,
                       config=config, horizon=HORIZON)
    if name == "churn-storm":
        return RunSpec(n=PAPER_N, peers=PAPER_PEERS, seed=seed, horizon=HORIZON,
                       faults=churn_storm_plan(), gossip=True, standby=True)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
