"""Layer-boundary spans and counters, recorded from outside the program.

:func:`install` wraps public functions of ``repro`` (class attributes and
module-level functions, including every module that imported one by name)
before a run builds anything.  Two modes:

* ``traced=False`` -- only the run's timing hooks: the first entry into and
  the last exit from ``Simulator.run`` (``setup_s`` ends and ``wall_s``
  starts at the first simulated event) and the fragments returned by
  ``Spawner.collect_solution``.  A handful of calls per run.
* ``traced=True`` -- additionally one span per call of every function in
  :data:`SPANS` (name, start, end, parent span) kept in column arrays, plus
  the counters below.

Self time of a span is its duration minus the durations of its child
spans.  A layer's self time is the sum over its spans; time inside the
traced window that no span covers is charged to ``des`` (it is the event
loop's own dispatch and every handler running inside it that no wrapper
claims), so the layers' self times sum to the window by construction.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

perf = time.perf_counter

#: one row per wrapped function: (span name, owner, attribute, the metric
#: its self time is charged to).  Owners are import paths ("module:Class"
#: or a module); "Task" means every Task subclass that defines it.
SPANS = [
    ("Simulator.run", "repro.des.kernel:Simulator", "run", "des.self_s"),
    ("Network.send", "repro.net.network:Network", "send", "net.send_s"),
    ("RmiRuntime.call", "repro.rmi.runtime:RmiRuntime", "call", "rmi.call_s"),
    ("RmiRuntime.oneway", "repro.rmi.runtime:RmiRuntime", "oneway", "rmi.oneway_s"),
    ("RmiRuntime.send_prepared", "repro.rmi.runtime:RmiRuntime", "send_prepared",
     "rmi.oneway_s"),
    ("CgOperator.solve", "repro.numerics.cg:CgOperator", "solve", "numerics.solve_s"),
    ("CgOperator.solve_direct", "repro.numerics.cg:CgOperator", "solve_direct",
     "numerics.solve_s"),
    ("ComputePlane.begin", "repro.compute.plane:ComputePlane", "begin",
     "compute.begin_s"),
    ("ComputePlane.collect", "repro.compute.plane:ComputePlane", "collect",
     "compute.collect_s"),
    ("Task.begin_step", "Task", "begin_step", "numerics.step_s"),
    ("Task.finish_step", "Task", "finish_step", "numerics.step_s"),
    ("Task.iterate", "Task", "iterate", "numerics.step_s"),
    ("shared_decomposition", "repro.numerics.splitting", "shared_decomposition",
     "numerics.decompose_s"),
    ("BackupStore.save", "repro.checkpoint.store:BackupStore", "save",
     "checkpoint.save_s"),
    ("BackupStore.load", "repro.checkpoint.store:BackupStore", "load",
     "checkpoint.restore_s"),
    ("Backup.restore", "repro.checkpoint.backup:Backup", "restore",
     "checkpoint.restore_s"),
    ("GossipAgent._push_round", "repro.gossip.agent:GossipAgent", "_push_round",
     "gossip.self_s"),
    ("GossipAgent._probe_round", "repro.gossip.agent:GossipAgent", "_probe_round",
     "gossip.self_s"),
    ("build_cluster", "repro.p2p.cluster", "build_cluster", "p2p.self_s"),
    ("launch_application", "repro.p2p.cluster", "launch_application", "p2p.self_s"),
    ("launch_standby", "repro.p2p.cluster", "launch_standby", "p2p.self_s"),
    ("RunTelemetry.record_iteration", "repro.obs.instruments:RunTelemetry",
     "record_iteration", "p2p.self_s"),
]

#: every self-time metric, in report order (des first: it takes the rest)
SELF_METRICS = list(dict.fromkeys(row[3] for row in SPANS))


class SetupDone(Exception):
    """Raised at the first simulated event of a set-up-only run."""


class Recorder:
    """What one run's wrappers saw."""

    def __init__(self, traced: bool, setup_only: bool = False):
        self.traced = traced
        self.setup_only = setup_only
        # timing hooks (both modes)
        self.first_run: float | None = None
        self.last_run_end: float | None = None
        self.events = 0
        self.sim = None
        self.fragments = None
        # spans, one row per call: name id, parent row (-1 = root), start, end
        self.names = [row[0] for row in SPANS]
        self.kind = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        # counters
        self.c = dict.fromkeys((
            "net.sent", "net.bytes_sent", "rmi.calls", "rmi.oneways",
            "p2p.iterations", "p2p.useful", "p2p.data_messages",
            "p2p.convergence_messages", "numerics.inner_solves",
            "numerics.cg_iterations", "numerics.flops", "checkpoint.saves",
            "checkpoint.bytes", "checkpoint.restores", "gossip.pushes_sent",
        ), 0)
        self.call_events: list = []
        self.clusters: list = []
        self.agents: list = []

    # -- span accounting -----------------------------------------------------

    def self_times(self, window: tuple[float, float]) -> dict[str, float]:
        """Per-metric self seconds over ``window`` = (t0, t1); the
        uncovered remainder goes to ``des.self_s``."""
        out = dict.fromkeys(SELF_METRICS, 0.0)
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans still open")
        kind = np.frombuffer(self.kind, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child],
                              minlength=dur.size)
        own = dur - covered
        per_name = np.bincount(kind, weights=own, minlength=len(SPANS))
        for (_, _, _, metric), seconds in zip(SPANS, per_name):
            out[metric] += float(seconds)
        roots = float(dur[~child].sum())
        out["des.self_s"] += (window[1] - window[0]) - roots
        return out

    def write(self, path) -> None:
        """Write the spans out (numpy ``.npz``, one column per field)."""
        np.savez(
            path, names=np.array(self.names),
            kind=np.frombuffer(self.kind, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))


# -- wrappers -------------------------------------------------------------------


def _span(rec: Recorder, nid: int, fn, after=None):
    """``fn`` recorded as one span per call; ``after(result, args)`` runs
    once the span has closed (counting belongs to the caller's time)."""
    kind_append = rec.kind.append
    parent_append = rec.parent.append
    start_append = rec.start.append
    end = rec.end
    end_append = end.append
    stack = rec.stack
    push = stack.append
    pop = stack.pop

    def wrapper(*args, **kwargs):
        row = len(end)
        kind_append(nid)
        parent_append(stack[-1] if stack else -1)
        end_append(0.0)
        push(row)
        start_append(perf())
        try:
            result = fn(*args, **kwargs)
        finally:
            end[row] = perf()
            pop()
        if after is not None:
            after(result, args)
        return result

    return functools.wraps(fn)(wrapper)


def _counters(rec: Recorder) -> dict:
    """Per-span-name post-call hooks that count work at the boundary."""
    c = rec.c

    def net_send(msg, args):
        # Network.send drops a message from a dead source host before
        # counting it; mirror that so net.sent matches the fabric's counter
        if args[0].hosts[msg.src.host].online:
            c["net.sent"] += 1
            c["net.bytes_sent"] += msg.size

    def rmi_call(event, args):
        c["rmi.calls"] += 1
        rec.call_events.append(event)

    def rmi_oneway(_, args):
        c["rmi.oneways"] += 1
        method = args[2]
        if method == "receive_data":
            c["p2p.data_messages"] += 1
        elif method == "set_state":
            c["p2p.convergence_messages"] += 1
        elif method == "store_backup":
            c["checkpoint.saves"] += 1
            c["checkpoint.bytes"] += args[3].nbytes
        elif method == "push":
            c["gossip.pushes_sent"] += 1

    def rmi_prepared(_, args):
        c["rmi.oneways"] += 1

    def solve(result, args):
        c["numerics.inner_solves"] += 1
        c["numerics.cg_iterations"] += result.iterations

    def step(step, args):
        c["numerics.flops"] += step.flops

    def restore(_, args):
        c["checkpoint.restores"] += 1

    def record_iteration(_, args):
        c["p2p.iterations"] += 1
        c["p2p.useful"] += bool(args[2])

    def build_cluster(cluster, args):
        rec.clusters.append(cluster)

    return {
        "Network.send": net_send, "RmiRuntime.call": rmi_call,
        "RmiRuntime.oneway": rmi_oneway, "RmiRuntime.send_prepared": rmi_prepared,
        "CgOperator.solve": solve, "CgOperator.solve_direct": solve,
        "Task.finish_step": step, "Task.iterate": step,
        "Backup.restore": restore,
        "RunTelemetry.record_iteration": record_iteration,
        "build_cluster": build_cluster,
    }


def _timing_hook(rec: Recorder, run):
    """Outermost ``Simulator.run`` wrapper, the same in both modes."""

    def hooked(self, until=None):
        if rec.first_run is None:
            rec.first_run = perf()
            rec.sim = self
            if rec.setup_only:
                raise SetupDone
        before = self.event_count
        try:
            return run(self, until)
        finally:
            rec.events += self.event_count - before
            rec.last_run_end = perf()

    return functools.wraps(run)(hooked)


def _collect_hook(rec: Recorder, collect):
    def collect_solution(self, *args, **kwargs):
        fragments = yield from collect(self, *args, **kwargs)
        rec.fragments = fragments
        return fragments

    return functools.wraps(collect)(collect_solution)


def _instance_hook(instances: list, init):
    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        instances.append(self)

    return functools.wraps(init)(__init__)


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _task_classes():
    from repro.p2p.task import Task

    seen, todo = [], [Task]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


def _replace_function(module, name: str, wrapper) -> None:
    """Rebind a module-level function everywhere it was imported by name."""
    original = getattr(module, name)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and \
                getattr(mod, name, None) is original:
            setattr(mod, name, wrapper)


def install(rec: Recorder) -> None:
    """Wrap the program for ``rec``.  Call once, before the run builds
    anything; imports every ``repro`` module a run uses first."""
    import repro.apps  # noqa: F401  (registers the Task subclasses)
    import repro.experiments.driver  # noqa: F401
    from repro.des.kernel import Simulator
    from repro.gossip.agent import GossipAgent
    from repro.p2p.spawner import Spawner

    Spawner.collect_solution = _collect_hook(rec, Spawner.collect_solution)
    if rec.traced:
        hooks = _counters(rec)
        for nid, (name, owner, attr, _) in enumerate(SPANS):
            after = hooks.get(name)
            if owner == "Task":
                for cls in _task_classes():
                    if attr in cls.__dict__:
                        setattr(cls, attr, _span(rec, nid, cls.__dict__[attr], after))
                continue
            target = _resolve(owner)
            if isinstance(target, type):
                setattr(target, attr, _span(rec, nid, target.__dict__[attr], after))
            else:
                _replace_function(target, attr,
                                  _span(rec, nid, getattr(target, attr), after))
        GossipAgent.__init__ = _instance_hook(rec.agents, GossipAgent.__init__)
    Simulator.run = _timing_hook(rec, Simulator.run)
