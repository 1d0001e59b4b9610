"""Measurement hooks, installed from the benchmark only.

Two tiers, both class-level wrappers around public methods of
``repro`` (no file under ``src/`` knows about them):

* **capture** (always on, one call per object or per ``Simulator.run``):
  stamps the first ``Simulator.run`` call (the end of set-up),
  accumulates host time and events over every ``Simulator.run``, keeps
  the histories an execution records, and folds each network's public
  counters (and its nodes') into a running total once the next network
  is built or the execution ends — no simulator is kept alive past its
  run, so a 300-schedule exploration costs no extra memory;
* **tracing** (traced executions only): an ``ITIMER_PROF`` sampler that
  charges each ~2 ms CPU tick to the layer of the interrupted frame,
  counting wrappers on the hot public methods, and phase spans
  ``(name, start, end, parent)`` kept in memory.

Tracing must not perturb the simulation: the wrappers draw no random
numbers, schedule nothing and keep no reference to kernel objects past
the call; the child process checks that a traced execution reproduces
the untraced event, message and operation counts exactly.
"""

from __future__ import annotations

import os
import signal
import time
from collections import Counter
from contextlib import contextmanager
from importlib import import_module
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["LAYERS", "Probe", "SetupDone"]

#: sampler period; ITIMER_PROF counts process CPU time, so ~500 Hz
SAMPLE_INTERVAL_S = 0.002

#: layer names in reporting order; "other" is everything else (stdlib
#: and benchmark frames with no ``repro`` caller, unlisted repro modules)
LAYERS = (
    "sim.kernel", "sim.network", "sim.node", "quorum.qrpc", "quorum", "core",
    "protocols", "edge", "workload", "consistency", "chaos", "resilience",
    "mc", "harness", "obs", "other",
)
_FILE_LAYERS = {
    "sim/kernel.py": "sim.kernel",
    "sim/network.py": "sim.network",
    "sim/messages.py": "sim.network",
    "sim/node.py": "sim.node",
    "sim/clock.py": "sim.node",  # the per-node clock
    "quorum/qrpc.py": "quorum.qrpc",
}
_PACKAGE_LAYERS = frozenset(LAYERS) - {"other"}
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

#: public per-node counters summed over every node that has them
NODE_COUNTERS = (
    "read_hits", "read_misses", "renewals_sent", "invals_sent",
    "validations_coalesced", "requests_served", "requests_failed", "writes_shed",
)


class SetupDone(BaseException):
    """Raised at the first ``Simulator.run`` of a set-up probe child.

    A ``BaseException`` so no ``except Exception`` inside ``repro``
    can swallow it on the way out.
    """


class Probe:
    """Capture hooks plus optional tracing for one child process."""

    def __init__(self, setup_only: bool = False) -> None:
        self.setup_only = setup_only
        self.tracing = False
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._repro_root = ""
        self._layer_of_file: Dict[str, Optional[str]] = {}
        self._open_spans: List[int] = []
        self._setup_span: Optional[int] = None
        self._capture_depth = 0
        self.reset()

    def reset(self) -> None:
        """Forget everything captured by the previous execution."""
        self._network: Any = None
        self.histories: List[Any] = []
        #: simulated counts read off public counters (see :meth:`harvest`)
        self.sim_counts: Counter = Counter()
        #: ``time.perf_counter()`` / ``time.time()`` at the first ``Simulator.run``
        self.first_run: Optional[float] = None
        self.first_run_wall: Optional[float] = None
        self.run_s = 0.0
        self.counts: Counter = Counter()
        self.host_s: Counter = Counter()
        self.samples: Counter = Counter()
        #: the same samples by source file, for the trace file
        self.file_samples: Counter = Counter()
        #: finished and open spans: [name, start, end, parent index]
        self.spans: List[list] = []

    # -- patching ----------------------------------------------------------

    def _patch(self, owner: Any, name: str, wrapper: Any) -> None:
        is_item = isinstance(owner, dict)
        original = owner[name] if is_item else getattr(owner, name)
        self._patches.append((owner, name, original, is_item))
        if is_item:
            owner[name] = wrapper
        else:
            setattr(owner, name, wrapper)

    def _unpatch(self, down_to: int) -> None:
        while len(self._patches) > down_to:
            owner, name, original, is_item = self._patches.pop()
            if is_item:
                owner[name] = original
            else:
                setattr(owner, name, original)

    # -- capture (always on) -------------------------------------------------

    def install(self) -> None:
        """Install the capture hooks; call once, before any workload code."""
        import repro
        from repro.consistency.history import History
        from repro.sim.kernel import Simulator
        from repro.sim.network import Network

        self._repro_root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
        probe = self
        sim_run = Simulator.run
        network_init = Network.__init__
        history_init = History.__init__

        def run(sim, until=None, max_events=None):
            if probe.first_run is None:
                probe.first_run = time.perf_counter()
                probe.first_run_wall = time.time()
                if probe.setup_only:
                    raise SetupDone()
                probe._end_setup_span()
            events = sim.events_processed
            start = time.perf_counter()
            try:
                return sim_run(sim, until, max_events)
            finally:
                end = time.perf_counter()
                probe.run_s += end - start
                probe.sim_counts["events"] += sim.events_processed - events
                if probe.tracing:
                    probe.spans.append(["run", start, end, probe._parent()])

        def network_init_hook(network, *args, **kwargs):
            network_init(network, *args, **kwargs)
            # Simulations run one after another, so the previous
            # network is finished once the next one is built.
            probe.harvest()
            probe._network = network

        def history_init_hook(history):
            history_init(history)
            probe.histories.append(history)

        self._patch(Simulator, "run", run)
        self._patch(Network, "__init__", network_init_hook)
        self._patch(History, "__init__", history_init_hook)
        self._capture_depth = len(self._patches)

    # -- spans -----------------------------------------------------------------

    def _parent(self) -> Optional[int]:
        return self._open_spans[-1] if self._open_spans else None

    def _open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None, self._parent()])
        index = len(self.spans) - 1
        self._open_spans.append(index)
        return index

    def _close(self, index: int) -> float:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._open_spans.remove(index)
        return span[2] - span[1]

    def _end_setup_span(self) -> None:
        if self._setup_span is not None:
            self.host_s["setup"] += self._close(self._setup_span)
            self._setup_span = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a phase of benchmark code; a no-op while tracing is off."""
        if not self.tracing:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self.host_s[name] += self._close(index)

    def _timed(self, name: str, fn: Callable) -> Callable:
        """Wrap *fn* in a span called *name*, counting its calls."""
        probe = self

        def timed(*args, **kwargs):
            probe.counts[name + "_calls"] += 1
            with probe.span(name):
                return fn(*args, **kwargs)

        return timed

    # -- tracing ---------------------------------------------------------------

    def start_tracing(self) -> None:
        """Install the counting wrappers and start the sampler."""
        # import_module, not "import a.b as c": repro.mc re-exports the
        # explore *function* under the submodule's own name
        chaos_campaign = import_module("repro.chaos.campaign")
        edge_cdn = import_module("repro.edge.cdn")
        harness_experiment = import_module("repro.harness.experiment")
        mc_explore = import_module("repro.mc.explore")
        mc_runner = import_module("repro.mc.runner")
        from repro.edge.deployments import PROTOCOL_DEPLOYERS
        from repro.quorum.qrpc import QuorumCall
        from repro.sim.kernel import Simulator
        from repro.sim.node import Node

        counts = self.counts
        probe = self

        def counted(key: str, fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        self._patch(Simulator, "sleep", counted("sleeps", Simulator.sleep))
        self._patch(Simulator, "call_later", counted("timers", Simulator.call_later))
        self._patch(Simulator, "spawn", counted("spawns", Simulator.spawn))
        self._patch(Node, "deliver", counted("deliveries", Node.deliver))

        qrpc_run = QuorumCall.run

        def run(call):
            replies = yield from qrpc_run(call)
            # completed calls only: an abandoned generator must not be
            # charged to whichever execution happens to collect it
            counts["qrpc_calls"] += 1
            counts["qrpc_rounds"] += call.attempts
            if call.attempts == 0:
                counts["qrpc_vacuous"] += 1
            return replies

        self._patch(QuorumCall, "run", run)

        for protocol, deployer in list(PROTOCOL_DEPLOYERS.items()):
            self._patch(PROTOCOL_DEPLOYERS, protocol, self._timed("deploy", deployer))
        for module in (harness_experiment, edge_cdn):
            self._patch(module, "summarize", self._timed("summarize", module.summarize))
        for module in (chaos_campaign, mc_runner):
            self._patch(module, "check_regular",
                        self._timed("check", module.check_regular))

        run_schedule = mc_explore.run_schedule

        def traced_schedule(*args, **kwargs):
            with probe.span("mc.schedule"):
                result = run_schedule(*args, **kwargs)
            counts["mc_decisions"] += len(result.decisions)
            return result

        self._patch(mc_explore, "run_schedule", traced_schedule)

        self.tracing = True
        self._setup_span = self._open("setup")
        signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop_tracing(self) -> None:
        """Stop the sampler and remove every tracing wrapper."""
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        self._end_setup_span()
        self.tracing = False
        self._unpatch(self._capture_depth)

    def _on_sample(self, _signum, frame) -> None:
        # Self time of the innermost repro frame: stdlib callees (random,
        # dataclasses, heapq shims) are charged to the layer that called
        # them, frames with no repro caller to "other".
        layer_of_file = self._layer_of_file
        while frame is not None:
            filename = frame.f_code.co_filename
            layer = layer_of_file.get(filename, "")
            if layer == "":
                layer = layer_of_file[filename] = self._classify(filename)
            if layer is not None:
                self.samples[layer] += 1
                self.file_samples[filename] += 1
                return
            frame = frame.f_back
        self.samples["other"] += 1
        self.file_samples["<no repro or benchmark frame>"] += 1

    def _classify(self, filename: str) -> Optional[str]:
        """Layer of a source file; ``None`` for files outside ``repro``
        and the benchmark (the stack walk continues through those)."""
        if filename.startswith(_BENCH_DIR):
            return "other"  # the benchmark's own self time, calibration loop included
        if not filename.startswith(self._repro_root):
            return None
        relative = filename[len(self._repro_root):].replace(os.sep, "/")
        if relative in _FILE_LAYERS:
            return _FILE_LAYERS[relative]
        package = relative.split("/", 1)[0]
        return package if package in _PACKAGE_LAYERS else "other"

    # -- reading the public counters after a run ---------------------------------

    def harvest(self) -> Counter:
        """Fold the finished network's public counters into
        :attr:`sim_counts` (idempotent) and return the running totals."""
        network, self._network = self._network, None
        if network is None:
            return self.sim_counts
        from repro.resilience import NodeResilience

        totals = self.sim_counts
        totals["messages"] += network.stats.total_messages
        totals["messages_dropped"] += network.stats.dropped
        for node_id in network.node_ids:
            node = network.node(node_id)
            for name in NODE_COUNTERS:
                totals[name] += getattr(node, name, 0)
            # front ends keep their ResilienceConfig under the same name
            resilience = getattr(node, "resilience", None)
            if isinstance(resilience, NodeResilience):
                totals["suspicions"] += resilience.detector.suspicions
                totals["hedges_sent"] += resilience.hedges_sent
                totals["adaptive_rounds"] += resilience.adaptive_rounds
        return totals
