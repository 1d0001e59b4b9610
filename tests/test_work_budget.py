"""Work budgets: DQVL must cost what its operations cost.

The paper's case for volume leases is that renewals are *amortised*; a
lease keeper that wakes every simulated millisecond to find nothing to
renew (the defect ROADMAP item 1 tracked) breaks that on the host while
leaving every simulated number intact, so no latency or message test can
see it.  These tests count kernel work instead: events per operation
against majority's, keeper wake-ups per idle interest window, vacuous
QRPC calls — and pin the quorum deadline the keeper sleeps to against a
brute-force evaluation on every quorum shape.

The oracle has a budget too: ``check_regular`` runs over every history,
and one that rescans a key's writes for each read costs more than the
simulation it judges while returning the same verdicts.
"""

import gc
import itertools
import math
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency import History, check_regular, regular
from repro.core import DqvlConfig, build_dqvl_cluster
from repro.core.dqvl import DqvlIqsNode, DqvlOqsNode
from repro.core.leases import OqsLeaseView
from repro.harness import ExperimentConfig, run_response_time
from repro.quorum import QuorumCall, QuorumSpec
from repro.core.volumes import HashVolumeMap
from repro.sim import ConstantDelay, Network, Simulator
from repro.sim.messages import Message
from repro.types import ZERO_LC, LogicalClock, Op

NEVER = float("-inf")


# -- events per operation ------------------------------------------------------


def _events_per_op(protocol, num_edges, iqs_spec=None):
    result = run_response_time(ExperimentConfig(
        protocol=protocol, write_ratio=0.2, locality=0.9, num_edges=num_edges,
        num_clients=3, ops_per_client=100, seed=3, iqs_spec=iqs_spec,
    ))
    ops = len(result.history) + len(result.warmup_history)
    return result.deployment.topology.sim.events_processed / ops


@pytest.mark.parametrize("num_edges, iqs_spec", [
    (9, None),                  # the paper's majority IQS
    (5, "majority:r=2,w=4"),    # the tuner's read-light threshold shape
    (4, "grid:2x2"),
    (9, "grid:3x3"),
])
def test_dqvl_events_per_op_within_twice_majoritys(num_edges, iqs_spec):
    """No per-shape code: the quorum deadline falls out of
    ``is_read_quorum``, so every IQS shape gets the same budget."""
    dqvl = _events_per_op("dqvl", num_edges, iqs_spec)
    majority = _events_per_op("majority", num_edges)
    assert dqvl <= 2.0 * majority, (dqvl, majority)


# -- frames per message ----------------------------------------------------------


def test_python_frames_per_delivered_message():
    """Moving one message is the ledger's top line, and in Python its
    cost is frames: send → ``Message`` → ``Network.send`` → ``call_later``
    → ``_deliver`` → ``Node.deliver`` → ``_dispatch`` → the handler, plus
    the protocol's and the workload's own.  38.1 before link records,
    the handler table and the slotted ``Message``; 28.6 with them; 24.7
    once a QRPC round owned one deadline instead of a timer per request
    and a retransmission sleep; ≤ 18.5 once a reply was a callback (no
    future per request), ``Simulator.now`` an attribute and a payload
    read ``message.payload[...]``; 16.5 once a QRPC round was one record,
    its deadline and its sink."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    config = ExperimentConfig(
        protocol="majority", write_ratio=0.2, locality=0.9, num_edges=9,
        num_clients=3, ops_per_client=200, seed=7,
    )
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = run_response_time(config)
    finally:
        sys.setprofile(previous)
    stats = result.deployment.topology.network.stats
    assert stats.dropped == 0 and stats.total_messages > 7_000
    assert calls / stats.total_messages <= 19.0


def test_python_frames_per_chaos_op():
    """A crash-storm op with resilience and the invariant monitor on
    pays for its lease renewals, detector updates and monitor samples in
    frames.  967.8 per recorded op while the detector re-derived
    suspicion per node and sorted its window per quantile, the keeper
    walked a per-node generator per decision and the monitor re-keyed
    every baseline per sample; 777.7 once each read kept state (a
    suspect set, a sorted window, one volume row, row-level baselines)."""
    from repro.chaos import ChaosRunConfig, run_chaos

    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    config = ChaosRunConfig(
        protocol="dqvl", seed=7000, nemeses=("crash_storm",), num_edges=5,
        num_clients=3, ops_per_client=75, horizon_ms=20_000.0,
        client_max_attempts=None, mode="frontend", resilience=True,
    )
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = run_chaos(config)
    finally:
        sys.setprofile(previous)
    ops = result.stats["ops_recorded"]
    assert ops == 225 and result.stats["ops_failed"] == 0 and result.ok
    assert calls / ops <= 801.0


# -- logical clocks ----------------------------------------------------------------


def test_logical_clock_compares_without_python_frames():
    """A DQVL operation compares ~35 clocks (lease views, write order,
    the checker).  As ``@dataclass(order=True)`` each comparison was a
    generated Python ``__ge__``/``__lt__``; as a tuple it runs in C, and
    the text forms and hash every trace and set relies on are the
    dataclass's."""
    clocks = [LogicalClock(n % 7, f"n{n % 3}") for n in range(50)]
    frames = []

    def count(frame, event, arg):
        if event == "call":
            frames.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        ordered = sorted(clocks)
        merged = ZERO_LC
        for clock in clocks:
            merged = merged.merge(clock)
    finally:
        sys.setprofile(previous)
    assert frames == ["merge"] * len(clocks)
    assert merged == ordered[-1] == LogicalClock(6, "n2")
    clock = LogicalClock(3, "iqs1")
    assert repr(clock) == "LogicalClock(counter=3, node_id='iqs1')"
    assert repr(ZERO_LC) == "LogicalClock(counter=0, node_id='')"
    assert (str(clock), str(ZERO_LC), str(clock.next("b"))) == ("3@iqs1", "0@-", "4@b")
    assert hash(clock) == hash((3, "iqs1"))


# -- frames per lease decision -----------------------------------------------------


def _frames_inside(code, thunk):
    """Python frames entered while a frame of *code* is on the stack
    (itself included) during ``thunk()``."""
    depth = calls = 0

    def count(frame, event, arg):
        nonlocal depth, calls
        if event == "call" and (depth or frame.f_code is code):
            depth += 1
            calls += 1
        elif event == "return" and depth:
            depth -= 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        thunk()
    finally:
        sys.setprofile(previous)
    return calls


@pytest.fixture
def lease_world(monkeypatch):
    """5 IQS servers, 9 OQS nodes, hashed volumes with keepers on; every
    ``HashVolumeMap.volume_of`` call is recorded in ``hashed``."""
    sim = Simulator(seed=0)
    net = Network(sim, ConstantDelay(10.0))
    cluster = build_dqvl_cluster(
        sim, net, [f"iqs{i}" for i in range(5)], [f"oqs{j}" for j in range(9)],
        DqvlConfig(lease_length_ms=10_000.0, proactive_renewal=True,
                   volume_map=HashVolumeMap(8)),
    )
    clients = [cluster.client(f"c{j}", prefer_oqs=f"oqs{j}") for j in range(3)]

    def warm():
        yield from clients[0].write("x", "v1")
        for client in clients:
            yield from client.read("x")

    sim.run_process(warm(), until=5_000.0)
    hashed = []
    real = HashVolumeMap.volume_of
    monkeypatch.setattr(
        HashVolumeMap, "volume_of",
        lambda self, obj: hashed.append(obj) or real(self, obj),
    )
    return cluster, hashed


def test_python_frames_per_warm_read_hit(lease_world):
    """The hit test is the one check on every read.  With tuple-keyed
    lease dicts walked three times (``valid_servers``, ``best_valid_clock``,
    a ``max_seen`` generator, each through ``object_valid -> volume_valid
    -> volume_epoch``) a warm hit on a 5-server IQS cost 77 frames inside
    ``on_dq_read`` and hashed the object's volume twice; with lease rows
    and one walk it cost 26 and hashed once.  (Both counts included the
    ~17 frames sending the reply took then.)  Since sending got cheaper
    and ``OqsLeaseView.is_hit`` remembers a passed verdict, a second hit
    walks no lease row: 17 frames on CPython 3.11, 18 with a walk."""
    cluster, hashed = lease_world
    oqs = cluster.oqs_node("oqs0")
    hits = oqs.read_hits
    request = Message("c0", "oqs0", "dq_read", {"obj": "x"})

    def handle():
        for _ in oqs.on_dq_read(request):
            raise AssertionError("a warm hit never waits")

    frames = _frames_inside(DqvlOqsNode.on_dq_read.__code__, handle)
    assert oqs.read_hits == hits + 1
    assert frames <= 30
    assert hashed == ["x"]
    again = _frames_inside(DqvlOqsNode.on_dq_read.__code__, handle)
    assert oqs.read_hits == hits + 2
    assert again <= 17
    assert hashed == ["x", "x"]


def test_python_frames_per_write_classification_pass(lease_world):
    """One ``_ensure_owq_invalid`` pass over 9 OQS nodes, three of them
    holding the object: 123 frames and four volume hashes when every node
    was classified through seven accessor calls and each invalidation
    re-hashed the volume; 72 frames and one hash with the object's and
    the volume's rows fetched once per pass.  (Both counts include the
    three invalidations sent, ~15 frames each.)"""
    cluster, hashed = lease_world
    iqs = max(cluster.iqs_nodes, key=lambda node: node.renewals_served)
    assert iqs.renewals_served == 3
    sent = iqs.invals_sent
    one_pass = iqs._ensure_owq_invalid("x", LogicalClock(99, "c0"), record_stats=False)
    frames = _frames_inside(
        DqvlIqsNode._ensure_owq_invalid.__code__, lambda: next(one_pass)
    )
    assert iqs.invals_sent == sent + 3
    assert frames <= 80
    assert hashed == ["x"]


def test_volume_hashed_once_per_handled_read_and_write(lease_world):
    """``HashVolumeMap.volume_of`` is an md5 and an f-string: every
    handler resolves it once and hands the volume down — on the miss
    path (validation, its ``done`` predicate, the keeper's start) and on
    the write path (classification, every invalidation sent) too."""
    cluster, hashed = lease_world
    oqs = cluster.oqs_node("oqs0")
    writer = cluster.client("w", prefer_oqs="oqs0")
    reader = cluster.client("r", prefer_oqs="oqs4")  # a cold node: misses

    def scenario():
        yield from writer.write("x", "v2")  # invalidates the three holders
        for obj in ("x", "y", "x"):
            yield from reader.read(obj)

    oqs.net.reset_counters()
    renewals = sum(node.renewals_served for node in cluster.iqs_nodes)
    oqs.sim.run_process(scenario(), until=20_000.0)
    handled = oqs.net.stats.by_kind
    assert handled["dq_write"] == 3 and handled["inval"] >= 3
    assert handled["dq_read"] == 3 and cluster.oqs_node("oqs4").read_misses == 2
    renewals = sum(node.renewals_served for node in cluster.iqs_nodes) - renewals
    # one hash per read or write handled; serving a renewal is a handler too
    assert len(hashed) == handled["dq_read"] + handled["dq_write"] + renewals


# -- footprints per explored schedule ------------------------------------------------


def test_footprints_computed_per_explored_schedule(monkeypatch):
    """The POR DFS reads ``Decision.footprints`` below ``max_depth`` and
    nowhere else, and an entry's footprint is static from its first
    offer.  Footprinting every entry of every slot at each of a run's
    decisions (~450 then), again at each re-offer and once more at
    execution cost 1,150 ``footprint_of`` calls per schedule on this
    exploration (1,220 over the benchmark's forty seeds); recording to
    the DFS's depth, once per entry, costs 36.  A schedule here is now
    ~290 decisions: QRPC rounds no longer leave dead retransmission
    sleeps and timeouts behind to be offered."""
    from repro.mc import McRunConfig, explore
    from repro.mc import controller as mc_controller
    from repro.mc import runner as mc_runner

    controllers = []

    class Spy(mc_controller.RecordingController):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            controllers.append(self)

    past_depth = calls = 0
    footprint_of = mc_controller.footprint_of

    def counted(entry):
        nonlocal past_depth, calls
        calls += 1
        controller = controllers[-1]
        past_depth += len(controller.decisions) >= controller.footprint_depth
        return footprint_of(entry)

    monkeypatch.setattr(mc_runner, "RecordingController", Spy)
    monkeypatch.setattr(mc_controller, "footprint_of", counted)
    result = explore(McRunConfig(), strategy="dfs", budget=10, max_depth=40,
                     por=True, shrink=False)
    assert result.ok and result.runs == 10 == len(controllers)
    assert all(len(c.decisions) > 250 for c in controllers)
    assert past_depth == 0
    assert 10 <= calls / result.runs <= 45


@pytest.mark.parametrize("seed", [0, 7, 13])
def test_controller_hooks_per_explored_schedule(monkeypatch, seed):
    """Past the footprint horizon nothing reads an event's footprint or
    label, so once the slot holding the decision at ``max_depth`` has
    drained, the controlled loop stops calling ``note_executed`` on every
    event: ~580 calls per schedule while the hook stayed on for the whole
    run, ~41 now.  Decisions are recorded as tuples and become
    ``Decision`` records once, when the run is finalized (one frozen
    dataclass per decision was built as it was taken, and the tracked
    ones a second time to attach their footprints).  A ``Decision`` is
    a NamedTuple, so both ways to build one are counted: the
    constructor and ``Decision._make``."""
    from repro.mc import McRunConfig, explore
    from repro.mc import controller as mc_controller

    executed = built = recorded = 0
    controller_class = mc_controller.RecordingController
    note_executed, finalize = controller_class.note_executed, controller_class.finalize
    decision_class = mc_controller.Decision
    decision_new, decision_make = decision_class.__new__, decision_class._make

    def counted_note_executed(self, entry):
        nonlocal executed
        executed += 1
        return note_executed(self, entry)

    def counted_finalize(self):
        nonlocal recorded
        recorded += len(self._recorded)
        finalize(self)

    def counted_decision_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return decision_new(cls, *args, **kwargs)

    def counted_decision_make(iterable):
        nonlocal built
        built += 1
        return decision_make(iterable)

    monkeypatch.setattr(controller_class, "note_executed", counted_note_executed)
    monkeypatch.setattr(controller_class, "finalize", counted_finalize)
    monkeypatch.setattr(decision_class, "__new__", staticmethod(counted_decision_new))
    monkeypatch.setattr(decision_class, "_make", staticmethod(counted_decision_make))
    result = explore(McRunConfig(seed=seed), strategy="dfs", budget=10,
                     por=True, shrink=False)
    assert result.ok and result.runs == 10
    assert recorded > 250 * result.runs
    assert built == recorded
    assert executed / result.runs <= 60


# -- an idle warm volume ---------------------------------------------------------


def test_idle_warm_volume_costs_one_wakeup_per_renewal(monkeypatch):
    lease, margin, window = 2_000.0, 500.0, 20_000.0
    sim = Simulator(seed=0)
    net = Network(sim, ConstantDelay(10.0))
    cluster = build_dqvl_cluster(
        sim, net, [f"iqs{i}" for i in range(5)], [f"oqs{i}" for i in range(3)],
        DqvlConfig(
            lease_length_ms=lease, proactive_renewal=True,
            renewal_margin_ms=margin, interest_window_ms=window,
        ),
    )
    oqs = cluster.oqs_node("oqs0")
    client = cluster.client("c0", prefer_oqs="oqs0")

    # One keeper loop iteration == one keeper sleep (the renewal rounds
    # in between wait on their round futures, not on bare sleeps).
    keeper_sleeps = []
    healthy_keeper = oqs._volume_keeper

    def counted_keeper(volume):
        keeper = healthy_keeper(volume)
        value = None
        while True:
            try:
                waited_on = keeper.send(value)
            except StopIteration:
                return
            if waited_on.name.startswith("sleep("):
                keeper_sleeps.append(sim.now)
            value = yield waited_on

    oqs._volume_keeper = counted_keeper

    # Every deadline the keeper asks for, with the grants to its volume
    # so far and whether the answer took a walk (none was kept).
    asks = []
    grants = {}
    view = oqs.view
    apply_grant, quorum_deadline = view.apply_grant, view.quorum_deadline

    def counted_grant(iqs_node, volume, *args):
        grants[volume] = grants.get(volume, 0) + 1
        return apply_grant(iqs_node, volume, *args)

    def counted_deadline(volume, is_read_quorum):
        walked = volume not in view._deadlines
        deadline = quorum_deadline(volume, is_read_quorum)
        asks.append((sim.now, grants.get(volume, 0), walked))
        return deadline

    view.apply_grant = counted_grant
    view.quorum_deadline = counted_deadline

    finished_calls = []
    real_run = QuorumCall.run

    def recording_run(call):
        replies = yield from real_run(call)
        finished_calls.append(call.attempts)
        return replies

    monkeypatch.setattr(QuorumCall, "run", recording_run)

    def one_read():
        yield from client.read("x")

    sim.run_process(one_read(), until=1_000.0)
    idle_from = sim.now
    net.reset_counters()
    calls_before = len(finished_calls)
    sim.run()  # drains: the keeper exits once the volume is cold

    assert not oqs._keeper_running
    assert window <= sim.now <= idle_from + window + lease
    idle_iterations = [t for t in keeper_sleeps if t >= idle_from]
    assert 0 < len(idle_iterations) <= math.ceil(window / (lease - margin)) + 2
    idle_traffic = net.stats.by_kind
    assert set(idle_traffic) == {"vl_renew", "vl_renew_reply"}, idle_traffic
    keeper_calls = finished_calls[calls_before:]
    assert keeper_calls and all(attempts >= 1 for attempts in keeper_calls)
    # A deadline is walked once per grant to its volume: an ask walks
    # exactly when a grant arrived since the one before it, so a wake
    # with nothing granted since walks nothing.
    assert asks[0][2]
    for (_, before, _), (_, count, walked) in zip(asks, asks[1:]):
        assert walked == (count != before)
    # Idle, each wake asks twice (before and after its renewal round)
    # and walks once, after the round's grants: 13 walks of 26 asks.
    idle_walks = [walked for when, _, walked in asks if when >= idle_from]
    assert len(idle_walks) == 2 * len(keeper_calls)
    assert sum(idle_walks) == len(keeper_calls)


# -- the quorum deadline -----------------------------------------------------------


@st.composite
def _systems(draw):
    """One of the five spec kinds over n <= 7 nodes."""
    n = draw(st.integers(1, 7))
    nodes = [f"i{k}" for k in range(n)]
    kind = draw(st.sampled_from(
        ["majority", "grid", "weighted", "rowa", "singleton"]
    ))
    if kind == "majority":
        r = draw(st.integers(1, n))
        spec = QuorumSpec(kind="majority", read_size=r,
                          write_size=draw(st.integers(n - r + 1, n)))
    elif kind == "weighted":
        votes = tuple(draw(st.integers(1, 3)) for _ in nodes)
        r = draw(st.integers(1, sum(votes)))
        spec = QuorumSpec(kind="weighted", votes=votes, read_threshold=r,
                          write_threshold=draw(st.integers(sum(votes) - r + 1, sum(votes))))
    else:
        spec = QuorumSpec(kind="single" if kind == "singleton" else kind)
    return spec.build(nodes)


def _brute_force_deadline(system, expiry):
    """Max over read quorums of the min member expiry."""
    best = NEVER
    for size in range(1, len(system.nodes) + 1):
        for members in itertools.combinations(system.nodes, size):
            if system.is_read_quorum(set(members)):
                best = max(best, min(expiry[i] for i in members))
    return best


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_quorum_deadline_is_max_min_over_read_quorums(data):
    system = data.draw(_systems())
    # few distinct values, so ties and never-granted members are common
    expiry = {
        i: data.draw(st.sampled_from([NEVER, 0.0, 1.0, 2.5, 2.5, 7.0, 40.0]))
        for i in system.nodes
    }
    view = OqsLeaseView()
    for i, when in expiry.items():
        if when != NEVER:
            view.apply_grant(i, "vol0", length_ms=when, epoch=0, requestor_time=0.0)
    deadline = view.quorum_deadline("vol0", system.is_read_quorum)
    assert deadline == _brute_force_deadline(system, expiry)


def _walked_deadline(node, volume):
    """``OqsLeaseView.quorum_deadline`` as it was before it was kept per
    grant: the walk, on every ask (never-granted members at ``-inf``)."""
    members = set()
    rows = node.view.raw_rows(volume, node.iqs.nodes)
    for neg_expires, i in sorted([(-expires, i) for i, expires, _, _ in rows]):
        members.add(i)
        if node.iqs.is_read_quorum(members):
            return -neg_expires
    return NEVER


def _fresh_per_call(node, volume, now):
    """The renewal round's ``fresh`` set as it was built on every ask."""
    margin = node.config.renewal_margin_ms
    return {i for i, expires, _, _ in node.view.raw_rows(volume, node.iqs.nodes)
            if expires > now and expires - now > margin}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kept_deadlines_and_fresh_sets_follow_the_walk(data):
    """Random grants (raising the epoch or not) over three volumes,
    forward time steps and volatile recoveries, each recovery followed
    by the grants that arrive before the next ask: after every step,
    the kept deadlines and a kept fresh set (each asked twice, so the
    second answer is the kept one) equal a walk made at that step."""
    system = data.draw(_systems())
    volumes = ["vol0", "vol1", "vol2"]
    sim = Simulator(seed=0)
    oqs = DqvlOqsNode(sim, Network(sim), "oqs0", system, DqvlConfig(
        lease_length_ms=10.0, renewal_margin_ms=2.0, volatile_oqs_recovery=True,
    ))
    now = 0.0
    grant = st.tuples(
        st.just("grant"), st.sampled_from(system.nodes), st.sampled_from(volumes),
        st.sampled_from([0.0, 1.0, 2.5, 4.0]), st.sampled_from([1.0, 2.0, 10.0]),
        st.booleans(),
    )
    tick = st.tuples(st.just("tick"), st.sampled_from([0.0, 0.5, 1.0, 3.0, 8.0]))
    recover = st.tuples(st.just("recover"), st.lists(grant, max_size=3))

    def apply(step):
        _, i, volume, t0, length, raise_epoch = step
        epoch = next(oqs.view.raw_rows(volume, [i]))[2] + raise_epoch
        oqs.view.apply_grant(i, volume, length, epoch, now + t0)

    for step in data.draw(st.lists(st.one_of(grant, grant, tick, recover), max_size=30)):
        if step[0] == "grant":
            apply(step)
        elif step[0] == "tick":
            now += step[1]
        else:
            oqs.on_recover()
            for regrant in step[1]:
                apply(regrant)
        for volume in volumes:
            walked = _walked_deadline(oqs, volume)
            for _ in range(2):
                assert oqs.view.quorum_deadline(volume, system.is_read_quorum) == walked
        # the view keeps one fresh set, so it is asked for one volume a
        # step: a set kept from an earlier step can then be reused
        volume = data.draw(st.sampled_from(volumes))
        fresh = _fresh_per_call(oqs, volume, now)
        for _ in range(2):
            assert oqs.view.fresh(volume, now, oqs.config.renewal_margin_ms) == fresh


def test_a_grant_to_another_volume_keeps_the_deadline():
    """A grant drops only its own volume's kept deadline, so the keeper
    of one volume does not re-walk for another volume's grants."""
    system = QuorumSpec(kind="majority").build(["i0", "i1", "i2"])
    view = OqsLeaseView()
    for i in ("i0", "i1"):
        view.apply_grant(i, "vol0", 100.0, 0, 0.0)
    assert view.quorum_deadline("vol0", system.is_read_quorum) == 100.0
    walks = []

    def is_read_quorum(members):
        walks.append(sorted(members))
        return system.is_read_quorum(members)

    view.apply_grant("i2", "vol1", 100.0, 1, 0.0)
    assert "vol0" in view._deadlines and "vol1" not in view._deadlines
    assert view.quorum_deadline("vol0", is_read_quorum) == 100.0
    assert walks == []
    view.apply_grant("i0", "vol0", 200.0, 0, 0.0)
    view.apply_grant("i2", "vol0", 150.0, 0, 0.0)
    assert view.quorum_deadline("vol0", is_read_quorum) == 150.0
    assert walks == [["i0"], ["i0", "i2"]]


# -- the checker ---------------------------------------------------------------------


def _read(key, version, start, end):
    value = f"{key}-v{version}" if version else None
    clock = LogicalClock(version, "w") if version else ZERO_LC
    return Op("read", key, value, clock, start, end, "r")


def _clean_ops(num_keys=3, rounds=2_000):
    """Per key, rounds of one write and four reads — one inside the
    write returning the old value, one inside it returning the new
    value, two after it — with the keys interleaved in history order."""
    per_key = []
    for k in range(num_keys):
        key, ops, t = f"k{k}", [], 0.0
        for n in range(1, rounds + 1):
            ops += [
                Op("write", key, f"{key}-v{n}", LogicalClock(n, "w"), t, t + 4.0, "w"),
                _read(key, n - 1, t + 1.0, t + 2.0),
                _read(key, n, t + 2.0, t + 3.0),
                _read(key, n, t + 4.0, t + 5.0),
                _read(key, n, t + 5.0, t + 6.0),
            ]
            t += 6.0
        per_key.append(ops)
    return [op for same_round in zip(*per_key) for op in same_round]


def test_check_regular_explains_a_clean_history_without_the_exact_scan(monkeypatch):
    history = History()
    history.ops = _clean_ops()
    assert len(history) == 30_000 and len(history.by_key()) == 3
    # a copy with 7 reads that return a write two versions behind the
    # last one, long after it completed
    stale = History()
    stale.ops = list(history.ops)
    after = history.ops[-1].end + 1.0
    positions = range(2_000, 30_000, 4_000)
    injected = [_read(f"k{at % 3}", 1_998, after, after + 1.0) for at in positions]
    assert len(injected) == 7
    for at, read in zip(positions, injected):
        stale.ops.insert(at, read)

    exact_calls, histories_built = [], []
    exact, history_init = regular._legal_writes_regular, History.__init__
    monkeypatch.setattr(
        regular, "_legal_writes_regular",
        lambda read, writes: exact_calls.append(read) or exact(read, writes),
    )
    monkeypatch.setattr(
        History, "__init__",
        lambda self: histories_built.append(self) or history_init(self),
    )

    ops, elements = history.ops, list(map(id, history.ops))
    start = time.perf_counter()
    assert check_regular(history) == []
    assert time.perf_counter() - start < 2.0
    assert exact_calls == []
    assert history.ops is ops and list(map(id, ops)) == elements

    violations = check_regular(stale)
    assert sorted(map(id, exact_calls)) == sorted(map(id, injected))
    assert sorted(id(v.read) for v in violations) == sorted(map(id, injected))
    assert histories_built == []


# -- the cycle collector ----------------------------------------------------------


@pytest.fixture
def collections(monkeypatch):
    """Counts cycle-collector passes: ``[inside a run loop, outside]``.
    The loops, not ``Simulator.run``: a pass the allocator triggers on
    the way into ``run``, before the pause takes hold, is not the
    loop's."""
    from repro.sim.kernel import Simulator

    depth = 0
    counts = [0, 0]

    def counted(loop):
        def run_loop(sim, *args, **kwargs):
            nonlocal depth
            depth += 1
            try:
                return loop(sim, *args, **kwargs)
            finally:
                depth -= 1
        return run_loop

    def on_gc(phase, _info):
        if phase == "start":
            counts[0 if depth else 1] += 1

    assert gc.isenabled()
    for name in ("_run_fast", "_run_controlled"):
        monkeypatch.setattr(Simulator, name, counted(getattr(Simulator, name)))
    gc.callbacks.append(on_gc)
    try:
        yield counts
    finally:
        gc.callbacks.remove(on_gc)


def test_no_collection_inside_a_flash_crowd_run(collections):
    """The benchmark's ``cdn_flash_dqvl`` shape on a quarter of its
    horizon: every queued arrival, pending future and lease row is a
    container the allocator counts, so the collector used to walk the
    live world 67 times inside this run's loop (a sixth of its wall
    time) and free nothing — what the run discards dies by reference
    count."""
    from repro.edge.cdn import CdnScenarioConfig, run_cdn

    span = 1_000.0
    result = run_cdn(CdnScenarioConfig(
        protocol="dqvl", seed=7, regions=2, pops_per_region=2,
        users=1_000_000, ops_per_user_per_s=0.0002, write_ratio=0.02,
        num_objects=100_000, num_volumes=128, zipf_s=1.1,
        issuers_per_pop=16, queue_limit=4096,
        horizon_ms=span, flash_start_ms=span / 4, flash_peak_multiplier=5.0,
        flash_ramp_ms=span / 24, flash_hold_ms=span / 6,
        flash_decay_ms=span / 12,
    ))
    assert len(result.history) > 200
    assert collections[0] == 0
    assert gc.isenabled()


def test_at_most_one_collection_per_explored_schedule(collections):
    """``run_schedule`` holds the pause from deployment to verdict and
    its world dies by reference count, so the explorer is only collected
    between schedules (the parent: 17 passes inside these ten worlds'
    loops, each world one strongly connected component)."""
    from repro.mc import McRunConfig, explore

    result = explore(McRunConfig(seed=7003), strategy="dfs", budget=10,
                     por=True, shrink=False)
    assert result.runs == 10
    assert collections[0] == 0
    assert collections[1] <= result.runs
