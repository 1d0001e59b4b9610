"""Unit and property tests for the volume-lease state machines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.leases import DelayedInval, IqsLeaseTable, OqsLeaseView
from repro.types import ZERO_LC, LogicalClock


def lc(n, node="w"):
    return LogicalClock(n, node)


class TestIqsLeaseTable:
    def make(self, L=1000.0, drift=0.0, max_delayed=5):
        return IqsLeaseTable(lease_length_ms=L, max_drift=drift, max_delayed=max_delayed)

    def test_validation(self):
        with pytest.raises(ValueError):
            IqsLeaseTable(lease_length_ms=0)
        with pytest.raises(ValueError):
            IqsLeaseTable(lease_length_ms=10, max_delayed=0)

    def test_grant_records_conservative_expiry(self):
        table = self.make(L=1000.0, drift=0.01)
        grant = table.grant("v", "j", now=100.0, requestor_time=42.0)
        assert grant.length_ms == 1000.0
        assert grant.requestor_time == 42.0
        assert table.expiry("v", "j") == pytest.approx(100.0 + 1010.0)

    def test_never_granted_is_expired_with_neg_inf(self):
        table = self.make()
        assert table.expiry("v", "j") == float("-inf")
        assert table.is_expired("v", "j", now=0.0)

    def test_expiry_boundary_is_not_expired(self):
        """At the exact expiry instant the granter still treats the lease
        as live (the safe direction)."""
        table = self.make(L=100.0)
        table.grant("v", "j", now=0.0, requestor_time=0.0)
        assert not table.is_expired("v", "j", now=100.0)
        assert table.is_expired("v", "j", now=100.0001)

    def test_delayed_invals_kept_until_acked(self):
        table = self.make()
        table.enqueue_delayed("v", "j", "a", lc(3))
        table.enqueue_delayed("v", "j", "b", lc(5))
        grant = table.grant("v", "j", now=0.0, requestor_time=0.0)
        assert {d.obj for d in grant.delayed} == {"a", "b"}
        # not cleared by the grant itself
        assert table.delayed_count("v", "j") == 2
        table.ack_delayed("v", "j", lc(4))
        assert table.pending_delayed("v", "j") == {"b": lc(5)}
        table.ack_delayed("v", "j", lc(5))
        assert table.delayed_count("v", "j") == 0

    def test_delayed_subsumption_keeps_max(self):
        table = self.make()
        table.enqueue_delayed("v", "j", "a", lc(7))
        table.enqueue_delayed("v", "j", "a", lc(3))
        assert table.pending_delayed("v", "j") == {"a": lc(7)}
        assert table.has_delayed("v", "j", "a", lc(7))
        assert not table.has_delayed("v", "j", "a", lc(8))

    def test_queue_overflow_bumps_epoch(self):
        table = self.make(max_delayed=3)
        for i in range(4):
            table.enqueue_delayed("v", "j", f"o{i}", lc(i + 1))
        assert table.epoch("v", "j") == 1
        assert table.delayed_count("v", "j") == 0
        assert table.epoch_bumps == 1

    def test_epoch_scoped_per_volume_node(self):
        table = self.make()
        table.bump_epoch("v", "j1")
        assert table.epoch("v", "j1") == 1
        assert table.epoch("v", "j2") == 0
        assert table.epoch("w", "j1") == 0

    def test_grant_carries_current_epoch(self):
        table = self.make()
        table.bump_epoch("v", "j")
        grant = table.grant("v", "j", now=0.0, requestor_time=0.0)
        assert grant.epoch == 1


class TestOqsLeaseView:
    def make_grant(self, volume="v", L=1000.0, epoch=0, delayed=(), t0=0.0):
        from repro.core.leases import VolumeLeaseGrant

        return VolumeLeaseGrant(
            volume=volume, length_ms=L, epoch=epoch,
            delayed=tuple(delayed), requestor_time=t0,
        )

    def test_grant_sets_conservative_expiry(self):
        view = OqsLeaseView(max_drift=0.01)
        view.apply_grant("i", self.make_grant(t0=100.0, L=1000.0))
        assert view.volume_expiry("v", "i") == pytest.approx(100.0 + 990.0)
        assert view.volume_valid("v", "i", now=1000.0)
        assert not view.volume_valid("v", "i", now=1090.0)

    def test_expiry_boundary_invalid_for_holder(self):
        """At the exact expiry instant the holder treats the lease as
        dead (the safe direction, opposite of the granter)."""
        view = OqsLeaseView()
        view.apply_grant("i", self.make_grant(t0=0.0, L=100.0))
        assert view.volume_valid("v", "i", now=99.999)
        assert not view.volume_valid("v", "i", now=100.0)

    def test_reordered_grants_never_regress(self):
        view = OqsLeaseView()
        view.apply_grant("i", self.make_grant(t0=500.0, L=100.0, epoch=2))
        view.apply_grant("i", self.make_grant(t0=100.0, L=100.0, epoch=1))
        assert view.volume_expiry("v", "i") == pytest.approx(600.0)
        assert view.volume_epoch("v", "i") == 2

    def test_grant_applies_delayed_invalidations(self):
        view = OqsLeaseView()
        view.apply_renewal("i", "a", epoch=0, lc=lc(1))
        grant = self.make_grant(delayed=[DelayedInval("a", lc(5))])
        view.apply_grant("i", grant)
        _, clock, valid = view.object_state("a", "i")
        assert clock == lc(5) and not valid

    def test_renewal_validates_unless_newer_inval_seen(self):
        view = OqsLeaseView()
        view.apply_invalidation("i", "a", lc(10))
        assert view.apply_renewal("i", "a", epoch=0, lc=lc(7)) is False
        _, clock, valid = view.object_state("a", "i")
        assert clock == lc(10) and not valid
        assert view.apply_renewal("i", "a", epoch=0, lc=lc(10)) is True
        _, clock, valid = view.object_state("a", "i")
        assert valid

    def test_stale_invalidation_ignored(self):
        view = OqsLeaseView()
        view.apply_renewal("i", "a", epoch=0, lc=lc(10))
        view.apply_invalidation("i", "a", lc(3))
        _, clock, valid = view.object_state("a", "i")
        assert clock == lc(10) and valid

    def test_object_valid_requires_volume_and_epoch(self):
        view = OqsLeaseView()
        view.apply_grant("i", self.make_grant(t0=0.0, L=1000.0, epoch=0))
        view.apply_renewal("i", "a", epoch=0, lc=lc(1))
        assert view.object_valid("v", "a", "i", now=10.0)
        # epoch bump invalidates every object lease under the volume
        view.apply_grant("i", self.make_grant(t0=20.0, L=1000.0, epoch=1))
        assert not view.object_valid("v", "a", "i", now=30.0)
        # re-renewal under the new epoch revalidates
        view.apply_renewal("i", "a", epoch=1, lc=lc(1))
        assert view.object_valid("v", "a", "i", now=40.0)

    def test_object_invalid_without_volume(self):
        view = OqsLeaseView()
        view.apply_renewal("i", "a", epoch=0, lc=lc(1))
        assert not view.object_valid("v", "a", "i", now=0.0)

    def test_valid_servers_and_best_clock(self):
        view = OqsLeaseView()
        for i, n in [("i1", 3), ("i2", 5)]:
            view.apply_grant(i, self.make_grant(t0=0.0, L=1000.0))
            view.apply_renewal(i, "a", epoch=0, lc=lc(n))
        view.apply_invalidation("i3", "a", lc(9))
        assert set(view.valid_servers("v", "a", ["i1", "i2", "i3"], now=1.0)) == {"i1", "i2"}
        assert view.best_valid_clock("v", "a", ["i1", "i2", "i3"], now=1.0) == lc(5)
        assert view.object_clock("a", "i3") == lc(9)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@given(
    entries=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(1, 50)),
        min_size=1,
        max_size=30,
    ),
    ack=st.integers(0, 50),
)
@settings(max_examples=150, deadline=None)
def test_property_delayed_queue_subsumption_and_ack(entries, ack):
    """The queue always holds exactly the per-object max clock of the
    unacked invalidations."""
    table = IqsLeaseTable(lease_length_ms=10.0, max_delayed=10_000)
    expected = {}
    for obj, n in entries:
        table.enqueue_delayed("v", "j", obj, lc(n))
        expected[obj] = max(expected.get(obj, ZERO_LC), lc(n))
    table.ack_delayed("v", "j", lc(ack))
    expected = {o: c for o, c in expected.items() if c > lc(ack)}
    assert table.pending_delayed("v", "j") == expected


@given(
    drift=st.floats(min_value=0.0, max_value=0.1),
    t0=st.floats(min_value=0.0, max_value=1e6),
    grant_delay=st.floats(min_value=0.0, max_value=1e4),
    L=st.floats(min_value=1.0, max_value=1e5),
)
@settings(max_examples=150, deadline=None)
def test_property_holder_expiry_never_outlives_granter(drift, t0, grant_delay, L):
    """With the two-sided drift corrections, the holder's (local) lease
    window, converted through any admissible clock pair, ends no later
    than the granter's recorded window.  Checked here in the worst case:
    holder clock slowest, granter clock fastest."""
    table = IqsLeaseTable(lease_length_ms=L, max_drift=drift)
    view = OqsLeaseView(max_drift=drift)
    # real time 0 = request send; grant processed grant_delay later
    granter_now_local = (t0 + grant_delay) * (1 + drift)  # fastest granter
    table.grant("v", "j", now=granter_now_local, requestor_time=t0)
    from repro.core.leases import VolumeLeaseGrant

    view.apply_grant(
        "j-side",
        VolumeLeaseGrant(volume="v", length_ms=L, epoch=0, delayed=(), requestor_time=t0),
    )
    # holder local expiry -> real time (slowest holder: local = real*(1-drift))
    holder_local_expiry = view.volume_expiry("v", "j-side")
    holder_real_expiry = (holder_local_expiry - t0) / (1 - drift) + t0 if drift < 1 else 0
    # granter local expiry -> real time (fastest granter)
    granter_local_expiry = table.expiry("v", "j")
    granter_real_expiry = granter_local_expiry / (1 + drift)
    assert granter_real_expiry >= holder_real_expiry - 1e-6


class TestBoundarySemantics:
    """The asymmetric-conservative expiry boundary and the inclusive
    ack-equality contract (see the module docstring of
    ``repro.core.leases``), pinned at ``max_drift=0`` where the two
    sides' clocks agree and the boundary instant is exactly shared."""

    def test_volume_boundary_is_asymmetric_conservative(self):
        """At ``now == expires`` with zero drift, the granter still
        counts the lease as held while the holder already refuses to
        serve — there is no instant where the holder serves a lease the
        granter has written off."""
        table = IqsLeaseTable(lease_length_ms=100.0, max_drift=0.0)
        view = OqsLeaseView(max_drift=0.0)
        grant = table.grant("v", "j", now=0.0, requestor_time=0.0)
        view.apply_grant("i", grant)
        assert table.expiry("v", "j") == view.volume_expiry("v", "i") == 100.0

        # strictly inside / at the boundary / strictly past it:
        for now, granter_holds, holder_serves in [
            (99.999, True, True),
            (100.0, True, False),   # the asymmetric instant
            (100.001, False, False),
        ]:
            assert table.is_expired("v", "j", now) is not granter_holds
            assert view.volume_valid("v", "i", now) is holder_serves
            # safety: never (holder serves and granter has expired it)
            assert not (
                view.volume_valid("v", "i", now)
                and table.is_expired("v", "j", now)
            )

    def test_object_lease_boundary_matches_volume_boundary(self):
        from repro.core.leases import ObjectLeaseTable

        table = ObjectLeaseTable(max_drift=0.0)
        table.grant("a", "j", now=0.0, length_ms=100.0)
        assert not table.is_expired("a", "j", now=100.0)
        assert table.is_expired("a", "j", now=100.001)

        # holder side: object_valid's `expires > now` drops it at 100.0
        view = OqsLeaseView(max_drift=0.0)
        view.apply_grant("i", TestOqsLeaseView().make_grant(t0=0.0, L=1000.0))
        view.apply_renewal("i", "a", epoch=0, lc=lc(1), expires=100.0)
        assert view.object_valid("v", "a", "i", now=99.999)
        assert not view.object_valid("v", "a", "i", now=100.0)

    def test_ack_equality_contract(self):
        """An ack at exactly ``lc`` covers the queued entry at ``lc``:
        ``ack_delayed`` clears it (inclusive ``<=``) and ``has_delayed``
        then reports nothing outstanding — the regression pair for the
        ``pending <= lc`` vs ``pending >= lc`` comparisons."""
        table = IqsLeaseTable(lease_length_ms=100.0)
        table.enqueue_delayed("v", "j", "a", lc(5))

        # before the ack: the queued entry subsumes clocks up to 5
        assert table.has_delayed("v", "j", "a", lc(5))
        assert table.has_delayed("v", "j", "a", lc(4))
        assert not table.has_delayed("v", "j", "a", lc(6))

        # an ack strictly below leaves the entry in place
        table.ack_delayed("v", "j", lc(4))
        assert table.has_delayed("v", "j", "a", lc(5))
        assert table.delayed_count("v", "j") == 1

        # the boundary ack: equality counts as covered on both sides
        table.ack_delayed("v", "j", lc(5))
        assert table.delayed_count("v", "j") == 0
        assert not table.has_delayed("v", "j", "a", lc(5))
        # ZERO_LC trivially "queued" is the only remaining truth
        assert table.has_delayed("v", "j", "a", ZERO_LC)

    def test_ack_tiebreak_is_total_order_not_counter(self):
        """Logical clocks order by (counter, node_id); an ack from a
        different writer with the same counter only covers entries that
        compare <= under the total order."""
        table = IqsLeaseTable(lease_length_ms=100.0)
        table.enqueue_delayed("v", "j", "a", LogicalClock(5, "z"))
        table.ack_delayed("v", "j", LogicalClock(5, "a"))  # "a" < "z"
        assert table.delayed_count("v", "j") == 1
        table.ack_delayed("v", "j", LogicalClock(5, "z"))
        assert table.delayed_count("v", "j") == 0


# ---------------------------------------------------------------------------
# differential: the row layout and its one-pass questions against the
# tuple-keyed layout and the three-pass hit test they replaced
# ---------------------------------------------------------------------------

INF, NEVER = float("inf"), float("-inf")
VOLUME_OF = {"a": "v1", "b": "v1", "c": "v2"}


class TupleKeyedView:
    """The reference model: ``OqsLeaseView`` as it was before the rows —
    three flat dicts keyed by ``(volume, i)`` / ``(obj, i)``, validity
    re-derived per server through ``object_valid -> volume_valid ->
    volume_epoch``."""

    def __init__(self, max_drift=0.0):
        self.max_drift = max_drift
        self.vol_expires, self.vol_epoch, self.objects = {}, {}, {}

    def apply_grant(self, i, grant):
        key = (grant.volume, i)
        conservative = grant.requestor_time + grant.length_ms * (1.0 - self.max_drift)
        self.vol_expires[key] = max(self.vol_expires.get(key, NEVER), conservative)
        self.vol_epoch[key] = max(self.vol_epoch.get(key, 0), grant.epoch)
        for inval in grant.delayed:
            self.apply_invalidation(i, inval.obj, inval.lc)

    def apply_invalidation(self, i, obj, clock):
        lease = self.objects.setdefault((obj, i), [0, ZERO_LC, False, INF])
        if clock > lease[1]:
            lease[1], lease[2] = clock, False

    def apply_renewal(self, i, obj, epoch, clock, expires=INF):
        lease = self.objects.setdefault((obj, i), [0, ZERO_LC, False, INF])
        lease[0] = max(lease[0], epoch)
        if lease[1] <= clock:
            lease[1], lease[2], lease[3] = clock, True, expires
            return True
        return False

    def volume_valid(self, volume, i, now):
        return self.vol_expires.get((volume, i), NEVER) > now

    def object_valid(self, volume, obj, i, now):
        if not self.volume_valid(volume, i, now):
            return False
        lease = self.objects.get((obj, i))
        if lease is None:
            return False
        return (lease[2] and lease[0] == self.vol_epoch.get((volume, i), 0)
                and lease[3] > now)

    def object_clock(self, obj, i):
        return self.objects.get((obj, i), [0, ZERO_LC])[1]

    def valid_servers(self, volume, obj, nodes, now):
        return [i for i in nodes if self.object_valid(volume, obj, i, now)]

    def best_valid_clock(self, volume, obj, nodes, now):
        best = ZERO_LC
        for i in nodes:
            if self.object_valid(volume, obj, i, now):
                best = max(best, self.object_clock(obj, i))
        return best

    def three_pass_hit(self, system, volume, obj, now):
        """``DqvlOqsNode.is_local_valid`` as it was: three walks."""
        valid = set(self.valid_servers(volume, obj, system.nodes, now))
        if not system.is_read_quorum(valid):
            return False
        best_valid = self.best_valid_clock(volume, obj, system.nodes, now)
        max_seen = max(
            (self.object_clock(obj, i) for i in system.nodes), default=ZERO_LC
        )
        return best_valid >= max_seen


@st.composite
def _iqs_shapes(draw):
    from repro.quorum import QuorumSpec

    n = draw(st.integers(1, 6))
    nodes = [f"i{k}" for k in range(n)]
    kind = draw(st.sampled_from(["majority", "grid", "weighted", "rowa"]))
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
        spec = QuorumSpec(kind=kind)
    return spec.build(nodes)


# Small integer send times and lengths, so expiries collide with each
# other and with the query instants: ``now == expires`` is a common case.
_CLOCKS = st.integers(1, 6).map(lc)
_OBJECTS = st.sampled_from(sorted(VOLUME_OF))
_INSTANTS = st.sampled_from([t / 2 for t in range(0, 44)])


def _steps(nodes):
    node = st.sampled_from(nodes)
    grant = st.tuples(
        st.just("grant"), node, st.sampled_from(["v1", "v2"]),
        st.integers(0, 10), st.sampled_from([1.0, 2.0, 5.0, 10.0]),
        st.integers(0, 2), st.lists(st.tuples(_OBJECTS, _CLOCKS), max_size=2),
    )
    inval = st.tuples(st.just("inval"), node, _OBJECTS, _CLOCKS)
    renew = st.tuples(
        st.just("renew"), node, _OBJECTS, st.integers(0, 2), _CLOCKS,
        st.sampled_from([INF, INF, 3.0, 5.0, 8.0, 12.0]),
    )
    # a subset of servers made fully valid at once (current epoch, one
    # clock): what a finished validation leaves behind, so hits are common
    warm = st.tuples(
        st.just("warm"), st.sets(node, min_size=1), _OBJECTS,
        st.integers(0, 10), _CLOCKS,
    )
    query = st.tuples(st.just("query"), _INSTANTS)
    return st.lists(
        st.one_of(warm, warm, grant, inval, renew, query, query), max_size=30
    )


class _ClockAt:
    """A node clock the test sets: queries run at arbitrary instants."""

    t = 0.0

    def now(self):
        return self.t


def _assert_views_agree(view, ref, node, system, now):
    nodes = system.nodes
    node.clock.t = now
    assert {
        (volume, i): epoch
        for volume, row in view.volume_rows() for i, (_, epoch) in row.items()
    } == ref.vol_epoch
    for volume in {volume for volume, _ in ref.vol_epoch} | {"absent"}:
        assert view.volume_row(volume) == {
            i: (ref.vol_expires[v, i], epoch)
            for (v, i), epoch in ref.vol_epoch.items() if v == volume
        }
    for obj, volume in VOLUME_OF.items():
        # the one-pass answer against the three-pass definition
        assert node.is_local_valid(obj) == ref.three_pass_hit(system, volume, obj, now)
        valid, best, max_seen = view.hit_state(volume, obj, nodes, now)
        assert valid == ref.valid_servers(volume, obj, nodes, now)
        assert best == ref.best_valid_clock(volume, obj, nodes, now)
        assert max_seen == max(ref.object_clock(obj, i) for i in nodes)
        assert view.max_clock_seen(obj) == max_seen
        # every public accessor against the tuple-keyed model
        assert view.valid_servers(volume, obj, iter(nodes), now) == valid
        assert view.best_valid_clock(volume, obj, nodes, now) == best
        rows = list(view.raw_rows(volume, nodes, obj))
        assert [row[0] for row in rows] == list(nodes)
        for i, vol_expiry, vol_epoch, lease in rows:
            assert vol_expiry == view.volume_expiry(volume, i)
            assert vol_expiry == ref.vol_expires.get((volume, i), NEVER)
            assert vol_epoch == view.volume_epoch(volume, i)
            assert vol_epoch == ref.vol_epoch.get((volume, i), 0)
            assert view.volume_valid(volume, i, now) == ref.volume_valid(volume, i, now)
            assert view.object_valid(volume, obj, i, now) == ref.object_valid(volume, obj, i, now)
            assert view.object_clock(obj, i) == ref.object_clock(obj, i)
            expected = ref.objects.get((obj, i))
            if expected is None:
                assert lease is None
                assert view.object_state(obj, i) == (0, ZERO_LC, False)
            else:
                recorded = [lease.epoch, lease.lc, lease.valid, lease.expires]
                assert recorded == expected
                assert view.object_state(obj, i) == tuple(expected[:3])


@given(data=st.data())
@settings(max_examples=600, deadline=None)
def test_differential_row_view_against_tuple_keyed_model(data):
    from repro.core import DqvlConfig
    from repro.core.dqvl import DqvlOqsNode
    from repro.core.leases import VolumeLeaseGrant
    from repro.core.volumes import ExplicitVolumeMap
    from repro.sim import Network, Simulator

    system = data.draw(_iqs_shapes())
    drift = data.draw(st.sampled_from([0.0, 0.5]))
    sim = Simulator(seed=0)
    node = DqvlOqsNode(
        sim, Network(sim), "oqs0", system,
        DqvlConfig(max_drift=drift, volume_map=ExplicitVolumeMap(VOLUME_OF)),
    )
    node.clock = _ClockAt()
    view, ref = node.view, TupleKeyedView(max_drift=drift)
    assert view.max_drift == drift
    for step in data.draw(_steps(list(system.nodes))):
        if step[0] == "warm":
            _, servers, obj, t0, clock = step
            for i in sorted(servers):
                epoch = ref.vol_epoch.get((VOLUME_OF[obj], i), 0)
                grant = VolumeLeaseGrant(
                    volume=VOLUME_OF[obj], length_ms=10.0, epoch=epoch,
                    delayed=(), requestor_time=float(t0),
                )
                for model in (view, ref):
                    model.apply_grant(i, grant)
                    model.apply_renewal(i, obj, epoch, clock)
        elif step[0] == "grant":
            _, i, volume, t0, length, epoch, delayed = step
            grant = VolumeLeaseGrant(
                volume=volume, length_ms=length, epoch=epoch,
                delayed=tuple(DelayedInval(o, c) for o, c in delayed),
                requestor_time=float(t0),
            )
            view.apply_grant(i, grant)
            ref.apply_grant(i, grant)
        elif step[0] == "inval":
            view.apply_invalidation(*step[1:])
            ref.apply_invalidation(*step[1:])
        elif step[0] == "renew":
            _, i, obj, epoch, clock, expires = step
            assert view.apply_renewal(i, obj, epoch, clock, expires=expires) == (
                ref.apply_renewal(i, obj, epoch, clock, expires=expires)
            )
        else:
            _assert_views_agree(view, ref, node, system, step[1])
    # always finish on the recorded expiry instants themselves
    boundaries = set(ref.vol_expires.values())
    boundaries |= {lease[3] for lease in ref.objects.values() if lease[3] != INF}
    for now in sorted(boundaries) + [data.draw(_INSTANTS)]:
        _assert_views_agree(view, ref, node, system, now)


def _reference_classify(iqs, obj, volume, j, write_lc, now):
    """``_classify_oqs_node`` as it was: per node, through the public
    accessors, in the paper's order."""
    ack = iqs.last_ack_lc(obj, j)
    if ack >= write_lc:
        return "invalid"
    if iqs.object_leases is not None and iqs.object_leases.is_expired(obj, j, now):
        return "invalid"
    renew = iqs.last_renew_lc(obj, j)
    if renew is None or ack > renew:
        return "invalid"
    if iqs.leases.expiry(volume, j) == NEVER:
        return "invalid"
    if iqs.leases.is_expired(volume, j, now):
        return "expired"
    return "valid"


@pytest.mark.filterwarnings("ignore:.*regular semantics")
@given(data=st.data())
@settings(max_examples=500, deadline=None)
def test_differential_one_loop_write_classification(data):
    """One ``_ensure_owq_invalid`` pass over pre-fetched rows treats every
    OQS node as the per-node rules say, on random renew / ack / grant /
    expiry states (exact expiry instants included), with and without
    finite object leases."""
    from repro.core import DqvlConfig, build_dqvl_cluster
    from repro.quorum import QuorumSpec
    from repro.sim import ConstantDelay, Network, Simulator

    finite = data.draw(st.booleans())
    oqs_ids = [f"o{k}" for k in range(data.draw(st.integers(1, 9)))]
    sim = Simulator(seed=0)
    net = Network(sim, ConstantDelay(10.0))
    cluster = build_dqvl_cluster(
        sim, net, ["iqs0"], oqs_ids,
        DqvlConfig(lease_length_ms=100.0,
                   object_lease_ms=50.0 if finite else None),
        oqs_system=(QuorumSpec.parse("majority").build(oqs_ids)
                    if data.draw(st.booleans()) else None),
    )
    iqs = cluster.iqs_node("iqs0")
    now = 1_000.0
    sim.run(until=now)
    assert iqs.clock.now() == now
    volume = iqs.volume_of("x")
    for j in oqs_ids:
        renew = data.draw(st.none() | _CLOCKS)
        if renew is not None:
            iqs.note_renewal("x", j, renew)
        ack = data.draw(st.none() | st.integers(0, 8).map(lc))
        if ack is not None:
            iqs._record_ack("x", j, ack)
        # lapsed / the exact expiry instant / live
        granted = data.draw(st.sampled_from([None, 150.0, 100.0, 50.0]))
        if granted is not None:
            iqs.leases.grant(volume, j, now=now - granted, requestor_time=0.0)
        if finite:
            granted = data.draw(st.sampled_from([None, 60.0, 50.0, 10.0]))
            if granted is not None:
                iqs.object_leases.grant("x", j, now - granted, 50.0)
        if data.draw(st.booleans()):
            iqs.leases.enqueue_delayed(volume, j, "x", data.draw(_CLOCKS))
    write_lc = lc(data.draw(st.integers(1, 8)))

    expected = {
        j: _reference_classify(iqs, "x", volume, j, write_lc, now) for j in oqs_ids
    }
    state = iqs._write_state("x", volume)
    for j in oqs_ids:
        assert iqs._classify_oqs_node("x", volume, j, write_lc) == expected[j]
        assert iqs._classify_oqs_node("x", volume, j, write_lc, state) == expected[j]

    queued_before = {j: iqs.leases.pending_delayed(volume, j) for j in oqs_ids}
    invalidated = []
    net.add_tap(lambda m: invalidated.append((m.kind, m.dst, m.payload["lc"], m.payload["vol"])))
    finished = next(iqs._ensure_owq_invalid("x", write_lc, record_stats=False), "done")
    cannot_read = {j for j in oqs_ids if expected[j] != "valid"}
    if iqs.oqs.is_write_quorum(cannot_read):
        assert finished == "done" and invalidated == []
    else:
        assert finished != "done"
        assert invalidated == [
            ("inval", j, write_lc, volume) for j in oqs_ids if expected[j] == "valid"
        ]
    for j in oqs_ids:
        if expected[j] == "expired":
            assert iqs.leases.has_delayed(volume, j, "x", write_lc)
        else:
            assert iqs.leases.pending_delayed(volume, j) == queued_before[j]
