"""Model-based (stateful) testing of the lease state machines.

A hypothesis rule machine drives one IQS-side lease table and one
OQS-side lease view through arbitrary interleavings of time advance,
volume grants, writes (direct or delayed invalidation), object
renewals, acks, and epoch bumps — delivering messages synchronously
(the asynchronous cases are covered by the protocol fuzz tests).

The invariant checked after every step is the heart of DQVL's safety:

    if the holder considers (volume, object) valid, then the holder's
    recorded clock for the object IS the latest write's clock.

i.e. with synchronous delivery there is no interleaving of grants,
delayed invalidations, epoch GC, and renewals that leaves a *valid*
stale entry behind.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.leases import IqsLeaseTable, OqsLeaseView
from repro.types import ZERO_LC, LogicalClock

OBJECTS = ["a", "b", "c"]
VOLUME = "v"
LEASE_MS = 100.0


class LeaseMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.table = IqsLeaseTable(lease_length_ms=LEASE_MS, max_delayed=4)
        self.view = OqsLeaseView()
        self.now = 0.0
        self.counter = 0
        self.last_write = {obj: ZERO_LC for obj in OBJECTS}

    # -- helper -------------------------------------------------------------

    def _deliver_inval(self, obj, lc):
        self.view.apply_invalidation("i", obj, lc)
        # the holder acks; the granter records it
        self.table.ack_delayed(VOLUME, "j", lc)

    # -- rules ---------------------------------------------------------------

    @rule(dt=st.floats(min_value=0.1, max_value=80.0))
    def advance_time(self, dt):
        self.now += dt

    @rule()
    def grant_volume(self):
        length_ms, epoch, delayed = self.table.grant(VOLUME, "j", now=self.now)
        self.view.apply_grant("i", VOLUME, length_ms, epoch, requestor_time=self.now)
        for obj, lc in delayed:
            self.view.apply_invalidation("i", obj, lc)
        if delayed:
            max_lc = max(lc for _obj, lc in delayed)
            self.table.ack_delayed(VOLUME, "j", max_lc)

    @rule(obj=st.sampled_from(OBJECTS))
    def renew_object(self, obj):
        """Only meaningful under a live volume lease (the protocol only
        sends object renewals then), but harmless anytime."""
        self.view.apply_renewal(
            "i", obj, epoch=self.table.epoch(VOLUME, "j"),
            lc=self.last_write[obj],
        )

    @rule(obj=st.sampled_from(OBJECTS))
    def write(self, obj):
        self.counter += 1
        lc = LogicalClock(self.counter, "w")
        self.last_write[obj] = lc
        if self.table.is_expired(VOLUME, "j", self.now):
            self.table.enqueue_delayed(VOLUME, "j", obj, lc)
        else:
            self._deliver_inval(obj, lc)

    @rule()
    def gc_epoch(self):
        self.table.bump_epoch(VOLUME, "j")

    # -- the invariant -------------------------------------------------------

    @invariant()
    def valid_implies_fresh(self):
        if not hasattr(self, "view"):
            return  # before initialize
        for obj in OBJECTS:
            if self.view.object_valid(VOLUME, obj, "i", self.now):
                held = next(self.view.raw_rows(VOLUME, ["i"], obj))[3].lc
                assert held == self.last_write[obj], (
                    f"holder serves {obj}@{held}, "
                    f"latest write is {self.last_write[obj]}"
                )

    @invariant()
    def holder_never_outlives_granter(self):
        """Zero drift: if the holder's volume lease is valid, the
        granter must not consider it expired."""
        if not hasattr(self, "view"):
            return
        if self.view.volume_valid(VOLUME, "i", self.now):
            assert not self.table.is_expired(VOLUME, "j", self.now)


TestLeaseMachine = LeaseMachine.TestCase
TestLeaseMachine.settings = settings(
    max_examples=120, stateful_step_count=60, deadline=None
)
