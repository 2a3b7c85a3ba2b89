"""Property: a lazily-read ``SystemState`` always equals the scratch walk, at atol=0.

Whole-trial tests read every machine at every mapping event.  Availability
is demand-driven now, so the interesting histories are the ones in between:
random ``notify_enqueue/start/finish/remove`` sequences where each step
reads a random *subset* of machines (often none, for many steps in a row),
with chain steps handed over through ``offer_step`` — honest ones, which may
be adopted, and stale ones (wrong predecessor object, wrong task object, a
task removed again before anyone looked), which must be ignored.  Stale
offers carry a poisoned result and poisoned by-products (what
``prune_prefix_meta`` reads), so adopting one cannot go unnoticed.  Chains
are checked against ``scratch_chain`` (``tests/conftest.py``); the pruning
metadata and ``availability_excluding`` against a fresh state with no
history, whose chain is itself checked against the scratch walk.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.completion import ChainStep, DroppingPolicy, completion_step
from repro.core.pmf import DiscretePMF
from repro.simulator.machine import Machine
from repro.simulator.state import SystemState
from repro.simulator.task import Task
from repro.workload.spec import TaskSpec

QUEUE_CAPACITY = 4
STEPS = 60


def same_chain(got, want) -> bool:
    return len(got) == len(want) and all(
        a.offset == b.offset and np.array_equal(a.probs, b.probs)
        for a, b in zip(got, want)
    )


class World:
    """Machines, the state under test, and a seeded stream of mutations."""

    def __init__(
        self, pet, seed: int, policy: DroppingPolicy, offers: bool, scratch_chain
    ):
        self.pet = pet
        self.scratch_chain = scratch_chain
        self.rng = np.random.default_rng(seed)
        self.settings = dict(policy=policy, max_impulses=8)
        self.offers = offers
        self.machines = [
            Machine(j, name, queue_capacity=QUEUE_CAPACITY)
            for j, name in enumerate(pet.machine_names)
        ]
        self.state = SystemState(self.machines, pet, **self.settings)
        self.now = 0
        self.next_id = 0
        self.adoptable = 0

    # -- mutations ------------------------------------------------------
    def new_task(self) -> Task:
        self.next_id += 1
        return Task(
            TaskSpec(
                arrival=self.now,
                task_id=self.next_id,
                task_type=int(self.rng.integers(self.pet.num_task_types)),
                deadline=self.now + int(self.rng.integers(20, 300)),
            )
        )

    def step_for(self, j: int, task: Task, prev: DiscretePMF) -> ChainStep:
        return completion_step(
            self.pet.get(task.task_type, j),
            prev,
            task.deadline,
            self.settings["policy"],
            self.settings["max_impulses"],
        )

    def enqueue(self, j: int) -> None:
        machine, state = self.machines[j], self.state
        task = self.new_task()
        kind = self.rng.choice(["none", "honest", "copied-prev", "other-task", "removed"])
        if not self.offers:
            kind = "none"
        # Poisoned availability *and* by-products: an adopted stale offer
        # shows in the chain, and in ``prune_prefix_meta`` (probability 2).
        poison = ChainStep(
            DiscretePMF.point(self.now + 10_000),
            2.0,
            DiscretePMF.from_impulses({self.now + 9_000: 0.9, self.now + 10_000: 0.1}),
        )
        if kind in ("honest", "removed"):
            prev = state.availability(j, self.now)
            after_task = self.step_for(j, task, prev)
            state.offer_step(j, task, prev, after_task)
            self.adoptable += 1
        elif kind == "copied-prev":
            live = state.availability(j, self.now)
            state.offer_step(j, task, DiscretePMF._raw(live.probs.copy(), live.offset), poison)
        elif kind == "other-task":
            twin = Task(task.spec)
            state.offer_step(j, twin, state.availability(j, self.now), poison)
        machine.enqueue(task, self.now)
        state.notify_enqueue(j, task)
        if kind == "removed" and machine.free_slots:
            # A second step chained on the first, then the first task goes
            # away unread: the follower now sits behind a different PMF.
            follower = self.new_task()
            state.offer_step(j, follower, after_task.availability, poison)
            machine.enqueue(follower, self.now)
            state.notify_enqueue(j, follower)
            machine.remove_pending(task)
            state.notify_remove(j, task)

    def mutate(self) -> None:
        j = int(self.rng.integers(len(self.machines)))
        machine, state = self.machines[j], self.state
        op = self.rng.choice(["enqueue", "enqueue", "start", "finish", "remove"])
        if op == "enqueue" and machine.has_free_slot:
            self.enqueue(j)
        elif op == "start" and machine.is_idle and machine.pending:
            machine.start_next(self.now, int(self.rng.integers(5, 80)))
            state.notify_start(j)
        elif op == "finish" and machine.executing is not None:
            task = machine.executing
            machine.finish_executing(task, self.now)
            state.notify_finish(j, task)
        elif op == "remove" and machine.pending:
            task = machine.pending[int(self.rng.integers(len(machine.pending)))]
            machine.remove_pending(task)
            state.notify_remove(j, task)

    # -- reads ----------------------------------------------------------
    def read_and_check(self, subset) -> None:
        if not len(subset):
            return
        fresh = SystemState(self.machines, self.pet, **self.settings)
        for j in subset:
            j = int(j)
            want = self.scratch_chain(self.machines[j], self.pet, self.now, **self.settings)
            assert same_chain(fresh.chain(j, self.now), want)
            how = self.rng.choice(["availability", "chain", "meta", "excluding"])
            if how == "availability":
                got = self.state.availability(j, self.now)
                ref = want[-1] if want else DiscretePMF.point(self.now)
                assert same_chain([got], [ref])
            elif how == "meta":
                got = self.state.prune_prefix_meta(j, self.now)
                ref = fresh.prune_prefix_meta(j, self.now)
                assert [p for p, _, _ in got] == [p for p, _, _ in ref]
                assert same_chain([c for _, c, _ in got], [c for _, c, _ in ref])
                assert same_chain([a for _, _, a in got], want)
            elif how == "excluding":
                queued = self.machines[j].queued_tasks()
                dropped = {t.task_id for t in queued if self.rng.random() < 0.4}
                got = self.state.availability_excluding(j, dropped, self.now)
                assert same_chain([got], [fresh.availability_excluding(j, dropped, self.now)])
            assert same_chain(self.state.chain(j, self.now), want)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    policy=st.sampled_from(list(DroppingPolicy)),
    offers=st.booleans(),
)
def test_sparse_reads_equal_scratch_walk(
    small_gamma_pet, scratch_chain, seed, policy, offers
):
    world = World(small_gamma_pet, seed, policy, offers, scratch_chain)
    n = len(world.machines)
    for _ in range(STEPS):
        world.now += int(world.rng.integers(0, 9))
        for _ in range(int(world.rng.integers(1, 4))):
            world.mutate()
        # Most steps read nothing; the rest read a random subset.
        if world.rng.random() < 0.4:
            subset = world.rng.permutation(n)[: int(world.rng.integers(1, n + 1))]
            world.read_and_check(subset)
    world.read_and_check(range(n))


def test_honest_offers_are_adopted(small_gamma_pet, scratch_chain):
    """The property above must not pass by never adopting anything."""
    from repro.obs import Telemetry, use_telemetry

    telemetry = Telemetry()
    with use_telemetry(telemetry):
        world = World(small_gamma_pet, 5, DroppingPolicy.EVICT, True, scratch_chain)
    for _ in range(STEPS):
        world.now += 3
        world.mutate()
        world.read_and_check(range(len(world.machines)))
    adopted = telemetry.counters["state.chain_steps_adopted"]
    assert 0 < adopted <= world.adoptable
    assert telemetry.counters["state.chain_steps"] > 0
