"""Multi-worker sharded admission: routing, per-shard replay equivalence,
merged stream sequencing, and front-end backpressure.

The load-bearing property mirrors the single-process contract, per shard:
each worker's decision stream must be bit-identical to an offline
:meth:`HCSimulator.run` of exactly that worker's task subsequence (the
:func:`partition_trace` slice, seeded with :func:`shard_seed`).  The merged
stream is the union of the per-shard streams with one globally monotone
``seq``.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import signal

import pytest

from repro.heuristics import make_heuristic
from repro.serve import (
    ShardSpec,
    ShardedSchedulerService,
    build_service,
    build_shard_specs,
    decision_map,
    decode_line,
    encode_line,
    offline_decision_map,
    open_endpoint,
    partition_trace,
    replay_trace,
    shard_for,
    shard_seed,
    spec_to_payload,
)
from repro.simulator.engine import HCSimulator


def _heuristic(pet, name="PAMF"):
    return make_heuristic(name, num_task_types=pet.num_task_types)


class TestShardRouting:
    def test_shard_for_is_pinned(self):
        """BLAKE2s-based routing is stable across processes *and* releases —
        changing it silently would break per-shard replay equivalence."""
        assert [shard_for(t, 2) for t in range(8)] == [0, 0, 1, 1, 1, 0, 1, 0]
        assert [shard_for(t, 3) for t in range(8)] == [1, 1, 0, 1, 2, 0, 0, 2]

    def test_shard_for_range_and_determinism(self):
        for num_shards in (1, 2, 5):
            for task_type in range(32):
                shard = shard_for(task_type, num_shards)
                assert 0 <= shard < num_shards
                assert shard == shard_for(task_type, num_shards)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            shard_for(0, 0)

    def test_partition_preserves_arrival_order(self, small_trace):
        shards = partition_trace(small_trace, 2)
        assert sum(len(s) for s in shards) == len(small_trace)
        for shard, specs in enumerate(shards):
            assert all(shard_for(s.task_type, 2) == shard for s in specs)
            arrivals = [s.arrival for s in specs]
            assert arrivals == sorted(arrivals)

    def test_shard_seed_derivable(self):
        assert shard_seed(2019, 0) == 2019
        assert shard_seed(2019, 3) == 2022


class TestShardSpecs:
    def test_build_specs_seeded_per_shard(self, small_gamma_pet):
        specs = build_shard_specs(small_gamma_pet, "PAMF", workers=3, seed=7)
        assert [s.seed for s in specs] == [7, 8, 9]
        assert all(s.heuristic == "PAMF" for s in specs)

    def test_spec_picklable_for_spawn(self, small_gamma_pet):
        spec = build_shard_specs(small_gamma_pet, "PAMF", workers=2, seed=7)[1]
        clone = pickle.loads(pickle.dumps(spec))
        assert isinstance(clone, ShardSpec)
        assert clone.seed == spec.seed
        core = clone.build_core()
        assert core.metrics.submitted == 0

    def test_zero_workers_rejected(self, small_gamma_pet):
        with pytest.raises(ValueError):
            build_shard_specs(small_gamma_pet, "PAMF", workers=0, seed=7)


class TestShardedReplayEquivalence:
    @pytest.mark.parametrize("listen", ["unix", "tcp:127.0.0.1:0"])
    def test_two_workers_match_offline_per_shard(
        self, tmp_path, small_gamma_pet, light_trace, listen
    ):
        workers, seed = 2, 5
        endpoint = tmp_path / "front.sock" if listen == "unix" else listen

        async def drive():
            specs = build_shard_specs(
                small_gamma_pet, "PAMF", workers=workers, seed=seed
            )
            service = ShardedSchedulerService(specs, endpoint)
            await service.start()
            try:
                outcome = await replay_trace(
                    service.endpoint, light_trace, rate=10_000.0, close=True
                )
            finally:
                await service.stop(drain=False)
            workers_alive = [
                s.process.is_alive() for s in service._shards if s.process is not None
            ]
            return service, outcome, workers_alive

        service, outcome, workers_alive = asyncio.run(drive())
        assert service.failure is None
        assert not any(workers_alive), "worker processes must not outlive the front-end"

        # One globally monotone sequence over the merged stream.
        assert [e["seq"] for e in outcome.decisions] == list(range(len(outcome.decisions)))
        assert {e["shard"] for e in outcome.decisions} <= set(range(workers))

        # Per-shard: each worker's stream equals the offline replay of
        # exactly its task subsequence, and shard_seq is its own order.
        merged_expected: dict = {}
        for shard, shard_tasks in enumerate(partition_trace(light_trace, workers)):
            shard_events = [e for e in outcome.decisions if e["shard"] == shard]
            shard_seqs = [e["shard_seq"] for e in shard_events]
            assert shard_seqs == sorted(shard_seqs)
            offline = HCSimulator(
                small_gamma_pet,
                _heuristic(small_gamma_pet),
                rng=shard_seed(seed, shard),
            ).run(shard_tasks)
            expected = offline_decision_map(offline)
            assert decision_map(shard_events) == expected
            merged_expected.update(expected)

        # The merged stream is exactly the union of the shard streams.
        assert decision_map(outcome.decisions) == merged_expected
        assert len(merged_expected) == len(light_trace)

        # The merged closed payload sums the per-shard runs.
        assert outcome.closed is not None
        assert outcome.closed["summary"]["tasks"] == float(len(light_trace))
        shard_payloads = outcome.closed["shards"]
        assert len(shard_payloads) == workers
        summed: dict = {}
        for payload in shard_payloads:
            for status, count in payload["status_counts"].items():
                summed[status] = summed.get(status, 0) + count
        assert outcome.closed["status_counts"] == summed
        assert outcome.closed["metrics"]["submitted"] == len(light_trace)


class TestFrontEndBackpressure:
    def test_inflight_cap_rejects_excess_submissions(
        self, tmp_path, small_gamma_pet, small_trace
    ):
        """A one-slot in-flight cap under a burst must turn submissions
        away with accepted=false — and every submission is either accepted
        by a worker or rejected at the door, never lost."""

        async def drive():
            specs = build_shard_specs(small_gamma_pet, "PAMF", workers=2, seed=5)
            service = ShardedSchedulerService(
                specs, tmp_path / "front.sock", max_inflight=1
            )
            await service.start()
            try:
                outcome = await replay_trace(
                    service.endpoint, small_trace, rate=100_000.0, close=True
                )
            finally:
                await service.stop(drain=False)
            return service, outcome

        service, outcome = asyncio.run(drive())
        assert service.failure is None
        assert outcome.rejected > 0
        assert service.metrics.rejected_overload == outcome.rejected
        accepted = service.metrics.submitted
        assert accepted + outcome.rejected == len(small_trace)
        # Decisions only concern accepted tasks.
        assert len(decision_map(outcome.decisions)) == accepted


class TestDyingShard:
    def test_sigkilled_worker_is_loud_and_fatal(self, tmp_path, small_gamma_pet, small_trace):
        """SIGKILL one of two workers mid-stream: every client gets a fatal
        error and EOF, the failure is recorded, the service stops within
        10 s, the front socket is unlinked and no worker survives."""
        front = tmp_path / "front.sock"

        async def events_until_eof(reader):
            events = []
            while line := await reader.readline():
                events.append(decode_line(line))
            return events

        async def drive():
            service = build_service(small_gamma_pet, "PAMF", front, workers=2, seed=5)
            await service.start()
            try:
                clients = [await open_endpoint(service.endpoint) for _ in range(2)]
                # A stats round trip registers each client with the front-end.
                for reader, writer in clients:
                    writer.write(encode_line({"op": "stats"}))
                    await writer.drain()
                    assert decode_line(await reader.readline())["event"] == "stats"
                reader, writer = clients[0]
                for spec in small_trace:
                    writer.write(encode_line({"op": "submit", "task": spec_to_payload(spec)}))
                await writer.drain()
                while decode_line(await reader.readline())["event"] != "decision":
                    pass
                os.kill(service._shards[1].process.pid, signal.SIGKILL)
                streams = [
                    await asyncio.wait_for(events_until_eof(r), timeout=10.0)
                    for r, _ in clients
                ]
                await asyncio.wait_for(service.wait_stopped(), timeout=10.0)
                for _, w in clients:
                    w.close()
            finally:
                await service.stop(drain=False)
            return service, streams

        service, streams = asyncio.run(drive())
        for events in streams:
            assert any(
                event["event"] == "error" and event.get("fatal") is True for event in events
            ), events[-3:]
        assert service.failure is not None
        assert not front.exists()
        assert not any(shard.process.is_alive() for shard in service._shards)
