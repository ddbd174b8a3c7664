"""Bounded-queue admission and per-tenant fair-share dequeueing."""

import pytest

from repro.server.admission import AdmissionRejectedError, FairShareQueue


class TestBoundedQueue:
    def test_rejects_beyond_limit(self):
        queue = FairShareQueue(queue_limit=2)
        queue.offer("a", 1)
        queue.offer("a", 2)
        with pytest.raises(AdmissionRejectedError) as info:
            queue.offer("b", 3)
        error = info.value
        assert error.tenant == "b"
        assert error.queue_depth == 2
        assert error.queue_limit == 2
        assert "queue full" in str(error)

    def test_zero_limit_rejects_everything(self):
        queue = FairShareQueue(queue_limit=0)
        with pytest.raises(AdmissionRejectedError):
            queue.offer("a", 1)

    def test_take_from_empty_is_none(self):
        assert FairShareQueue(4).take() is None


class TestFairShare:
    def test_round_robin_when_unbilled(self):
        queue = FairShareQueue(8)
        queue.offer("b", "b1")
        queue.offer("a", "a1")
        # No service billed yet: tie broken by tenant name.
        assert queue.take() == ("a", "a1")
        assert queue.take() == ("b", "b1")

    def test_light_tenant_jumps_heavy_tenants_backlog(self):
        queue = FairShareQueue(8)
        for i in range(4):
            queue.offer("heavy", "h%d" % i)
        queue.charge("heavy", 1000)  # the flood has consumed service
        queue.offer("light", "l0")
        tenant, item = queue.take()
        assert (tenant, item) == ("light", "l0")

    def test_service_units_accumulate(self):
        queue = FairShareQueue(8)
        queue.charge("a", 10)
        queue.charge("a", 5)
        queue.charge("b", 14)
        queue.offer("a", "a1")
        queue.offer("b", "b1")
        # a's 10 + 5 outweigh b's 14; one charge alone would not.
        assert queue.take() == ("b", "b1")

    def test_fifo_within_one_tenant(self):
        queue = FairShareQueue(8)
        queue.offer("a", 1)
        queue.offer("a", 2)
        queue.offer("a", 3)
        assert [queue.take()[1] for _ in range(3)] == [1, 2, 3]

    def test_deterministic_interleaving(self):
        def run():
            queue = FairShareQueue(8)
            queue.offer("a", "a1")
            queue.offer("b", "b1")
            queue.offer("a", "a2")
            out = [queue.take()]
            queue.charge("a", 50)
            queue.offer("b", "b2")
            out.extend(queue.drain())
            return out

        assert run() == run()

    def test_drain_empties_queue(self):
        queue = FairShareQueue(8)
        queue.offer("a", 1)
        queue.offer("b", 2)
        assert len(queue.drain()) == 2
        assert len(queue) == 0
