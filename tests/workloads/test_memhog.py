"""Unit tests for the memhog workload."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.cluster.provision import Fleet, VmSpec
from repro.sim.engine import AllOf, Simulator, Timeout
from repro.units import GIB, MIB, MS, SEC
from repro.workloads.memhog import SPIN_SLICE_NS, Memhog


class TestProcessLifecycle:
    def test_start_faults_footprint_and_signals_ready(self, sim, vanilla_vm):
        vanilla_vm.request_plug(512 * MIB)
        sim.run()
        hog = Memhog(vanilla_vm, 256 * MIB)
        hog.start()

        def wait_ready():
            yield hog.ready
            pages = hog.mm.anon_pages
            resident = hog.resident
            hog.stop()  # let the spin loop (and the simulation) drain
            return pages, resident

        pages, resident = sim.run_process(wait_ready())
        assert pages == 256 * MIB // 4096
        assert resident

    def test_stop_frees_memory(self, sim, vanilla_vm):
        vanilla_vm.request_plug(512 * MIB)
        sim.run()
        hog = Memhog(vanilla_vm, 128 * MIB)
        hog.start()

        def scenario():
            yield hog.ready
            hog.stop()

        sim.run_process(scenario())
        sim.run()
        assert hog.stopped
        assert not hog.resident
        assert hog.mm.total_pages == 0

    def test_spin_loop_keeps_vcpu_busy(self, sim, vanilla_vm):
        vanilla_vm.request_plug(512 * MIB)
        sim.run()
        hog = Memhog(vanilla_vm, 64 * MIB, vcpu_index=3)
        hog.start()

        def scenario():
            yield hog.ready
            yield Timeout(1 * SEC)
            hog.stop()

        sim.run_process(scenario())
        sim.run()
        busy = vanilla_vm.vcpus[3].busy_ns_for_prefix("memhog:")
        assert busy >= int(0.9 * SEC)

    def test_churn_cycles_allocations(self, sim, vanilla_vm):
        vanilla_vm.request_plug(512 * MIB)
        sim.run()
        hog = Memhog(vanilla_vm, 64 * MIB, churn_fraction=0.5)
        hog.start()

        def scenario():
            yield hog.ready
            yield Timeout(int(0.2 * SEC))
            hog.stop()

        sim.run_process(scenario())
        sim.run()
        assert hog.stopped

    def test_double_start_rejected(self, sim, vanilla_vm):
        hog = Memhog(vanilla_vm, 64 * MIB)
        vanilla_vm.request_plug(256 * MIB)
        sim.run()
        hog.start()
        with pytest.raises(RuntimeError):
            hog.start()
        hog.stop()
        sim.run()

    def test_invalid_churn_rejected(self, vanilla_vm):
        with pytest.raises(ValueError):
            Memhog(vanilla_vm, MIB, churn_fraction=1.5)


class TestHotMemMode:
    def test_hotmem_memhog_attaches_to_partition(self, sim, hotmem_vm):
        hotmem_vm.request_plug(384 * MIB)
        sim.run()
        hog = Memhog(hotmem_vm, 256 * MIB, use_hotmem=True)
        hog.start()

        def scenario():
            yield hog.ready
            hog.stop()

        sim.run_process(scenario())
        sim.run()
        assert len(hotmem_vm.hotmem.reclaimable_partitions()) == 1


class TestStateOnlyHelpers:
    def test_materialize_and_release(self, sim, vanilla_vm):
        vanilla_vm.request_plug(512 * MIB)
        sim.run()
        hog = Memhog(vanilla_vm, 128 * MIB)
        hog.materialize()
        assert hog.resident
        assert sim.now > 0  # only the plug took time
        hog.release()
        assert hog.mm.total_pages == 0

    def test_double_materialize_rejected(self, sim, vanilla_vm):
        vanilla_vm.request_plug(256 * MIB)
        sim.run()
        hog = Memhog(vanilla_vm, 64 * MIB)
        hog.materialize()
        with pytest.raises(RuntimeError):
            hog.materialize()

    def test_release_without_materialize_rejected(self, vanilla_vm):
        with pytest.raises(RuntimeError):
            Memhog(vanilla_vm, MIB).release()


class ResubmitMemhog(Memhog):
    """Reference: the churn-free busy loop as a 10 ms submit re-issued
    until a stop is seen."""

    def _run(self):
        label = f"memhog:{self.name}"
        self.mm = self.vm.new_process(self.name)
        charge = self.vm.fault_handler.fault_anon(self.mm, self.size_pages)
        yield self.vcpu.submit(charge.cost_ns, label)
        self.resident = True
        self.ready.trigger(self)
        while not self._stop_requested:
            yield self.vcpu.submit(SPIN_SLICE_NS, label)
        self.resident = False
        exit_charge = self.vm.exit_process(self.mm)
        yield self.vcpu.submit(exit_charge.cost_ns, label)
        return self.mm


def memhog_fleet(hog_cls, stop_ms: list, vcpus: int = 2):
    """``len(stop_ms)`` memhogs round-robin on ``vcpus`` vCPUs, each
    stopped (twice) ``stop_ms`` after all are resident.  Returns every
    exit time and the vCPUs' accounting at each stop and at the end."""
    sim = Simulator()
    vm = Fleet(sim).provision(VmSpec("memhogs", region_bytes=4 * GIB)).vm
    vm.request_plug(1 * GIB)
    sim.run()
    hogs = [hog_cls(vm, 64 * MIB, vcpu_index=i % vcpus, name=f"hog{i}")
            for i in range(len(stop_ms))]
    log = []

    def note(kind, hog):
        accounting = tuple(tuple(vcpu.accounting().items())
                           for vcpu in vm.vcpus[:vcpus])
        log.append((kind, hog.name, sim.now, accounting))

    def scenario():
        for hog in hogs:
            hog.start().done_event.add_callback(
                lambda _mm, hog=hog: note("exit", hog))
        yield AllOf([hog.ready for hog in hogs])
        start = sim.now
        for offset, hog in sorted(zip(stop_ms, hogs), key=lambda p: p[0]):
            yield Timeout(start + offset * MS - sim.now)
            hog.stop()
            hog.stop()
            note("stop", hog)

    sim.run_process(scenario())
    sim.run()
    assert all(hog.stopped for hog in hogs)
    return log


class TestSpinLoop:
    @settings(max_examples=30, deadline=None)
    @given(stop_ms=st.lists(st.integers(0, 60), min_size=1, max_size=5))
    def test_exit_times_match_resubmit_loop(self, stop_ms):
        assert memhog_fleet(Memhog, stop_ms) == memhog_fleet(ResubmitMemhog, stop_ms)

    def test_three_memhogs_on_one_vcpu_run_constant_callbacks(self, sim, vanilla_vm):
        """A second of three memhogs sharing a vCPU is one steady run:
        a constant number of callbacks, not one per 10 ms period."""
        vanilla_vm.request_plug(512 * MIB)
        sim.run()
        hogs = [Memhog(vanilla_vm, 32 * MIB, vcpu_index=0, name=f"hog{i}")
                for i in range(3)]
        executed = []

        def scenario():
            for hog in hogs:
                hog.start()
            yield AllOf([hog.ready for hog in hogs])
            sim.add_probe(lambda: executed.append(sim.now))
            yield Timeout(1 * SEC)
            loaded.append(len(executed))
            for hog in hogs:
                hog.stop()

        loaded = []
        sim.run_process(scenario())
        sim.run()
        # Counted before the timeout's own callback: only the one that
        # made them all resident.
        assert loaded == [1]
        assert vanilla_vm.vcpus[0].busy_ns_for_prefix("memhog:") >= 1 * SEC
