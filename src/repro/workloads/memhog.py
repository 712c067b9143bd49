"""The memhog microbenchmark (Section 5.5).

``memhog`` repeatedly allocates and deallocates a specified amount of
memory and, as a side effect, keeps CPUs busy.  The paper uses fleets of
memhog processes to fill a guest before measuring raw unplug speed
(Figures 5-7): the CPU load contends with the unplug path on the
virtio-mem vCPU and the allocation churn randomizes page placement.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import OutOfMemory
from repro.mm.mm_struct import MmStruct
from repro.sim.cpu import CpuCore, CpuWork
from repro.sim.engine import Process
from repro.units import MS, bytes_to_pages
from repro.vmm.vm import VirtualMachine

__all__ = ["Memhog"]

#: CPU burned per spin iteration while resident.  Without churn the
#: loop is one open-ended :meth:`CpuCore.spin` with this period, which
#: costs no event per iteration; it sets when a stopped memhog exits
#: (at the end of the period in progress).  With churn each iteration
#: is a separate submit followed by the mm work.
SPIN_SLICE_NS = 10 * MS


class Memhog:
    """One memhog process inside a VM.

    Parameters
    ----------
    vm:
        The guest to run in.
    size_bytes:
        Memory the process allocates (faulted in on start).
    vcpu_index:
        The vCPU this instance is pinned to.
    use_hotmem:
        Attach to a HotMem partition before allocating (requires a
        HotMem VM); otherwise allocate from the generic zones.
    churn_fraction:
        Fraction of the footprint freed and re-faulted on each loop
        iteration (memhog's allocate/deallocate cycle); 0 disables churn.
    """

    def __init__(
        self,
        vm: VirtualMachine,
        size_bytes: int,
        vcpu_index: int = 0,
        use_hotmem: bool = False,
        churn_fraction: float = 0.0,
        name: str = "memhog",
    ):
        if not 0.0 <= churn_fraction <= 1.0:
            raise ValueError(f"churn_fraction out of range: {churn_fraction}")
        self.vm = vm
        self.size_pages = bytes_to_pages(size_bytes)
        self.vcpu: CpuCore = vm.vcpus[vcpu_index]
        self.use_hotmem = use_hotmem
        self.churn_fraction = churn_fraction
        self.name = name
        self.mm: Optional[MmStruct] = None
        self._stop_requested = False
        self._process: Optional[Process] = None
        #: The busy loop of a churn-free memhog while it runs.
        self._spin: Optional[CpuWork] = None
        self.resident = False
        #: Triggered once the initial footprint is fully faulted in.
        self.ready = vm.sim.event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Process:
        """Spawn the memhog process; returns the simulation process."""
        if self._process is not None:
            raise RuntimeError(f"{self.name} already started")
        self._process = self.vm.sim.spawn(self._run(), name=self.name)
        return self._process

    def stop(self) -> None:
        """Ask the process to exit (memory is freed once the loop
        iteration in progress ends).  Stopping twice is a no-op."""
        self._stop_requested = True
        if self._spin is not None:
            self.vcpu.end_spin(self._spin)

    @property
    def stopped(self) -> bool:
        """Whether the process has exited and freed its memory."""
        return self._process is not None and self._process.finished

    # ------------------------------------------------------------------
    # The process body
    # ------------------------------------------------------------------
    def _run(self):
        label = f"memhog:{self.name}"
        self.mm = self.vm.new_process(self.name)
        if self.use_hotmem:
            assert self.vm.hotmem is not None, "HotMem VM required"
            yield from self.vm.hotmem.attach(self.mm)
        # Fault the whole footprint in (lazy allocation, charged to our vCPU).
        charge = self.vm.fault_handler.fault_anon(self.mm, self.size_pages)
        yield self.vcpu.submit(charge.cost_ns, label)
        self.resident = True
        self.ready.trigger(self)

        churn_pages = int(self.size_pages * self.churn_fraction)
        if churn_pages:
            while not self._stop_requested:
                # memhog's busy loop: stress the CPU ...
                yield self.vcpu.submit(SPIN_SLICE_NS, label)
                # ... and cycle part of the allocation.
                if not self._stop_requested:
                    self.vm.manager.free_pages(self.mm, churn_pages)
                    try:
                        charge = self.vm.fault_handler.fault_anon(
                            self.mm, churn_pages)
                    except OutOfMemory:
                        break
                    yield self.vcpu.submit(charge.cost_ns, label)
        elif not self._stop_requested:
            # The busy loop alone: one spin, which stop() ends.
            self._spin = self.vcpu.spin(SPIN_SLICE_NS, label)
            yield self._spin.done

        self.resident = False
        exit_charge = self.vm.exit_process(self.mm)
        yield self.vcpu.submit(exit_charge.cost_ns, label)
        return self.mm

    # ------------------------------------------------------------------
    # Synchronous helpers for state-only experiments
    # ------------------------------------------------------------------
    def materialize(self) -> MmStruct:
        """State-only variant: allocate instantly, without running.

        Useful for setting up large resident sets in microbenchmark
        experiments where only the unplug path is being timed.
        """
        if self.mm is not None:
            raise RuntimeError(f"{self.name} already materialized")
        self.mm = self.vm.new_process(self.name)
        if self.use_hotmem:
            assert self.vm.hotmem is not None, "HotMem VM required"
            partition = self.vm.hotmem.try_attach(self.mm)
            assert partition is not None
        self.vm.fault_handler.fault_anon(self.mm, self.size_pages)
        self.resident = True
        return self.mm

    def release(self) -> None:
        """State-only teardown matching :meth:`materialize`."""
        if self.mm is None:
            raise RuntimeError(f"{self.name} was never materialized")
        self.vm.exit_process(self.mm)
        self.resident = False
