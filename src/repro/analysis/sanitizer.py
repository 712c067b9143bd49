"""Runtime memory-state sanitizer.

:class:`MemSanitizer` attaches to one
:class:`~repro.mm.manager.GuestMemoryManager` and sweeps the invariant
registry (:mod:`repro.analysis.invariants`) at configurable checkpoints:

* **on plug/unplug** — immediately after ``online_block`` and
  ``offline_and_remove``, the transitions that rewire zone membership;
* **on instance teardown** — after ``free_all``, additionally running the
  ``teardown-no-leak`` rule against the released owner;
* **periodically** — every *N* memory-manager mutations
  (``alloc_pages``/``free_pages``/``migrate_block_out``), and optionally
  every *N* simulator events via :meth:`MemSanitizer.bind_sim`.

Attachment wraps the manager's mutating methods on the *instance* (the
class stays untouched), so detaching restores the original behaviour
exactly.  Checks only fire at method boundaries, where the state plane is
by contract consistent; a failed sweep raises
:class:`~repro.analysis.invariants.InvariantViolation` at the exact
operation that corrupted the state — the KASAN property: the report
points at the culprit, not at the figure that later looks wrong.

The module-level :func:`install` hooks construction of every future
``GuestMemoryManager`` (and wires ``HotMemManager`` context when one is
built on top), which is how ``python -m repro.experiments --sanitize``
and ``pytest --sanitize`` cover whole experiment runs without threading a
sanitizer through every call site.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, FrozenSet, List, Optional

from repro.analysis.invariants import (
    CheckContext,
    InvariantViolation,
    run_invariants,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.manager import HotMemManager
    from repro.mm.manager import GuestMemoryManager
    from repro.mm.owner import PageOwner
    from repro.sim.engine import Simulator

__all__ = [
    "SanitizerConfig",
    "MemSanitizer",
    "install",
    "uninstall",
    "is_installed",
    "installed_sanitizers",
    "sanitized",
]

#: Manager methods whose completion counts as one mm event (periodic tick).
_TICK_METHODS = ("alloc_pages", "free_pages", "migrate_block_out")


@dataclass(frozen=True)
class SanitizerConfig:
    """Checkpoint policy for one sanitizer.

    ``every_n_events=0`` disables periodic sweeps (hotplug/teardown
    checkpoints still fire); ``rules=None`` runs the whole registry.
    """

    #: Memory-manager mutations between periodic sweeps (0 = disabled).
    every_n_events: int = 256
    #: Sweep immediately after every ``online_block``/``offline_and_remove``.
    on_hotplug: bool = True
    #: Sweep (including leak detection) after every ``free_all``.
    on_teardown: bool = True
    #: Simulator events between periodic sweeps when bound via
    #: :meth:`MemSanitizer.bind_sim` (0 = disabled).
    every_n_sim_events: int = 0
    #: Restrict sweeps to these rule names (None = all registered rules).
    rules: Optional[FrozenSet[str]] = None

    @classmethod
    def from_env(cls) -> "SanitizerConfig":
        """Build a config honouring ``REPRO_SANITIZE_EVERY`` when set."""
        every = os.environ.get("REPRO_SANITIZE_EVERY")
        if every is None:
            return cls()
        return cls(every_n_events=int(every))


class MemSanitizer:
    """Invariant sweeper bound to one guest memory manager."""

    def __init__(
        self,
        manager: "GuestMemoryManager",
        hotmem: Optional["HotMemManager"] = None,
        config: Optional[SanitizerConfig] = None,
    ):
        self.manager = manager
        self.hotmem = hotmem
        self.config = config or SanitizerConfig()
        #: Completed sweeps (a cheap health signal for tests/CLI output).
        self.checks_run = 0
        self._mm_events = 0
        self._sim_events = 0
        self._attached = False
        #: (method name, our wrapper) per instrumented checkpoint.
        self._wrapped: List[tuple] = []
        self._bound_sim: Optional["Simulator"] = None

    # ------------------------------------------------------------------
    # Sweeping
    # ------------------------------------------------------------------
    def check(self, event: str = "manual", owner: Optional["PageOwner"] = None):
        """Sweep now; raises :class:`InvariantViolation` on any failure."""
        hotmem = self.hotmem
        if hotmem is None:
            # A HotMemManager built on this manager advertises itself so
            # partition rules apply even when the sanitizer was attached
            # before (or without knowledge of) the HotMem layer.
            hotmem = getattr(self.manager, "_hotmem_context", None)
        # Fleet-provisioned VMs advertise their fleet the same way, so
        # host-level conservation is swept at every checkpoint too.
        fleet = getattr(self.manager, "_fleet_context", None)
        ctx = CheckContext(
            manager=self.manager,
            hotmem=hotmem,
            event=event,
            owner=owner,
            fleet=fleet,
        )
        failures = run_invariants(ctx, self.config.rules)
        self.checks_run += 1
        if failures:
            raise InvariantViolation(failures, event)

    def _tick(self) -> None:
        if self.config.every_n_events <= 0:
            return
        self._mm_events += 1
        if self._mm_events >= self.config.every_n_events:
            self._mm_events = 0
            self.check("periodic")

    def _sim_tick(self) -> None:
        if self.config.every_n_sim_events <= 0:
            return
        self._sim_events += 1
        if self._sim_events >= self.config.every_n_sim_events:
            self._sim_events = 0
            self.check("periodic")

    # ------------------------------------------------------------------
    # Checkpoint wiring
    # ------------------------------------------------------------------
    def attach(self) -> "MemSanitizer":
        """Instrument the manager's mutating methods with checkpoints."""
        if self._attached:
            return self
        manager = self.manager
        #: Discovery hook: a later ``HotMemManager`` built on this manager
        #: (or the global installer) finds its sanitizer through this.
        manager._sanitizer = self  # type: ignore[attr-defined]

        def wrap(name: str, after: Callable[[tuple, dict, Any], None]) -> None:
            original = getattr(manager, name)

            def wrapped(*args: Any, **kwargs: Any) -> Any:
                # Dispatch through __wrapped__ (not the closure) so that
                # detaching a sanitizer below us in a stack can splice
                # itself out by rebinding this attribute.
                result = wrapped.__wrapped__(*args, **kwargs)  # type: ignore[attr-defined]
                after(args, kwargs, result)
                return result

            wrapped.__name__ = name
            wrapped.__wrapped__ = original  # type: ignore[attr-defined]
            setattr(manager, name, wrapped)
            self._wrapped.append((name, wrapped))

        if self.config.on_hotplug:
            wrap("online_block", lambda a, k, r: self.check("plug"))
            wrap("offline_and_remove", lambda a, k, r: self.check("unplug"))
            # Quarantine transitions rewire isolation and allocator
            # visibility the same way plug/unplug do.
            wrap("quarantine_block", lambda a, k, r: self.check("quarantine"))
            wrap(
                "release_quarantine",
                lambda a, k, r: self.check("quarantine-release"),
            )
        if self.config.on_teardown:
            wrap(
                "free_all",
                lambda a, k, r: self.check(
                    "teardown", owner=a[0] if a else k["owner"]
                ),
            )
        for name in _TICK_METHODS:
            wrap(name, lambda a, k, r: self._tick())
        self._attached = True
        return self

    def detach(self) -> None:
        """Remove this sanitizer's instrumentation only.

        Wrappers live as instance attributes shadowing the class methods.
        Sanitizers may be stacked on one manager (a manual one over the
        global ``--sanitize`` install), so detaching splices exactly our
        wrapper out of the chain, in any detach order.
        """
        for name, wrapper in self._wrapped:
            original = wrapper.__wrapped__  # type: ignore[attr-defined]
            current = vars(self.manager).get(name)
            if current is wrapper:
                # Restoring the class's own (pristine) method means
                # deleting the shadow; anything else — e.g. another
                # sanitizer's wrapper below us — goes back as the shadow.
                if getattr(original, "__func__", None) is getattr(
                    type(self.manager), name, None
                ):
                    delattr(self.manager, name)
                else:
                    setattr(self.manager, name, original)
                continue
            # Another wrapper was stacked on top of ours: find the one
            # dispatching to us and rebind it to our original.
            node = current
            while (
                node is not None
                and getattr(node, "__wrapped__", None) is not wrapper
            ):
                node = getattr(node, "__wrapped__", None)
            if node is not None:
                node.__wrapped__ = original  # type: ignore[attr-defined]
        self._wrapped.clear()
        if getattr(self.manager, "_sanitizer", None) is self:
            delattr(self.manager, "_sanitizer")
        if self._bound_sim is not None:
            self._bound_sim.remove_probe(self._sim_tick)
            self._bound_sim = None
        self._attached = False

    def bind_sim(self, sim: "Simulator", every_n_sim_events: int = 0) -> None:
        """Also sweep every N executed simulator events.

        ``every_n_sim_events`` overrides the config value when positive.
        Only executed callbacks count: the regular slice boundaries of
        a steady CPU run (one task alone, or a contended round-robin
        rotation) are advanced without one, and a memhog's spin periods
        run none either, so a memhog-loaded run checkpoints far less
        often per simulated second.
        """
        if self._bound_sim is not None:
            raise RuntimeError("sanitizer is already bound to a simulator")
        if every_n_sim_events > 0:
            self.config = SanitizerConfig(
                every_n_events=self.config.every_n_events,
                on_hotplug=self.config.on_hotplug,
                on_teardown=self.config.on_teardown,
                every_n_sim_events=every_n_sim_events,
                rules=self.config.rules,
            )
        sim.add_probe(self._sim_tick)
        self._bound_sim = sim

    def __repr__(self) -> str:
        state = "attached" if self._attached else "detached"
        return f"<MemSanitizer {state} checks={self.checks_run}>"


# ----------------------------------------------------------------------
# Global installation (the --sanitize machinery)
# ----------------------------------------------------------------------
class _GlobalInstall:
    """Bookkeeping for one global installation."""

    def __init__(self, config: SanitizerConfig):
        self.config = config
        self.sanitizers: List[MemSanitizer] = []
        self.originals: Dict[str, Callable] = {}


_installed: Optional[_GlobalInstall] = None


def is_installed() -> bool:
    """Whether the global construction hooks are active."""
    return _installed is not None


def installed_sanitizers() -> List[MemSanitizer]:
    """Sanitizers created by the active global installation (oldest first)."""
    return list(_installed.sanitizers) if _installed is not None else []


def install(config: Optional[SanitizerConfig] = None) -> _GlobalInstall:
    """Attach a sanitizer to every guest memory manager built from now on.

    Patches ``GuestMemoryManager.__init__`` to attach a fresh sanitizer to
    every manager built from now on (a ``HotMemManager`` built on top is
    picked up automatically through its ``_hotmem_context`` hook).  Raises
    if already installed — nesting two policies would make it ambiguous
    which config a violation was found under.
    """
    global _installed
    if _installed is not None:
        raise RuntimeError("memory-state sanitizer is already installed")
    from repro.mm.manager import GuestMemoryManager

    state = _GlobalInstall(config or SanitizerConfig.from_env())
    orig_mm_init = GuestMemoryManager.__init__

    def mm_init(self: "GuestMemoryManager", *args: Any, **kwargs: Any) -> None:
        orig_mm_init(self, *args, **kwargs)
        sanitizer = MemSanitizer(self, config=state.config).attach()
        state.sanitizers.append(sanitizer)
        sanitizer.check("boot")

    GuestMemoryManager.__init__ = mm_init  # type: ignore[method-assign]
    state.originals = {"mm": orig_mm_init}
    _installed = state
    return state


def uninstall() -> Optional[SanitizerConfig]:
    """Undo :func:`install`; returns the removed config (None if inactive)."""
    global _installed
    if _installed is None:
        return None
    from repro.mm.manager import GuestMemoryManager

    GuestMemoryManager.__init__ = _installed.originals["mm"]  # type: ignore[method-assign]
    for sanitizer in _installed.sanitizers:
        sanitizer.detach()
    config = _installed.config
    _installed = None
    return config


@contextmanager
def sanitized(config: Optional[SanitizerConfig] = None):
    """Context manager: globally install for the duration of a block."""
    state = install(config)
    try:
        yield state
    finally:
        uninstall()
