"""The unified simulator configuration surface: :class:`SimConfig`.

:class:`~repro.sim.kernel.Simulator` accreted one keyword argument per
PR (``fast=``, ``flight=``, profiler enablement via a method call,
packet-reuse as a mutable attribute). ``SimConfig`` absorbs that sprawl
into one frozen dataclass so a simulator's behaviour is named by a
single hashable value that can be stored in manifests, threaded through
:class:`~repro.experiments.api.RunRequest`, and shipped to partition
worker processes (:mod:`repro.sim.partition`) without re-encoding each
knob.

``Simulator(config=SimConfig(...))`` is the only way to configure a
simulator's behaviour.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import SimulationError


@dataclass(frozen=True)
class SimConfig:
    """Everything that selects a :class:`Simulator`'s behaviour.

    Attributes
    ----------
    fast:
        Hot-path selection: ``True`` = calendar queue + pooling,
        ``False`` = reference path, ``None`` (default) = follow the
        ``REPRO_SLOW_PATH`` environment escape hatch.
    flight:
        Attach a :class:`~repro.obs.flight.FlightRecorder` (requires an
        observing simulator).
    profiler:
        Attach the wall-clock event-loop profiler from construction
        (equivalent to calling :meth:`Simulator.enable_profiler` before
        the first ``run()``).
    allow_packet_reuse:
        Force the packet pool on/off; ``None`` (default) follows
        ``fast`` (pooling on exactly on the hot path).
    partitions:
        Worker processes a partitioned run may use
        (:mod:`repro.sim.partition`). ``1`` = a single worker; the
        value is a *cap*, not a layout: the model's cell decomposition
        is fixed independently, so results never depend on it.
    lookahead:
        Conservative sync window for partitioned runs, in simulated
        seconds; ``None`` derives it from the topology (or treats
        cells as uncoupled when they declare no cross-traffic).
    fluid:
        Attach a :class:`~repro.net.fluid.FlowScheduler` to the
        simulator: eligible long-lived bulk TCP transfers are modelled
        as *flows* advanced by rate-change epochs instead of per-packet
        events. Only effective on the fast path; ``REPRO_SLOW_PATH=1``
        always selects the reference packet path regardless.
    fluid_threshold:
        Minimum wire size (bytes, TCP header included) a segment must
        reach to be eligible for the fluid path; smaller transfers stay
        on the exact packet path.
    """

    fast: Optional[bool] = None
    flight: bool = False
    profiler: bool = False
    allow_packet_reuse: Optional[bool] = None
    partitions: int = 1
    lookahead: Optional[float] = None
    fluid: bool = False
    fluid_threshold: int = 8192

    def __post_init__(self) -> None:
        if self.partitions < 1:
            raise SimulationError(
                f"partitions must be >= 1, got {self.partitions!r}"
            )
        if self.lookahead is not None and self.lookahead <= 0:
            raise SimulationError(
                f"lookahead must be positive, got {self.lookahead!r}"
            )
        if self.fluid_threshold < 1:
            raise SimulationError(
                f"fluid_threshold must be >= 1, got {self.fluid_threshold!r}"
            )

    def replace(self, **changes: Any) -> "SimConfig":
        """A copy with ``changes`` applied (frozen-dataclass idiom)."""
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (manifests, cross-process transfer)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "SimConfig":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in names})


#: The all-defaults config (shared; SimConfig is immutable).
DEFAULT_CONFIG = SimConfig()
