"""A minimal packet radio: logs transmissions for counting and inspection.

The workloads call ``send(value)``; the execution engine forwards each call
here.  Profiling schemes that ship their data off-mote (the tomography
collector uploads timing summaries; full instrumentation uploads counter
tables) also account their traffic through this interface so the energy
comparison charges them fairly.

With a :class:`~repro.faults.FaultInjector` attached, each transmission can
be lost on air or delivered with a corrupted payload; without one (the
default) behaviour is bit-identical to the fault-free radio.  Dropped
packets still cost transmit energy — the loss happens in the channel, not
on the mote — so :attr:`Radio.transmissions` (attempts) is what the energy
model charges, while :attr:`Radio.packet_count` counts deliveries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.obs import counters as hwc

if TYPE_CHECKING:  # pragma: no cover - repro.faults loads only with a fault model
    from repro.faults.model import FaultInjector

__all__ = ["Radio", "Packet"]


class Packet(NamedTuple):
    """One transmitted packet: payload value and the send cycle.

    A tuple, so it compares equal to a plain ``(value, cycle)``.
    """

    value: int
    cycle: int


@dataclass
class Radio:
    """Transmission log plus byte accounting."""

    bytes_per_packet: int = 36  # 802.15.4 header + 16-bit payload + MIC
    packets: list[Packet] = field(default_factory=list)
    faults: Optional["FaultInjector"] = field(default=None, repr=False)
    dropped_packets: int = 0
    corrupted_packets: int = 0

    def transmit(self, value: int, cycle: int) -> None:
        """Record one application packet (subject to channel faults, if any)."""
        hw = hwc.active()
        if self.faults is not None:
            fate = self.faults.radio_outcome()
            if fate == "drop":
                self.dropped_packets += 1
                if hw is not None:
                    hw.radio_tx(fate="dropped", payload_bytes=self.bytes_per_packet)
                return
            if fate == "corrupt":
                value = self.faults.corrupt_payload(int(value))
                self.corrupted_packets += 1
                if hw is not None:
                    hw.radio_tx(fate="corrupted", payload_bytes=self.bytes_per_packet)
                self.packets.append(Packet(value=int(value), cycle=int(cycle)))
                return
        if hw is not None:
            hw.radio_tx(fate="delivered", payload_bytes=self.bytes_per_packet)
        self.packets.append(Packet(value=int(value), cycle=int(cycle)))

    @property
    def packet_count(self) -> int:
        """Number of packets delivered."""
        return len(self.packets)

    @property
    def transmissions(self) -> int:
        """Number of packets *sent*, delivered or not (what energy charges)."""
        return self.packet_count + self.dropped_packets

    def values(self) -> list[int]:
        """Payload values in transmission order."""
        return [p.value for p in self.packets]

    def clear(self) -> None:
        """Drop the log and fault tallies (keeps configuration)."""
        self.packets.clear()
        self.dropped_packets = 0
        self.corrupted_packets = 0
