"""Control messages exchanged by grid heads.

The control traffic of the paper's schemes is the *replacement notification*
a head sends to the head of its preceding grid when it is about to vacate its
own cell (Algorithm 1, step 3a), plus the acknowledgement the receiving head
returns when the run uses an unreliable channel (the retry trigger of the
reliability layer, see :mod:`repro.network.channel`).  Messages sent in round
``t`` are received in round ``t + latency`` ("wait until the corresponding
head w receives this notification"), which the :class:`Mailbox` models
explicitly; the paper's synchronisation assumption is ``latency = 1``.

Message ids are assigned by the :class:`Mailbox` that queues them, not by a
process-global counter: every run owns its own mailbox (through its channel),
so traces are deterministic for a given spec regardless of how many runs the
process executed before, and identical across broker pool workers.
"""

from __future__ import annotations

import enum
from typing import Dict, List, NamedTuple, Optional

from repro.grid.virtual_grid import GridCoord


class MessageKind(enum.Enum):
    """Kinds of control messages used by the mobility-control schemes."""

    #: "I am about to move into my vacant successor; please replace me."
    REPLACEMENT_REQUEST = "replacement_request"
    #: Acknowledgement that a replacement request was received.  Unreliable
    #: channels use it as the retry trigger: a request still unacknowledged
    #: after the channel's ack timeout is resent.
    REPLACEMENT_ACK = "replacement_ack"


class Message(NamedTuple):
    """A control message addressed to the head of a destination cell.

    ``message_id`` is ``None`` until a :class:`Mailbox` stamps the message
    (see :meth:`Mailbox.stamp_id`); stamped ids are unique and sequential
    within one mailbox.  ``sender_id`` names the node that transmitted the
    message, so the engine can debit the transmission energy from the right
    battery.  A named tuple, like :class:`~repro.network.mobility.MoveRecord`:
    every cascade hop sends one, and the tuple constructor is the cheap one.
    """

    kind: MessageKind
    source_cell: GridCoord
    target_cell: GridCoord
    sent_round: int
    process_id: Optional[int] = None
    payload: Optional[dict] = None
    sender_id: Optional[int] = None
    message_id: Optional[int] = None


class Mailbox:
    """Round-delayed delivery of control messages.

    Messages submitted during round ``t`` become visible to the destination
    cell's head when :meth:`deliver` is called for round ``t + latency``.
    The default ``latency = 1`` is the synchronisation assumption of
    Algorithm 1; the ``delayed`` channel raises it.
    """

    def __init__(self, latency: int = 1) -> None:
        if latency < 1:
            raise ValueError(f"latency must be >= 1, got {latency}")
        self.latency = latency
        self._in_flight: List[Message] = []
        self._sent_count = 0
        self._delivered_count = 0
        self._next_message_id = 0

    @property
    def sent_count(self) -> int:
        """Total number of messages ever submitted."""
        return self._sent_count

    @property
    def delivered_count(self) -> int:
        """Total number of messages ever delivered."""
        return self._delivered_count

    @property
    def pending_count(self) -> int:
        """Messages submitted but not yet delivered."""
        return len(self._in_flight)

    def stamp_id(self) -> int:
        """Next message id of this mailbox (per-mailbox, hence deterministic).

        All message construction goes through
        :meth:`repro.network.channel.ChannelState.send`, which stamps every
        transmission with this counter — delivered and dropped alike — so
        id traces replay identically across runs and worker processes.
        """
        message_id = self._next_message_id
        self._next_message_id += 1
        return message_id

    def send(self, message: Message) -> None:
        """Submit a message for delivery after the mailbox latency."""
        self._in_flight.append(message)
        self._sent_count += 1

    def deliver(self, current_round: int) -> Dict[GridCoord, List[Message]]:
        """Return (and consume) messages whose latency has elapsed.

        A message sent in round ``t`` is delivered when
        ``current_round >= t + latency``.  The result maps destination cells
        to the messages addressed to them, in submission order.
        """
        ready: Dict[GridCoord, List[Message]] = {}
        still_in_flight: List[Message] = []
        for message in self._in_flight:
            if current_round >= message.sent_round + self.latency:
                ready.setdefault(message.target_cell, []).append(message)
                self._delivered_count += 1
            else:
                still_in_flight.append(message)
        self._in_flight = still_in_flight
        return ready

    def clear(self) -> None:
        """Drop all in-flight messages (used when a scenario is reset)."""
        self._in_flight.clear()
