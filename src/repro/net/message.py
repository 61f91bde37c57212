"""Message envelopes.

A :class:`Message` is the unit the network delivers.  The ``type`` field
selects the handler on the destination node; ``payload`` is an arbitrary
(protocol-defined) object.  ``request_id``/``is_response`` implement the
request/response correlation the Transaction Client relies on when gathering
votes from Transaction Services.

A message is also its own delivery: :meth:`repro.net.network.Network.send`
stamps the destination node on it and schedules the message itself, so one
object travels from send to delivery (twice, when the network duplicates
it).
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Any

from repro.sim.events import Notification

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node

_message_ids = count(1)


class _ResponseTypes(dict):
    """``request type -> response type``, each formatted once.

    A deployment speaks fewer than ten request types and sends tens of
    thousands of replies.
    """

    def __missing__(self, request_type: str) -> str:
        response_type = self[request_type] = f"{request_type}.response"
        return response_type


_response_types = _ResponseTypes()


class Message(Notification):
    """An envelope travelling between two nodes.

    Attributes
    ----------
    src, dst:
        Node names (globally unique; see :class:`repro.net.node.Node`).
    type:
        Handler selector, e.g. ``"prepare"`` or ``"read"``.
    payload:
        Protocol-defined content.
    request_id:
        Set on requests that expect a response and echoed on the response so
        the requester can correlate them.  ``None`` for fire-and-forget.
    is_response:
        True when this message answers an earlier request.
    msg_id:
        Unique per-message id, useful in logs and for de-duplication tests.

    One is built per message sent, so the class is a plain slotted one and
    the hot call sites construct it positionally.
    """

    __slots__ = ("src", "dst", "type", "payload", "request_id", "is_response",
                 "msg_id", "_node")

    def __init__(self, src: str, dst: str, type: str, payload: Any = None,
                 request_id: int | None = None, is_response: bool = False,
                 msg_id: int | None = None) -> None:
        self.src = src
        self.dst = dst
        self.type = type
        self.payload = payload
        self.request_id = request_id
        self.is_response = is_response
        self.msg_id = next(_message_ids) if msg_id is None else msg_id
        # ``_node``, the destination node, is left unset until
        # ``Network.send`` stamps it: nothing reads it before delivery.

    def reply(self, payload: Any) -> "Message":
        """Build the response envelope for this request."""
        if self.request_id is None:
            raise ValueError(f"message {self.msg_id} ({self.type}) expects no response")
        return Message(self.dst, self.src, _response_types[self.type], payload,
                       self.request_id, True)

    def _process(self) -> None:
        """Arrive at the stamped destination (the kernel pops this).

        A response settles its pending request here; only a request goes on
        to :meth:`Node.deliver` and its handler.
        """
        node: "Node" = self._node
        network = node.network
        # Re-check outage state at delivery time: a datacenter that went down
        # while the message was in flight does not receive it.
        if node.datacenter in network._down_views[node.lane] or node.down:
            network.stats.dropped_outage += 1
            return
        network.stats.delivered += 1
        if self.is_response:
            # Settle the request it answers.  A response whose request is no
            # longer pending (settled, timed out, or lost with a crashed
            # requester's table) is dropped.
            slot = node._pending.get(self.request_id)
            if slot is not None:
                slot.add(self)
            return
        node.deliver(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "resp" if self.is_response else "req" if self.request_id else "msg"
        return (
            f"<Message #{self.msg_id} {kind} {self.type} "
            f"{self.src}->{self.dst}>"
        )
