"""Message envelopes.

A :class:`Message` is the unit the network delivers.  The ``type`` field
selects the handler on the destination node; ``payload`` is an arbitrary
(protocol-defined) object.  ``request_id``/``is_response`` implement the
request/response correlation the Transaction Client relies on when gathering
votes from Transaction Services.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any

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


@dataclass(slots=True)
class Message:
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
    """

    src: str
    dst: str
    type: str
    payload: Any = None
    request_id: int | None = None
    is_response: bool = False
    msg_id: int = field(default_factory=_message_ids.__next__)

    def reply(self, payload: Any) -> "Message":
        """Build the response envelope for this request."""
        if self.request_id is None:
            raise ValueError(f"message {self.msg_id} ({self.type}) expects no response")
        return Message(
            src=self.dst,
            dst=self.src,
            type=_response_types[self.type],
            payload=payload,
            request_id=self.request_id,
            is_response=True,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "resp" if self.is_response else "req" if self.request_id else "msg"
        return (
            f"<Message #{self.msg_id} {kind} {self.type} "
            f"{self.src}->{self.dst}>"
        )
