"""Mailboxes: authenticated fixed-size messages between protection domains.

Section 6.2: MI6 does not allow shared memory across protection domains;
all communication goes through the security monitor.  The mailbox
primitive (inherited from Sanctum) lets an enclave send a private 64-byte
message to another enclave, carrying the sender's measurement so the
receiver can authenticate it (local attestation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.errors import SecurityMonitorError

#: Size of a mailbox message in bytes.
MAILBOX_MESSAGE_BYTES = 64


@dataclass(frozen=True)
class MailboxMessage:
    """One delivered mailbox message."""

    sender_id: int
    sender_measurement: str
    payload: bytes

    def __post_init__(self) -> None:
        if len(self.payload) > MAILBOX_MESSAGE_BYTES:
            raise SecurityMonitorError(
                f"mailbox payload of {len(self.payload)} bytes exceeds "
                f"{MAILBOX_MESSAGE_BYTES}-byte limit"
            )


class Mailbox:
    """Per-recipient queue of mailbox messages, owned by the monitor."""

    def __init__(self, owner_id: int, capacity: int = 8) -> None:
        self.owner_id = owner_id
        self.capacity = capacity
        self._messages: List[MailboxMessage] = []

    def deliver(self, message: MailboxMessage) -> None:
        """Deliver a message (called only by the security monitor)."""
        if len(self._messages) >= self.capacity:
            raise SecurityMonitorError(f"mailbox of {self.owner_id} is full")
        self._messages.append(message)

    def receive(self) -> Optional[MailboxMessage]:
        """Pop the oldest message, or None when empty."""
        if not self._messages:
            return None
        return self._messages.pop(0)


class MailboxDirectory:
    """All mailboxes in the system, keyed by owner id."""

    def __init__(self) -> None:
        self._mailboxes: Dict[int, Mailbox] = {}

    def mailbox_for(self, owner_id: int) -> Mailbox:
        """Mailbox of ``owner_id``, created on first use."""
        if owner_id not in self._mailboxes:
            self._mailboxes[owner_id] = Mailbox(owner_id)
        return self._mailboxes[owner_id]
