"""Epoch arithmetic — the external nullifier of WAKU-RLN-RELAY (§III-D).

The external nullifier is the current *epoch*: "some unit of time elapsed
since the Unix epoch", computed as ``UnixTime / T``.

Note on the paper's arithmetic: §III-D writes the operation with ceiling
brackets but its own worked example evaluates as a floor —
``1644810116 / 30 = 54827003.87`` and the paper states the result
``54827003``.  We follow the example (floor), which is also what the nwaku
implementation does; the choice only shifts epoch boundaries by one T and
does not affect any property of the protocol.
"""

from __future__ import annotations

from repro.crypto.field import FieldElement
from repro.errors import ProtocolError


def external_nullifier(epoch: int) -> FieldElement:
    """The epoch as the field element fed to the RLN derivations."""
    if epoch < 0:
        raise ProtocolError("epoch must be non-negative")
    return FieldElement(epoch)


def epoch_gap(local_epoch: int, message_epoch: int) -> int:
    """Absolute distance between a message's epoch and the local epoch.

    §III-F item 1 drops messages whose gap exceeds Thr in *either*
    direction: past epochs (a fresh member spamming history) and future
    epochs (a peer with a fast clock trying to bank quota).
    """
    return abs(local_epoch - message_epoch)
