"""Distributed (contract-free) group management over the DHT.

§IV-A, "Enhancing performance by off-chain solutions": "replace the
membership contract with a distributed group management scheme e.g.,
through distributed hash tables.  This is to address possible performance
issues that the interaction with the public Ethereum blockchain may cause.
For example, the registration transactions are subject to delay as they
have to be mined..."

This module implements that scheme.  The membership set is a CRDT — a
grow-only set of registration records plus removal tombstones — replicated
under one DHT key:

* **register**: read-merge-write; concurrent registrations merge (set
  union), so no registration is lost to a race;
* **remove**: a tombstone carrying the member's *secret key*.  Knowledge
  of ``sk`` with ``H(sk) = pk`` is exactly what RLN slashing produces, so
  the same evidence that slashes on-chain authorises removal here — no
  other authentication is needed or possible without identities;
* **convergence**: every replica orders records deterministically by
  (lamport, pk), so all peers build byte-identical Merkle trees.

What the DHT deliberately does *not* replace: the economics.  Deposits and
slash rewards need a ledger; the experiment this module feeds (A1 in
DESIGN.md) measures what the paper conjectures — that moving *membership
synchronisation* off-chain removes the block-interval latency from
registration — while tests document that removal tombstones are only as
trustworthy as the key-knowledge rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from repro.crypto.field import FieldElement
from repro.crypto.identity import derive_commitment
from repro.crypto.merkle import MerkleTree
from repro.errors import ProtocolError
from repro.offchain.kademlia import KademliaNode


@dataclass(frozen=True)
class MembershipRecord:
    """One CRDT entry: a registration, or a removal tombstone."""

    pk: int
    owner: str
    lamport: int
    removal_sk: int | None = None  # set => tombstone for pk = H(removal_sk)

    @property
    def is_removal(self) -> bool:
        return self.removal_sk is not None

    def byte_size(self) -> int:
        return 80 + len(self.owner)


@dataclass(frozen=True)
class GroupSnapshot:
    """A replicated membership state (what lives under the DHT key)."""

    records: frozenset[MembershipRecord]

    @property
    def version(self) -> int:
        return len(self.records)

    def byte_size(self) -> int:
        return 16 + sum(r.byte_size() for r in self.records)

    def merge(self, other: "GroupSnapshot") -> "GroupSnapshot":
        return GroupSnapshot(records=self.records | other.records)

    def ordered_registrations(self) -> list[MembershipRecord]:
        """Deterministic insertion order shared by every replica."""
        return sorted(
            (r for r in self.records if not r.is_removal),
            key=lambda r: (r.lamport, r.pk),
        )

    def removed_pks(self) -> set[int]:
        out = set()
        for record in self.records:
            if record.is_removal:
                out.add(int(derive_commitment(FieldElement(record.removal_sk))))
        return out


EMPTY_SNAPSHOT = GroupSnapshot(records=frozenset())


class DistributedGroupManager:
    """One peer's replica of the DHT-managed membership group.

    Either §IV-A role is the same object: a resourceful member builds
    and proves from a local tree (:meth:`build_tree`,
    :meth:`merkle_proof`); a light member never calls those — its index
    is derivable from the replicated snapshot (:meth:`member_index`: pure
    ordering, zero hashing) and its authentication path comes from a
    :class:`~repro.witness.client.WitnessClient` — fetched from
    resourceful peers and verified against an accepted root, never
    trusted.
    """

    def __init__(
        self,
        peer_id: str,
        dht: KademliaNode,
        *,
        group_id: str = "waku-rln-relay/default",
        tree_depth: int = 20,
    ) -> None:
        self.peer_id = peer_id
        self.dht = dht
        self.group_key = b"group:" + group_id.encode("utf-8")
        self.tree_depth = tree_depth
        self.snapshot = EMPTY_SNAPSHOT
        self._lamport = itertools.count(1)

    # -- mutations -----------------------------------------------------------

    def register(self, pk: FieldElement, on_done: Callable[[GroupSnapshot], None] | None = None) -> None:
        """Read-merge-write a registration record.

        Completes in DHT round trips — no mining delay (the §IV-A point).
        """
        if not pk:
            raise ProtocolError("commitment must be nonzero")
        record = MembershipRecord(
            pk=pk.value, owner=self.peer_id, lamport=next(self._lamport)
        )
        self._read_merge_write(record, on_done)

    def remove(self, sk: FieldElement, on_done: Callable[[GroupSnapshot], None] | None = None) -> None:
        """Publish a removal tombstone authorised by knowledge of ``sk``."""
        if not sk:
            raise ProtocolError("secret key must be nonzero")
        record = MembershipRecord(
            pk=int(derive_commitment(sk)),
            owner=self.peer_id,
            lamport=next(self._lamport),
            removal_sk=sk.value,
        )
        self._read_merge_write(record, on_done)

    def _read_merge_write(
        self, record: MembershipRecord, on_done: Callable[[GroupSnapshot], None] | None
    ) -> None:
        def have_remote(value, _version) -> None:
            remote = value if isinstance(value, GroupSnapshot) else EMPTY_SNAPSHOT
            merged = self.snapshot.merge(remote).merge(
                GroupSnapshot(records=frozenset({record}))
            )
            self.snapshot = merged
            self.dht.put(
                self.group_key,
                merged,
                merged.version,
                on_done=(lambda _replicas: on_done(merged)) if on_done else None,
            )

        self.dht.get(self.group_key, have_remote)

    # -- reads ----------------------------------------------------------------

    def refresh(self, on_done: Callable[[GroupSnapshot], None] | None = None) -> None:
        """Pull and merge the latest replicated snapshot."""

        def have_remote(value, _version) -> None:
            if isinstance(value, GroupSnapshot):
                self.snapshot = self.snapshot.merge(value)
            if on_done is not None:
                on_done(self.snapshot)

        self.dht.get(self.group_key, have_remote)

    def is_member(self, pk: FieldElement) -> bool:
        removed = self.snapshot.removed_pks()
        return any(
            r.pk == pk.value for r in self.snapshot.ordered_registrations()
        ) and pk.value not in removed

    def member_count(self) -> int:
        removed = self.snapshot.removed_pks()
        return sum(
            1 for r in self.snapshot.ordered_registrations() if r.pk not in removed
        )

    # -- tree construction ---------------------------------------------------------

    def build_tree(self) -> MerkleTree:
        """Deterministic tree every converged replica agrees on.

        Registration order is (lamport, pk); removed members' leaves are
        zeroed in place, exactly like the contract's ordered list.
        """
        tree = MerkleTree(depth=self.tree_depth)
        removed = self.snapshot.removed_pks()
        seen: set[int] = set()
        for record in self.snapshot.ordered_registrations():
            if record.pk in seen:
                continue  # duplicate registration of the same commitment
            seen.add(record.pk)
            index = tree.append(FieldElement(record.pk))
            if record.pk in removed:
                tree.delete(index)
        return tree

    @property
    def root(self) -> FieldElement:
        return self.build_tree().root

    def member_index(self, pk: FieldElement) -> int:
        """Leaf index of a live member — pure snapshot ordering, no tree.

        This is all a light member needs locally: the index names the
        slot whose witness it fetches; the path itself comes from a
        resourceful peer.
        """
        if pk.value in self.snapshot.removed_pks():
            raise ProtocolError(f"member {pk.value} has been removed")
        seen: set[int] = set()
        index = 0
        for record in self.snapshot.ordered_registrations():
            if record.pk in seen:
                continue
            if record.pk == pk.value:
                return index
            seen.add(record.pk)
            index += 1
        raise ProtocolError(f"commitment {pk.value} is not registered")

    def merkle_proof(self, pk: FieldElement):
        """Authentication path for a live member in the replicated tree."""
        index = self.member_index(pk)
        return self.build_tree().proof(index)
