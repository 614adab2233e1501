"""A light member: registered, publishing, and never holding a tree.

§IV-A sketches the hybrid architecture — "resourceful peers maintain the
full membership tree while light members fetch their Merkle
authentication paths on demand".  :class:`LightMember` is the light half
assembled: an identity, a leaf index, a prover, and a
:class:`~repro.witness.client.WitnessClient`; its only tree-shaped state
is whatever root view the client verifies against (typically a digest-fed
:class:`~repro.treesync.sync.ShardSyncManager` light view — top tree
only, no shard, no leaves).

Publishing is the seed's §III-E flow with one substitution: the ``auth``
input of the circuit comes from a fetched-and-verified witness instead of
a local tree.  The proof statement binds to the root the witness folds
to, so the unchanged ``rln_circuit`` and the unchanged validators accept
the message — the whole point of serving *standard* spliced paths.
"""

from __future__ import annotations

from typing import Callable

from repro.core.protocol import DEFAULT_CONTENT_TOPIC, build_message
from repro.crypto.identity import Identity
from repro.crypto.merkle import MerkleProof
from repro.net.request import RequestFailure
from repro.waku.message import WakuMessage
from repro.witness.client import WitnessClient
from repro.zksnark.prover import RLNProver


class LightMember:
    """Publish-capable membership with zero tree storage.

    ``index`` is the member's leaf index in the group tree (announced at
    registration).  ``timestamp`` supplies message timestamps (a peer
    clock's ``unix_time``; defaults to 0 like the other test surfaces).
    """

    def __init__(
        self,
        identity: Identity,
        index: int,
        *,
        prover: RLNProver,
        client: WitnessClient,
        timestamp: Callable[[], float] | None = None,
    ) -> None:
        self.identity = identity
        self.index = index
        self.prover = prover
        self.client = client
        self._timestamp = timestamp or (lambda: 0.0)
        self.published = 0

    def prefetch_witness(self) -> None:
        """Warm the witness cache ahead of the first publish."""
        self.client.prefetch(self.index, expected_leaf=self.identity.pk)

    def publish(
        self,
        payload: bytes,
        epoch: int,
        publish: Callable[[WakuMessage], None],
        *,
        content_topic: str = DEFAULT_CONTENT_TOPIC,
        on_published: Callable[[WakuMessage], None] | None = None,
        on_error: Callable[[RequestFailure], None] | None = None,
    ) -> None:
        """§III-E with a fetched witness; ``publish`` is any message sink
        — a relay's publish, or a lightpush client's push.

        Asynchronous end to end: with a warm cache the witness arrives
        synchronously and the message is built and published before this
        returns; a cold cache pays the fetch round trips first.

        When the client's hub head-samples this publish (PR 9), the root
        span covers witness acquisition through hand-off to ``publish``,
        the fetch (if any) joins as a "witness-fetch" child span, and the
        message carries the root context into the mesh.
        """
        span = self.client.disttracer.begin_publish()

        def have_witness(proof: MerkleProof) -> None:
            if span is not None:
                span.mark("witness")
            # The statement's root is whatever the (verified) witness
            # folds to — by construction a root the client's acceptor
            # recognises, hence one the network's validators recognise too.
            message = build_message(
                self.identity,
                payload,
                epoch,
                proof,
                proof.compute_root(),
                prover=self.prover,
                content_topic=content_topic,
                timestamp=self._timestamp(),
            )
            if span is not None:
                span.mark("proof")
                message = message.with_trace(span.context)
            publish(message)
            if span is not None:
                self.client.disttracer.finish(span)
            self.published += 1
            if on_published is not None:
                on_published(message)

        def failed(failure: RequestFailure) -> None:
            if span is not None:
                self.client.disttracer.finish(span)
            if on_error is not None:
                on_error(failure)

        # expected_leaf pins the path to our own commitment: a genuine
        # path for a zeroed or re-occupied slot is rejected (and failed
        # over) at the client instead of blowing up in the prover.
        self.client.witness(
            self.index,
            have_witness,
            failed,
            expected_leaf=self.identity.pk,
            trace=None if span is None else span.context,
        )
