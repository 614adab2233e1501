"""``PubSubMessage`` / ``WakuMessage`` remember ``byte_size()`` on the frozen
instance and an ``RPC`` record sums its frames': a frame derived from a sized
one must weigh what an equal frame built from scratch weighs, and a fleet
must be billed the integers it was billed when every send measured from
scratch."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.gossipsub.messages import RPC, IHave, PubSubMessage
from repro.telemetry import Telemetry
from repro.waku.message import WakuMessage
from tests.property import wire_strategies as ws


def rebuilt(frame):
    """An equal frame built field by field: nothing inside remembers a size."""
    if isinstance(frame, RPC):
        return RPC(tuple(rebuilt(message) for message in frame.messages), *frame[1:])
    if not isinstance(frame, (PubSubMessage, WakuMessage)):
        return frame
    values = {f.name: getattr(frame, f.name) for f in dataclasses.fields(frame)}
    if isinstance(frame, PubSubMessage):
        values["payload"] = rebuilt(frame.payload)
    return type(frame)(**values)


def enveloped(message: WakuMessage) -> RPC:
    carried = PubSubMessage(topic="/waku/2/test", payload=message)
    return RPC(messages=(carried,), ihave=(IHave("/waku/2/test", (bytes(32),)),))


@given(
    message=ws.waku_messages,
    proof=st.none() | ws.bundles,
    trace=st.none() | ws.span_contexts,
    payload=st.binary(max_size=64),
    epoch_shift=st.integers(min_value=-2, max_value=2),
)
@settings(max_examples=60, deadline=None)
def test_a_derived_frame_weighs_what_a_fresh_equal_frame_weighs(
    message, proof, trace, payload, epoch_shift
):
    rpc = enveloped(message)
    sized = rpc.byte_size()  # every level now remembers its size
    derived = [
        message.with_proof(proof),
        message.with_trace(trace),
        dataclasses.replace(message, payload=payload),
    ]
    if message.rate_limit_proof is not None:
        forged = message.rate_limit_proof.forged_copy(epoch_shift=epoch_shift)
        derived.append(message.with_proof(forged))
    for variant in derived:
        carried = dataclasses.replace(rpc.messages[0], payload=variant)
        outer = rpc._replace(messages=(carried,))
        for frame in (variant, carried, outer):
            assert frame.byte_size() == rebuilt(frame).byte_size()
    assert rpc.byte_size() == sized == rebuilt(rpc).byte_size()


def fleet_run(monkeypatch, telemetry):
    """8 peers, 3 rounds, everyone publishes once a round; every payload
    handed to ``Network.send`` is kept, once per destination."""
    config = RLNConfig(tree_depth=20, epoch_length=1.0)
    dep = RLNDeployment.create(
        peer_count=8, degree=4, seed=3, config=config, telemetry=telemetry, start=False
    )
    sent = []
    send = dep.network.send

    def recording_send(src, dst, payload, **kwargs):
        copies = 1 if isinstance(dst, str) else len(dst)
        sent.extend([payload] * copies)
        send(src, dst, payload, **kwargs)

    monkeypatch.setattr(dep.network, "send", recording_send)
    dep.start_all()
    dep.register_all()
    dep.form_meshes()
    for round_ in range(3):
        for peer_id in dep.peer_ids():
            dep.peers[peer_id].publish(b"round-%d-%s" % (round_, peer_id.encode()))
        dep.run(1.0)
    return dep, sent


#: What the parent commit (every send sized from scratch, one envelope per
#: target) billed for this run; traced, every relay hop re-stamps the
#: message's span context through the router's trace rewriter — the
#: ``production_fleet`` path.  Re-pinned (from 240 532 / 262 132 B over 650
#: sends) when a relay began forwarding at the end of the instant, skipping
#: every peer whose copy reached it in that instant.
@pytest.mark.parametrize(
    "traced, billed", [(False, 183_508), (True, 199_924)], ids=["untraced", "traced"]
)
def test_a_fleet_is_billed_the_parents_integers(monkeypatch, traced, billed):
    telemetry = Telemetry(trace_sample=1.0) if traced else None
    dep, sent = fleet_run(monkeypatch, telemetry)
    assert dep.network.total_bytes() == billed
    assert dep.network.protocol_bytes() == {"gossipsub": billed}
    assert dep.network.total_messages() == len(sent) == 506
    # ... and what was billed is what frames built from scratch weigh.
    assert sum(rebuilt(rpc).byte_size() for rpc in sent) == billed
    hops = {
        message.payload.trace.hop
        for rpc in sent
        for message in rpc.messages
        if message.payload.trace is not None
    }
    assert (len(hops) > 1) is traced  # re-stamped copies were among them
