"""Does a tampering relay censor honest messages?

    python3 benchmarks/probes/tamper.py [--seeds 1 2 ... 10] [--fields share_y root ...]

A fleet of 12 WAKU-RLN-RELAY peers (degree 4) registers, forms its meshes
and carries 5 messages from 5 distinct publishers.  One relay,
``peer-000``, is a tamperer: whenever it forwards a message, it first
sends the same targets a copy whose RLN bundle has one field changed
(``share_y``, ``internal_nullifier``, ``root`` or a proof byte).  The
tampered copy fails validation wherever it lands.  The question is
whether the honest copy still gets through: a message id that did not
cover the bundle would name both copies, and a receiver that judged the
tampered one first would drop the honest one as a duplicate.

For each changed field this prints the total deliveries (peers x
messages that arrived, publishers included) over the seeds, with and
without the tamperer, and the last line is the rows as JSON.  It exits
1 if the tamperer cost any delivery.  Standard library only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.metrics import DeliveryTracker  # noqa: E402
from repro.core.deployment import RLNDeployment  # noqa: E402
from repro.crypto.field import FieldElement  # noqa: E402
from repro.gossipsub.messages import PubSubMessage  # noqa: E402
from repro.waku.message import WakuMessage  # noqa: E402
from repro.zksnark.groth16 import Proof  # noqa: E402

PEERS = 12
DEGREE = 4
MESSAGES = 5
TAMPERER = "peer-000"
SEEDS = tuple(range(1, 11))
FIELDS = ("share_y", "internal_nullifier", "root", "proof")
PAYLOADS = tuple(b"tamper-probe-%d" % index for index in range(MESSAGES))


def tampered(bundle, field: str):
    """``bundle`` with one field changed: a copy no honest proof backs."""
    if field == "proof":
        a = bytes([bundle.proof.a[0] ^ 1]) + bundle.proof.a[1:]
        return dataclasses.replace(bundle, proof=Proof(a=a, b=bundle.proof.b, c=bundle.proof.c))
    return dataclasses.replace(bundle, **{field: FieldElement(getattr(bundle, field).value + 1)})


def make_tamperer(router, field: str) -> None:
    """Have ``router`` send a tampered copy ahead of every forward."""
    forward = router._forward

    def tampering_forward(message, **kwargs):
        payload = message.payload
        if isinstance(payload, WakuMessage) and payload.rate_limit_proof is not None:
            bundle = tampered(payload.rate_limit_proof, field)
            forward(PubSubMessage(message.topic, payload.with_proof(bundle)), **kwargs)
        forward(message, **kwargs)

    router._forward = tampering_forward


def scenario(seed: int, field: str | None) -> tuple[RLNDeployment, DeliveryTracker]:
    """The fleet after carrying its messages, and its delivery record;
    ``field=None``: no tamperer."""
    dep = RLNDeployment.create(peer_count=PEERS, degree=DEGREE, seed=seed)
    dep.register_all()
    dep.form_meshes()
    tracker = DeliveryTracker(dep)
    if field is not None:
        make_tamperer(dep.peer(TAMPERER).relay.router, field)
    publishers = [name for name in dep.peer_ids() if name != TAMPERER]
    for publisher, payload in zip(publishers, PAYLOADS):
        dep.peer(publisher).publish(payload)
    dep.run(10.0)
    return dep, tracker


def deliveries(seed: int, field: str | None) -> int:
    _, tracker = scenario(seed, field)
    return sum(tracker.delivery_count(payload) for payload in PAYLOADS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    parser.add_argument("--fields", nargs="+", choices=FIELDS, default=list(FIELDS))
    args = parser.parse_args(argv)
    honest = sum(deliveries(seed, None) for seed in args.seeds)
    rows = []
    print(f"{'changed field':>20} {'honest':>8} {'tamperer':>9}")
    for field in args.fields:
        with_tamperer = sum(deliveries(seed, field) for seed in args.seeds)
        rows.append({"field": field, "honest": honest, "tamperer": with_tamperer})
        print(f"{field:>20} {honest:>8} {with_tamperer:>9}")
    print(json.dumps(rows))
    return 0 if all(row["tamperer"] == row["honest"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
