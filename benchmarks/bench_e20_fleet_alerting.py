"""E20 — closing the observability loop: fleet alerting and liveness.

PRs 6/7/9 record; this PR *watches*.  The collector evaluates the
built-in RLN rule pack (spam-flood rate, revocation-lag SLO, witness
degradation, executor saturation, exporter loss, peer-silent) on the
simulated clock, and E20 measures the figures an on-call rotation would
ask about, at a fixed small fleet (alerting cost is per-rule, not
per-member — the scale knobs live in E17):

* **honest arm** — zero false positives: an honest publishing fleet
  raises no alert transition at all, scores 1.0 on liveness, and its
  exposition carries no ``ALERTS`` series;
* **flood arm** — detection latency: an invalid-proof flood starting at
  a known simulated instant trips ``rln-spam-flood`` within a fixed
  bound (rate window + ``for_duration`` + one evaluation tick), twice,
  with bit-identical event logs — alerting is deterministic, not
  best-effort.  The alert log is written to ``reports/E20-alerts.json``
  (a CI artifact);
* **silent-peer arm** — liveness: stopping a peer (exporter closed: its
  batches and its one-way idle heartbeats stop) trips ``rln-peer-silent``
  within ``silent_after`` plus one evaluation tick, and the health report
  names the peer;
* **disabled arm (guard)** — a rules-free collector schedules no
  evaluation ticker, emits zero alert events and zero ``ALERTS``
  exposition bytes, and its relay traffic is bit-identical to a
  collector-less seed deployment.  Written to ``reports/E20-guard.json``
  for the CI guard step.
"""

import json
import pathlib

import pytest

from repro.analysis.reporting import ExperimentReport
from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.core.protocol import WakuMessage
from repro.telemetry import CollectorOptions

PEERS = 8
DEGREE = 4
SEED = 20
EXPORT_INTERVAL = 0.5
EVAL_INTERVAL = 0.5
#: Fixed detection-latency bound for the spam-flood alert: the rate
#: window (5 x eval interval) + for_duration (2 x eval interval) + one
#: evaluation tick of slack.
FLOOD_DETECTION_BOUND = 5 * EVAL_INTERVAL + 2 * EVAL_INTERVAL + EVAL_INTERVAL
#: Fixed bound for silent-peer detection: the classifier's silent_after
#: (10 x export interval) + one evaluation tick.
SILENT_DETECTION_BOUND = 10 * EXPORT_INTERVAL + EVAL_INTERVAL

REPORTS = pathlib.Path(__file__).parent / "reports"
GUARD_PATH = REPORTS / "E20-guard.json"
ALERTS_PATH = REPORTS / "E20-alerts.json"


def build(*, alerting: bool, collector: bool = True) -> RLNDeployment:
    config = RLNConfig(epoch_length=600.0, max_epoch_gap=2, tree_depth=8)
    options = None
    if collector:
        options = CollectorOptions(
            interval=EXPORT_INTERVAL,
            alerting=alerting,
            evaluation_interval=EVAL_INTERVAL,
        )
    return RLNDeployment.create(
        peer_count=PEERS, degree=DEGREE, seed=SEED, config=config, collector=options
    )


def corrupted_copy(message: WakuMessage) -> WakuMessage:
    return WakuMessage(
        payload=message.payload,
        content_topic=message.content_topic,
        rate_limit_proof=message.rate_limit_proof.forged_copy(),
    )


def settle(deployment: RLNDeployment) -> None:
    deployment.register_all()
    deployment.form_meshes()
    deployment.run(2.0)


# -- honest arm ---------------------------------------------------------------


def test_honest_arm_zero_false_positives(report_sink):
    deployment = build(alerting=True)
    settle(deployment)
    for index, publisher in enumerate(("peer-000", "peer-001", "peer-002")):
        deployment.peers[publisher].publish(b"e20-honest-%d" % index)
        deployment.run(3.0)
    deployment.run(5.0)
    collector = deployment.collector

    assert collector.alert_events() == [], collector.alert_events()
    assert collector.firing() == []
    report_data = collector.health_report()
    assert report_data["score"] == 1.0
    assert set(report_data["counts"]) == {"healthy"}
    exposition = collector.render_prometheus()
    assert "ALERTS" not in exposition

    report = ExperimentReport(
        experiment="E20-honest",
        claim="zero false positives: an honest fleet raises no alert and "
        "scores 1.0 on liveness",
        headers=("figure", "value"),
    )
    report.add_row("alert transitions", 0)
    report.add_row("liveness score", report_data["score"])
    report.add_row("peers healthy", report_data["counts"]["healthy"])
    report.add_row("rule evaluations", collector.engine.evaluations)
    report.add_note(
        f"{PEERS} peers, export every {EXPORT_INTERVAL}s (one-way idle "
        f"heartbeats on), rules evaluated every {EVAL_INTERVAL}s over "
        f"{collector.stats.batches} folded batches"
    )
    report_sink(report)


# -- flood arm ----------------------------------------------------------------


def run_flood():
    deployment = build(alerting=True)
    settle(deployment)
    attacker = deployment.peer("peer-000")
    flood_start = deployment.simulator.now
    for i in range(10):
        honest = attacker._build_message(
            b"e20-flood-%d" % i, "t", attacker.current_epoch()
        )
        attacker.relay.publish(corrupted_copy(honest))
        deployment.run(EVAL_INTERVAL)
    deployment.run(6.0)  # drain: the alert must also resolve
    return deployment, flood_start


def test_flood_arm_detection_latency(report_sink):
    deployment, flood_start = run_flood()
    collector = deployment.collector
    events = collector.alert_events()
    spam = [e for e in events if e["alertname"] == "rln-spam-flood"]
    fired = [e for e in spam if e["state"] == "firing"]
    assert fired, f"spam-flood never fired: {events}"
    latency = fired[0]["time"] - flood_start
    assert 0.0 < latency <= FLOOD_DETECTION_BOUND, (latency, FLOOD_DETECTION_BOUND)
    # lifecycle closes: the flood stopped, the rate drained, it resolved
    assert spam[-1]["state"] == "resolved"
    assert collector.firing() == []

    # determinism: an identical run produces a bit-identical event log
    again, _ = run_flood()
    assert again.collector.alert_events() == events

    REPORTS.mkdir(exist_ok=True)
    ALERTS_PATH.write_text(
        json.dumps(
            {
                "experiment": "E20-flood",
                "flood_start": flood_start,
                "detection_latency": latency,
                "detection_bound": FLOOD_DETECTION_BOUND,
                "events": events,
                "health": collector.health_report(),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    report = ExperimentReport(
        experiment="E20-flood",
        claim="an invalid-proof flood trips rln-spam-flood within a fixed "
        "simulated-time bound, deterministically",
        headers=("figure", "value"),
    )
    report.add_row("flood start (sim s)", round(flood_start, 3))
    report.add_row("first firing (sim s)", round(fired[0]["time"], 3))
    report.add_row("detection latency (s)", round(latency, 3))
    report.add_row("bound (s)", FLOOD_DETECTION_BOUND)
    report.add_row("lifecycle", " -> ".join(e["state"] for e in spam))
    report.add_note(
        "two identical runs produce bit-identical alert logs; "
        f"full log in {ALERTS_PATH.name}"
    )
    report_sink(report)


# -- silent-peer arm ----------------------------------------------------------


def test_silent_peer_arm_liveness(report_sink):
    deployment = build(alerting=True)
    settle(deployment)
    deployment.run(3.0)
    collector = deployment.collector
    assert collector.firing() == []

    stop_time = deployment.simulator.now
    deployment.peers["peer-000"].stop()
    deployment.run(SILENT_DETECTION_BOUND + EVAL_INTERVAL)

    events = [
        e for e in collector.alert_events() if e["alertname"] == "rln-peer-silent"
    ]
    fired = [e for e in events if e["state"] == "firing"]
    assert fired, collector.alert_events()
    latency = fired[0]["time"] - stop_time
    assert 0.0 < latency <= SILENT_DETECTION_BOUND, (latency, SILENT_DETECTION_BOUND)

    health = collector.health_report()
    silent = [p["peer"] for p in health["peers"] if p["status"] == "silent"]
    assert silent == ["peer-000"]
    assert health["score"] < 1.0

    report = ExperimentReport(
        experiment="E20-silent",
        claim="a stopped peer is detected silent once its batches and "
        "one-way idle heartbeats stop",
        headers=("figure", "value"),
    )
    report.add_row("peer stopped (sim s)", round(stop_time, 3))
    report.add_row("silent fired (sim s)", round(fired[0]["time"], 3))
    report.add_row("detection latency (s)", round(latency, 3))
    report.add_row("bound (s)", SILENT_DETECTION_BOUND)
    report.add_row("fleet score after", health["score"])
    report.add_note(
        "silent_after = 10 x export interval; a live peer is heard every "
        "interval (a batch, or an unacked heartbeat frame when idle)"
    )
    report_sink(report)


# -- disabled arm (guard) -----------------------------------------------------


def test_disabled_arm_bit_identical_and_alert_silent(report_sink):
    """Rules off: no engine, no alert bytes, relay identical to seed."""
    plain = build(alerting=False, collector=False)
    disabled = build(alerting=False)

    def drive(deployment):
        settle(deployment)
        deployment.peers["peer-001"].publish(b"e20-guard")
        deployment.run(5.0)

    drive(plain)
    drive(disabled)

    collector = disabled.collector
    assert collector.engine is None
    assert collector._stop_evaluation is None
    alert_events = len(collector.alert_events())
    exposition = collector.render_prometheus()
    alert_lines = sum(
        1 for line in exposition.splitlines() if line.startswith("ALERTS")
    )
    assert alert_events == 0 and alert_lines == 0

    relay_plain = plain.network.protocol_bytes()["gossipsub"]
    relay_disabled = disabled.network.protocol_bytes()["gossipsub"]
    for peer_id in plain.peer_ids():
        assert (
            plain.peers[peer_id].relay.traffic()
            == disabled.peers[peer_id].relay.traffic()
        ), peer_id
    assert relay_plain == relay_disabled

    REPORTS.mkdir(exist_ok=True)
    GUARD_PATH.write_text(
        json.dumps(
            {
                "experiment": "E20-guard",
                "alert_events_when_disabled": alert_events,
                "alert_exposition_lines_when_disabled": alert_lines,
                "relay_bytes_plain": relay_plain,
                "relay_bytes_disabled": relay_disabled,
                "relay_bit_identical": relay_plain == relay_disabled,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    report = ExperimentReport(
        experiment="E20-guard",
        claim="rules disabled means no engine, no ALERTS bytes, and relay "
        "traffic bit-identical to a collector-less seed",
        headers=("arm", "relay bytes", "alert events", "ALERTS lines"),
    )
    report.add_row("collector=None (seed)", relay_plain, "-", "-")
    report.add_row("rules disabled", relay_disabled, alert_events, alert_lines)
    report.add_note(
        "guard artifact reports/E20-guard.json: CI fails on any alert "
        "bytes or relay divergence in the disabled arm"
    )
    report_sink(report)
