"""Stage names for span marks (see :mod:`repro.telemetry.disttrace`).

A bundle's span is marked at relay ingress and through its whole path —
prefilter → ratelimit → cheap checks → batch enqueue → flush →
executor lane dispatch → pairing verdict → resolve — and a revocation
span from evidence → commit-reveal → ``MemberRemoved`` → accepted-window
collapse.
"""

from __future__ import annotations

#: Canonical bundle-lifecycle stage names, in path order.  A verdict that
#: short-circuits (gate drop, cache hit) simply has fewer marks; span
#: durations are always deltas between *consecutive* marks, so skipped
#: stages never show up as zero-length noise.
INGRESS = "ingress"
PREFILTER = "prefilter"
RATELIMIT = "ratelimit"
CHEAP_CHECKS = "cheap-checks"
VERDICT_CACHE = "verdict-cache"
BATCH_ENQUEUE = "batch-enqueue"
BATCH_FLUSH = "batch-flush"
LANE_DISPATCH = "lane-dispatch"
PAIRING = "pairing"
RESOLVE = "resolve"

#: Revocation-path stages (evidence → network-wide exclusion).
EVIDENCE = "evidence"
COMMIT_REVEAL = "commit-reveal"
MEMBER_REMOVED = "member-removed"
WINDOW_COLLAPSE = "window-collapse"

BUNDLE_STAGE_ORDER = (
    PREFILTER,
    RATELIMIT,
    CHEAP_CHECKS,
    VERDICT_CACHE,
    BATCH_ENQUEUE,
    BATCH_FLUSH,
    LANE_DISPATCH,
    PAIRING,
    RESOLVE,
)

REVOCATION_STAGE_ORDER = (COMMIT_REVEAL, MEMBER_REMOVED, WINDOW_COLLAPSE)
