"""Per-layer tracing from outside: spans around the repo's public seams.

Nothing under ``src/`` knows about this module.  :func:`install` replaces a
fixed list of *public* methods (:data:`SEAMS`) with wrappers that open a
span on entry and close it on exit; :func:`uninstall` puts the originals
back.  A span is ``(kind, start, end, parent)``; a kind is named
``<layer>.<what>`` and layers are the repo's package names, so a layer's
self time is the time inside its spans minus the time inside their child
spans.  Spans stay in memory (four typed arrays) and every traced run writes
them out when it ends (:meth:`Tracer.write`).

Two kinds of seam exist:

* *call seams* — the method itself is the layer boundary
  (``Network.send``, the prover's ``prove``/``verify``, tree writes …);
* *callback seams* — the method takes a callable that another layer will
  invoke later (``Simulator.schedule_at``, ``Network.register``,
  ``Blockchain.subscribe`` …); the callable is wrapped, and the span's layer
  is read off the callable's defining module.

A seam that no longer exists (renamed or removed by a refactor) is skipped
with a warning and listed in :attr:`Tracer.missing`; metrics that need it
read ``None`` instead of crashing the run.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import time
import warnings
from array import array
from dataclasses import dataclass
from typing import Any, Callable

#: Span kinds the harness opens around itself: the load generator (root of
#: a traced measured phase) and, inside it, two that run with the clock
#: stopped — the calibration kernel and the forging of hostile bundles.
GENERATOR = "harness.generator"
CALIBRATION = "harness.calibration"
FORGING = "harness.forging"
OFF_THE_CLOCK = (CALIBRATION, FORGING)

#: Layers whose package is split finer than ``repro.<package>``.
_FINE_LAYERS = ("repro.core.membership", "repro.crypto.merkle")


def layer_of(fn: Callable[..., Any]) -> str:
    """The layer (package name) a callable was defined in."""
    module = getattr(fn, "__module__", None) or ""
    if module in _FINE_LAYERS:
        return module[len("repro."):]
    if module.startswith("repro."):
        return module.split(".")[1]
    return "harness"


class Tracer:
    """Span storage plus running self-time per kind."""

    def __init__(self) -> None:
        self.kind_names: list[str] = []
        self._kind_ids: dict[str, int] = {}
        self.self_s: list[float] = []
        self.calls: list[int] = []
        # One entry per span, in start order.
        self.kinds = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        # Open spans: parallel stacks of span index and child time so far.
        self._open: list[int] = []
        self._child_s: list[float] = []
        #: Seams install() could not find, and the layers they bounded.
        self.missing: list[str] = []
        self.missing_layers: set[str] = set()
        self._originals: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def kind(self, name: str) -> int:
        kind_id = self._kind_ids.get(name)
        if kind_id is None:
            kind_id = self._kind_ids[name] = len(self.kind_names)
            self.kind_names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return kind_id

    def begin(self, kind_id: int) -> None:
        open_spans = self._open
        self.kinds.append(kind_id)
        self.parents.append(open_spans[-1] if open_spans else -1)
        self.ends.append(0.0)
        open_spans.append(len(self.starts))
        self._child_s.append(0.0)
        self.starts.append(time.perf_counter())

    def end(self) -> None:
        now = time.perf_counter()
        index = self._open.pop()
        self.ends[index] = now
        duration = now - self.starts[index]
        kind_id = self.kinds[index]
        self.self_s[kind_id] += duration - self._child_s.pop()
        self.calls[kind_id] += 1
        if self._child_s:
            self._child_s[-1] += duration

    def snapshot(self) -> dict[str, tuple[float, int]]:
        """``kind -> (self seconds, calls)`` so far (closed spans only)."""
        return {
            name: (self.self_s[i], self.calls[i])
            for i, name in enumerate(self.kind_names)
        }

    def write(self, path: pathlib.Path) -> None:
        """Every span, column-wise (``parent`` is an index into the columns).

        ``self_s`` is the running total per kind, so a reader can check the
        columns against what the metrics were built from.
        """
        spans = {
            "kinds": self.kind_names,
            "self_s": self.self_s,
            "kind": self.kinds.tolist(),
            "start": self.starts.tolist(),
            "end": self.ends.tolist(),
            "parent": self.parents.tolist(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(spans))

    # -- wrappers --------------------------------------------------------------

    def spanned(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` running inside a span of kind ``name``."""
        kind_id = self.kind(name)
        begin, end = self.begin, self.end

        def traced(*args: Any, **kwargs: Any) -> Any:
            begin(kind_id)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        traced.__e2e_traced__ = True  # type: ignore[attr-defined]
        return traced

    def callback(self, fn: Callable[..., Any], what: str) -> Callable[..., Any]:
        """A callback seam's callable, spanned as ``<its layer>.<what>``."""
        return self.spanned(fn, f"{layer_of(fn)}.{what}")


def _call_seam(name: str):
    def make(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
        return tracer.spanned(original, name)

    return make


def _callback_seam(position: int, keyword: str, what: str):
    """Wrap the callable passed at ``position`` (or as ``keyword``)."""

    def make(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
        def registering(*args: Any, **kwargs: Any) -> Any:
            if keyword in kwargs:
                kwargs[keyword] = tracer.callback(kwargs[keyword], what)
            else:
                head = args[:position]
                args = head + (tracer.callback(args[position], what),) + args[position + 1:]
            return original(*args, **kwargs)

        registering.__e2e_traced__ = True  # type: ignore[attr-defined]
        return registering

    return make


def _handler_seam(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
    """``Network.register``: one span kind per protocol channel."""

    def register(self: Any, peer: str, handler: Any, *, protocol: str = "gossipsub") -> Any:
        layer = protocol.removesuffix("-reply")
        return original(
            self, peer, tracer.spanned(handler, f"{layer}.handler"), protocol=protocol
        )

    register.__e2e_traced__ = True  # type: ignore[attr-defined]
    return register


def _validator_seam(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
    """``WakuRelay.set_validator``: the router → pipeline boundary."""

    def set_validator(self: Any, validator: Any) -> Any:
        return original(self, tracer.spanned(validator, "pipeline.validate"))

    set_validator.__e2e_traced__ = True  # type: ignore[attr-defined]
    return set_validator


_TREE_OPS = ("append", "delete", "proof")


@dataclass(frozen=True)
class Seam:
    """One public method tracing replaces, and the layer it bounds."""

    module: str
    cls: str
    attr: str
    layer: str
    make: Callable[[Tracer, Any], Any]

    @property
    def name(self) -> str:
        return f"{self.module}.{self.cls}.{self.attr}"


def _call(module: str, cls: str, attr: str, kind: str) -> Seam:
    return Seam(module, cls, attr, kind.rsplit(".", 1)[0], _call_seam(kind))


#: The whole public surface tracing depends on.  README.md lists it for
#: refactors.  Callback seams carry spans of whatever layer registered the
#: callable; ``layer`` names the one whose times are void if the seam goes.
SEAMS: list[Seam] = [
    _call("repro.net.simulator", "Simulator", "run", "net.sim"),
    Seam("repro.net.simulator", "Simulator", "schedule_at", "net",
         _callback_seam(2, "callback", "event")),
    Seam("repro.net.simulator", "Simulator", "every", "net",
         _callback_seam(2, "callback", "tick")),
    Seam("repro.net.transport", "Network", "register", "gossipsub", _handler_seam),
    _call("repro.net.transport", "Network", "send", "net.send"),
    Seam("repro.waku.relay", "WakuRelay", "set_validator", "pipeline", _validator_seam),
    _call("repro.waku.relay", "WakuRelay", "publish", "gossipsub.publish"),
    _call("repro.core.protocol", "WakuRLNRelayPeer", "publish", "core.publish"),
    _call("repro.zksnark.prover", "NativeProver", "prove", "zksnark.prove"),
    _call("repro.zksnark.prover", "NativeProver", "verify", "zksnark.verify"),
    _call("repro.zksnark.prover", "NativeProver", "verify_batch", "zksnark.verify_batch"),
    Seam("repro.chain.blockchain", "Blockchain", "subscribe", "core.membership",
         _callback_seam(1, "callback", "on_event")),
    _call("repro.chain.blockchain", "Blockchain", "advance_time", "chain.advance_time"),
    *[_call("repro.crypto.merkle", "MerkleTree", op, f"crypto.merkle.{op}") for op in _TREE_OPS],
    *[_call("repro.treesync.forest", "ShardedMerkleForest", op, f"treesync.{op}")
      for op in _TREE_OPS],
    _call("repro.exec.executor", "SynchronousCryptoExecutor", "submit", "exec.submit"),
    _call("repro.exec.executor", "SimulatedCryptoExecutor", "submit", "exec.submit"),
]


def _owner(seam: Seam) -> Any:
    try:
        return getattr(importlib.import_module(seam.module), seam.cls, None)
    except ImportError:
        return None


def install(tracer: Tracer) -> None:
    """Wrap every seam of :data:`SEAMS` that still exists."""
    for seam in SEAMS:
        owner = _owner(seam)
        original = getattr(owner, seam.attr, None)
        if original is None:
            tracer.missing.append(seam.name)
            tracer.missing_layers.add(seam.layer)
            warnings.warn(
                f"traced seam {seam.name} is gone; {seam.layer} times read null"
            )
            continue
        tracer._originals.append((owner, seam.attr, original))
        setattr(owner, seam.attr, seam.make(tracer, original))


def uninstall(tracer: Tracer) -> None:
    for owner, attr, original in reversed(tracer._originals):
        setattr(owner, attr, original)
    tracer._originals.clear()


def installed_wrappers() -> list[str]:
    """Seams currently wrapped — must be empty during an untraced run."""
    return [
        seam.name
        for seam in SEAMS
        if getattr(getattr(_owner(seam), seam.attr, None), "__e2e_traced__", False)
    ]
