"""Traced runs: spans around the calls into progtab's public functions.

The tracer wraps each function where its caller looks it up (a module
global, or a method on ``ModelGraph``), records one span per call with its
parent span, and puts every original back when it is uninstalled. Nothing in
``src/`` changes. Per-layer self times are computed from the recorded spans
afterwards, so they add up to the time the top-level spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

MIB = float(1 << 20)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level


@dataclass(frozen=True)
class Target:
    """One binding to wrap: ``owner.attr`` is timed as span ``span``.

    ``measure(args, result)`` optionally returns a ``(counter, amount)`` pair
    added to the tracer's counters after each call.
    """

    owner: object
    attr: str
    span: str
    measure: Callable | None = None


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the
    durations of the spans directly nested in it."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    out: dict[str, float] = {}
    for s, t in zip(spans, own):
        out[s.name] = out.get(s.name, 0.0) + t
    return out


def top_level_time(spans: list[Span]) -> float:
    return sum(s.end - s.start for s in spans if s.parent < 0)


class Tracer:
    """Records spans and counters while installed; use as a context manager."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def _wrap(self, fn, target: Target):
        spans, stack, counters = self.spans, self._stack, self.counters
        name, measure = target.span, target.measure
        calls_key = name + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            counters[calls_key] += 1
            if measure is not None:
                key, amount = measure(args, result)
                counters[key] += amount
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for t in self.targets:
            original = t.owner.__dict__[t.attr]
            self._saved.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, self._wrap(original, t))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.reset()
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
        self._stack.clear()


def progtab_targets() -> list[Target]:
    """Every binding the workloads reach, named after progtab's modules.

    Names imported into another module (``step`` into vime and cmixup;
    ``encode``, ``fit_cpr``, ``fit_target_encoding``, ``fit_scaler`` and
    ``apply_scaler`` into progressive) are wrapped there as well.
    """
    from progtab import cmixup, data, encoding, nn, progressive, vime

    def rows_in(args, result):
        return "nn.forward_rows", args[1].shape[0]

    def encoded(args, result):
        return "encoding.encoded_mb", result.matrix.nbytes / MIB

    def latents_in(args, result):
        return "cmixup.propagate_rows", args[0].shape[0]

    def pairs_out(args, result):
        return "cmixup.mixup_pairs", result.anchor_idx.size

    return [
        Target(data, "synthesize_dataset", "data.synthesize"),
        Target(data, "make_split", "data.split"),
        Target(data, "fit_scaler", "data.scale"),
        Target(data, "apply_scaler", "data.scale"),
        Target(progressive, "fit_scaler", "data.scale"),
        Target(progressive, "apply_scaler", "data.scale"),
        Target(encoding, "fit_cpr", "encoding.fit"),
        Target(encoding, "update_counts", "encoding.fit"),
        Target(encoding, "fit_target_encoding", "encoding.fit"),
        Target(encoding, "one_hot_encoding", "encoding.fit"),
        Target(encoding, "label_encoding", "encoding.fit"),
        Target(progressive, "fit_cpr", "encoding.fit"),
        Target(progressive, "fit_target_encoding", "encoding.fit"),
        Target(encoding, "encode", "encoding.encode", encoded),
        Target(progressive, "encode", "encoding.encode", encoded),
        Target(nn.ModelGraph, "forward", "nn.forward", rows_in),
        Target(nn.ModelGraph, "backward", "nn.backward"),
        Target(nn, "step", "nn.step"),
        Target(vime, "step", "nn.step"),
        Target(cmixup, "step", "nn.step"),
        Target(nn, "loss_supcon", "nn.loss_supcon"),
        Target(vime, "corrupt", "vime.corrupt"),
        Target(vime, "pretext_train", "vime.pretext_train"),
        Target(vime, "semisup_train", "vime.semisup_train"),
        Target(vime, "predict", "vime.predict"),
        Target(cmixup, "encoder_train", "cmixup.encoder_train"),
        Target(cmixup, "propagate_labels", "cmixup.propagate", latents_in),
        Target(cmixup, "latent_mixup", "cmixup.latent_mixup", pairs_out),
        Target(cmixup, "classify", "cmixup.classify"),
        Target(progressive, "run_progressive", "progressive.run"),
        Target(progressive, "refine_pseudo_labels", "progressive.refine"),
        Target(progressive, "update_representation", "progressive.update_representation"),
    ]
