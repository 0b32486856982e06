"""Gradient-informed adaptive modality dropout.

Tracks recent gradient-norm contributions per modality, smooths them with an
exponential decay, and decides per step whether to drop one modality from
the volume loss and which of the remaining ones anchors the negatives.
"""

import math
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .errors import EmptyHistory, NegativeNorm
from .modality import MODALITY_ORDER, Modality


@dataclass
class SchedulerConfig:
    p_drop: float = 0.8
    history_len: int = 5  # K
    decay: float = 0.9  # alpha
    sigma_multiplier: float = 1.5  # lambda_sigma

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 <= self.p_drop <= 1.0:
            raise ValueError(f"p_drop must lie in [0, 1], got {self.p_drop}")
        if self.history_len < 1:
            raise ValueError("history_len must be >= 1")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must lie in (0, 1)")
        if self.sigma_multiplier <= 0.0:
            raise ValueError("sigma_multiplier must be positive")


def check_field_types(config) -> None:
    """Raise naming the first int or float field of dataclass ``config`` holding a bad value.

    An int field takes only an int (TypeError otherwise). A float field takes
    an int or a float (TypeError otherwise) that is finite (ValueError
    otherwise); an int beyond float range is not finite. Neither takes a bool.
    """
    for f in fields(config):
        if f.type not in (int, float):
            continue
        value = getattr(config, f.name)
        if isinstance(value, bool) or not isinstance(value, (int, f.type)):
            raise TypeError(f"{f.name} must be {'a float' if f.type is float else 'an int'}, "
                            f"got {value!r}")
        if f.type is float:
            try:
                number = float(value)
            except OverflowError:  # an int beyond float range
                number = math.inf if value > 0 else -math.inf
            if not math.isfinite(number):
                raise ValueError(f"{f.name} must be finite, got {number}")


class Branch(Enum):
    DOMINANCE = "dominance"
    ARGMIN = "argmin"
    NONE = "none"


@dataclass
class DropDecision:
    should_drop: bool
    dropped: Modality | None
    anchor: Modality
    branch: Branch


@dataclass
class GradHistory:
    """Per-modality ring buffers of recent gradient norms, newest first."""

    max_len: int
    decay: float
    buffers: dict = field(default_factory=lambda: {m: [] for m in MODALITY_ORDER})


def record(history: GradHistory, norms) -> GradHistory:
    """Push one norm per modality; entries beyond the window are evicted."""
    norms = [float(n) for n in norms]
    if len(norms) != 4:
        raise NegativeNorm(f"expected 4 norms, got {len(norms)}")
    for n in norms:
        if not np.isfinite(n) or n < 0.0:
            raise NegativeNorm(f"gradient norms must be finite and >= 0, got {n}")
    for m, n in zip(MODALITY_ORDER, norms):
        buf = history.buffers[m]
        buf.insert(0, n)
        del buf[history.max_len :]
    return history


def smoothed(history: GradHistory) -> np.ndarray:
    """Decay-weighted means over the stored window, newest weighted highest.

    With entries g_0 (newest) .. g_{L-1} and decay a, returns
    sum(a^k g_k) / sum(a^k) per modality.
    """
    out = np.empty(4)
    for i, m in enumerate(MODALITY_ORDER):
        buf = history.buffers[m]
        if not buf:
            raise EmptyHistory(f"no recorded norms for {m.name}")
        w = history.decay ** np.arange(len(buf))
        out[i] = float(np.dot(w, buf) / w.sum())
    return out


def make_history(cfg: SchedulerConfig) -> GradHistory:
    return GradHistory(max_len=cfg.history_len, decay=cfg.decay)


def decide(gbar, cfg: SchedulerConfig, rng) -> DropDecision:
    """One drop decision from the smoothed per-modality gradient norms.

    With probability 1 - p_drop no modality is dropped and the anchor stays
    PROTEIN. Otherwise: if some modality's smoothed norm
    exceeds mean + sigma_multiplier * population-std it is dropped
    (dominance; at most one modality can exceed that threshold), else the
    smallest contributor is dropped. The anchor is drawn uniformly from the
    three remaining modalities.
    """
    gbar = np.asarray(gbar, dtype=np.float64)
    if gbar.shape != (4,) or not np.all(np.isfinite(gbar)):
        raise NegativeNorm(f"need 4 finite smoothed norms, got {gbar}")
    if rng.random() > cfg.p_drop:
        return DropDecision(False, None, Modality.PROTEIN, Branch.NONE)

    mu = float(gbar.mean())
    sigma = float(np.sqrt(np.mean((gbar - mu) ** 2)))
    threshold = mu + cfg.sigma_multiplier * sigma
    dropped = None
    branch = Branch.ARGMIN
    for i, m in enumerate(MODALITY_ORDER):
        if gbar[i] > threshold:
            dropped = m
            branch = Branch.DOMINANCE
            break
    if dropped is None:
        dropped = MODALITY_ORDER[int(np.argmin(gbar))]
    remaining = [m for m in MODALITY_ORDER if m is not dropped]
    anchor = remaining[int(rng.integers(0, len(remaining)))]
    return DropDecision(True, dropped, anchor, branch)
