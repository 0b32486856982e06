"""Gradient-informed adaptive modality dropout.

Tracks recent gradient-norm contributions per modality, smooths them with an
exponential decay, and decides per step whether to drop one modality from
the volume loss and which of the remaining ones anchors the negatives.
"""

import math
from collections import deque
from dataclasses import dataclass, fields
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
    dropped: Modality | None
    anchor: Modality
    branch: Branch

    @property
    def should_drop(self) -> bool:
        return self.dropped is not None


def make_history(cfg: SchedulerConfig) -> dict:
    """One empty window of the last ``history_len`` gradient norms per modality, newest first."""
    return {m: deque(maxlen=cfg.history_len) for m in MODALITY_ORDER}


def record(history: dict, norms) -> None:
    """Push one norm per modality; a full window evicts its oldest entry."""
    norms = [float(n) for n in norms]
    if len(norms) != 4:
        raise NegativeNorm(f"expected 4 norms, got {len(norms)}")
    for n in norms:
        if not np.isfinite(n) or n < 0.0:
            raise NegativeNorm(f"gradient norms must be finite and >= 0, got {n}")
    for m, n in zip(MODALITY_ORDER, norms):
        history[m].appendleft(n)


def smoothed(history: dict, decay: float) -> np.ndarray:
    """Decay-weighted means over the stored window, newest weighted highest.

    With entries g_0 (newest) .. g_{L-1} and decay a, returns
    sum(a^k g_k) / sum(a^k) per modality.
    """
    out = np.empty(4)
    for i, m in enumerate(MODALITY_ORDER):
        buf = history[m]
        if not buf:
            raise EmptyHistory(f"no recorded norms for {m.name}")
        w = decay ** np.arange(len(buf))
        out[i] = float(np.dot(w, buf) / w.sum())
    return out


def decide(gbar, cfg: SchedulerConfig, rng) -> DropDecision:
    """One drop decision from the smoothed per-modality gradient norms.

    With probability 1 - p_drop no modality is dropped and the anchor stays
    PROTEIN. Otherwise: if the largest smoothed norm exceeds mean +
    sigma_multiplier * population-std, its modality is dropped (dominance;
    with sigma_multiplier >= 1 at most one norm can exceed that threshold,
    below 1 several can and the largest goes), else the smallest
    contributor is dropped. The anchor is drawn uniformly from the three
    remaining modalities.
    """
    gbar = np.asarray(gbar, dtype=np.float64)
    if gbar.shape != (4,) or not np.all(np.isfinite(gbar)):
        raise NegativeNorm(f"need 4 finite smoothed norms, got {gbar}")
    if rng.random() >= cfg.p_drop:
        return DropDecision(None, Modality.PROTEIN, Branch.NONE)

    mu = float(gbar.mean())
    sigma = float(np.sqrt(np.mean((gbar - mu) ** 2)))
    threshold = mu + cfg.sigma_multiplier * sigma
    i = int(np.argmax(gbar))
    if gbar[i] > threshold:
        dropped, branch = MODALITY_ORDER[i], Branch.DOMINANCE
    else:
        dropped, branch = MODALITY_ORDER[int(np.argmin(gbar))], Branch.ARGMIN
    remaining = [m for m in MODALITY_ORDER if m is not dropped]
    anchor = remaining[int(rng.integers(0, len(remaining)))]
    return DropDecision(dropped, anchor, branch)
