"""Dynamic engagement of task dropping (paper Section V-C).

The pruner only drops tasks while the system is *oversubscribed*.  The
oversubscription level is tracked as an exponentially weighted moving average
(Eq. 8) of the number of deadline misses observed per mapping event,

    d_tau = mu_tau * lambda + d_(tau-1) * (1 - lambda)

and converted into an on/off dropping toggle by a Schmitt trigger with a 20 %
separation between the on and off levels, which suppresses chatter caused by
short arrival spikes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ExponentialMovingAverage", "SchmittTrigger", "OversubscriptionDetector"]


class ExponentialMovingAverage:
    """The EWMA of Eq. 8 over per-mapping-event deadline-miss counts."""

    def __init__(self, weight: float, initial: float = 0.0) -> None:
        if not 0.0 < weight <= 1.0:
            raise ValueError("lambda (weight) must lie in (0, 1]")
        self._weight = float(weight)
        self._value = float(initial)

    @property
    def weight(self) -> float:
        return self._weight

    @property
    def value(self) -> float:
        return self._value

    def update(self, observation: float) -> float:
        """Fold in the misses observed since the previous mapping event."""
        if observation < 0:
            raise ValueError("miss counts cannot be negative")
        self._value = observation * self._weight + self._value * (1.0 - self._weight)
        return self._value

    def reset(self, value: float = 0.0) -> None:
        self._value = float(value)


class SchmittTrigger:
    """Two-level hysteresis toggle (paper Section V-C).

    Dropping engages when the input reaches ``on_level`` and only disengages
    once the input falls to ``off_level`` or below; the paper separates the
    two levels by 20 %.
    """

    def __init__(self, on_level: float, *, separation: float = 0.2, initially_on: bool = False) -> None:
        if on_level <= 0:
            raise ValueError("on_level must be positive")
        if not 0.0 <= separation < 1.0:
            raise ValueError("separation must lie in [0, 1)")
        self.on_level = float(on_level)
        self.off_level = float(on_level) * (1.0 - separation)
        self._state = bool(initially_on)

    def update(self, value: float) -> bool:
        if self._state:
            if value <= self.off_level:
                self._state = False
        else:
            if value >= self.on_level:
                self._state = True
        return self._state

    def reset(self, *, on: bool = False) -> None:
        self._state = bool(on)


@dataclass
class OversubscriptionDetector:
    """EWMA + Schmitt trigger deciding whether dropping is engaged.

    Parameters
    ----------
    ewma_weight:
        The paper's lambda; 0.9 (strong weight on the latest event) gave the
        best robustness in Figure 4.
    toggle_level:
        Oversubscription level at which dropping engages.  The experimental
        setup uses "the dropping toggle is one task".
    schmitt_separation:
        Relative separation between the on and off levels (0.2 in the paper).
        Setting it to 0 degenerates to the single-threshold "default" toggle
        that Figure 4 compares against.
    """

    ewma_weight: float = 0.9
    toggle_level: float = 1.0
    schmitt_separation: float = 0.2

    def __post_init__(self) -> None:
        self._ewma = ExponentialMovingAverage(self.ewma_weight)
        self._trigger = SchmittTrigger(self.toggle_level, separation=self.schmitt_separation)

    @property
    def level(self) -> float:
        """Current oversubscription level d_tau."""
        return self._ewma.value

    def observe(self, misses_since_last_event: int) -> bool:
        """Update with the misses since the last mapping event; return the toggle."""
        level = self._ewma.update(misses_since_last_event)
        return self._trigger.update(level)

    def reset(self) -> None:
        self._ewma.reset()
        self._trigger.reset()
