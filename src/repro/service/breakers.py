"""Per-device circuit breakers for the serving loop.

Classic three-state breaker adapted to virtual time: ``closed`` devices
take traffic; ``failure_threshold`` consecutive failures *open* the
breaker for a cooldown; after the cooldown the breaker goes
``half-open`` and admits exactly one probe block — success re-closes
it, failure re-opens it with a doubled (capped) cooldown.  The cooldown
carries seeded jitter so breakers that opened together do not re-probe
in lock-step, mirroring the transfer-backoff jitter satellite.

A :class:`~repro.runtime.faults.TransientFailure` recovery hooks
in through :meth:`on_device_recovered`: an open breaker moves straight
to half-open (probe now) instead of waiting out its cooldown, because
the platform just told us the device is worth probing.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.sim.random import RandomStreams

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: cooldown growth on repeated probe failures, and its cap
_COOLDOWN_GROWTH = 2.0
_COOLDOWN_CAP_FACTOR = 8.0


class CircuitBreaker:
    """One device's breaker; all transitions are explicit and counted."""

    def __init__(
        self,
        device_id: str,
        *,
        failure_threshold: int = 3,
        cooldown: float = 2.0,
        jitter: float = 0.1,
        streams: RandomStreams | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown <= 0.0:
            raise ConfigurationError(f"cooldown must be > 0, got {cooldown}")
        if not 0.0 <= jitter < 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1), got {jitter}")
        self.device_id = device_id
        self.failure_threshold = int(failure_threshold)
        self.base_cooldown = float(cooldown)
        self.jitter = float(jitter)
        self._streams = streams
        self.state = CLOSED
        self.consecutive_failures = 0
        self._cooldown = float(cooldown)
        self._reopen_at = 0.0
        self._probe_in_flight = False
        self._probe_count = 0
        # transition counters for the scorecard
        self.opens = 0
        self.probes = 0
        self.closes = 0

    def _jittered(self, cooldown: float) -> float:
        if self.jitter <= 0.0 or self._streams is None:
            return cooldown
        spread = self._streams.stream(
            f"breaker/{self.device_id}/{self._probe_count}"
        ).uniform(-1.0, 1.0)
        return cooldown * (1.0 + self.jitter * float(spread))

    def _open(self, now: float) -> None:
        self.state = OPEN
        self.opens += 1
        self._probe_in_flight = False
        self._reopen_at = now + self._jittered(self._cooldown)
        self._probe_count += 1
        self._cooldown = min(
            self._cooldown * _COOLDOWN_GROWTH,
            self.base_cooldown * _COOLDOWN_CAP_FACTOR,
        )

    def allow(self, now: float) -> bool:
        """May a block be dispatched to this device right now?"""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now >= self._reopen_at:
                self.state = HALF_OPEN
            else:
                return False
        # half-open: exactly one probe at a time
        if self._probe_in_flight:
            return False
        self._probe_in_flight = True
        self.probes += 1
        return True

    def record_success(self, now: float) -> None:
        """A block completed on the device."""
        self.consecutive_failures = 0
        if self.state == HALF_OPEN:
            self.state = CLOSED
            self.closes += 1
            self._cooldown = self.base_cooldown
        self._probe_in_flight = False

    def record_failure(self, now: float) -> None:
        """A block was lost on the device."""
        self.consecutive_failures += 1
        if self.state == HALF_OPEN:
            # the probe failed: straight back to open, longer cooldown
            self._open(now)
            return
        if self.state == CLOSED and (
            self.consecutive_failures >= self.failure_threshold
        ):
            self._open(now)

    def on_device_recovered(self, now: float) -> None:
        """Platform-level recovery signal: probe immediately."""
        if self.state == OPEN:
            self.state = HALF_OPEN
            self._probe_in_flight = False

    def force_open(self, now: float) -> None:
        """Open regardless of counts (device declared down)."""
        if self.state != OPEN:
            self._open(now)

    @property
    def reopen_at(self) -> float:
        """When an open breaker will next admit a probe."""
        return self._reopen_at

    def to_dict(self) -> dict:
        return {
            "state": self.state,
            "opens": int(self.opens),
            "probes": int(self.probes),
            "closes": int(self.closes),
        }
