"""Exporter reliability helpers: retry with exponential backoff, per-attempt
timeout, permanent-vs-retryable error classification.

Reference semantics reproduced:
- retry sender (``/root/reference/exporter/exporterhelper/internal/
  retry_sender.go:48-71``; defaults README.md:12-18): initial 5s, ×1.5,
  max interval 30s, give up after max_elapsed 300s; a server-provided
  throttle delay overrides the computed backoff.
- permanent errors skip retry (``consumer/consumererror/permanent.go:16-32``).
- timeout sender: per-attempt deadline, default 5s
  (``exporterhelper/internal/timeout_sender.go``).

Idempotent stage retries stay on Ray's built-in task retry; this wrapper is
for SINK side effects (object-store/S3 writes) where the engine owns the
backoff policy. Jitter is deterministic-off by default so tests are exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


class PermanentError(Exception):
    """Wrap an error to mark it non-retryable (NewPermanent analog)."""

    def __init__(self, cause: BaseException | str):
        super().__init__(str(cause))
        self.cause = cause if isinstance(cause, BaseException) else None


class ThrottleError(Exception):
    """Retryable error carrying a server-requested delay (the OTLP throttle
    path, otlpexporter/otlp.go:173-231)."""

    def __init__(self, delay_sec: float, msg: str = "throttled"):
        super().__init__(msg)
        self.delay_sec = delay_sec


def is_permanent(err: BaseException) -> bool:
    return isinstance(err, PermanentError)


@dataclass(frozen=True)
class RetryConfig:
    initial_interval: float = 5.0    # retry_sender defaults
    multiplier: float = 1.5
    max_interval: float = 30.0
    max_elapsed: float = 300.0
    attempt_timeout: float | None = 5.0  # timeout sender default


def retry_call(fn, config: RetryConfig = RetryConfig(), *, sleep=None,
               clock=None):
    """Run ``fn()`` with the reference backoff schedule. Raises the last
    error when max_elapsed is exhausted; PermanentError raises immediately.

    ``fn`` may honor ``config.attempt_timeout`` itself (cooperative —
    Python lacks safe thread kill; sinks should pass deadlines to their IO
    calls). ``sleep``/``clock`` are injectable for deterministic tests.
    """
    sleep = sleep or time.sleep
    clock = clock or time.monotonic
    start = clock()
    interval = config.initial_interval
    attempt = 0
    last: BaseException | None = None
    while True:
        attempt += 1
        try:
            return fn()
        except PermanentError:
            raise
        except ThrottleError as e:
            last, delay = e, e.delay_sec  # server throttle overrides backoff
        except Exception as e:
            last, delay = e, interval
            interval = min(interval * config.multiplier, config.max_interval)
        if clock() - start + delay > config.max_elapsed:
            raise TimeoutError(
                f"retry budget exhausted after {attempt} attempts "
                f"({config.max_elapsed}s): {last}") from last
        sleep(delay)
