"""Interaction-aware overload throttling: per-user and per-app rate limits.

Admission schedulers decide *which queued request* joins the batch; a
throttle decides *whether a request joins the queue at all*.  Under tenant
skew (see :mod:`repro.workloads.tenants`) one abusive user can bury the
queue faster than any fair scheduler can reorder it, so production serving
stacks put a request-rate limiter in front of admission.  This module models
that limiter:

* a **sliding window** per user and per application counts admitted arrivals
  over the last ``window_seconds`` (the half-open interval
  ``(now - window, now]``);
* an arrival whose user or app is at its per-minute limit is rejected with
  reason :data:`REASON_THROTTLED` before it consumes any serving resources —
  throttled arrivals are *not* recorded, so they do not extend their own
  punishment;
* the ``exempt`` hook makes the throttle *interaction-aware*: a predicate
  over the :class:`~repro.workloads.spec.RequestSpec` that waves through
  traffic the operator never wants throttled (e.g. the ``interactive`` SLA
  class, an internal app, or short conversational turns), while batch-style
  traffic from the same tenants stays rate-limited.

Requests without a ``user_id`` bypass the user window (there is no tenant to
attribute them to) and likewise for ``app_id`` — an untenanted workload
passes through a configured throttle untouched.

Throttle rejections share the same typed ``reject_reasons`` accounting as the
fault subsystem's reasons (:mod:`repro.serving.faults`), so conservation
(``routed + rejected == submitted``) holds with both a throttle and a
:class:`~repro.serving.faults.FaultPlan` mounted.  The throttle only gates
*fresh arrivals*: work re-dispatched after a replica crash was already
admitted once and is parked and routed again after its backoff, never back
through the rate limiter.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.workloads.spec import RequestSpec

#: Reject reason stamped by the throttle (see ``RunResult.reject_reasons``).
REASON_THROTTLED = "throttled"


class OverloadThrottle:
    """Sliding-window RPM limiter applied before routing/admission.

    Args:
        user_rpm: maximum admitted arrivals per user per window (``None``
            disables the user check).
        app_rpm: maximum admitted arrivals per application per window
            (``None`` disables the app check).
        window_seconds: sliding-window length; "RPM" limits with the default
            60-second window.
        exempt: optional predicate over the arriving spec; a ``True`` return
            bypasses both checks *and* recording, so exempt traffic neither
            gets throttled nor eats into its tenant's budget.
    """

    def __init__(
        self,
        user_rpm: int | None = None,
        app_rpm: int | None = None,
        window_seconds: float = 60.0,
        exempt: Callable[[RequestSpec], bool] | None = None,
    ) -> None:
        if user_rpm is not None and user_rpm <= 0:
            raise ValueError("user_rpm must be positive (or None to disable)")
        if app_rpm is not None and app_rpm <= 0:
            raise ValueError("app_rpm must be positive (or None to disable)")
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.user_rpm = user_rpm
        self.app_rpm = app_rpm
        self.window_seconds = window_seconds
        self.exempt = exempt
        self._user_windows: dict[str, deque[float]] = {}
        self._app_windows: dict[str, deque[float]] = {}

    # ------------------------------------------------------------------ state
    def reset(self) -> None:
        """Forget all window state (called at the start of every run)."""
        self._user_windows = {}
        self._app_windows = {}

    def on_run_start(self) -> None:
        """Simulator lifecycle alias for :meth:`reset`."""
        self.reset()

    def _prune(self, window: deque[float], now: float) -> None:
        cutoff = now - self.window_seconds
        while window and window[0] <= cutoff:
            window.popleft()

    def _at_limit(
        self,
        windows: dict[str, deque[float]],
        key: str | None,
        limit: int | None,
        now: float,
    ) -> bool:
        if limit is None or key is None:
            return False
        window = windows.get(key)
        if window is None:
            return False
        self._prune(window, now)
        return len(window) >= limit

    # ------------------------------------------------------------------ check
    def check(self, spec: RequestSpec, now: float) -> str | None:
        """Admit or reject one arrival; returns a reject reason or ``None``.

        Both limits are checked *before* either window records the arrival,
        so a request rejected by the app limit does not count against its
        user's budget (and vice versa).  Admitted arrivals are recorded in
        every applicable window.
        """
        if self.exempt is not None and self.exempt(spec):
            return None
        if self._at_limit(self._user_windows, spec.user_id, self.user_rpm, now):
            return REASON_THROTTLED
        if self._at_limit(self._app_windows, spec.app_id, self.app_rpm, now):
            return REASON_THROTTLED
        if self.user_rpm is not None and spec.user_id is not None:
            self._user_windows.setdefault(spec.user_id, deque()).append(now)
        if self.app_rpm is not None and spec.app_id is not None:
            self._app_windows.setdefault(spec.app_id, deque()).append(now)
        return None

    def window_usage(self, spec: RequestSpec, now: float) -> dict:
        """Read-only snapshot of the tenant windows behind one decision.

        Counts in-window arrivals without mutating the deques (no pruning),
        so it is safe to call from tracing code at any point relative to
        :meth:`check`.  Returned keys (``user_window`` / ``user_rpm`` /
        ``app_window`` / ``app_rpm``) appear only for configured limits whose
        tenant id is present on the spec — the payload of
        ``request.throttled`` events.
        """
        cutoff = now - self.window_seconds
        usage: dict = {}
        if self.user_rpm is not None and spec.user_id is not None:
            window = self._user_windows.get(spec.user_id, ())
            usage["user_window"] = sum(1 for t in window if t > cutoff)
            usage["user_rpm"] = self.user_rpm
        if self.app_rpm is not None and spec.app_id is not None:
            window = self._app_windows.get(spec.app_id, ())
            usage["app_window"] = sum(1 for t in window if t > cutoff)
            usage["app_rpm"] = self.app_rpm
        return usage

    def describe(self) -> str:
        """One-line parameterised description used in result tables."""
        parts = []
        if self.user_rpm is not None:
            parts.append(f"user<={self.user_rpm}")
        if self.app_rpm is not None:
            parts.append(f"app<={self.app_rpm}")
        limits = ", ".join(parts) if parts else "disabled"
        suffix = ", exempt hook" if self.exempt is not None else ""
        return f"throttle ({limits} per {self.window_seconds:g}s{suffix})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OverloadThrottle({self.describe()})"
