"""Overload throttling: a per-user sliding-window rate limit.

Admission schedulers decide *which queued request* joins the batch; a
throttle decides *whether a request joins the queue at all*.  Under tenant
skew (see :mod:`repro.workloads.tenants`) one abusive user can bury the
queue faster than any fair scheduler can reorder it, so production serving
stacks put a request-rate limiter in front of admission.  This module models
that limiter:

* a **sliding window** per user counts admitted arrivals over the last
  :data:`WINDOW_SECONDS` (the half-open interval ``(now - window, now]``);
* an arrival whose user is at its per-window limit is rejected with reason
  :data:`REASON_THROTTLED` before it consumes any serving resources —
  throttled arrivals are *not* recorded, so they do not extend their own
  punishment.

Requests without a ``user_id`` bypass the window (there is no tenant to
attribute them to), so an untenanted workload passes through a configured
throttle untouched.

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

from repro.workloads.spec import RequestSpec

#: Reject reason stamped by the throttle (see ``RunResult.reject_reasons``).
REASON_THROTTLED = "throttled"

#: Sliding-window length in seconds: the limit is per minute (RPM).
WINDOW_SECONDS = 60.0


class OverloadThrottle:
    """Per-user sliding-window RPM limiter applied before routing/admission.

    Args:
        user_rpm: maximum admitted arrivals per user per
            :data:`WINDOW_SECONDS` window (``None`` disables the limit).
    """

    def __init__(self, user_rpm: int | None = None) -> None:
        if user_rpm is not None and user_rpm <= 0:
            raise ValueError("user_rpm must be positive (or None to disable)")
        self.user_rpm = user_rpm
        self._user_windows: dict[str, deque[float]] = {}

    # ------------------------------------------------------------------ state
    def reset(self) -> None:
        """Forget all window state (called at the start of every run)."""
        self._user_windows = {}

    def on_run_start(self) -> None:
        """Simulator lifecycle alias for :meth:`reset`."""
        self.reset()

    # ------------------------------------------------------------------ check
    def check(self, spec: RequestSpec, now: float) -> str | None:
        """Admit or reject one arrival; returns a reject reason or ``None``.

        An admitted arrival is recorded in its user's window; a rejected one
        is not.
        """
        user_id = spec.user_id
        if self.user_rpm is None or user_id is None:
            return None
        window = self._user_windows.setdefault(user_id, deque())
        cutoff = now - WINDOW_SECONDS
        while window and window[0] <= cutoff:
            window.popleft()
        if len(window) >= self.user_rpm:
            return REASON_THROTTLED
        window.append(now)
        return None

    def window_usage(self, spec: RequestSpec, now: float) -> dict:
        """Read-only snapshot of the user window behind one decision.

        Counts in-window arrivals without mutating the deque (no pruning),
        so it is safe to call from tracing code at any point relative to
        :meth:`check`.  The returned keys (``user_window`` / ``user_rpm``)
        appear only when the limit is configured and the spec has a user —
        the payload of ``request.throttled`` events.
        """
        if self.user_rpm is None or spec.user_id is None:
            return {}
        cutoff = now - WINDOW_SECONDS
        window = self._user_windows.get(spec.user_id, ())
        return {"user_window": sum(1 for t in window if t > cutoff), "user_rpm": self.user_rpm}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        limit = f"user<={self.user_rpm}" if self.user_rpm is not None else "disabled"
        return f"OverloadThrottle({limit} per {WINDOW_SECONDS:g}s)"
