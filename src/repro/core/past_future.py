"""The Past-Future request scheduler (Section 3, Algorithm 1).

Per continuous-batching iteration the scheduler

1. rebuilds the empirical output-length distribution ``P(l)`` from the
   sliding window of recently finished requests (the **past**),
2. re-samples a predicted total output length for every running request from
   the conditional distribution ``P(l | l > generated)`` and samples one for
   each queued candidate from ``P(l)``,
3. computes the **future** required memory of the running batch plus the
   candidate (Eq. 2–4) and admits the candidate only if that peak fits within
   the usable capacity (total capacity minus a small reserved fraction that
   absorbs prediction error), and
4. stops at the first candidate that does not fit (FCFS admission).

The scheduler never inspects the hidden true output lengths.

For the engine's saturated-phase event jump
(:meth:`repro.engine.engine.InferenceEngine.try_jump_any` with a non-empty
waiting queue) the scheduler additionally implements
:meth:`PastFutureScheduler.saturated_no_admit_horizon`: it pre-draws the
predictor samples of many upcoming iterations — each iteration's stream
rebuilt by :mod:`repro.core.rng_streams` from the seed the sequential path
would give its generator, without building that generator — evaluates all of
their head-admission tests in a few vectorized array operations, and reports
how many leading iterations provably admit nothing.  The RNG-stream contract
is spelled out in ``docs/simulation-semantics.md`` and enforced by
``tests/test_saturated_jump.py`` and ``tests/test_rng_streams.py``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core import rng_streams
from repro.core.future_memory import FutureMemoryIndex, batched_peak_with_candidate
from repro.core.history import WINDOW_SIZE, OutputLengthHistory
from repro.core.predictor import OutputLengthPredictor, aggregate_samples, conditional_prediction_samples
from repro.engine.request import Request
from repro.schedulers.base import Scheduler, SchedulingContext

#: First chunk size of the lazy saturated-horizon evaluation.  A chunk costs a
#: fixed few dozen numpy calls plus a small per-row term (one rebuilt stream
#: and one Eq. 2–4 row), so the fixed cost dominates: a first chunk of 32
#: proves a typical full window (about 50 steps) in two chunks, while a row
#: past the first admitting iteration only wastes its per-row term.  Growth
#: stays doubling so a long window still takes few chunks without drawing
#: far past an admitting iteration.
_HORIZON_FIRST_CHUNK = 32

#: Geometric growth factor and ceiling for subsequent horizon chunks.
_HORIZON_CHUNK_GROWTH = 2
_HORIZON_CHUNK_MAX = 1024


def _predicted_remaining(predicted, generated, caps):
    """Remaining tokens of predicted total lengths clamped to ``[generated + 1, cap]``."""
    return np.maximum(np.minimum(predicted, caps), generated + 1) - generated


class PastFutureScheduler(Scheduler):
    """Admission control using past output-length history and future memory.

    Args:
        reserved_fraction: fraction of the token capacity withheld from the
            admission budget to absorb prediction error (the paper evaluates
            3%, 5%, 10% and 20%).  The history window is the paper's
            :data:`~repro.core.history.WINDOW_SIZE`.
        seed: RNG seed for prediction sampling, an ``int`` in ``[0, 2**63)``.
        num_samples: repeated-sampling count used to stabilise predictions
            when the batch is small; the maximum sample is kept.
    """

    name = "past-future"

    def __init__(
        self,
        reserved_fraction: float = 0.03,
        seed: int = 0,
        num_samples: int = 1,
    ) -> None:
        if not 0.0 <= reserved_fraction < 1.0:
            raise ValueError("reserved_fraction must be in [0, 1)")
        # Consultation seeds are seed + counter; the saturated horizon rebuilds
        # their generators for any seed below 2**64 (repro.core.rng_streams).
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**63:
            raise ValueError(f"seed must be an int in [0, 2**63), got {seed!r}")
        if num_samples < 1:
            raise ValueError(f"num_samples must be at least 1, got {num_samples!r}")
        self.reserved_fraction = reserved_fraction
        self.seed = seed
        self.num_samples = num_samples
        self.history = OutputLengthHistory()
        self._sample_counter = 0

    # ------------------------------------------------------------- lifecycle
    def on_run_start(self) -> None:
        """Reset the history window and the per-iteration sampling counter."""
        self.history.clear()
        self._sample_counter = 0

    def on_request_finished(self, request: Request, time: float) -> None:
        """Record the finished request's true output length in the window."""
        self.history.record(max(request.generated_tokens, 1))

    # -------------------------------------------------------------- scheduling
    def _make_predictor(self) -> OutputLengthPredictor:
        # A fresh per-call seed keeps runs reproducible while avoiding
        # re-drawing identical samples every iteration.
        self._sample_counter += 1
        return OutputLengthPredictor(self.history, self.seed + self._sample_counter, self.num_samples)

    def admission_budget(self, context: SchedulingContext) -> int:
        """Token budget available to the admission decision."""
        return int(context.token_capacity * (1.0 - self.reserved_fraction))

    def _predicted_entries(
        self,
        predictor: OutputLengthPredictor,
        requests: list[Request],
    ) -> tuple[list[int], list[int]]:
        """Current-token and predicted-remaining lists for resident requests."""
        generated = np.array([r.generated_tokens for r in requests], dtype=np.int64)
        caps = np.array([r.spec.max_new_tokens for r in requests], dtype=np.int64)
        remaining = _predicted_remaining(predictor.predict_running(generated), generated, caps)
        return [r.current_context_tokens for r in requests], remaining.tolist()

    def _candidate_entry(
        self,
        predictor: OutputLengthPredictor,
        request: Request,
    ) -> tuple[int, int]:
        """(current_tokens, predicted_remaining) for a waiting candidate."""
        generated = request.generated_tokens
        # Re-queued after eviction: predict conditionally on what it has
        # already produced, exactly like a running request.
        predicted = predictor.predict_running([generated]) if generated > 0 else predictor.predict_new(1)
        # The one prediction clamped to [generated + 1, cap], as _predicted_remaining does.
        total = max(min(int(predicted[0]), request.spec.max_new_tokens), generated + 1)
        return request.current_context_tokens, total - generated

    def _fit_test(self, context: SchedulingContext) -> Callable[[Request], bool]:
        """Admit a candidate while the predicted Eq. 2–4 peak fits the budget.

        One predictor, and one conditional draw for the whole running batch,
        per consult; each candidate then draws its own prediction, and
        :meth:`FutureMemoryIndex.admit` tests the batch plus that candidate
        with :func:`repro.core.future_memory.peak_future_memory`, keeping it
        for the next candidate's test only if it fits.
        """
        predictor = self._make_predictor()
        budget = self.admission_budget(context)
        index = FutureMemoryIndex(*self._predicted_entries(predictor, context.running))
        return lambda candidate: index.admit(*self._candidate_entry(predictor, candidate), budget)

    # -------------------------------------------------- saturated-phase jumps
    def saturated_no_admit_horizon(self, context: SchedulingContext, max_steps: int) -> int:
        """Count upcoming iterations whose head-admission test provably fails.

        For each of the next ``max_steps`` uniform-decode iterations this
        replays the admission decision :meth:`schedule` would make — with the
        *same* randomness.  A no-admit iteration consumes the per-iteration
        predictor stream in a fixed pattern (one conditional draw for the
        running batch, then one draw for the queue head, then the FCFS loop
        breaks), so the whole window can be pre-drawn: one stream per
        iteration, the raw outputs of the generator :meth:`_make_predictor`
        would seed (:func:`repro.core.rng_streams.raw_streams`), with all
        downstream math — conditional sampling, cap clamping, and the
        Eq. 2–4 peak with the head as candidate — evaluated in a handful of
        vectorized operations over the window
        (:func:`repro.core.predictor.conditional_prediction_samples` /
        :func:`repro.core.future_memory.batched_peak_with_candidate`).  Only
        each request's largest draw is mapped to a length: every map from a
        draw to a length is monotone, so that is its largest sample.

        Evaluation is lazy, in chunks of rows: a first chunk of
        ``_HORIZON_FIRST_CHUNK`` rows, then doubling, so an iteration that
        *does* admit ends the proof after one or two chunks while deep
        saturation amortises to a few vectorized passes.  The answer does not
        depend on the chunking: rows past the first admitting one are drawn
        from throwaway streams and discarded.  A row whose
        ``choice`` draw Lemire's method might reject, or every row when
        :func:`repro.core.rng_streams.streams_match` is false, is redrawn from
        ``default_rng`` exactly as :meth:`schedule` draws it.  The method
        draws only from throwaway streams; persistent state
        (``_sample_counter``) advances in :meth:`on_saturated_steps_fused`,
        for exactly the iterations the engine actually fuses.
        """
        if max_steps <= 0 or not context.waiting or not context.running:
            # With an empty running batch the progress guarantee admits the
            # head, so no saturated iteration can be proven silent.
            return 0
        head = context.waiting[0]
        budget = self.admission_budget(context)
        window = self.history.sorted_snapshot()
        running = context.running
        generated = np.array([r.generated_tokens for r in running], dtype=np.int64)
        caps = np.array([r.spec.max_new_tokens for r in running], dtype=np.int64)[None, :]
        current = np.array([r.current_context_tokens for r in running], dtype=np.int64)
        head_generated = head.generated_tokens
        head_current = head.current_context_tokens
        head_cap = head.spec.max_new_tokens
        batch = generated.size
        num_samples = self.num_samples
        run_draws = num_samples * batch
        if head_generated > 0:
            head_draws = num_samples
        else:
            # choice() takes one 32-bit half per sample, none from a 1-entry window.
            head_draws = (num_samples + 1) // 2 if window.size > 1 else 0
        redo_all = not rng_streams.streams_match()

        horizon = 0
        chunk = _HORIZON_FIRST_CHUNK
        while horizon < max_steps:
            size = min(chunk, max_steps - horizon)
            # Row j is the stream of the generator the (horizon + j + 1)-th
            # upcoming _make_predictor call would seed, laid out as schedule()
            # consumes it: the running-batch draw first, the head's second.
            first_seed = self.seed + self._sample_counter + 1 + horizon
            raw = rng_streams.raw_streams(first_seed, size, run_draws + head_draws)
            run_top = aggregate_samples(raw[:, :run_draws].reshape(size, num_samples, batch))
            run_uniforms = rng_streams.doubles(run_top)
            redo = np.full(size, redo_all)
            if head_generated > 0:
                cand_uniforms = rng_streams.doubles(aggregate_samples(raw[:, run_draws:, None]))
            else:
                choices, rejected = rng_streams.lemire_indices(raw[:, run_draws:], num_samples, window.size)
                cand_predicted = window[aggregate_samples(choices[:, :, None])]
                redo |= rejected
            for j in np.flatnonzero(redo).tolist():
                rng = np.random.default_rng(first_seed + j)
                run_uniforms[j] = aggregate_samples(rng.random((num_samples, batch)))
                if head_generated > 0:
                    cand_uniforms[j] = aggregate_samples(rng.random((num_samples, 1)))
                else:
                    cand_choices = rng.choice(window, size=(num_samples, 1), replace=True)
                    cand_predicted[j] = aggregate_samples(cand_choices)
            offsets = np.arange(horizon, horizon + size, dtype=np.int64)[:, None]
            gens = generated + offsets
            predicted = conditional_prediction_samples(window, run_uniforms, gens)
            remaining = _predicted_remaining(predicted, gens, caps)
            if head_generated > 0:
                # The head does not grow while it waits: one count for every row.
                cand_predicted = conditional_prediction_samples(window, cand_uniforms, head_generated)
            cand_remaining = _predicted_remaining(cand_predicted[:, 0], head_generated, head_cap)
            peaks = batched_peak_with_candidate(current + offsets, remaining, head_current, cand_remaining)
            admit = peaks <= budget
            if admit.any():
                return horizon + int(np.argmax(admit))
            horizon += size
            chunk = min(chunk * _HORIZON_CHUNK_GROWTH, _HORIZON_CHUNK_MAX)
        return horizon

    def on_saturated_steps_fused(self, steps: int) -> None:
        """Advance the per-iteration predictor seed past the fused iterations.

        Each fused no-admit iteration would have consumed one
        :meth:`_make_predictor` call; bumping the counter by ``steps`` leaves
        the next reference-path consultation with exactly the seed it would
        have had, so the RNG stream across the whole run is bit-identical.
        """
        if steps < 0:
            raise ValueError("steps must be non-negative")
        self._sample_counter += steps

    def describe(self) -> str:
        """One-line parameterised description used in result tables."""
        return f"past-future (reserved={self.reserved_fraction:.0%}, window={WINDOW_SIZE})"
