"""The paper's core contribution: the Past-Future scheduler and its parts."""

from repro.core.future_memory import memory_timeline, peak_future_memory_arrays
from repro.core.history import OutputLengthHistory
from repro.core.past_future import PastFutureScheduler
from repro.core.predictor import OutputLengthPredictor

__all__ = [
    "memory_timeline",
    "peak_future_memory_arrays",
    "OutputLengthHistory",
    "PastFutureScheduler",
    "OutputLengthPredictor",
]
