"""Inference-engine substrate: requests, batching, cost model, engine."""

from repro.engine.batch import RunningBatch
from repro.engine.cost_model import CostModel, StepWork
from repro.engine.engine import EngineStats, InferenceEngine, StepResult
from repro.engine.request import Request, RequestState

__all__ = [
    "RunningBatch",
    "CostModel",
    "StepWork",
    "EngineStats",
    "InferenceEngine",
    "StepResult",
    "Request",
    "RequestState",
]
