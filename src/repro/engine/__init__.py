"""Inference-engine substrate: requests, batching, cost model, engine."""
