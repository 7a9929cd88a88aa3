"""Metrics: latency, goodput, fairness, fleet aggregates, availability, memory, similarity."""
