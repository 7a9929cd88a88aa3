"""Serving: SLA specs, clients, simulators, routing, autoscaling, fault injection."""
