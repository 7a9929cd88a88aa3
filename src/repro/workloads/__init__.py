"""Workload substrate: request specs and synthetic trace generators."""
