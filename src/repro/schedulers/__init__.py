"""Admission-control schedulers: the paper's baselines plus the registry.

The Past-Future scheduler itself lives in :mod:`repro.core.past_future`.
"""
