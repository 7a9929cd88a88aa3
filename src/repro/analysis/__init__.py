"""Experiment drivers, sweeps, and text-table rendering."""
