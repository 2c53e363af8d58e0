"""Hypothesis runs the same examples on every run: derandomized, no deadline."""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
