"""Model-agnostic benchmarking harness for LLMs on structured EHR tasks."""

__version__ = "0.1.0"
