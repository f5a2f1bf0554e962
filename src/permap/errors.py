"""Exception types shared across the package, and pipeline stage tagging."""

from contextlib import contextmanager


class ConfigError(ValueError):
    """A run configuration or column mapping is invalid or incomplete."""


class IsolatedNodeError(ValueError):
    """A node has no edge weight where the operation requires positive degree."""


class DisconnectedGraphError(ValueError):
    """The graph (or country border graph) is not connected where it must be."""


class SolverError(RuntimeError):
    """The eigensolver failed to converge or returned pairs above tolerance."""


class InsufficientMemoryError(MemoryError):
    """A run's estimated peak memory exceeds what the host or its cgroup has available."""


@contextmanager
def stage(name: str):
    """Tag any exception leaving the block with the pipeline stage it came from.

    The innermost stage wins. The exception keeps its type, so library
    callers still catch typed errors while the CLI reports the stage.
    """
    try:
        yield
    except Exception as exc:
        if stage_of(exc) is None:
            exc.stage = name
        raise


def stage_of(exc: BaseException) -> str | None:
    """The pipeline stage an exception was tagged with, if any."""
    return getattr(exc, "stage", None)
