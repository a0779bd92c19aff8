"""Exception types shared across the package."""


class RoughAssimError(Exception):
    """Base class for all package errors."""


class InvalidSpecError(RoughAssimError, ValueError):
    """An input breaks a rule: a value of the wrong kind or out of its range,
    paths on different grids or of the wrong shape, a model or cost that
    violates its invariants or lacks what the operation needs, or a file
    that cannot be read or written."""


class BlowUpError(RoughAssimError, RuntimeError):
    """The state became non-finite during integration.

    Carries the index of the first grid node with a non-finite value.
    """

    def __init__(self, node_index, message=None):
        self.node_index = node_index
        super().__init__(message or f"non-finite state at grid node {node_index}")


class NoConvergenceError(RoughAssimError, RuntimeError):
    """An iterative solver failed to reach its tolerance.

    Carries the best residual norm seen before giving up.
    """

    def __init__(self, best_residual, message=None):
        self.best_residual = best_residual
        super().__init__(
            message or f"solver did not converge (best residual {best_residual:.3e})"
        )
