"""The assimilation problem: dynamics, index, observation path and control set.

The problem is fixed by four pieces of data: the controlled dynamics
(f, G), the performance index (phi, psi), the observation path eta and the
closed convex control set U.  :class:`AssimilationProblem` holds them
together, and its constructor is the one place that decides whether they
fit; the solvers take a problem and check nothing more about how its
pieces fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .cost import CostSpec, check_observation
from .dynamics import ModelSpec, check_paths
from .errors import InvalidSpecError
from .grid import SampledPath, _positive_number, frozen_array


@dataclass(frozen=True)
class ControlSetSpec:
    """Closed convex control set: all of E, a box, or a ball about the origin.

    A box takes exactly ``lo`` and ``hi``, finite and kept as read-only float
    copies, a ball exactly a positive ``radius`` and all of E no field; any
    other field given (not None) raises :class:`InvalidSpecError` naming it.
    """

    kind: str = "all_space"
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None
    radius: Optional[float] = None

    def __post_init__(self):
        fields = {"all_space": (), "box": ("lo", "hi"), "ball": ("radius",)}
        if not (isinstance(self.kind, str) and self.kind in fields):
            raise InvalidSpecError(f"unknown control set kind {self.kind!r}")
        for label in ("lo", "hi", "radius"):
            if getattr(self, label) is not None and label not in fields[self.kind]:
                raise InvalidSpecError(f"control set kind {self.kind!r} takes no {label}")
        if self.kind == "ball":
            object.__setattr__(self, "radius", _positive_number(self.radius, "radius"))
        elif self.kind == "box":
            for label in ("lo", "hi"):
                value = frozen_array(getattr(self, label), label)
                if not np.all(np.isfinite(value)):
                    raise InvalidSpecError(f"the control set's {label} must be finite")
                object.__setattr__(self, label, value)
            lo, hi = self.lo, self.hi
            # Bounds of one shape, or one of them a single number.
            if not ((lo.shape == hi.shape or 1 in (lo.size, hi.size)) and np.all(lo <= hi)):
                raise InvalidSpecError("box bounds need lo <= hi componentwise")

    def check(self, m: int) -> None:
        """Reject box bounds that do not broadcast to m controls."""
        if self.kind == "box" and any(
            np.shape(v) not in ((), (1,), (m,)) for v in (self.lo, self.hi)
        ):
            raise InvalidSpecError(f"the box control set does not fit {m} controls")

    def project_values(self, values: np.ndarray) -> np.ndarray:
        """Pointwise Euclidean projection of one control (m,) or stacked (..., m)."""
        if self.kind == "all_space":
            return values
        if self.kind == "box":
            return np.clip(values, self.lo, self.hi)
        norms = np.linalg.norm(values, axis=-1, keepdims=True)
        scale = np.where(norms > self.radius, self.radius / np.maximum(norms, 1e-300), 1.0)
        return values * scale


@dataclass(frozen=True)
class AssimilationProblem:
    """The dynamics, the index, the observation path and U, checked to fit.

    With G n x m, the constructor raises :class:`InvalidSpecError` unless
    f gives shape (n,) and D2f (n, n); unless, for a quadratic-family cost,
    h's Jacobian has n columns, h gives as many components as R has rows
    and S is m x m; unless eta has as many components as psi; and unless
    the control set fits m controls.  The shapes are read off one
    evaluation at the first node of eta's grid and the zero state.
    """

    model: ModelSpec
    cost: CostSpec
    eta: SampledPath
    control_set: ControlSetSpec = ControlSetSpec()

    def __post_init__(self):
        n, m = self.model.state_dim, self.model.control_dim
        t0, x0 = self.eta.grid.times[0], np.zeros(n)
        drift, jac = np.shape(self.model.f(t0, x0)), np.shape(self.model.D2f(t0, x0))
        if (drift, jac) != ((n,), (n, n)):
            raise InvalidSpecError(f"f gives shape {drift} and D2f {jac}, but G is {n}x{m}")
        quad = self.cost.quad
        if quad is not None:
            # The Jacobian first: an h built for another n fails when evaluated.
            jac = np.shape(quad.h_jac(t0, x0))
            if jac[-1:] != (n,):
                raise InvalidSpecError(f"h's Jacobian has shape {jac}, the model {n} states")
            d = quad.obs_dim
            observed = np.shape(quad.h(t0, x0))
            if observed[-1:] != (d,):
                raise InvalidSpecError(f"h gives shape {observed}, but R is {d}x{d}")
            if quad.control_dim != m:
                s = quad.control_dim
                raise InvalidSpecError(f"S is {s}x{s}, but the model has {m} controls")
        check_observation(self.cost, self.eta, x0)
        self.control_set.check(m)

    @cached_property
    def control_gain(self) -> np.ndarray:
        """-S^{-1} G', (m, n), solved once per problem for a quadratic-family
        cost: the unconstrained Hamiltonian minimizer is its product with
        lambda'."""
        gain = -np.linalg.solve(self.cost.quad.S, self.model.G.T)
        gain.flags.writeable = False
        return gain

    def check_paths(self, **paths) -> tuple:
        """:func:`~roughassim.dynamics.check_paths` with the model's n and m
        and eta's node count; returns the paths' member shape."""
        model = self.model
        return check_paths(model.state_dim, model.control_dim, self.eta.grid.n_nodes, **paths)
