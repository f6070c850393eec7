"""Per-step run traces, stored as columns.

A :class:`RunRecord` holds one array entry per step k = 1..K: the losses
at the new iterate, the direction norm, the step size, the draw count, the
guard's choice and the wall time. ``optimizers.run_population`` fills one
population-wide array per column as it steps, and the columns of member p
are views of row p, so a run makes no Python object per (member, step).
The step-wide columns (``alphas``, ``n_samples``, ``wall_times``) are one
array shared by every member of the population.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# guard_codes values index this tuple; code 0 marks a step without a guard
GUARD_CHOICES = ("", "fallback", "learned")


@dataclass
class StepRow:
    """One step of a run, as :attr:`RunRecord.rows` lists it."""

    k: int
    losses: np.ndarray
    direction_norm: float
    alpha: float
    n_samples: int | None = None
    guard_choice: str | None = None
    wall_time: float = 0.0


@dataclass
class RunRecord:
    """Trace of one run: per-step columns plus the iterate sequence x_0..x_K.

    Row i of every column is step k = i + 1. ``direction_norms`` holds the
    norm of the direction the method computed. In the guarded runs it is
    always the min-norm common-descent norm of the step's gradient stack,
    even on steps the learned candidate won: the criticality measure that
    criterion 11 and ``test_deterministic_guard_converges_on_quadratic``
    read. ``n_samples`` is 0 on steps that drew no samples (exact
    gradients), and ``guard_codes`` index :data:`GUARD_CHOICES`.
    """

    losses: np.ndarray  # (K, M)
    direction_norms: np.ndarray  # (K,)
    alphas: np.ndarray  # (K,)
    n_samples: np.ndarray  # (K,) int
    guard_codes: np.ndarray  # (K,) int8
    wall_times: np.ndarray  # (K,)
    iterates: list[np.ndarray] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def steps(self) -> int:
        return len(self.losses)

    @property
    def final_losses(self) -> np.ndarray:
        return self.losses[-1]

    @property
    def rows(self) -> list[StepRow]:
        """The steps as :class:`StepRow` objects, built anew from the columns on each
        access: editing one changes nothing in the record. Nothing in the package
        reads them; ``perfbench``'s checks do."""
        return [
            StepRow(k, f, norm, alpha, n or None, GUARD_CHOICES[code] or None, wall)
            for k, f, norm, alpha, n, code, wall in zip(
                range(1, self.steps + 1),
                self.losses,
                self.direction_norms.tolist(),
                self.alphas.tolist(),
                self.n_samples.tolist(),
                self.guard_codes.tolist(),
                self.wall_times.tolist(),
            )
        ]

    def validate(self) -> None:
        columns = (self.direction_norms, self.alphas, self.n_samples, self.guard_codes,
                   self.wall_times)
        if any(len(column) != self.steps for column in columns):
            raise ValueError("every column must hold one entry per step")
        if self.iterates and self.steps and len(self.iterates) != self.steps + 1:
            raise ValueError("iterates must hold x_0 plus one entry per step")
