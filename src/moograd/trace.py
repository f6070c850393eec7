"""Per-iteration run traces shared by all optimizer drivers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class StepRow:
    """One step of a run.

    ``direction_norm`` is the norm of the direction the method computed. In
    the guarded runs it is always the min-norm common-descent norm of the
    step's gradient stack, even on steps the learned candidate won: the
    criticality measure that criterion 11 and
    ``test_deterministic_guard_converges_on_quadratic`` read.
    """

    k: int
    losses: np.ndarray
    direction_norm: float
    alpha: float
    n_samples: int | None = None
    guard_choice: str | None = None
    wall_time: float = 0.0


@dataclass
class RunRecord:
    """Trace of one run: rows per step plus the iterate sequence x_0..x_K."""

    rows: list[StepRow] = field(default_factory=list)
    iterates: list[np.ndarray] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def final_losses(self) -> np.ndarray:
        return self.rows[-1].losses

    def validate(self) -> None:
        ks = [row.k for row in self.rows]
        if ks != sorted(set(ks)):
            raise ValueError("rows must be strictly increasing in k")
        if self.iterates and self.rows and len(self.iterates) != len(self.rows) + 1:
            raise ValueError("iterates must hold x_0 plus one entry per step")
