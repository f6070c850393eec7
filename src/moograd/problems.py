"""Differentiable multi-objective test problems.

Two families ship by default: an analytic quadratic pair with Gaussian
gradient noise (known Pareto set when both curvatures are the identity) and
a toy hard-parameter-sharing multi-task learner (shared tanh encoder, two
softmax classification heads on a synthetic Gaussian-cluster dataset).
Problems are immutable after construction; all stochastic access takes an
explicit generator, so concurrent use with distinct streams is safe.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import as_tensor
from .minnorm import criticality_measure


class UnsupportedCapability(RuntimeError):
    pass


class MooProblem:
    """Vector objective F: R^N -> R^M with deterministic and noisy gradients."""

    dim: int
    objectives: int
    domain: tuple[np.ndarray, np.ndarray] | None = None

    def eval(self, x) -> np.ndarray:
        raise NotImplementedError

    def full_jacobian(self, x) -> np.ndarray:
        raise NotImplementedError

    def sample_gradient(self, x, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def averaged_gradient(self, x, n: int, rng: np.random.Generator) -> np.ndarray:
        """Mean of ``n`` independent stochastic gradient draws."""
        if n < 1:
            raise ValueError("n must be >= 1")
        acc = self.sample_gradient(x, rng).copy()
        for _ in range(n - 1):
            acc += self.sample_gradient(x, rng)
        return acc / n

    def jacobian_many(self, xs) -> np.ndarray:
        """Exact Jacobians of the rows of ``xs`` (P, N), stacked as (P, M, N)."""
        return np.stack([self.full_jacobian(x) for x in np.asarray(xs, dtype=np.float64)])

    def averaged_gradient_many(self, xs, n: int, rngs) -> np.ndarray:
        """``averaged_gradient`` at every row of ``xs``; row p draws from ``rngs[p]`` only."""
        xs = np.asarray(xs, dtype=np.float64)
        return np.stack([self.averaged_gradient(x, n, rng) for x, rng in zip(xs, rngs, strict=True)])

    def eval_many(self, xs) -> np.ndarray:
        """Losses of the rows of ``xs`` (P, N), stacked as (P, M)."""
        return np.stack([self.eval(x) for x in np.asarray(xs, dtype=np.float64)])

    def initial_point(self, rng: np.random.Generator) -> np.ndarray:
        if self.domain is None:
            raise UnsupportedCapability(f"{type(self).__name__} has no sampling domain")
        lb, ub = self.domain
        return rng.uniform(lb, ub)

    def eval_terms(self, x_col):
        """The (M,) losses at ``x_col`` as one tape node.

        ``x_col`` is an (N, 1) column, either a plain array or a tape Var;
        the result mirrors the input kind. Only problems whose losses are
        expressible in the primitive set provide this.
        """
        raise UnsupportedCapability(f"{type(self).__name__} is not tape-differentiable")

    def distance_to_front(self, x) -> float:
        raise UnsupportedCapability(f"{type(self).__name__} has no known Pareto set")


class QuadraticPair(MooProblem):
    """f_i(x) = 0.5 (x - c_i)' A_i (x - c_i), optional Gaussian gradient noise.

    With A_1 = A_2 = I the Pareto set is exactly the segment [c_1, c_2].
    """

    def __init__(self, c1, c2, a1=None, a2=None, noise_sigma: float = 0.0, domain=None):
        c1 = as_tensor(c1, "c1").reshape(-1)
        c2 = as_tensor(c2, "c2").reshape(-1)
        if c1.shape != c2.shape:
            raise ValueError("centers must share a dimension")
        n = c1.size
        self.centers = np.stack([c1, c2])
        # (2, N, N) curvature stack, or None for A_1 = A_2 = I
        self.mats = None if a1 is None and a2 is None else np.stack([
            np.eye(n) if a is None else as_tensor(a, name) for a, name in ((a1, "a1"), (a2, "a2"))
        ])
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        self.noise_sigma = float(noise_sigma)
        self.dim = n
        self.objectives = 2
        if domain is not None:
            lb, ub = domain
            self.domain = (np.full(n, float(lb)), np.full(n, float(ub)))

    # The per-point oracles are the one-row case of the stacked ones, so a
    # point's values never depend on which of them computed it. Each stays
    # defined on this class, where the benchmark's span tracer looks them up,
    # and ``sample_gradient`` skips ``averaged_gradient``, where the tracer
    # counts draws.
    def eval(self, x) -> np.ndarray:
        return self.eval_many(np.asarray(x, dtype=np.float64)[None])[0]

    def full_jacobian(self, x) -> np.ndarray:
        return self.jacobian_many(np.asarray(x, dtype=np.float64)[None])[0]

    def sample_gradient(self, x, rng: np.random.Generator) -> np.ndarray:
        return self.averaged_gradient_many(np.asarray(x, dtype=np.float64)[None], 1, [rng])[0]

    def averaged_gradient(self, x, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.averaged_gradient_many(np.asarray(x, dtype=np.float64)[None], n, [rng])[0]

    def _slopes(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Offsets x - c_i (P, 2, N) and the columns A_i (x - c_i) (P, 2, N, 1)."""
        d = np.asarray(xs, dtype=np.float64)[:, None, :] - self.centers
        return d, d[..., None] if self.mats is None else self.mats @ d[..., None]

    def jacobian_many(self, xs) -> np.ndarray:
        return self._slopes(xs)[1][..., 0]

    def averaged_gradient_many(self, xs, n: int, rngs) -> np.ndarray:
        if n < 1:
            raise ValueError("n must be >= 1")
        jac = self.jacobian_many(xs)
        if len(rngs) != len(jac):
            raise ValueError(f"{len(rngs)} generators for {len(jac)} points")
        if self.noise_sigma == 0.0:
            return jac
        noise = np.empty((len(jac), n) + jac.shape[1:])
        for buf, rng in zip(noise, rngs):
            rng.standard_normal(out=buf)
        # a one-draw mean is the draw itself, bit for bit
        return jac + self.noise_sigma * (noise[:, 0] if n == 1 else noise.mean(axis=1))

    def eval_many(self, xs) -> np.ndarray:
        d, q = self._slopes(xs)
        return ((0.5 * d)[..., None, :] @ q)[..., 0, 0]

    def eval_terms(self, x_col):
        return ad.quadratic_losses(x_col, self.centers, self.mats)

    def distance_to_front(self, x) -> float:
        """Distance from ``x`` to the Pareto set, the hull of the centers.

        With identity curvature the Jacobian's rows are ``x - c_i``, and
        their min-norm convex combination is ``x`` minus its nearest point
        of the hull, so the criticality measure is the distance.
        """
        if self.mats is not None:
            raise UnsupportedCapability("Pareto set is known only for identity curvature")
        return criticality_measure(self, x)


def make_quadratic_pair(dim: int, seed: int, noise_sigma: float = 0.0) -> QuadraticPair:
    """Identity-curvature pair with centers drawn U[-1,1]^dim from ``seed``."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(101,)))
    c1 = rng.uniform(-1.0, 1.0, dim)
    c2 = rng.uniform(-1.0, 1.0, dim)
    return QuadraticPair(c1, c2, noise_sigma=noise_sigma, domain=(-1.0, 1.0))


class ToyMtlProblem(MooProblem):
    """Two-task classifier: shared one-hidden-layer tanh encoder + linear heads.

    The decision vector is the flattened concatenation of encoder and head
    parameters; each objective is that task's mean cross-entropy. One
    stochastic draw is the gradient over one uniform without-replacement
    batch of ``batch_size`` samples.
    """

    def __init__(self, xs, labels, batch_size: int, hidden: int = 50, init_scale: float = 0.05):
        xs = as_tensor(xs, "xs")
        labels = np.asarray(labels, dtype=np.int64)
        if xs.ndim != 2 or labels.shape != (2, xs.shape[0]):
            raise ValueError("xs must be (samples, features) with labels shaped (2, samples)")
        if not 1 <= batch_size <= xs.shape[0]:
            raise ValueError(f"batch_size must be in [1, {xs.shape[0]}], got {batch_size}")
        self.xs = xs
        self.labels = labels
        self.batch_size = int(batch_size)
        self.n_samples, self.n_features = xs.shape
        self.n_classes = int(labels.max()) + 1
        self.hidden = int(hidden)
        self.init_scale = float(init_scale)
        self.objectives = 2
        self.dim = (
            self.n_features * self.hidden
            + self.hidden
            + 2 * (self.hidden * self.n_classes + self.n_classes)
        )

    def _unpack(self, x: np.ndarray):
        f, h, c = self.n_features, self.hidden, self.n_classes
        i = 0
        w_enc = x[i : i + f * h].reshape(f, h)
        i += f * h
        b_enc = x[i : i + h]
        i += h
        heads = []
        for _ in range(2):
            w = x[i : i + h * c].reshape(h, c)
            i += h * c
            b = x[i : i + c]
            i += c
            heads.append((w, b))
        return w_enc, b_enc, heads

    def _forward(self, x: np.ndarray, idx: np.ndarray):
        """The batch ``xs[idx]``, its hidden layer, the heads and each head's max-shifted logits."""
        w_enc, b_enc, heads = self._unpack(np.asarray(x, dtype=np.float64))
        xb = self.xs[idx]
        hid = np.tanh(xb @ w_enc + b_enc)
        shifted = []
        for w, b in heads:
            logits = hid @ w + b
            logits -= logits.max(axis=1, keepdims=True)
            shifted.append(logits)
        return xb, hid, heads, shifted

    def _losses_on(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        *_, shifted = self._forward(x, idx)
        out = np.empty(2)
        for t, logits in enumerate(shifted):
            logz = np.log(np.exp(logits).sum(axis=1))
            out[t] = float(np.mean(logz - logits[np.arange(idx.size), self.labels[t, idx]]))
        return out

    def _gradient_on(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        xb, hid, heads, shifted = self._forward(x, idx)
        nb = idx.size
        dhid_dz = 1.0 - hid * hid
        jac = np.zeros((2, self.dim))
        f, h, c = self.n_features, self.hidden, self.n_classes
        head_off = f * h + h
        for t, ((w, _), logits) in enumerate(zip(heads, shifted)):
            p = np.exp(logits)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(nb), self.labels[t, idx]] -= 1.0
            dlogits = p / nb
            dw = hid.T @ dlogits
            db = dlogits.sum(axis=0)
            dz = (dlogits @ w.T) * dhid_dz
            row = jac[t]
            row[: f * h] = (xb.T @ dz).reshape(-1)
            row[f * h : f * h + h] = dz.sum(axis=0)
            off = head_off + t * (h * c + c)
            row[off : off + h * c] = dw.reshape(-1)
            row[off + h * c : off + h * c + c] = db
        return jac

    def eval(self, x) -> np.ndarray:
        return self._losses_on(x, np.arange(self.n_samples))

    def eval_batch(self, x, idx) -> np.ndarray:
        """Per-task losses restricted to the given sample indices."""
        return self._losses_on(x, np.asarray(idx, dtype=np.int64))

    def full_jacobian(self, x) -> np.ndarray:
        return self._gradient_on(x, np.arange(self.n_samples))

    def sample_gradient(self, x, rng: np.random.Generator) -> np.ndarray:
        if self.batch_size == self.n_samples:
            return self.full_jacobian(x)
        idx = rng.choice(self.n_samples, size=self.batch_size, replace=False)
        return self._gradient_on(x, idx)

    def sample_batch_indices(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(self.n_samples, size=min(size, self.n_samples), replace=False)

    def initial_point(self, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(0.0, self.init_scale, self.dim)


def make_toy_mtl(
    seed: int,
    samples: int = 2048,
    classes: int = 10,
    batch: int = 32,
    input_dim: int = 16,
    hidden: int = 50,
) -> ToyMtlProblem:
    """Synthetic two-task dataset: each task contributes a Gaussian prototype.

    Sample = mean of the two tasks' class prototypes plus isotropic noise, so
    both labels are decodable from the shared input but pull the encoder in
    different directions.
    """
    if classes < 2:
        raise ValueError("classes must be >= 2")
    if not 1 <= batch <= samples:
        raise ValueError(f"batch must be in [1, {samples}], got {batch}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(102,)))
    protos = rng.normal(0.0, 1.0, (2, classes, input_dim))
    labels = rng.integers(0, classes, size=(2, samples))
    xs = 0.5 * (protos[0, labels[0]] + protos[1, labels[1]])
    xs += 0.3 * rng.standard_normal((samples, input_dim))
    return ToyMtlProblem(xs, labels, batch_size=batch, hidden=hidden)


_REGISTRY: dict[str, Callable[..., MooProblem]] = {}


def register_named_problem(name: str, factory: Callable[..., MooProblem]) -> None:
    if name in _REGISTRY:
        raise ValueError(f"problem {name!r} already registered")
    _REGISTRY[name] = factory


def make_problem(name: str, **params) -> MooProblem:
    if name not in _REGISTRY:
        raise KeyError(f"unknown problem {name!r}; registered: {sorted(_REGISTRY)}")
    return _REGISTRY[name](**params)


register_named_problem("quadratic_pair", make_quadratic_pair)
register_named_problem("toy_mtl", make_toy_mtl)
# Slots for the classic named suites (BK1, DOG1, Lov1, MOP5) stay open:
# their definitions live outside this package; register via
# register_named_problem once available.
