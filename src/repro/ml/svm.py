"""Linear support vector machine (L2-regularised squared hinge).

Solves

.. math::

    \\min_w \\; \\tfrac12 \\|w\\|^2 + \\sum_i C_i \\max(0, 1 - y_i w^T x_i)^2

-- the "L2-loss" primal formulation that LIBLINEAR also offers.  The
objective is once-differentiable and convex, so a vectorised L-BFGS solve
converges in a few dozen iterations regardless of sample count; that keeps
classifier (re)training negligible next to transistor-level simulation,
which is the accounting the paper relies on.

No intercept term is kept: callers include a constant feature (the
polynomial map in :mod:`repro.ml.features` does).

Two properties matter for this package:

* **per-sample costs** ``C_i`` -- failure samples are rare, so the blockade
  up-weights the minority class;
* **warm starting** -- :meth:`LinearSvm.fit` can start from the previous
  weight vector, making the paper's incremental stage-2 training cheap.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ClassifierError


class LinearSvm:
    """L2-regularised squared-hinge linear SVM.

    Parameters
    ----------
    c:
        Base misclassification cost (per-sample costs are ``c`` times the
        class weight).
    max_iterations:
        L-BFGS iteration cap.
    tolerance:
        L-BFGS gradient tolerance.
    class_weight:
        ``"balanced"`` scales each class inversely to its frequency;
        ``None`` uses uniform costs; a ``{label: weight}`` dict sets them
        explicitly (labels are -1/+1).
    seed:
        Unused (kept for interface stability with stochastic solvers).
    """

    def __init__(self, c: float = 1.0, max_iterations: int = 200,
                 tolerance: float = 1e-7, class_weight="balanced", seed=0):
        if c <= 0:
            raise ValueError(f"c must be positive, got {c}")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.c = float(c)
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.class_weight = class_weight
        self.weights: np.ndarray | None = None
        self.iterations_run_ = 0

    @property
    def is_fitted(self) -> bool:
        return self.weights is not None

    # ------------------------------------------------------------------
    def fit(self, x, y, warm_start: bool = False) -> "LinearSvm":
        """Train on features ``x`` (B, F) and labels ``y`` in {-1, +1}.

        With ``warm_start=True`` (and matching feature count) optimisation
        starts from the current weights, which converges in a handful of
        iterations when only a small batch of samples was appended.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y)
        y = np.where(y > 0, 1.0, -1.0)
        if y.shape != (x.shape[0],):
            raise ClassifierError(
                f"labels shape {y.shape} does not match {x.shape[0]} samples")
        if np.unique(y).size < 2:
            raise ClassifierError(
                "training set must contain both classes; got only "
                f"label {y[0]:+.0f}")

        costs = self._costs(y)
        w0 = np.zeros(x.shape[1])
        if warm_start and self.weights is not None \
                and self.weights.size == x.shape[1]:
            w0 = self.weights.copy()

        def objective(w):
            margins = 1.0 - y * (x @ w)
            active = np.maximum(margins, 0.0)
            value = 0.5 * (w @ w) + np.sum(costs * active * active)
            grad = w - x.T @ (2.0 * costs * active * y)
            return value, grad

        # scipy.optimize costs ~0.6 s to import; only a fit needs it
        from scipy.optimize import minimize

        result = minimize(objective, w0, jac=True, method="L-BFGS-B",
                          options={"maxiter": self.max_iterations,
                                   "gtol": self.tolerance})
        self.weights = result.x
        self.iterations_run_ = int(result.nit)
        return self

    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Checkpoint snapshot (weights and solver diagnostics)."""
        return {
            "weights": (None if self.weights is None
                        else self.weights.copy()),
            "iterations_run": self.iterations_run_,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state` snapshot bit-exactly."""
        weights = state["weights"]
        self.weights = (None if weights is None
                        else np.asarray(weights, dtype=float))
        self.iterations_run_ = int(state["iterations_run"])

    # ------------------------------------------------------------------
    def decision_function(self, x) -> np.ndarray:
        """Signed score ``w . x`` (positive = class +1)."""
        if not self.is_fitted:
            raise ClassifierError("SVM used before fitting")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.weights.size:
            raise ClassifierError(
                f"expected {self.weights.size} features, got {x.shape[1]}")
        return x @ self.weights

    def predict(self, x) -> np.ndarray:
        """Class labels in {-1, +1}."""
        return np.where(self.decision_function(x) >= 0.0, 1.0, -1.0)

    # ------------------------------------------------------------------
    def _costs(self, y: np.ndarray) -> np.ndarray:
        if self.class_weight is None:
            return np.full(y.size, self.c)
        if self.class_weight == "balanced":
            n_pos = max(int(np.sum(y > 0)), 1)
            n_neg = max(int(np.sum(y < 0)), 1)
            half = y.size / 2.0
            weight = {+1.0: half / n_pos, -1.0: half / n_neg}
        elif isinstance(self.class_weight, dict):
            weight = {float(k): float(v) for k, v in self.class_weight.items()}
            missing = set(np.unique(y)) - set(weight)
            if missing:
                raise ClassifierError(f"class_weight missing labels {missing}")
        else:
            raise ClassifierError(
                f"unsupported class_weight {self.class_weight!r}")
        return self.c * np.array([weight[label] for label in y])
