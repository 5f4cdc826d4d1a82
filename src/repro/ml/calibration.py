"""Platt scaling: SVM decision values -> calibrated probabilities.

The demo GUI exposes a "Confidence" slider and renders higher-confidence tag
suggestions in a larger font; that requires per-tag probabilities, not raw
SVM margins.  Platt (1999) fits a sigmoid ``P(y=1|f) = 1 / (1 + exp(A f + B))``
over held-out decision values, here by Newton iterations with the
Lin/Weng/Keerthi prior smoothing.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.errors import ConfigurationError, NotTrainedError


class PlattCalibrator:
    """Fits the two-parameter sigmoid mapping margins to probabilities."""

    def __init__(self, max_iterations: int = 100, tol: float = 1e-10) -> None:
        self.max_iterations = max_iterations
        self.tol = tol
        self._a: Optional[float] = None
        self._b: Optional[float] = None

    def fit(
        self, decisions: Sequence[float], labels: Sequence[int]
    ) -> "PlattCalibrator":
        """Fit on decision values and {-1, +1} labels.

        With zero or one-class data, falls back to a symmetric steep sigmoid
        centred at 0 — tiny peers must still produce usable confidences.
        """
        if len(decisions) != len(labels):
            raise ConfigurationError("decisions and labels length mismatch")
        positives = sum(1 for y in labels if y == 1)
        negatives = len(labels) - positives
        if positives == 0 or negatives == 0:
            self._a, self._b = -2.0, 0.0
            return self

        # Smoothed targets per Platt / Lin et al.
        hi = (positives + 1.0) / (positives + 2.0)
        lo = 1.0 / (negatives + 2.0)
        targets = [hi if y == 1 else lo for y in labels]

        a, b = 0.0, math.log((negatives + 1.0) / (positives + 1.0))
        for _ in range(self.max_iterations):
            # Gradient and Hessian of the cross-entropy in (a, b).
            g_a = g_b = 0.0
            h_aa = h_ab = h_bb = 1e-12
            for f, t in zip(decisions, targets):
                z = a * f + b
                if z >= 0:
                    ez = math.exp(-z)
                    p = ez / (1.0 + ez)
                else:
                    p = 1.0 / (1.0 + math.exp(z))
                # p = P(y=1) under current parameters; dL/dz = t - p with
                # z = a*f + b and p = sigmoid(-z), so dL/da = (t - p) * f.
                d = t - p
                g_a += f * d
                g_b += d
                w = p * (1.0 - p)
                h_aa += f * f * w
                h_ab += f * w
                h_bb += w
            # Newton step: solve 2x2 system.
            det = h_aa * h_bb - h_ab * h_ab
            if abs(det) < 1e-18:
                break
            step_a = (h_bb * g_a - h_ab * g_b) / det
            step_b = (h_aa * g_b - h_ab * g_a) / det
            a -= step_a
            b -= step_b
            if abs(step_a) < self.tol and abs(step_b) < self.tol:
                break
        # Guard: decision value and probability must correlate positively,
        # i.e. sigmoid slope parameter A must be negative.
        if a >= 0.0:
            a = -1.0
        self._a, self._b = a, b
        return self

    @property
    def is_fitted(self) -> bool:
        return self._a is not None

    def probability(self, decision: float) -> float:
        """P(tag assigned | decision value) in (0, 1)."""
        if self._a is None or self._b is None:
            raise NotTrainedError("PlattCalibrator has not been fitted")
        z = self._a * decision + self._b
        if z >= 0:
            ez = math.exp(-z)
            return ez / (1.0 + ez)
        return 1.0 / (1.0 + math.exp(z))

    def parameters(self) -> tuple[float, float]:
        if self._a is None or self._b is None:
            raise NotTrainedError("PlattCalibrator has not been fitted")
        return self._a, self._b
