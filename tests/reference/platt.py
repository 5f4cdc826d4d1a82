"""``PlattCalibrator.fit``'s Newton loop as it was before the z >= 0
branch evaluated ``math.exp(-z)`` once: the oracle the fit is compared
against bit for bit.  ``branches``, when given, counts the iterations'
visits to each side of the sigmoid (``"z >= 0"`` and ``"z < 0"``)."""

import math


def fit(decisions, labels, max_iterations=100, tol=1e-10, branches=None):
    """Platt's ``(A, B)`` for ``decisions`` and {-1, +1} ``labels``."""
    positives = len([y for y in labels if y == 1])
    negatives = len(labels) - positives
    if positives == 0 or negatives == 0:
        return -2.0, 0.0
    hi = (positives + 1.0) / (positives + 2.0)
    lo = 1.0 / (negatives + 2.0)
    targets = [hi if y == 1 else lo for y in labels]
    a, b = 0.0, math.log((negatives + 1.0) / (positives + 1.0))
    for _ in range(max_iterations):
        g_a = g_b = 0.0
        h_aa = h_ab = h_bb = 1e-12
        for f, t in zip(decisions, targets):
            z = a * f + b
            if z >= 0:
                p = math.exp(-z) / (1.0 + math.exp(-z))
            else:
                p = 1.0 / (1.0 + math.exp(z))
            if branches is not None:
                branches["z >= 0" if z >= 0 else "z < 0"] += 1
            d = t - p
            g_a += f * d
            g_b += d
            w = p * (1.0 - p)
            h_aa += f * f * w
            h_ab += f * w
            h_bb += w
        det = h_aa * h_bb - h_ab * h_ab
        if abs(det) < 1e-18:
            break
        step_a = (h_bb * g_a - h_ab * g_b) / det
        step_b = (h_aa * g_b - h_ab * g_a) / det
        a -= step_a
        b -= step_b
        if abs(step_a) < tol and abs(step_b) < tol:
            break
    if a >= 0.0:
        a = -1.0
    return a, b
