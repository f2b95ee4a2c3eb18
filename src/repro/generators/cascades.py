"""Multiplicative cascade measures — canonical multifractal test signals.

A multiplicative cascade distributes unit mass over ``[0, 1]`` by
recursively splitting every dyadic interval in two and multiplying the
children's masses by random (or fixed) weights.  The resulting measure is
multifractal with a *closed-form* scaling function, which makes cascades
the standard ground truth for multifractal estimators.

Binomial (deterministic weights p, 1-p):
    ``tau(q) = -log2(p^q + (1-p)^q)`` and the partition-function exponents
    follow exactly; the singularity spectrum is a smooth bump between
    ``alpha_min = -log2(max(p,1-p))`` and ``alpha_max = -log2(min(p,1-p))``.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_in_range, check_positive_int
from ..exceptions import ValidationError


def binomial_cascade(
    n_levels: int,
    p: float = 0.7,
    *,
    rng: np.random.Generator | None = None,
    randomize: bool = True,
) -> np.ndarray:
    """Generate a binomial cascade measure of length ``2 ** n_levels``.

    Parameters
    ----------
    n_levels:
        Number of dyadic refinement levels; output has ``2**n_levels``
        cells.
    p:
        Weight multiplier for one child (the other gets ``1 - p``);
        ``p = 0.5`` degenerates to the uniform (monofractal) measure.
    randomize:
        When True (default) the weights (p, 1-p) are assigned to the
        left/right child uniformly at random at every split, giving a
        statistically stationary measure.  When False, p always goes
        left — the classical deterministic binomial measure.

    Returns
    -------
    The cell masses, summing to 1.
    """
    check_positive_int(n_levels, name="n_levels")
    check_in_range(p, name="p", low=0.0, high=1.0, inclusive_low=False, inclusive_high=False)
    if n_levels > 26:
        raise ValidationError(f"n_levels={n_levels} would allocate 2^{n_levels} cells")
    if rng is None:
        rng = np.random.default_rng()

    masses = np.array([1.0])
    for level in range(n_levels):
        if randomize:
            flips = rng.random(masses.size) < 0.5
            left = np.where(flips, p, 1.0 - p)
        else:
            left = np.full(masses.size, p)
        children = np.empty(masses.size * 2)
        children[0::2] = masses * left
        children[1::2] = masses * (1.0 - left)
        masses = children
    return masses


def binomial_cascade_tau(q, p: float = 0.7) -> np.ndarray:
    """Exact scaling function tau(q) of the binomial cascade measure.

    ``tau(q) = -log2(p^q + (1-p)^q)``.  For the uniform case p = 0.5 this
    reduces to the linear (monofractal) ``tau(q) = q - 1``.
    """
    check_in_range(p, name="p", low=0.0, high=1.0, inclusive_low=False, inclusive_high=False)
    q = np.asarray(q, dtype=float)
    return -np.log2(p**q + (1.0 - p) ** q)
