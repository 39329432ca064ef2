"""Numerical tolerance policy.

All thresholds are implementation policy: the underlying constructions are
exact-arithmetic statements, so every epsilon below is a knob, not a derived
quantity. Operations take an optional :class:`Tolerances` and fall back to
:data:`DEFAULT_TOLS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle shared across the library.

    Attributes
    ----------
    eps_rank : float
        Relative eigenvalue cutoff for numerical rank decisions; an eigenvalue
        counts toward the rank iff it exceeds ``eps_rank * lambda_max``.
    tol_unitary : float
        Allowed deviation of unitaries from ``X* X = 1`` and of phases from
        unit modulus.
    tol_norm : float
        Allowed deviation in normalization conditions (core normalization,
        trace-one fixed points, filler-support conditions).
    tol_recon : float
        Allowed reassembly error of a canonical decomposition.
    tol_fid : float
        Fidelity-per-site slack: two cores count as gauge related when the
        mixed transfer leading modulus is at least ``1 - tol_fid``.
    tol_gap : float
        Minimal relative spectral gap below the leading transfer eigenvalue
        before it is declared degenerate.
    tol_distinct : float
        Relative separation required between the extreme core Gram
        eigenvalues for the spectrum to count as split.
    """

    eps_rank: float = 1e-9
    tol_unitary: float = 1e-10
    tol_norm: float = 1e-8
    tol_recon: float = 1e-8
    tol_fid: float = 1e-7
    tol_gap: float = 1e-6
    tol_distinct: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not (math.isfinite(value) and value > 0)):
                raise ValueError(f"tolerance {f.name} must be a finite positive "
                                 f"number, got {value!r}")

    def override(self, **kwargs: float) -> "Tolerances":
        """Return a copy with the given entries replaced.

        Unknown keys and values other than finite positive numbers raise
        ``ValueError`` so that CLI overrides stay strict.
        """
        known = {f.name for f in fields(self)}
        unknown = set(kwargs) - known
        if unknown:
            raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
        return replace(self, **kwargs)


DEFAULT_TOLS = Tolerances()
