"""Input schema and numerical tolerance policy.

Every input from outside is a dict checked against a table of
:class:`Param` entries by :func:`checked`: the experiments' parameters, the
keys of a config file, the family specs' params and the tolerances
(:data:`TOLERANCES`).

All thresholds are implementation policy: the underlying constructions are
exact-arithmetic statements, so every epsilon below is a knob, not a derived
quantity. Operations take an optional :class:`Tolerances` and fall back to
:data:`DEFAULT_TOLS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple


class Param(NamedTuple):
    """One input parameter: key, default, parser of its command-line text,
    and the check every value must pass. ``check(value, params)`` may read
    the parameters declared before it, which have passed theirs. The flag is
    ``--`` plus ``flag``, by default the key with dashes."""

    key: str
    default: object
    parse: Callable[[str], object]
    check: Callable[[object, dict], bool]
    requirement: str
    flag: str = ""

    @property
    def option(self) -> str:
        return "--" + (self.flag or self.key.replace("_", "-"))


def checked(schema, given: dict, what: str) -> dict:
    """``given`` merged over the defaults of the ``Param`` table ``schema``,
    each entry checked in declaration order; a ``ValueError`` that names the
    key refuses an unknown key or a value that fails its check, and one that
    names ``what`` refuses a ``given`` that is not a dict."""
    if not isinstance(given, dict):
        raise ValueError(f"{what} must be an object, got {type(given).__name__}")
    merged = {p.key: p.default for p in schema}
    unknown = set(given) - set(merged)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    merged.update(given)
    for p in schema:
        if not p.check(merged[p.key], merged):
            raise ValueError(f"{what} {p.key} must be {p.requirement}, got {merged[p.key]!r}")
    return merged


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
        checked(TOLERANCES, vars(self), "tolerance")

    def override(self, **kwargs: float) -> "Tolerances":
        """Return a copy with the given entries replaced.

        Unknown keys and values other than finite positive numbers raise
        ``ValueError`` so that CLI overrides stay strict.
        """
        return Tolerances(**checked(TOLERANCES, {**vars(self), **kwargs}, "tolerance"))


TOLERANCES = tuple(
    Param(f.name, f.default, float, lambda v, _: _is_number(v) and math.isfinite(v) and v > 0,
          "a finite positive number") for f in fields(Tolerances))
DEFAULT_TOLS = Tolerances()
