"""Validated entry point for the cyclic quartic box scan.

The work is done in :mod:`._scan_py` by one of three exact routes, chosen
from the box: the Gaussian-integer walk over sigma*q^2, whose cost grows
with max|b|; the (s, u, w) walk, which is cheaper on a narrow b-strip far
from the origin; or a test of each cell, which is cheapest on a small box
far out, where both walks would visit every u <= sqrt(d_max).  This module
checks the box, for every box-taking entry point of the package, and names
the backend for run records.
"""

from __future__ import annotations

from ._scan_py import scan_c4

__all__ = ["active_backend", "scan_c4_candidates"]


def active_backend() -> str:
    """Name of the scan implementation; there is one, in pure Python."""
    return "pure"


def _check_box(b_min: int, b_max: int, d_min: int, d_max: int) -> None:
    if b_min > b_max or d_min > d_max:
        raise ValueError(f"empty box [{b_min}, {b_max}] x [{d_min}, {d_max}]")


def scan_c4_candidates(
    b_min: int, b_max: int, d_min: int, d_max: int
) -> list[tuple[int, int]]:
    """All cyclic quartic (b, d) in the box, ascending; see :func:`_scan_py.scan_c4`."""
    _check_box(b_min, b_max, d_min, d_max)
    return scan_c4(b_min, b_max, d_min, d_max)
