"""Exact combinatorics of partition and Dowling lattices: constructions,
Mobius computations, generating function identities, descent statistics, and
EL-labelings, all over rational arithmetic."""

from .poset import Poset, mobius, mobius_table
from .structures import (
    BuiltLattice,
    DowlingElement,
    build_dowling_lattice,
    build_partition_lattice,
)

__all__ = [
    "Poset",
    "mobius",
    "mobius_table",
    "TruncatedSeries",
    "BuiltLattice",
    "DowlingElement",
    "build_dowling_lattice",
    "build_partition_lattice",
]

__version__ = "0.3.0"


def __getattr__(name):
    # `series` (and with it `fractions`) loads on first use, so a process
    # that reads no series does not load it (see the `cli` docstring)
    if name == "TruncatedSeries":
        from .series import TruncatedSeries

        return TruncatedSeries
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
