"""Exact combinatorics of partition and Dowling lattices: constructions,
Mobius computations, generating function identities, descent statistics, and
EL-labelings, all over rational arithmetic."""

from .poset import Poset, mobius, mobius_table
from .series import TruncatedSeries
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
