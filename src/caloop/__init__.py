"""caloop: the free 2-generated commutative automorphic loop of nilpotency class 3.

Exact coordinates in Z^8, associator calculus, a symbolic polynomial prover
for the loop's identity catalog, a loop-word parser, and finite quotient
loops with brute-force verification.
"""

from .arith import alpha, beta
from .calculus import (
    NucleusKind,
    Witness,
    associator,
    inner_l,
    is_member,
    witness_noncentral,
)
from .core import (
    IDENTITY,
    IDENTITY4,
    U1,
    U2,
    V1,
    V2,
    V3,
    V4,
    X,
    Y,
    Elem4,
    Elem8,
    basis,
)

__version__ = "0.1.0"

__all__ = [
    "alpha",
    "beta",
    "Elem8",
    "Elem4",
    "basis",
    "IDENTITY",
    "IDENTITY4",
    "X",
    "Y",
    "U1",
    "U2",
    "V1",
    "V2",
    "V3",
    "V4",
    "associator",
    "inner_l",
    "NucleusKind",
    "is_member",
    "witness_noncentral",
    "Witness",
    "__version__",
]
