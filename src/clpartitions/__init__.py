"""Exact-arithmetic verification lab for counting identities over F_q.

Cross-checks three independent computations of the generating functions
for mutually annihilating (and mutually annihilating nilpotent) matrix
pairs over a finite field: brute-force matrix enumeration, partition sums
weighted by abelian-group automorphism orders, and closed-form q-series.
Also samples random partitions from the Cohen-Lenstra measure P_u via an
exact Markov kernel and validates the sampler's statistics.
"""

from .partitions import Partition, partitions_of
from .sampler import KernelRow, PartitionSampler, SamplerConfig
from .verify import VerificationReport, VerifierConfig, run_all

__all__ = [
    "Partition",
    "partitions_of",
    "KernelRow",
    "PartitionSampler",
    "SamplerConfig",
    "VerificationReport",
    "VerifierConfig",
    "run_all",
]

__version__ = "0.1.0"
