"""The benchmark's workloads: which `qch` suites each one runs.

A suite is the argument list of one `qch` subcommand without `--seed` and
`--json`; `suite_argv` adds both.  Suites whose subcommand takes no seed
(`ideal`, `appendix`) run the same way under every seed.
"""
from __future__ import annotations

WORKLOADS = {
    # The paper's Sp(4) identities certified at prime points: modular
    # membership (ideal, linalg over F_p, normal ordering) plus the operator
    # and height checks.  Q(q) construction is about half of it.
    "sp4-modular": (
        ("qma", "--k", "2", "--pair", "rtt", "--verify", "ch,parent,cutting"),
        ("qma", "--k", "2", "--pair", "re", "--verify", "parent,cutting"),
        ("rmatrix", "--k", "3"),
        ("rmatrix", "--k", "4", "--checks", "ybe,cubic,bmw"),
        ("ideal", "--k", "2", "--degree", "2"),
        ("appendix",),
    ),
    # Exact arithmetic only, no F_p: the spectral identities over Q(q) at
    # k = 3 (QScalar canonicalization dominates) and the classical battery,
    # Fraction matrices that touch none of scalar/tensor/ncpoly/ideal.
    "exact-spectral-classical": (
        ("spectral", "--k", "3", "--max-n", "6"),
        ("classical", "--k", "4", "--samples", "10"),
    ),
}

# subcommands that accept --seed
SEEDED = frozenset({"qma", "rmatrix", "spectral", "classical"})


def suite_key(suite):
    """The reference's name for a suite: its arguments joined by spaces."""
    return " ".join(suite)


def suite_argv(suite, seed):
    argv = list(suite)
    if suite[0] in SEEDED:
        argv += ["--seed", str(seed)]
    return argv + ["--json"]
