"""Exact verification toolkit for symplectic quantum matrix algebras
and their Cayley-Hamilton-type identities."""

__version__ = "0.1.0"
