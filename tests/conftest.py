"""Algebra contexts and defining ideals shared by the test modules.

Each fixture is module-scoped: a context caches what it builds, and no
cached context is shared between two test modules.
"""
from __future__ import annotations

import pytest

from qch.domains import QQ
from qch.ideal import QuadraticIdeal
from qch.qma import AlgebraContext
from qch.rmatrix import build_standard_sp, flip_context


@pytest.fixture(scope="module")
def rtt2():
    return AlgebraContext(build_standard_sp(1), flip_context(QQ, 2),
                          label="sp2-rtt")


@pytest.fixture(scope="module")
def re2():
    r = build_standard_sp(1)
    return AlgebraContext(r, r, label="sp2-re")


@pytest.fixture(scope="module")
def rtt4():
    return AlgebraContext(build_standard_sp(2), flip_context(QQ, 4),
                          label="sp4-rtt")


@pytest.fixture(scope="module")
def ideal2(rtt2):
    return QuadraticIdeal(QQ, 2, rtt2.defining_relations(), label="sp2-rtt")


@pytest.fixture(scope="module")
def ideal2_re(re2):
    return QuadraticIdeal(QQ, 2, re2.defining_relations(), label="sp2-re")


@pytest.fixture(scope="module")
def ideal4(rtt4):
    return QuadraticIdeal(QQ, 4, rtt4.defining_relations(), label="sp4-rtt")
