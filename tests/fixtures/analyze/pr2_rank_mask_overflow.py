"""Frozen copy of the PR 2 rank-mask bug (fixed in the live tree).

The span-6 bit-vector rank used ``(1 << (expansion + 1)) - 1`` to build
the below-or-equal mask.  At ``expansion == 63`` the shift count reaches
the uint64 width, numpy wraps it to ``1 << 0``, and the mask drops every
bit — the longest-expansion prefix silently loses its rank.  The live
code sidesteps the width case with the two-step
``mask = (1 << e) | ((1 << e) - 1)`` form; this copy preserves the
original expression so the analyzer's ANZ301 pass keeps a regression
anchor (tests/test_devtools_analyze.py asserts exactly one finding).
"""

import numpy as np


def rank_mask(vectors: np.ndarray, keys: np.ndarray) -> np.ndarray:
    expansion = keys & np.uint64(63)
    below = vectors & ((np.uint64(1) << (expansion + np.uint64(1))) - np.uint64(1))
    return below
