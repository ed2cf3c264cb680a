"""Increasing multi-indices: subsets, concatenation signs, shuffle signs.

Shared by the fiber algebra and the form fields, so that modules needing
only these signs do not load the fiber algebra.
"""

import itertools


def merge_indices(a, b):
    """(sign, merged) for concatenating two increasing index tuples.

    Returns (0, None) when the tuples share an index.
    """
    if set(a) & set(b):
        return 0, None
    sign = 1
    merged = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            merged.append(b[j])
            j += 1
            if (len(a) - i) % 2:
                sign = -sign
    merged.extend(a[i:])
    merged.extend(b[j:])
    return sign, tuple(merged)


def _shuffle_sign(idx):
    """eps(I) = (-1)^{sum_k (i_k - k)}: the sign of the shuffle (I, I^c)."""
    return -1 if (sum(idx) - len(idx) * (len(idx) - 1) // 2) % 2 else 1


def subsets(n, p):
    return [tuple(c) for c in itertools.combinations(range(n), p)]
