"""``stable_order`` is ``np.argsort(keys, kind="stable")``, pass by pass.

The SMC's batch prelude orders a call's HSNs with a radix sort of 16-bit
digits: one counting pass per digit the key span needs.  The property
draws key spans that need one, two, three and four digits — negative
keys and both ends of int64 included — with repeats, so a pass that
breaks stability or drops a digit shows as a different order.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segment_cache import stable_order

INT64 = np.iinfo(np.int64)


def reference(keys: np.ndarray) -> np.ndarray:
    return np.argsort(keys, kind="stable")


@settings(max_examples=250, deadline=None)
@given(digits=st.integers(1, 4), n=st.integers(2, 300),
       distinct=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_stable_order_is_the_stable_argsort(digits, n, distinct, seed, data):
    width = 16 * digits
    # The key span needs exactly ``digits`` digits: its top digit is set.
    span = data.draw(st.integers(1 << (width - 16), (1 << width) - 1)
                     if digits > 1 else st.integers(0, (1 << 16) - 1))
    low = data.draw(st.integers(int(INT64.min), int(INT64.max) - span))
    rng = np.random.default_rng(seed)
    pool = np.array([low, low + span]
                    + [low + int(rng.integers(0, span + 1, dtype=np.uint64))
                       for _ in range(distinct)], dtype=np.int64)
    keys = pool[rng.integers(0, len(pool), n)]
    keys[rng.integers(0, n)] = low  # both ends present: the span is exact
    keys[rng.integers(0, n)] = low + span
    order = stable_order(keys)
    assert order.dtype == np.intp
    assert np.array_equal(order, reference(keys))


def test_stable_order_of_tiny_and_flat_inputs():
    for keys in ([], [7], [-3], [5] * 9, [INT64.max] * 4, [INT64.min] * 4,
                 [INT64.max, INT64.min, INT64.max, INT64.min]):
        keys = np.array(keys, dtype=np.int64)
        assert np.array_equal(stable_order(keys), reference(keys))
