"""Property tests of the prefix enumeration on adversarial columns (need hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_regions import adversarial_variants, assert_matches_scan, assert_witnesses_sound  # noqa: E402

KINDS = ("zero", "duplicate", "rescaled", "near-duplicate")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    n=st.integers(2, 7),
    bias=st.booleans(),
    kind=st.sampled_from(KINDS),
)
def test_enumeration_on_adversarial_columns(seed, d, n, bias, kind):
    rng = np.random.default_rng(seed)
    i, j, variants = adversarial_variants(rng, rng.standard_normal((d, n)))
    Y = variants[kind]
    assert_matches_scan(Y, bias, kind, i, j)
    assert_witnesses_sound(Y, bias)
