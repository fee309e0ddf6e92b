"""Sample grids: the pure-Python grid must round as numpy.linspace does, so
that every emitted abscissa stays bit-identical."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from enstrophy_bounds import CancellationLoss, InvalidRegime, OutsideDomain
from enstrophy_bounds.curves import (CurveBundle, CurveSegment, log_grid,
                                     max_join_gap)

_magnitude = st.floats(min_value=1e-300, max_value=1e5)
_value = st.builds(lambda m, neg: -m if neg else m, _magnitude, st.booleans())


def _bits(values):
    return [float(v).hex() for v in values]


@given(lo=_value, hi=_value, same=st.booleans(), n=st.integers(2, 5000))
@example(lo=-1.0, hi=1.0, same=False, n=201)
@example(lo=-40.0, hi=-11000.0, same=False, n=512)
@example(lo=1e-300, hi=1e-300, same=False, n=5000)
def test_log_grid_matches_linspace_bit_for_bit(lo, hi, same, n):
    if same:
        hi = lo
    assert _bits(log_grid(lo, hi, n)) == _bits(np.linspace(lo, hi, n).tolist())


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_log_grid_needs_two_samples(n):
    with pytest.raises(OutsideDomain):
        log_grid(0.0, 1.0, n)


def test_max_join_gap_refuses_segments_without_a_shared_breakpoint(fig2):
    # phi1 starts at ln e = 0 but phi2 ends at -1: no join to measure
    phi1 = CurveSegment("phi1", [0.0, 1.0], [5.0, 4.0])
    phi2 = CurveSegment("phi2", [-2.0, -1.0], [3.0, 5.0])
    bundle = CurveBundle("critical", fig2, [phi1, phi2], {})
    with pytest.raises(CancellationLoss, match="do not share a breakpoint"):
        max_join_gap(bundle)
    assert CancellationLoss.exit_code == 2
    phi2.ln_e[-1] = 0.0
    assert max_join_gap(bundle) == 0.0


def test_segment_refusals_are_typed_and_name_the_tag():
    with pytest.raises(InvalidRegime, match=r"^unknown segment tag 'phi4'$"):
        CurveSegment("phi4", [0.0], [1.0])
    with pytest.raises(InvalidRegime, match=r"^segment 'phi2': 2 abscissas "
                       r"but 1 ordinates$"):
        CurveSegment("phi2", [0.0, 1.0], [1.0])
