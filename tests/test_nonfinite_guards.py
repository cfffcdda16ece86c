"""Every validated value type rejects a NaN or inf planted anywhere."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermisim.benchmarking import DecayFit
from fermisim.compiler import Schedule
from fermisim.pauli import PauliString, WeightedPauliSum
from fermisim.simulator import DensityState, NoiseModel, PureState
from fermisim.tomography import (
    ProcessMatrix,
    QPTDataset,
    identity_process,
    process_fidelity,
)


def _schedule(x):
    return Schedule(x[0], ((x[1], x[2]), (x[3], x[4])),
                    ((x[5], x[6]), (x[7], x[8])))


# name -> (valid values as one array, constructor from that array)
VALIDATED = {
    "PureState": (lambda: np.full(4, 0.5, dtype=complex),
                  lambda x: PureState(x, 2)),
    "DensityState": (lambda: np.full((4, 4), 0.25, dtype=complex),
                     lambda x: DensityState(x, 2)),
    "QPTDataset": (lambda: np.full((16, 16, 4), 0.25), QPTDataset),
    "ProcessMatrix": (lambda: identity_process().chi.copy(), ProcessMatrix),
    "DecayFit": (lambda: np.array([0.7, 0.25, 0.98, 1e-3]),
                 lambda x: DecayFit(*x, np.zeros((3, 3)))),
    "Schedule": (lambda: np.array([3.0, 0.0, 0.0, 3.0, 1.0,
                                   0.0, 1.0, 3.0, 1.0]), _schedule),
    "NoiseModel": (lambda: np.array([7.4e-3, 8e-4]),
                   lambda x: NoiseModel(*x)),
    "PauliString": (lambda: np.array([-1j]),
                    lambda x: PauliString(("X", "Z"), x[0])),
    # real and imaginary part of a coefficient, then the offset
    "WeightedPauliSum.from_terms": (
        lambda: np.array([0.5, -0.25, 1.0, 0.75]),
        lambda x: WeightedPauliSum.from_terms(
            1, [(complex(x[0], x[1]), "X"), (x[2], "Z")], x[3])),
    "WeightedPauliSum.identity": (
        lambda: np.array([0.25]),
        lambda x: WeightedPauliSum.identity(2, x[0])),
    # the bare dataclass constructor, laid out like from_terms
    "WeightedPauliSum": (
        lambda: np.array([0.5, -0.25, 1.0]),
        lambda x: WeightedPauliSum(
            1, ((complex(x[0], x[1]), PauliString(("X",))),), x[2])),
}


@settings(max_examples=120, deadline=None, database=None)
@given(st.sampled_from(sorted(VALIDATED)), st.data(),
       st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans())
def test_planted_non_finite_value_is_rejected(name, data, bad, imaginary):
    valid, build = VALIDATED[name]
    values = valid()
    build(values.copy())  # accepted before the plant
    index = data.draw(st.tuples(*(st.integers(0, size - 1)
                                  for size in values.shape)))
    if np.iscomplexobj(values) and imaginary:
        values[index] = complex(values[index].real, bad)
    else:
        values[index] = bad
    with pytest.raises(ValueError):
        build(values)


def test_non_finite_process_fidelity_raises():
    # finite chi entries whose products overflow to inf - inf = NaN
    chi = np.zeros((16, 16))
    chi[0, 0], chi[1, 1] = 1e200, -1e200
    big = ProcessMatrix(chi)
    with np.errstate(all="ignore"), \
            pytest.raises(FloatingPointError, match="nan"):
        process_fidelity(ProcessMatrix(np.abs(chi)), big)
