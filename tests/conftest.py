import numpy as np
import pytest

from fracture import _kernels
from fracture.core import HypergraphShape
from fracture.search import _edges_flat, _twins


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # compile or load the jit cache before anything timed runs
    shape = HypergraphShape(3, 2)
    witness = np.empty(3, dtype=np.int64)
    for kernel in _kernels.IMPLS.values():
        kernel(_kernels.OBJ_F, 3, 2, 2, 3, _edges_flat(shape), _twins(shape), 2**62, 1, witness)
