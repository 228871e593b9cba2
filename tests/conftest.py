import numpy as np
import pytest

from fracture import _kernels
from fracture.core import HypergraphShape
from fracture.search import _edges_flat


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # compile or load the jit cache before anything timed runs
    edges = _edges_flat(HypergraphShape(3, 2))
    prefix = np.empty(0, dtype=np.int64)
    witness = np.empty(3, dtype=np.int64)
    for impl in _kernels.IMPLS.values():
        impl["search"](_kernels.OBJ_F, 3, 2, 2, 3, edges, prefix, 2**62, 1, witness)
