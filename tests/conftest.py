import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def make_rng():
    def factory(seed):
        return np.random.default_rng(seed)

    return factory


@pytest.fixture
def count_passes(monkeypatch):
    """Call it to record, from then on, the stack shape of every
    decomposition pass: the mesh invariants' own and canonical_decompose's."""
    from timps import invariants, tensors

    def start():
        shapes = []
        real = tensors._decomposition_pass

        def counted(mats, tols):
            shapes.append(mats.shape)
            return real(mats, tols)

        for module in (invariants, tensors):
            monkeypatch.setattr(module, "_decomposition_pass", counted)
        return shapes

    return start
