"""The matmul contraction kernel (`_sandwich`), the Gram matrices and the
transfer kernel against the einsum strings they replace, on random stacks:
agreement within 1e-13, every stack size (N = 0 included), d = D = 1,
shared 2-D operands, and the N=1 call bit-equal to entry 0 of a stack."""

import numpy as np
import pytest

from timps.tensors import _sandwich, left_gram, right_gram, transfer_kernel

SANDWICH = "...ab,...ibc,...cd->...iad"
LEFT_GRAM = "...iba,...ibc->...ac"
RIGHT_GRAM = "...iab,...icb->...ac"
KERNEL = "...ipq,...irs->...prqs"
WEIGHTED = "...ij,...jrs->...irs"

# (leading axes, d, a, b); a stack of (a x b) matrices, d per tensor
STACKS = [
    ((7,), 3, 4, 4),
    ((2, 5), 4, 2, 3),
    ((6,), 1, 1, 1),
    ((3,), 9, 3, 3),
    ((0,), 2, 3, 3),
    ((1, 0), 4, 2, 2),
]


def ginibre(rng, shape):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2.0)


def bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


@pytest.mark.parametrize("lead, d, a, b", STACKS)
@pytest.mark.parametrize("shared", [False, True], ids=["stacked", "2d"])
def test_sandwich_matches_the_einsum_oracle(make_rng, lead, d, a, b, shared):
    rng = make_rng(len(lead) + d + a + b)
    mats = ginibre(rng, lead + (d, a, b))
    c, e = a + 1, max(b - 1, 1)
    L = ginibre(rng, (() if shared else lead) + (c, a))
    R = ginibre(rng, (() if shared else lead) + (b, e))
    got = _sandwich(L, mats, R)
    assert got.shape == lead + (d, c, e) and got.flags.c_contiguous
    assert np.abs(got - np.einsum(SANDWICH, L, mats, R)).max(initial=0.0) <= 1e-13


def test_sandwich_broadcasts_a_stack_of_outer_factors(make_rng):
    # (N, 1, ...) factors against (N, T, d, ...) matrices, as in the retraction
    rng = make_rng(3)
    mats, X = ginibre(rng, (4, 5, 3, 2, 2)), ginibre(rng, (4, 1, 2, 2))
    got = _sandwich(X, mats, X.conj().swapaxes(-1, -2))
    want = np.einsum(SANDWICH, X, mats, X.conj().swapaxes(-1, -2))
    assert np.abs(got - want).max() <= 1e-13


def test_real_isometries_sandwich_complex_matrices(make_rng):
    rng = make_rng(5)
    delta, mats = rng.normal(size=(3, 2)), ginibre(rng, (4, 6, 2, 2))
    got = _sandwich(delta, mats, delta.T)
    assert got.dtype == complex
    assert np.abs(got - np.einsum(SANDWICH, delta, mats, delta.T)).max() <= 1e-13


@pytest.mark.parametrize("lead, d, a, b", STACKS)
def test_grams_match_the_einsum_oracles(make_rng, lead, d, a, b):
    mats = ginibre(make_rng(d * a * b), lead + (d, a, b))
    left, right = left_gram(mats), right_gram(mats)
    assert left.shape == lead + (b, b) and right.shape == lead + (a, a)
    assert np.abs(left - np.einsum(LEFT_GRAM, mats.conj(), mats)).max(initial=0.0) <= 1e-13
    assert np.abs(right - np.einsum(RIGHT_GRAM, mats, mats.conj())).max(initial=0.0) <= 1e-13


@pytest.mark.parametrize("lead, d, a, b", STACKS)
@pytest.mark.parametrize("weights", [None, "2d", "stacked"])
def test_transfer_kernel_matches_the_einsum_oracle(make_rng, lead, d, a, b, weights):
    rng = make_rng(d + 10 * a + 100 * b)
    K_a, K_b = ginibre(rng, lead + (d, a, a)), ginibre(rng, lead + (d, b, b))
    W = None if weights is None else ginibre(rng, (lead if weights == "stacked" else ()) + (d, d))
    right = K_b.conj() if W is None else np.einsum(WEIGHTED, W, K_b.conj())
    want = np.einsum(KERNEL, K_a, right).reshape(lead + (a * b, a * b))
    got = transfer_kernel(K_a, K_b, W)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-13


@pytest.mark.parametrize("lead, d, a, b", [s for s in STACKS if s[0] == (7,) or s[0] == (3,)])
def test_n1_calls_are_entry_0_of_a_stack_bit_for_bit(make_rng, lead, d, a, b):
    rng = make_rng(11)
    mats, other = ginibre(rng, lead + (d, a, a)), ginibre(rng, lead + (d, b, b))
    L, R, W = ginibre(rng, lead + (a, a)), ginibre(rng, lead + (a, a)), ginibre(rng, (d, d))
    assert bits(_sandwich(L[:1], mats[:1], R[:1])[0]) == bits(_sandwich(L, mats, R)[0])
    assert bits(_sandwich(L[0], mats[0], R[0])) == bits(_sandwich(L, mats, R)[0])
    assert bits(left_gram(mats[0])) == bits(left_gram(mats)[0])
    assert bits(right_gram(mats[0])) == bits(right_gram(mats)[0])
    assert bits(transfer_kernel(mats[0], other[0], W)) == bits(transfer_kernel(mats, other, W)[0])
