"""Post-processing algorithms (the third AIS31 block of Fig. 1).

The post-processing block applies a deterministic algorithm to the raw binary
sequence, either to increase its entropy per bit (algebraic post-processing)
or to provide cryptographic robustness.  The classical algebraic schemes are
implemented here; ``tests/trng/test_postprocessing.py`` checks how much bias
each one removes from independent input bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def _as_bit_array(bits: Sequence[int] | np.ndarray) -> np.ndarray:
    array = np.asarray(bits)
    if array.ndim != 1:
        raise ValueError("bit sequences must be one-dimensional")
    if array.size and not np.all((array == 0) | (array == 1)):
        raise ValueError("bit sequences may only contain 0 and 1")
    return array.astype(np.int8)


def von_neumann(bits: Sequence[int] | np.ndarray) -> np.ndarray:
    """Von Neumann unbiasing: map 01 -> 0, 10 -> 1, drop 00 and 11.

    The output of a von Neumann corrector is exactly unbiased whenever the
    input bits are independent (even if biased); with *dependent* input bits —
    precisely the situation the paper warns about — the guarantee no longer
    holds, which the test-suite demonstrates.
    """
    array = _as_bit_array(bits)
    usable = array.size - (array.size % 2)
    pairs = array[:usable].reshape(-1, 2)
    keep = pairs[:, 0] != pairs[:, 1]
    return pairs[keep, 1].astype(np.int8)


def xor_decimation(bits: Sequence[int] | np.ndarray, factor: int) -> np.ndarray:
    """Parity (XOR) of consecutive non-overlapping blocks of ``factor`` bits.

    XORing ``k`` independent bits with bias ``b`` yields a bit with bias
    ``b^k / 2^{k-1}``-ish (piling-up lemma), so decimation trades throughput
    for entropy per bit.
    """
    if factor < 1:
        raise ValueError("decimation factor must be >= 1")
    array = _as_bit_array(bits)
    usable = array.size - (array.size % factor)
    if usable == 0:
        return np.empty(0, dtype=np.int8)
    blocks = array[:usable].reshape(-1, factor)
    return (np.sum(blocks, axis=1) % 2).astype(np.int8)


def parity_filter(bits: Sequence[int] | np.ndarray, order: int = 2) -> np.ndarray:
    """Sliding-parity filter: output bit ``i`` is the XOR of input bits ``i..i+order-1``.

    Unlike :func:`xor_decimation`, the output rate equals the input rate; the
    filter only whitens short-range correlation, it cannot create entropy.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    array = _as_bit_array(bits)
    if array.size < order:
        return np.empty(0, dtype=np.int8)
    windows = np.lib.stride_tricks.sliding_window_view(array, order)
    return (np.sum(windows, axis=1) % 2).astype(np.int8)


@dataclass
class LFSRWhitener:
    """Linear-feedback shift register used as a cryptographic-style whitener.

    The raw bits are XORed into the feedback path of an LFSR and the register
    output is taken as the post-processed stream.  This mimics the simple
    "mixing" post-processing used by several industrial TRNGs; being linear it
    provides no entropy gain, only spreading.
    """

    taps: Sequence[int]
    state: int = 1

    def __post_init__(self) -> None:
        if not self.taps:
            raise ValueError("at least one tap is required")
        if min(self.taps) < 1:
            raise ValueError("tap positions are 1-based and must be >= 1")
        self.length = max(self.taps)
        if self.state <= 0:
            raise ValueError("initial state must be a positive integer")
        self.state &= (1 << self.length) - 1
        if self.state == 0:
            self.state = 1

    def process(self, bits: Sequence[int] | np.ndarray) -> np.ndarray:
        """Feed ``bits`` through the LFSR and return the output stream."""
        array = _as_bit_array(bits)
        output = np.empty(array.size, dtype=np.int8)
        state = self.state
        mask = (1 << self.length) - 1
        for index, bit in enumerate(array):
            feedback = 0
            for tap in self.taps:
                feedback ^= (state >> (tap - 1)) & 1
            feedback ^= int(bit)
            state = ((state << 1) | feedback) & mask
            output[index] = state & 1
        self.state = state
        return output


def bias(bits: Sequence[int] | np.ndarray) -> float:
    """Bias ``P(1) - 1/2`` of a bit sequence."""
    array = _as_bit_array(bits)
    if array.size == 0:
        raise ValueError("cannot compute the bias of an empty sequence")
    return float(np.mean(array) - 0.5)
