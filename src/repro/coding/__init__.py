"""Error-correcting-code machinery for deterministic outgoing-edge detection.

The paper's first key technique (Section 4.2) replaces the random hash of the
Ahn--Guha--McGregor graph sketch with the parity-check matrix of a
Reed--Solomon-style code: the XOR sum of vertex labels over a vertex set S is
exactly the *syndrome* of the characteristic vector of the outgoing edge set
``∂(S)``, and recovering up to ``k`` outgoing edges is syndrome decoding of a
``k``-sparse error vector.

This subpackage implements that pipeline from scratch:

* :mod:`repro.coding.syndrome` — power-sum syndromes of sparse supports
  (the rows of the parity-check matrix, computed "locally" per edge).
* :mod:`repro.coding.berlekamp_massey` — the Berlekamp--Massey algorithm that
  turns syndromes into an error-locator polynomial.
* :mod:`repro.coding.rootfind` — deterministic root finding over GF(2^w) via
  the Frobenius map and trace splitting (no randomness anywhere).
* :mod:`repro.coding.rs_decoder` — the end-to-end ``k``-threshold sparse
  recovery used by the outdetect labeling scheme (Proposition 2), including
  verification (failure detection) and adaptive prefix decoding (Appendix B).
"""

from repro.coding.syndrome import SyndromeEncoder, xor_vectors
from repro.coding.berlekamp_massey import berlekamp_massey, berlekamp_massey_many
from repro.coding.rootfind import find_roots, find_roots_many
from repro.coding.rs_decoder import DecodeFailure, SparseRecoveryDecoder

__all__ = [
    "SyndromeEncoder",
    "xor_vectors",
    "berlekamp_massey",
    "berlekamp_massey_many",
    "find_roots",
    "find_roots_many",
    "DecodeFailure",
    "SparseRecoveryDecoder",
]
