"""QkNN-classified discretely-modulated CVQKD simulator.

Subpackages:
- ``qsim``: dense state-vector simulator (gates, comparator, swap test,
  measurement).
- ``qknn``: quantum k-nearest-neighbor classifier (amplitude encoding,
  similarity estimation, Grover k-maximal finding) plus the classical
  baseline.
- ``optics``: N-PSK coherent-state modulation, lossy channel, heterodyne
  detection and distance features.
- ``secrate``: asymptotic secret-key rates for conventional and
  classifier-assisted discretely-modulated CVQKD.
- ``metrics``: confusion/precision/ROC metrics and operation-count models.
"""

__version__ = "0.1.0"
