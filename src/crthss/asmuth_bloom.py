"""Flat (t, n) threshold sharing: ``dhss.deal`` and ``dhss.reconstruct``
with ``SchemeParams.scheme == "ab"`` on one level. This module holds no
code."""
