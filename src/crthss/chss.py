"""Conjunctive sharing: ``dhss.deal`` and ``dhss.reconstruct`` with
``SchemeParams.scheme == "chss"``. This module holds no code."""
