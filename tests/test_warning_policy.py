"""The pytest configuration turns repro's own deprecations into errors."""

import warnings

import pytest


def test_deprecation_from_repro_is_an_error():
    with pytest.raises(DeprecationWarning):
        warnings.warn_explicit(
            "retired", DeprecationWarning, "shim.py", 1, module="repro.core.shim"
        )
