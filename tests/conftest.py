"""Shared pytest fixtures."""

import numpy as np
import pytest

import bqsim.spectral

FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                 "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft")


@pytest.fixture
def symmetry_checks(monkeypatch):
    """List that collects every coefficient array handed to `hermitian_defect` during the
    test: the `SpectralField` constructor hands it the array the new field keeps."""
    calls = []
    original = bqsim.spectral.hermitian_defect

    def counted(c):
        calls.append(c)
        return original(c)

    monkeypatch.setattr(bqsim.spectral, "hermitian_defect", counted)
    return calls


@pytest.fixture
def fft_calls(monkeypatch):
    """List that collects the name of every `numpy.fft` transform run during the test."""
    calls = []

    def counting(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return counted

    for name in FFT_FUNCTIONS:
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    return calls
