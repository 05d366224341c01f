"""Shared pytest fixtures."""

import inspect
import math

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
    """List that collects (name, length, lines) of every `numpy.fft` transform run during the
    test: the transform length (a tuple for an n-D transform) and the number of lines it runs
    along, the product of the axes it does not transform."""
    calls = []

    def counting(name, original):
        signature = inspect.signature(original)

        def counted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            given, shape = bound.arguments, np.shape(bound.arguments["a"])
            if "axis" in given:
                axes, lengths = [given["axis"]], [given["n"]]
            else:
                axes = given["axes"] or range(-len(given["s"] or shape), 0)
                lengths = given["s"] or [None] * len(axes)
            axes = [axis % len(shape) for axis in axes]
            length = tuple(n or shape[axis] for n, axis in zip(lengths, axes))
            lines = math.prod(size for axis, size in enumerate(shape) if axis not in axes)
            calls.append((name, length[0] if len(length) == 1 else length, lines))
            return original(*args, **kwargs)

        return counted

    for name in FFT_FUNCTIONS:
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    return calls
