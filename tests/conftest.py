"""Shared pytest fixtures."""

import pytest

import bqsim.spectral


@pytest.fixture
def symmetry_checks(monkeypatch):
    """List that collects every field handed to `hermitian_defect` during the test."""
    calls = []
    original = bqsim.spectral.hermitian_defect

    def counted(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(bqsim.spectral, "hermitian_defect", counted)
    return calls
