"""Deterministic probe sets used by cross-checking routines and the CLI."""

from __future__ import annotations

import numpy as np

from .algebra import QuasiAlgebraInstance

DEFAULT_SEED = 0xA11CE


def random_probes(alg: QuasiAlgebraInstance, count: int, seed: int = DEFAULT_SEED):
    """Up to ``count`` seeded random elements, each scaled to unit Frobenius
    norm; a draw that is exactly zero is skipped."""
    # one draw, the same stream as a real and an imaginary part per probe in turn
    Z = np.random.default_rng(seed).standard_normal((max(count, 0), 2, alg.dim))
    out = []
    for re, im in Z:
        e = alg.element(re + 1j * im)
        nf = e.norm_frobenius()
        if nf > 0:
            out.append(e * (1.0 / nf))
    return out


def standard_probes(alg: QuasiAlgebraInstance, count: int = 32,
                    seed: int = DEFAULT_SEED):
    """Basis elements, the unit, seeded unit-size random elements, and the
    adjoints of all of the above, in a reproducible order."""
    probes = [alg.basis_element(i) for i in range(alg.dim)]
    probes.append(alg.unit)
    probes += random_probes(alg, count, seed)
    probes.extend([p.star() for p in list(probes)])
    return probes
