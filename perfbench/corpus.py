"""Seeded corpus of provably valid (instance, family) pairs, as raw arrays.

The construction follows the library's own test corpus, but lives here so
that edits to the tests cannot change the workload.  The span is the
block-diagonal subalgebra (identity plus the within-block matrix units,
minus the top-left unit which the identity replaces) plus the units of a
symmetric set of off-diagonal block rectangles; that pattern is closed
under both module actions and the involution.  Seed forms are rank-one
vector states whose vector is nonzero in every block, so each seed is
dense and the depth-one twist closure separates points.  An optional
unitary conjugation and a mild mixing of the non-subalgebra basis
elements rough up the coordinates without changing any of that.

Each slot fixes the block pattern and which basis elements are mixed, so
the work an operation does, and every discrete answer it gives, does not
depend on the seed.  The seed draws every number: the unitary, the mixing
weights and the seed vectors.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Slot:
    """The shape of one corpus pair; the seed supplies the numbers."""

    name: str
    n: int
    blocks: tuple
    links: tuple          # off-diagonal block pairs (p, q), p < q
    conjugate: bool
    mix: bool
    n_seeds: int
    as_gram: bool


@dataclass(frozen=True)
class RawPair:
    """Plain arrays from which an operation builds its objects afresh."""

    slot: Slot
    basis: np.ndarray     # (d, n, n) complex
    a0_indices: tuple
    seed_states: tuple    # (n, n) vector-state weight matrices


GASTAR_SLOTS = (
    Slot("n4-two-blocks-linked", 4, ((0, 1), (2, 3)), ((0, 1),),
         conjugate=True, mix=True, n_seeds=1, as_gram=False),
    Slot("n4-split-unit-two-seeds", 4, ((0,), (1, 2, 3)), (),
         conjugate=False, mix=False, n_seeds=2, as_gram=False),
    Slot("n4-full-gram", 4, ((0, 1, 2, 3),), (),
         conjugate=True, mix=False, n_seeds=1, as_gram=True),
    Slot("n6-three-blocks-linked", 6, ((0, 1), (2, 3), (4, 5)), ((0, 2),),
         conjugate=True, mix=True, n_seeds=1, as_gram=False),
    Slot("n6-split-unit-gram", 6, ((0,), (1, 2, 3), (4, 5)), ((1, 2),),
         conjugate=False, mix=True, n_seeds=1, as_gram=True),
)

INTAKE_SLOTS = (
    Slot("n8-three-blocks-linked", 8, ((0, 1, 2), (3, 4, 5), (6, 7)), ((0, 1),),
         conjugate=True, mix=True, n_seeds=1, as_gram=False),
    Slot("n8-split-unit-two-seeds", 8, ((0,), (1, 2, 3), (4, 5, 6, 7)), ((0, 1),),
         conjugate=False, mix=True, n_seeds=2, as_gram=False),
    Slot("n8-three-blocks-gram", 8, ((0, 1, 2), (3, 4), (5, 6, 7)), ((0, 2),),
         conjugate=True, mix=False, n_seeds=1, as_gram=True),
)


def make_pair(rng: np.random.Generator, slot: Slot) -> RawPair:
    n = slot.n
    U = np.eye(n, dtype=complex)
    if slot.conjugate:
        Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        U, _ = np.linalg.qr(Z)

    def unit_mat(i, j):
        E = np.zeros((n, n), dtype=complex)
        E[i, j] = 1.0
        return U @ E @ U.conj().T

    pairs = {(p, p) for p in range(len(slot.blocks))}
    for p, q in slot.links:
        pairs.update({(p, q), (q, p)})
    basis = [np.eye(n, dtype=complex)]
    a0 = [0]
    for p, q in sorted(pairs):
        for i in slot.blocks[p]:
            for j in slot.blocks[q]:
                if (i, j) == (0, 0):
                    continue
                basis.append(unit_mat(i, j))
                if p == q:
                    a0.append(len(basis) - 1)

    if slot.mix:
        a0_set = set(a0)
        free = [k for k in range(1, len(basis)) if k not in a0_set]
        # each element takes in a little of the next one; the weights are
        # drawn, the partners are not, because which weak products resolve
        # (and so how much work ga_star_check does) depends on the partners
        for i, k in enumerate(free):
            other = free[(i + 1) % len(free)]
            basis[k] = basis[k] + 0.15 * float(rng.random()) * basis[other]

    states = []
    for _ in range(slot.n_seeds):
        xi = np.zeros(n, dtype=complex)
        for blk in slot.blocks:
            while True:
                v = rng.standard_normal(len(blk)) + 1j * rng.standard_normal(len(blk))
                if np.linalg.norm(v) > 0.3:
                    break
            xi[list(blk)] = v / np.linalg.norm(v)
        xi = (U @ xi).reshape(-1, 1)
        states.append(xi @ xi.conj().T)
    return RawPair(slot, np.array(basis), tuple(a0), tuple(states))


def make_pairs(seed: int, slots) -> list:
    rng = np.random.default_rng(seed)
    return [make_pair(rng, slot) for slot in slots]


def build(qstarlab, raw: RawPair):
    """Fresh instance and balanced family from the raw arrays."""
    inst = qstarlab.QuasiAlgebraInstance(list(raw.basis), raw.a0_indices, 0,
                                         label=raw.slot.name)
    gens = []
    for s, S in enumerate(raw.seed_states):
        phi = qstarlab.IpsForm("vector_state", S, label=f"xi{s}")
        if raw.slot.as_gram:
            phi = qstarlab.IpsForm("gram", phi.gram(inst), label=f"xi{s}g")
        gens.append(phi)
    return inst, qstarlab.FormFamily(gens, balanced=True, label=raw.slot.name)


def digest(pairs) -> str:
    h = hashlib.sha256()
    for raw in pairs:
        h.update(raw.slot.name.encode())
        h.update(np.ascontiguousarray(raw.basis).tobytes())
        h.update(repr(raw.a0_indices).encode())
        for S in raw.seed_states:
            h.update(np.ascontiguousarray(S).tobytes())
    return h.hexdigest()
