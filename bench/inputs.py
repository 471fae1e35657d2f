"""Seeded raw inputs and independent output checks, in plain numpy.

Inputs are drawn here, not with mftk's own random constructors, so the
program under test receives only generated arrays and its outputs are
re-checked by code it does not share.
"""

from __future__ import annotations

import numpy as np

# Tolerances the program documents for each verdict; a re-check uses the same.
DILATION_TOL = 1e-9
LP_TOL = 1e-8
FIT_TOL = 1e-6
PROB_SUM_TOL = 1e-9


def ginibre(rng, d, count):
    return (rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d)))


def random_states(rng, d, count):
    """Stacked (count, d, d) Ginibre-induced density matrices."""
    g = ginibre(rng, d, count)
    rho = g @ np.conj(np.swapaxes(g, 1, 2))
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def random_povm(rng, d, n):
    """Stacked (n, d, d) effects: Ginibre blocks normalized by S^-1/2."""
    g = ginibre(rng, d, n)
    blocks = g @ np.conj(np.swapaxes(g, 1, 2))
    w, v = np.linalg.eigh(blocks.sum(axis=0))
    inv_root = (v / np.sqrt(w)) @ np.conj(v.T)
    effects = inv_root @ blocks @ inv_root
    return (effects + np.conj(np.swapaxes(effects, 1, 2))) / 2


def random_projective(rng, d):
    """Rank-one projectors onto the columns of a random unitary."""
    q, _ = np.linalg.qr(ginibre(rng, d, 1)[0])
    return np.einsum("ik,jk->kij", q, np.conj(q))


def random_stochastic(rng, n_out, n_in):
    """Column-stochastic (n_out, n_in) matrix with Dirichlet columns."""
    return rng.dirichlet(np.ones(n_out), size=n_in).T


def born(states, effects):
    """(n_states, n_effects) Born probabilities Tr(rho E)."""
    return np.einsum("mij,xji->mx", states, effects).real


# ------------------------------------------------------------------ checks

def is_stochastic(entries) -> bool:
    m = np.asarray(entries, dtype=float)
    return bool(m.min() >= -1e-12 and np.max(np.abs(m.sum(axis=0) - 1.0)) <= PROB_SUM_TOL)


def witness_gap(lam, z_effects, x_effects) -> float:
    """max |sum_z lam(x|z) Z_z - X_x|, entrywise."""
    rebuilt = np.einsum("xz,zij->xij", np.asarray(lam, dtype=float), z_effects)
    return float(np.max(np.abs(rebuilt - x_effects)))


def witness_holds(lam, z_effects, x_effects) -> bool:
    return is_stochastic(lam) and witness_gap(lam, z_effects, x_effects) <= LP_TOL


def induced_effects(sigma, kraus, pointer, d_s, d_t):
    """Z_z = Tr_S[(sigma (x) 1) Phi*(Y_z (x) 1)] for a Kraus-form channel."""
    eye_t = np.eye(d_t)
    prior = np.kron(sigma, eye_t)
    out = []
    for y in pointer:
        lifted = np.kron(y, eye_t)
        heis = sum(np.conj(k.T) @ lifted @ k for k in kraus)
        blocks = (prior @ heis).reshape(d_s, d_t, d_s, d_t)
        out.append(np.einsum("sasb->ab", blocks))
    return np.array(out)


def dilation_gap(spec_sigma, spec_kraus, spec_pointer, d_s, d_t, target) -> float:
    got = induced_effects(spec_sigma, spec_kraus, spec_pointer, d_s, d_t)
    return float(np.max(np.abs(got - target)))


def is_valid_model(states, effect_sets, tol=PROB_SUM_TOL) -> bool:
    """Unit-trace PSD states and complete PSD effect sets."""
    for rho in states:
        if abs(np.trace(rho).real - 1) > tol or np.linalg.eigvalsh(rho)[0] < -tol:
            return False
    for effects in effect_sets:
        d = effects.shape[1]
        if np.max(np.abs(effects.sum(axis=0) - np.eye(d))) > tol:
            return False
        if min(np.linalg.eigvalsh(e)[0] for e in effects) < -tol:
            return False
    return True


def model_gap(states, effect_sets, q_arrays) -> float:
    """Worst |Tr(rho_m E_kj) - q[k][m][j]| of a fitted model against its table."""
    return max(float(np.max(np.abs(born(states, effects) - q)))
               for effects, q in zip(effect_sets, q_arrays))
