"""Matrix-valued potentials built from pair terms, and their eigen machinery.

Built-in models are sums of scalar pair functions over the canonical pair
ordering, which makes them rigid-motion invariant by construction.  The
per-particle split assigns half of every pair term to each endpoint.

``PairSumPotential`` works in one pass per configuration.  The pair index
arrays and two (N, P) incidence matrices over the P pairs are built once,
in ``__init__``.  A call computes the pair vectors once and calls each
distinct pair function once (an entry repeated in the matrix, or inside a
``SumPair``, is shared), which gives a (d, d, P) table.  One product with
an incidence matrix then turns the table into every per-particle quantity
at once:

- ``evaluate_parts``: V and all parts V^n, (N, d, d), through the
  unsigned incidence;
- ``deriv``: dV/dx^m through the signed incidence, (N, 3, d, d);
- ``part_deriv_all``: all dV^n/dx^m, (N, N, 3, d, d): half of ``deriv``
  on the diagonal, and off it the single pair term that couples n and m;
- ``hessian``: all d^2V/dx^n dx^m, (N, 3, N, 3, d, d), from the pair
  functions' ``curv`` through both signed incidences at once.

``part`` is a view of one row of ``evaluate_parts``.  The share partition
and the per-particle gradients are single einsums over the stacked parts,
with no loop over particles.

Every method of ``PairSumPotential`` and every eigen function below also
takes a stack of configurations (a leading axis of K items) in one call.
Each item's arithmetic is that of a single call, so item k of a stacked
call equals the single call on item k bit for bit, and an error names the
first failing item ("item k: ...").
"""

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import (CoincidentPointsError, DegenerateSpectrumError,
                     InvalidParameterError, item_label)

GAP_TOL = 1e-10


# ---------------------------------------------------------------------------
# scalar pair functions

class PairFunction:
    """Scalar function of a pair distance with analytic derivatives."""

    def value(self, r):
        raise NotImplementedError

    def deriv(self, r):
        raise NotImplementedError

    def curv(self, r):
        raise NotImplementedError


class Constant(PairFunction):
    def __init__(self, c):
        self.c = float(c)

    def value(self, r):
        return np.full_like(np.asarray(r, dtype=float), self.c)

    def deriv(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))

    curv = deriv


class Harmonic(PairFunction):
    """kappa (r - r0)^2 / 2."""

    def __init__(self, kappa, r0):
        if kappa <= 0 or r0 <= 0:
            raise InvalidParameterError("harmonic pair needs kappa, r0 > 0")
        self.kappa = float(kappa)
        self.r0 = float(r0)

    def value(self, r):
        return 0.5 * self.kappa * (np.asarray(r, dtype=float) - self.r0) ** 2

    def deriv(self, r):
        return self.kappa * (np.asarray(r, dtype=float) - self.r0)

    def curv(self, r):
        return np.full_like(np.asarray(r, dtype=float), self.kappa)


class Morse(PairFunction):
    """D (1 - exp(-a (r - r0)))^2 - D."""

    def __init__(self, d, a, r0):
        if d <= 0 or a <= 0 or r0 <= 0:
            raise InvalidParameterError("Morse pair needs D, a, r0 > 0")
        self.d = float(d)
        self.a = float(a)
        self.r0 = float(r0)

    def value(self, r):
        e = np.exp(-self.a * (np.asarray(r, dtype=float) - self.r0))
        return self.d * (1.0 - e) ** 2 - self.d

    def deriv(self, r):
        e = np.exp(-self.a * (np.asarray(r, dtype=float) - self.r0))
        return 2.0 * self.d * self.a * e * (1.0 - e)

    def curv(self, r):
        e = np.exp(-self.a * (np.asarray(r, dtype=float) - self.r0))
        return 2.0 * self.d * self.a ** 2 * e * (2.0 * e - 1.0)


class LennardJones(PairFunction):
    """4 eps ((s/r)^12 - (s/r)^6), continued quadratically below r_inner.

    The inner continuation keeps values and derivatives bounded so sampling
    and lifting stay well conditioned at close encounters.
    """

    def __init__(self, eps, sigma, r_inner=None):
        if eps <= 0 or sigma <= 0:
            raise InvalidParameterError("LJ pair needs eps, sigma > 0")
        self.eps = float(eps)
        self.sigma = float(sigma)
        self.r_inner = float(r_inner) if r_inner is not None else 0.8 * sigma
        ri = self.r_inner
        self._v0 = self._raw(ri)
        self._d0 = self._raw_deriv(ri)
        # curvature of the smooth continuation matched at r_inner
        self._c0 = self._raw_curv(ri)

    def _raw(self, r):
        s6 = (self.sigma / r) ** 6
        return 4.0 * self.eps * (s6 ** 2 - s6)

    def _raw_deriv(self, r):
        s6 = (self.sigma / r) ** 6
        return 4.0 * self.eps * (-12.0 * s6 ** 2 + 6.0 * s6) / r

    def _raw_curv(self, r):
        s6 = (self.sigma / r) ** 6
        return 4.0 * self.eps * (156.0 * s6 ** 2 - 42.0 * s6) / r ** 2

    def value(self, r):
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        lo = r < self.r_inner
        dr = r[lo] - self.r_inner
        out[lo] = self._v0 + self._d0 * dr + 0.5 * self._c0 * dr ** 2
        out[~lo] = self._raw(r[~lo])
        return out

    def deriv(self, r):
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        lo = r < self.r_inner
        out[lo] = self._d0 + self._c0 * (r[lo] - self.r_inner)
        out[~lo] = self._raw_deriv(r[~lo])
        return out

    def curv(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r < self.r_inner, self._c0,
                        self._raw_curv(np.maximum(r, self.r_inner)))


class GaussianCoupling(PairFunction):
    """c0 exp(-((r - rc)/w)^2), the off-diagonal coupling profile."""

    def __init__(self, c0, rc, w):
        if w <= 0:
            raise InvalidParameterError("coupling width must be positive")
        self.c0 = float(c0)
        self.rc = float(rc)
        self.w = float(w)

    def value(self, r):
        z = (np.asarray(r, dtype=float) - self.rc) / self.w
        return self.c0 * np.exp(-z ** 2)

    def deriv(self, r):
        r = np.asarray(r, dtype=float)
        z = (r - self.rc) / self.w
        return -2.0 * z / self.w * self.c0 * np.exp(-z ** 2)

    def curv(self, r):
        z = (np.asarray(r, dtype=float) - self.rc) / self.w
        return (4.0 * z ** 2 - 2.0) / self.w ** 2 * self.c0 * np.exp(-z ** 2)


class SumPair(PairFunction):
    def __init__(self, *terms):
        self.terms = terms

    def value(self, r):
        return sum(t.value(r) for t in self.terms)

    def deriv(self, r):
        return sum(t.deriv(r) for t in self.terms)

    def curv(self, r):
        return sum(t.curv(r) for t in self.terms)


# ---------------------------------------------------------------------------
# matrix potentials

class PairSumPotential:
    """V(x) = sum over pairs of a fixed symmetric matrix of pair functions.

    A Hermitian d x d potential of an (N, 3) configuration.
    ``evaluate_parts`` returns V together with every per-particle part V^n,
    shaped ``(N, d, d)``.  ``deriv`` returns all coordinate derivatives of V
    at once, shaped ``(N, 3, d, d)``; ``part_deriv_all`` those of every V^n,
    shaped ``(N, N, 3, d, d)`` and indexed [n, m, c].

    ``n_particles`` is fixed: every method takes an ``(n_particles, 3)``
    configuration, or a stack (K, n_particles, 3) that puts K in front of
    every output shape.
    """

    def __init__(self, entries, n_particles):
        """``entries``: d x d nested list of PairFunction or None, symmetric."""
        self.entries = entries
        self.d = len(entries)
        if n_particles < 2:
            raise InvalidParameterError("need at least two particles")
        n = self.n_particles = int(n_particles)
        self._iu, self._ju = geometry.pair_indices(n)
        npair = len(self._iu)
        cols = np.arange(npair)
        # sign[n, p] is +1 / -1 at the first / second endpoint of pair p, so
        # that grad_{x^n} r^p = sign[n, p] e^p with e^p the unit pair
        # vector; touch[n, p] = 1 if particle n is an endpoint of pair p
        self._sign = np.zeros((n, npair))
        self._sign[self._iu, cols] = 1.0
        self._sign[self._ju, cols] = -1.0
        self._touch = np.abs(self._sign)
        # distinct pair functions (SumPair flattened into its terms) and,
        # per nonzero entry, the functions it sums
        self._funcs = []
        self._slots = []
        for a, row in enumerate(entries):
            for b, f in enumerate(row):
                if f is not None:
                    self._slots.append((a, b, self._func_ids(f)))

    def _func_ids(self, f):
        if isinstance(f, SumPair):
            return [i for t in f.terms for i in self._func_ids(t)]
        for i, g in enumerate(self._funcs):
            if g is f:
                return [i]
        self._funcs.append(f)
        return [len(self._funcs) - 1]

    def _table(self, r, method):
        """(..., d, d, P) array of entry values or derivatives at distances
        r (..., P), calling each distinct pair function once."""
        vals = [getattr(f, method)(r) for f in self._funcs]
        out = np.zeros(r.shape[:-1] + (self.d, self.d, r.shape[-1]))
        for a, b, ids in self._slots:
            out[..., a, b, :] = vals[ids[0]] if len(ids) == 1 \
                else sum(vals[i] for i in ids)
        return out

    def _pair_vectors(self, x):
        """Pair vectors (..., P, 3) and distances (..., P) of one
        configuration or a stack of them."""
        x = np.asarray(x, dtype=float)
        if x.shape[-2:] != (self.n_particles, 3):
            raise InvalidParameterError(
                f"expected a ({self.n_particles}, 3) configuration, "
                f"got {x.shape}")
        diff = x[..., self._iu, :] - x[..., self._ju, :]
        # what np.linalg.norm(diff, axis=-1) computes, without its overhead
        return diff, np.sqrt(np.add.reduce(diff * diff, axis=-1))

    def _unit_vectors(self, x):
        """Unit pair vectors e^p (..., P, 3) and distances r (..., P) of one
        configuration or a stack of them.

        Raises
        ------
        CoincidentPointsError
            If two particles coincide; for a stack, the message names the
            first such item.
        """
        diff, r = self._pair_vectors(x)
        if r.ndim > 2:
            raise InvalidParameterError(
                f"expected a ({self.n_particles}, 3) configuration or a "
                f"stack of them, got {np.shape(x)}")
        hit = r == 0.0
        if hit.any():
            *item, bad = np.argwhere(hit)[0]
            raise CoincidentPointsError(
                f"{item_label(item[0] if item else None)}particles "
                f"{self._iu[bad]} and {self._ju[bad]} coincide")
        return diff / r[..., None], r

    def _deriv_terms(self, x):
        """Per-pair e^p dphi_p, flattened to (..., P, 3 d d)."""
        e, r = self._unit_vectors(x)
        dvals = _pair_first(self._table(r, "deriv"))
        terms = e[..., None, None] * dvals[..., None, :, :]
        return terms.reshape(r.shape + (-1,))

    def evaluate(self, x):
        _, r = self._pair_vectors(x)
        return self._table(r, "value").sum(axis=-1)

    def evaluate_parts(self, x):
        """V and all per-particle parts V^n, shapes (d, d) and (N, d, d);
        a stack x (K, N, 3) gives (K, d, d) and (K, N, d, d)."""
        _, r = self._pair_vectors(x)
        vals = self._table(r, "value")
        lead, d = r.shape[:-1], self.d
        flat = vals.reshape(lead + (d * d, -1))
        parts = 0.5 * (self._touch @ np.swapaxes(flat, -1, -2))
        return vals.sum(axis=-1), parts.reshape(lead + (-1, d, d))

    def part(self, x, n):
        return self.evaluate_parts(x)[1][n]

    def deriv(self, x):
        terms = self._deriv_terms(x)
        n, d = self.n_particles, self.d
        return (self._sign @ terms).reshape(terms.shape[:-2] + (n, 3, d, d))

    def hessian(self, x):
        """All d^2 V / dx^n_a dx^m_b, (..., N, 3, N, 3, d, d): pair p adds
        e e^T phi'' + (I - e e^T) phi' / r times sign[n, p] sign[m, p]."""
        e, r = self._unit_vectors(x)
        ee = (e[..., :, None] * e[..., None, :])[..., None, None]
        curv = _pair_first(self._table(r, "curv"))[..., None, None, :, :]
        slope = _pair_first(self._table(r, "deriv")
                            / r[..., None, None, :])[..., None, None, :, :]
        terms = ee * (curv - slope) + np.eye(3)[:, :, None, None] * slope
        return np.einsum("np,mp,...pabij->...nambij", self._sign, self._sign,
                         terms)

    def part_deriv_all(self, x):
        """All d V^n / d x^m, shape (..., N, N, 3, d, d) indexed [n, m, c].

        V^n holds half of each pair term at n, so for m != n only pair
        (n, m) contributes, and the diagonal block is half of dV/dx^n.
        """
        n, d = self.n_particles, self.d
        terms = self._deriv_terms(x)
        lead = terms.shape[:-2]
        out = np.zeros(lead + (n, n, terms.shape[-1]))
        out[..., self._iu, self._ju, :] = -0.5 * terms
        out[..., self._ju, self._iu, :] = 0.5 * terms
        diag = np.arange(n)
        out[..., diag, diag, :] = 0.5 * (self._sign @ terms)
        return out.reshape(lead + (n, n, 3, d, d))


def _pair_first(table):
    """A (..., d, d, P) table of pair terms as (..., P, d, d)."""
    return table.transpose(*range(table.ndim - 3), -1, -3, -2)


def make_scalar_pair_model(pair, n_particles):
    """Scalar (d=1) potential V(x) = sum over pairs of ``pair``."""
    return PairSumPotential([[pair]], n_particles)


def make_two_state_model(phi1, gap, coupling, n_particles):
    """Two-state model [[sum phi1, sum c], [sum c, sum phi1 + gap]].

    ``gap`` is the constant per-pair diagonal offset and must be positive so
    the eigenvalue gap stays bounded below.
    """
    if gap <= 0:
        raise InvalidParameterError("two-state gap must be positive")
    phi2 = SumPair(phi1, Constant(gap))
    entries = [[phi1, coupling], [coupling, phi2]]
    return PairSumPotential(entries, n_particles)


# ---------------------------------------------------------------------------
# eigen machinery

@dataclass
class EigenData:
    """Ascending eigenvalues, sign-fixed unitary eigenvectors, smallest gap.

    For a stack of K matrices: lambdas (K, d), psi (K, d, d) and gap_min
    (K,), one entry per item.
    """

    lambdas: np.ndarray
    psi: np.ndarray
    gap_min: float


def _fix_signs(psi):
    """Make each column's largest-magnitude entry real-positive, per item
    of a stack (..., d, d); a complex stack is made real only when every
    item is real."""
    d = psi.shape[-1]
    items = psi.reshape(-1, d, d)
    rows = np.argmax(np.abs(items), axis=1)
    lead = items[np.arange(len(items))[:, None], rows, np.arange(d)]
    psi = psi / (lead / np.abs(lead)).reshape(psi.shape[:-2] + (1, d))
    if np.isrealobj(psi) or np.allclose(psi.imag, 0.0):
        psi = psi.real.astype(float, copy=False)
    return psi


def _gap_min(lam, gap_tol, items):
    """The smallest adjacent gap of ascending eigenvalues (..., d): a float
    for one spectrum (d,), one entry per item of a stack (K, d).

    Raises
    ------
    DegenerateSpectrumError
        If a gap falls below ``gap_tol``; for a stack, the message names
        the first such item, by ``items[k]`` when ``items`` is given.
    """
    if lam.shape[-1] > 1:
        gap_min = (lam[..., 1:] - lam[..., :-1]).min(axis=-1)
        low = gap_min < gap_tol
        if low.any():
            k = int(np.flatnonzero(low)[0])
            name = None if lam.ndim == 1 else k if items is None else items[k]
            raise DegenerateSpectrumError(
                f"{item_label(name)}adjacent eigenvalue gap "
                f"{gap_min.flat[k]:.3e} below {gap_tol:.1e}")
    else:
        gap_min = np.full(lam.shape[:-1], np.inf)
    return float(gap_min) if lam.ndim == 1 else gap_min


def eigenvalues(v, gap_tol=GAP_TOL):
    """Ascending eigenvalues of a Hermitian matrix (d, d), (d,), or of a
    stack (K, d, d), (K, d), with the gap check of ``eigendecompose``.

    ``eigvalsh`` runs a different LAPACK path from ``eigh``, so these can
    differ from ``eigendecompose(v).lambdas`` by a few ulp.

    Raises
    ------
    DegenerateSpectrumError
        As ``eigendecompose`` does; a stack's item is named by its index.
    """
    lam = np.linalg.eigvalsh(v)
    _gap_min(lam, gap_tol, None)
    return lam


def eigendecompose(v, gap_tol=GAP_TOL, items=None):
    """Eigenpairs of a Hermitian matrix with deterministic sign fixing.

    ``v`` is one (d, d) matrix or a stack (K, d, d); the sign fix and the
    gap check apply per item.  ``items`` names a stack's items in the error
    message (default: their indices; a None entry adds no name).

    Raises
    ------
    DegenerateSpectrumError
        If an adjacent eigenvalue gap falls below ``gap_tol``; for a stack,
        the message names the first such item.
    """
    lam, psi = np.linalg.eigh(v)
    gap_min = _gap_min(lam, gap_tol, items)
    return EigenData(lambdas=lam, psi=_fix_signs(psi), gap_min=gap_min)


def shares_from_parts(parts, psi):
    """Shares <psi_k, V^n psi_k> of per-particle parts (N, d, d), (N, d);
    stacks (K, N, d, d) and (K, d, d) give (K, N, d)."""
    return np.real(np.einsum("...ik,...nij,...jk->...nk", psi.conj(), parts,
                             psi))


def surface_partition(v_pot, x, eig):
    """Per-particle eigenvalue shares lambda_k^n = <psi_k, V^n psi_k>, (N, d)."""
    return shares_from_parts(v_pot.evaluate_parts(x)[1], eig.psi)


def inverse_gaps(lam):
    """W[l, k] = 1 / (lam_k - lam_l) off the diagonal and 0 on it, (..., d, d)
    for eigenvalues (..., d)."""
    denom = lam[..., None, :] - lam[..., :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.eye(lam.shape[-1], dtype=bool), 0.0, 1.0 / denom)


def eigenvector_derivatives(dv, lam, psi):
    """First-order eigenvector derivatives for derivative matrices ``dv``.

    ``lam`` (..., d) and ``psi`` (..., d, d) are one eigensystem or a stack
    of them; ``dv`` carries the same leading axes, then any coordinate axes
    and (d, d), e.g. ``v_pot.deriv(x)``.  Returns the shape of ``dv``.
    Uses the perturbation formula d psi_k = sum_{l != k} psi_l
    <psi_l|dV|psi_k> / (lambda_k - lambda_l): column k of each (d, d) slice
    is the derivative of psi_k with the psi_k-component removed (the
    normalization gauge).
    """
    d = lam.shape[-1]
    if d == 1:
        return np.zeros(dv.shape, dtype=psi.dtype)
    flat = dv.reshape(lam.shape[:-1] + (-1, d, d))
    c = np.einsum("...il,...cij,...jk->...clk", psi.conj(), flat, psi)
    c *= inverse_gaps(lam)[..., None, :, :]
    return np.einsum("...il,...clk->...cik", psi, c).reshape(dv.shape)


def surface_gradient(dv, eig, k):
    """Hellmann-Feynman gradient of lambda_k, shape (..., N, 3), from the
    derivatives ``dv`` = ``v_pot.deriv(x)``."""
    psi_k = eig.psi[..., :, k]
    return np.real(np.einsum("...i,...ncij,...j->...nc",
                             psi_k.conj(), dv, psi_k))


def per_particle_gradients_all(v_pot, x, parts, dv, eig, k):
    """grad_{x^m} lambda_k^n for all (n, m), shape (..., N, N, 3).

    ``parts`` and ``dv`` are ``v_pot.evaluate_parts(x)[1]`` and
    ``v_pot.deriv(x)``, which the caller already holds.
    """
    dparts = v_pot.part_deriv_all(x)  # (..., N, N, 3, d, d)
    dpsi_k = eigenvector_derivatives(dv, eig.lambdas, eig.psi)[..., k]
    psi_k = eig.psi[..., :, k]
    term1 = np.real(np.einsum("...i,...nmcij,...j->...nmc",
                              psi_k.conj(), dparts, psi_k))
    # (d_i psi_k)* V^n psi_k + psi_k* V^n (d_i psi_k) = 2 Re(psi_k* V^n d_i psi_k)
    term2 = 2.0 * np.real(np.einsum("...i,...nij,...mcj->...nmc",
                                    psi_k.conj(), parts, dpsi_k))
    return term1 + term2
