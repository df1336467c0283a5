"""Desk-scale 1D quantum checks of the classical-limit structure.

Works in mass-scaled units with effective Planck constant
``hbar = M^{-1/2}``: Weyl quantization of low-degree phase-space symbols,
fourth-order (Yoshida) split-step propagation (scalar and 2x2 matrix
potentials), reduction of commutators to Poisson brackets, and the O(1/M)
accuracy of classical expectation values along the flow.
"""

from math import comb

import numpy as np

from .errors import (GridTooLargeError, InvalidParameterError, PhysicsError,
                     ResolutionError, UnsupportedSymbolError)

MAX_DENSE_N = 1024
NYQUIST_FRACTION = 0.8
NYQUIST_MASS_TOL = 1e-10
PUBLIC_DEGREE = 2
INTERNAL_DEGREE = 3
CLOUD_NODES = 24  # Gauss-Hermite nodes per axis of the Wigner cloud
# largest RK4 step of the cloud's classical flow: RK4 is fourth order, and
# at 1e-2 the cloud averages of the egorov study sit within 1e-12 of those
# at 1e-3, far below its smallest error (3.7e-9); ``egorov_test`` checks
# each mass by a rerun at twice the step, as it checks the split step
CLOUD_DT = 1e-2
# largest split step, in units of hbar^(1/2).  The splitting error of an
# observable stays bounded as hbar -> 0 (Lasser & Lubich, "Computing quantum
# dynamics in the semiclassical regime", Acta Numerica 29 (2020) 229), so
# the fourth-order step errs by about dt^4; holding that to a fixed share of
# the O(hbar^2) Egorov error needs dt ~ hbar^(1/2).  0.2 * 0.1^(1/2) keeps
# the step 0.2 hbar at M = 100 (hbar = 0.1)
SPLIT_STEP = 0.2 * 0.1 ** 0.5
# largest |q(dt) - q(2 dt)| and |c(dt) - c(2 dt)| per unit Egorov error
STEP_CHECK_TOL = 0.01
# Yoshida's triple jump: S(W1 dt) S(W0 dt) S(W1 dt) of the Strang step S is
# fourth order
W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
W0 = 1.0 - 2.0 * W1


def hbar_eff(mass):
    """Effective Planck constant M^{-1/2} of the mass-scaled model."""
    if mass <= 0:
        raise InvalidParameterError("mass must be positive")
    return float(mass) ** -0.5


class QuantumGrid:
    """Uniform periodic grid on [x0, x0 + length)."""

    def __init__(self, x0, length, n):
        if n < 4 or length <= 0:
            raise InvalidParameterError("need n >= 4 and length > 0")
        self.x0 = float(x0)
        self.length = float(length)
        self.n = int(n)
        self.dx = self.length / self.n
        self.x = self.x0 + self.dx * np.arange(self.n)
        self.k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @property
    def k_max(self):
        return np.pi / self.dx

    def norm(self, psi):
        return float(np.sqrt(np.sum(np.abs(psi) ** 2) * self.dx))


def gaussian_packet(grid, center, momentum, width, hbar):
    """Normalized Gaussian wavepacket exp(-(x-c)^2/4w^2 + i p x / hbar)."""
    if width <= 0:
        raise InvalidParameterError("width must be positive")
    k_pack = (abs(momentum) + 5.0 * hbar / (2.0 * width)) / hbar
    if k_pack > NYQUIST_FRACTION * grid.k_max:
        raise ResolutionError(
            f"packet momentum support {k_pack:.3g} exceeds "
            f"{NYQUIST_FRACTION:.0%} of the grid Nyquist {grid.k_max:.3g}")
    x = grid.x
    psi = np.exp(-(x - center) ** 2 / (4.0 * width ** 2)
                 + 1j * momentum * x / hbar)
    return psi / grid.norm(psi)


def _check_resolution(psi, grid):
    psi_k = np.fft.fft(psi, axis=0)
    mass = np.abs(psi_k) ** 2
    tail = mass[np.abs(grid.k) > NYQUIST_FRACTION * grid.k_max].sum()
    if tail > NYQUIST_MASS_TOL * mass.sum():
        raise ResolutionError(
            "wavefunction momentum support too close to the Nyquist limit")


# ---------------------------------------------------------------------------
# split-step propagation

def _expi_2x2(h, theta):
    """exp(-i theta H) for a field of Hermitian 2x2 matrices H (n, 2, 2)."""
    c = 0.5 * (h[:, 0, 0] + h[:, 1, 1]).real
    d3 = 0.5 * (h[:, 0, 0] - h[:, 1, 1]).real
    d1 = h[:, 0, 1].real
    d2 = -h[:, 0, 1].imag
    r = np.sqrt(d1 ** 2 + d2 ** 2 + d3 ** 2)
    cos_r = np.cos(theta * r)
    # sin(theta r)/r is finite at r = 0
    sinc = np.where(r > 0, np.sin(theta * r) / np.where(r > 0, r, 1.0),
                    theta)
    phase = np.exp(-1j * theta * c)
    out = np.empty_like(h, dtype=complex)
    out[:, 0, 0] = phase * (cos_r - 1j * sinc * d3)
    out[:, 1, 1] = phase * (cos_r + 1j * sinc * d3)
    out[:, 0, 1] = phase * (-1j * sinc * (d1 - 1j * d2))
    out[:, 1, 0] = phase * (-1j * sinc * (d1 + 1j * d2))
    return out


def _split_steps(t_final, hbar, coarsen=1):
    """Step count of the split-step rule
    dt <= coarsen * SPLIT_STEP * hbar^(1/2), in whole steps over
    ``t_final``."""
    return int(np.ceil(t_final / (coarsen * SPLIT_STEP * hbar ** 0.5)))


def propagate(psi, v_values, grid, hbar, dt, steps):
    """Fourth-order (Yoshida) split-step evolution under H = p^2/2 + V(x).

    ``v_values`` is (n,) for a scalar potential or (n, 2, 2) Hermitian for a
    two-state one; ``psi`` is (n,) or (n, 2) accordingly.  Each step is the
    triple jump S(W1 dt) S(W0 dt) S(W1 dt) of the Strang step S; adjacent
    potential half-steps merge, so a step costs three FFT pairs.  The
    potential factors are exact (closed-form 2x2 exponential), the kinetic
    factors are applied in Fourier space.
    """
    psi = np.asarray(psi, dtype=complex)
    v_values = np.asarray(v_values)
    if steps < 1:
        raise InvalidParameterError("need steps >= 1")
    _check_resolution(psi, grid)
    if v_values.ndim == 1:
        if psi.shape != (grid.n,):
            raise InvalidParameterError("scalar potential needs a (n,) psi")

        def pot(theta):
            return np.exp(-1j * v_values * theta)

        def kick(factor, psi):
            return factor * psi

        def drift(kin, psi):
            return np.fft.ifft(kin * np.fft.fft(psi))
    elif v_values.shape == (grid.n, 2, 2):
        if psi.shape != (grid.n, 2):
            raise InvalidParameterError("matrix potential needs a (n, 2) psi")

        def pot(theta):
            return _expi_2x2(v_values, theta)

        def kick(factor, psi):
            return np.einsum("nab,nb->na", factor, psi)

        def drift(kin, psi):
            return np.fft.ifft(kin[:, None] * np.fft.fft(psi, axis=0),
                               axis=0)
    else:
        raise InvalidParameterError("potential must be (n,) or (n, 2, 2)")
    kin1, kin0 = (np.exp(-0.5j * hbar * grid.k ** 2 * w * dt)
                  for w in (W1, W0))
    # the potential factors of exp(-i V w dt / hbar): the outer half-steps,
    # the two inner merged half-steps and the merged ones between steps
    edge, inner, join = (pot(w * dt / hbar)
                         for w in (0.5 * W1, 0.5 * (W1 + W0), W1))
    psi = kick(edge, psi)
    for step in range(steps):
        psi = drift(kin1, psi)
        psi = kick(inner, psi)
        psi = drift(kin0, psi)
        psi = kick(inner, psi)
        psi = drift(kin1, psi)
        psi = kick(join if step < steps - 1 else edge, psi)
    nrm = grid.norm(psi)
    if abs(nrm - 1.0) > 1e-8:
        raise PhysicsError(f"propagation lost unitarity: |psi| = {nrm}")
    _check_resolution(psi, grid)
    return psi


def adiabatic_populations(psi, v_values):
    """Populations on the pointwise eigenstates of a 2x2 potential field."""
    _, vec = np.linalg.eigh(v_values)
    amp = np.einsum("nab,na->nb", vec.conj(), psi)
    pops = np.sum(np.abs(amp) ** 2, axis=0)
    return pops / pops.sum()


# ---------------------------------------------------------------------------
# phase-space symbols

class Coefficient:
    """An x-dependent coefficient with (optionally) an analytic derivative."""

    def __init__(self, f, df=None):
        self.f = f
        self.df = df

    def __call__(self, x):
        return self.f(x)

    def deriv(self, x):
        if self.df is None:
            raise UnsupportedSymbolError(
                "coefficient has no registered derivative")
        return self.df(x)


def const_coeff(value):
    v = float(value)
    c = Coefficient(lambda x: np.full_like(np.asarray(x, dtype=float), v),
                    lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    c.is_const = True
    c.is_zero = v == 0.0
    return c


def trig_coeff(length, a0=0.0, cos_terms=(), sin_terms=()):
    """Periodic coefficient a0 + sum amp*cos(2 pi m x / L) + sin terms."""
    w = 2.0 * np.pi / float(length)
    cos_terms = tuple((int(m), float(a)) for m, a in cos_terms)
    sin_terms = tuple((int(m), float(a)) for m, a in sin_terms)

    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, float(a0))
        for m, a in cos_terms:
            out = out + a * np.cos(m * w * x)
        for m, a in sin_terms:
            out = out + a * np.sin(m * w * x)
        return out

    def df(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for m, a in cos_terms:
            out = out - a * m * w * np.sin(m * w * x)
        for m, a in sin_terms:
            out = out + a * m * w * np.cos(m * w * x)
        return out

    return Coefficient(f, df)


class Symbol:
    """Polynomial-in-momentum symbol a(x, p) = sum_j c_j(x) p^j."""

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise InvalidParameterError("symbol needs at least one term")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def eval(self, x, p):
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        out = np.zeros(np.broadcast(x, p).shape)
        for j, c in enumerate(self.coeffs):
            out = out + c(x) * p ** j
        return out


def kinetic_plus_potential(v_coeff):
    """The Hamiltonian symbol p^2/2 + V(x)."""
    return Symbol([v_coeff, const_coeff(0.0),
                   const_coeff(0.5)])


def poisson_bracket(h, a):
    """{h, a} = dh/dp da/dx - dh/dx da/dp as a new symbol.

    The resulting coefficients are plain closures (no further derivative),
    which is all quantization and evaluation need.
    """
    deg = h.degree + a.degree - 1
    if deg < 0:
        deg = 0
    terms = [[] for _ in range(deg + 1)]
    for i, hc in enumerate(h.coeffs):
        for j, ac in enumerate(a.coeffs):
            h_zero = getattr(hc, "is_zero", False)
            a_zero = getattr(ac, "is_zero", False)
            h_const = getattr(hc, "is_const", False)
            a_const = getattr(ac, "is_const", False)
            # i h_i p^{i-1} a_j'(x) p^j
            if i >= 1 and not (h_zero or a_const):
                terms[i - 1 + j].append(
                    (lambda x, hc=hc, ac=ac, i=i: i * hc(x) * ac.deriv(x)))
            # - h_i'(x) p^i j a_j p^{j-1}
            if j >= 1 and not (a_zero or h_const):
                terms[i + j - 1].append(
                    (lambda x, hc=hc, ac=ac, j=j: -j * hc.deriv(x) * ac(x)))

    while len(terms) > 1 and not terms[-1]:
        terms.pop()

    def make(fs):
        if not fs:
            return const_coeff(0.0)
        return Coefficient(lambda x: sum(f(x) for f in fs))

    return Symbol([make(fs) for fs in terms])


# ---------------------------------------------------------------------------
# Weyl quantization

def _weyl_fourier(symbol, grid, hbar, max_degree):
    """Weyl operator F Op F^{-1} of a symbol in the Fourier basis, where p is
    diagonal and c(x) is the circulant of its FFT: the symmetrized ordering
    2^{-j} sum_k C(j,k) p^k c_j(x) p^{j-k} has the closed-form entries
    c_hat_j((k - l) mod n) / n ((p_k + p_l) / 2)^j."""
    if symbol.degree > max_degree:
        raise UnsupportedSymbolError(
            f"momentum degree {symbol.degree} exceeds {max_degree}")
    if grid.n > MAX_DENSE_N:
        raise GridTooLargeError(
            f"dense operators limited to {MAX_DENSE_N} points")
    p_mid = 0.5 * hbar * (grid.k[:, None] + grid.k)
    idx = np.arange(grid.n)
    shift = (idx[:, None] - idx) % grid.n
    op = 0.0
    # Horner's rule in p_mid, from the highest degree down
    for c in reversed(symbol.coeffs):
        op = op * p_mid + (np.fft.fft(c(grid.x)) / grid.n)[shift]
    return op


def weyl_quantize(symbol, grid, hbar):
    """Dense Weyl operator of a symbol with momentum degree <= 2, in the x
    basis: built in the Fourier basis, with closed-form entries, and brought
    back as F^{-1} Op F by two FFTs (F is symmetric, so Op F = (F Op^T)^T)."""
    op = _weyl_fourier(symbol, grid, hbar, PUBLIC_DEGREE)
    return np.fft.fft(np.fft.ifft(op, axis=0), axis=1)


def expectation(symbol, psi, grid, hbar):
    """<psi| Op_W(a) |psi> without dense matrices (any grid size)."""
    if symbol.degree > INTERNAL_DEGREE:
        raise UnsupportedSymbolError(
            f"momentum degree {symbol.degree} exceeds {INTERNAL_DEGREE}")
    psi_k = np.fft.fft(psi)
    # p^m psi for m = 0..degree
    p_psi = [psi]
    for m in range(1, symbol.degree + 1):
        p_psi.append(np.fft.ifft((hbar * grid.k) ** m * psi_k))
    val = 0.0 + 0.0j
    for j, c in enumerate(symbol.coeffs):
        cx = np.asarray(c(grid.x), dtype=complex)
        for k in range(j + 1):
            # <p^k psi | c | p^{j-k} psi>
            val += comb(j, k) / 2.0 ** j * np.sum(
                np.conj(p_psi[k]) * cx * p_psi[j - k]) * grid.dx
    return float(val.real)


# ---------------------------------------------------------------------------
# commutator reduction and the Egorov classical limit

def commutator_check(h_symbol, a_symbol, grid, hbar):
    """Compare (i/hbar)[Op(h), Op(a)] with Op({h, a}).

    The operators are built in the Fourier basis, with closed-form entries.
    Returns relative and absolute operator-norm discrepancies; the relative
    one vanishes to rounding for momentum degrees <= 2 and is O(hbar^2) once
    degree-3 terms appear.
    """
    op_h = _weyl_fourier(h_symbol, grid, hbar, INTERNAL_DEGREE)
    op_a = _weyl_fourier(a_symbol, grid, hbar, INTERNAL_DEGREE)
    bracket = _weyl_fourier(poisson_bracket(h_symbol, a_symbol), grid, hbar,
                            INTERNAL_DEGREE)
    # compare on the sub-Nyquist band: multiplication by x-dependent
    # coefficients aliases the extreme grid modes, which the resolution
    # guard already excludes from admissible states; in the Fourier basis
    # that selects rows and columns, and the unitary F / sqrt(n) keeps norms
    band = np.abs(grid.k) <= NYQUIST_FRACTION * grid.k_max
    comm = (1j / hbar) * (op_h[band] @ op_a[:, band]
                          - op_a[band] @ op_h[:, band])
    bracket = bracket[np.ix_(band, band)]
    scale = np.linalg.norm(bracket, 2)
    diff = np.linalg.norm(comm - bracket, 2)
    # packet-scale metric: act on a minimum-uncertainty reference packet,
    # whose momentum spread sqrt(hbar/2) sets the physical p scale
    psi_ref = gaussian_packet(grid, grid.x0 + 0.5 * grid.length, 0.0,
                              np.sqrt(hbar / 2.0), hbar)
    psi_band = np.fft.fft(psi_ref, norm="ortho")[band]
    num = np.linalg.norm((comm - bracket) @ psi_band)
    den = np.linalg.norm(bracket @ psi_band)
    return {
        "abs_op_norm": float(diff),
        "bracket_op_norm": float(scale),
        "rel_op_norm": float(diff / scale) if scale > 0 else float(diff),
        "rel_packet_norm": float(num / den) if den > 0 else float(num),
        "degree_h": h_symbol.degree,
        "degree_a": a_symbol.degree,
        "hbar": float(hbar),
        "n": grid.n,
    }


def off_surface_population(v11, v22, v12, grid, mass, x0_packet, p0_packet,
                           t_final, surface=0):
    """Population leaked off the initial adiabatic surface after time t.

    The initial state is a Gaussian packet multiplied pointwise by the
    chosen eigenvector of the 2x2 potential; the leaked population decays
    with the mass parameter (threshold-free diagnostic).
    """
    hbar = hbar_eff(mass)
    v = np.zeros((grid.n, 2, 2))
    v[:, 0, 0] = v11(grid.x)
    v[:, 1, 1] = v22(grid.x)
    v[:, 0, 1] = v12(grid.x)
    v[:, 1, 0] = v[:, 0, 1]
    packet = gaussian_packet(grid, x0_packet, p0_packet,
                             np.sqrt(hbar / 2.0), hbar)
    _, vec = np.linalg.eigh(v)
    psi = packet[:, None] * vec[:, :, surface]
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
    steps = _split_steps(t_final, hbar)
    psi_t = propagate(psi, v, grid, hbar, t_final / steps, steps)
    pops = adiabatic_populations(psi_t, v)
    return float(pops[1 - surface])


def _classical_cloud_average(symbol, v_deriv, x0, p0, sigmas, t_final,
                             coarsen=1):
    """Wigner-weighted classical expectations of a(x_t, p_t), one per width.

    The initial Wigner function of a minimum-uncertainty Gaussian packet is
    a product Gaussian of equal widths ``sigma`` in x and p.  Gauss-Hermite
    nodes in (x, p) are pushed through the flow of H = p^2/2 + V by RK4,
    with steps ``coarsen`` times ``CLOUD_DT`` at most, and averaged; the
    clouds of all ``sigmas`` are stacked as rows of one RK4 pass, whose
    arithmetic is elementwise, so each row's value is the one a
    single-width call gives.
    """
    nodes, wts = np.polynomial.hermite_e.hermegauss(CLOUD_NODES)
    wts = wts / wts.sum()
    wg = np.outer(wts, wts).reshape(-1)
    sigmas = np.asarray(sigmas, dtype=float)[:, None]
    # node (i, j) of a cloud sits at column i * CLOUD_NODES + j
    x = np.repeat(x0 + sigmas * nodes, CLOUD_NODES, axis=1)
    p = np.tile(p0 + sigmas * nodes, (1, CLOUD_NODES))
    steps = int(np.ceil(t_final / (coarsen * CLOUD_DT)))
    h = t_final / steps

    def rate(x, p):
        return p, -v_deriv(x)

    for _ in range(steps):
        k1x, k1p = rate(x, p)
        k2x, k2p = rate(x + 0.5 * h * k1x, p + 0.5 * h * k1p)
        k3x, k3p = rate(x + 0.5 * h * k2x, p + 0.5 * h * k2p)
        k4x, k4p = rate(x + h * k3x, p + h * k3p)
        x = x + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        p = p + h / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
    return np.sum(wg * symbol.eval(x, p), axis=1)


def _auto_grid(x0, length, p_scale, hbar):
    k_need = (p_scale / hbar) / NYQUIST_FRACTION
    n = 2 ** int(np.ceil(np.log2(max(64, length * k_need / np.pi))))
    return QuantumGrid(x0, length, n)


def _quantum_expectation(v_coeff, a_symbol, mass, x0_packet, p0_packet,
                         t_final, grid_x0, grid_length, coarsen=1):
    """<a>(t_final) of the minimum-uncertainty packet at one mass, with the
    split step ``coarsen`` times the rule's; returns it, the grid size and
    the step count."""
    hbar = hbar_eff(mass)
    sigma = np.sqrt(hbar / 2.0)
    p_scale = abs(p0_packet) + 12.0 * sigma + 2.0
    grid = _auto_grid(grid_x0, grid_length, p_scale, hbar)
    psi = gaussian_packet(grid, x0_packet, p0_packet, sigma, hbar)
    steps = _split_steps(t_final, hbar, coarsen)
    psi_t = propagate(psi, v_coeff(grid.x), grid, hbar, t_final / steps,
                      steps)
    return expectation(a_symbol, psi_t, grid, hbar), grid.n, steps


def egorov_error(v_coeff, a_symbol, mass, x0_packet, p0_packet, t_final,
                 grid_x0, grid_length):
    """|quantum - classical| expectation error at one mass; the classical
    side is fixed by ``CLOUD_NODES`` and ``CLOUD_DT``."""
    q_val, n, _ = _quantum_expectation(v_coeff, a_symbol, mass, x0_packet,
                                       p0_packet, t_final, grid_x0,
                                       grid_length)
    c_val = float(_classical_cloud_average(
        a_symbol, v_coeff.deriv, x0_packet, p0_packet,
        [np.sqrt(hbar_eff(mass) / 2.0)], t_final)[0])
    return abs(q_val - c_val), q_val, c_val, n


def egorov_test(v_coeff, a_symbol, masses, x0_packet, p0_packet, t_final,
                grid_x0, grid_length):
    """O(1/M) convergence of classical expectations: fitted log-log slope
    of the Egorov error over ``masses``, at a fixed classical cloud.

    Each mass's quantum expectation is also taken at twice the split step,
    and its classical one at twice the RK4 step of the cloud;
    ``ResolutionError`` is raised when either pair differs by more than
    ``STEP_CHECK_TOL`` of that mass's error, and the differences are
    reported as ``step_diffs`` and ``cloud_step_diffs``, next to the fine
    runs' ``split_steps``.  ``InvalidParameterError`` is raised before any
    propagation when ``masses`` holds fewer than two distinct values, which
    leave the slope undetermined.
    """
    masses = np.asarray(masses, dtype=float)
    # a set, not np.unique, whose first call imports numpy.ma (2 MB RSS)
    if len(set(masses.tolist())) < 2:
        raise InvalidParameterError(
            "the Egorov slope needs at least two distinct masses")
    args = (x0_packet, p0_packet, t_final, grid_x0, grid_length)
    fine = [_quantum_expectation(v_coeff, a_symbol, m, *args)
            for m in masses]
    q_vals = np.array([q for q, _, _ in fine])
    step_diffs = np.abs(q_vals - [
        _quantum_expectation(v_coeff, a_symbol, m, *args, coarsen=2)[0]
        for m in masses])
    c_vals, c_coarse = (_classical_cloud_average(
        a_symbol, v_coeff.deriv, x0_packet, p0_packet,
        [np.sqrt(hbar_eff(m) / 2.0) for m in masses], t_final, coarsen)
        for coarsen in (1, 2))
    cloud_diffs = np.abs(c_vals - c_coarse)
    errors = np.abs(q_vals - c_vals)
    for m, err, *diffs in zip(masses, errors, step_diffs, cloud_diffs):
        for step, diff in zip(("split step", "cloud's RK4 step"), diffs):
            if not diff <= STEP_CHECK_TOL * err:
                raise ResolutionError(
                    f"M = {m:g}: doubling the {step} moves <a> by "
                    f"{diff:.3g}, more than {STEP_CHECK_TOL:.0%} of the "
                    f"Egorov error {err:.3g}")
    slope = float(np.polyfit(np.log(masses), np.log(errors), 1)[0])
    return {
        "masses": [float(m) for m in masses],
        "errors": [float(e) for e in errors],
        "grid_sizes": [n for _, n, _ in fine],
        "split_steps": [steps for _, _, steps in fine],
        "slope": slope,
        "step_diffs": [float(d) for d in step_diffs],
        "cloud_step_diffs": [float(d) for d in cloud_diffs],
    }
