"""Desk-scale 1D quantum checks of the classical-limit structure.

Works in mass-scaled units with effective Planck constant
``hbar = M^{-1/2}``: Weyl quantization of low-degree phase-space symbols,
Strang-split propagation (scalar and 2x2 matrix potentials), reduction of
commutators to Poisson brackets, and the O(1/M) accuracy of classical
expectation values along the flow.
"""

import numpy as np

from .errors import (GridTooLargeError, InvalidParameterError, PhysicsError,
                     ResolutionError, UnsupportedSymbolError)

MAX_DENSE_N = 1024
NYQUIST_FRACTION = 0.8
NYQUIST_MASS_TOL = 1e-10
PUBLIC_DEGREE = 2
INTERNAL_DEGREE = 3


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
# Strang propagation

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


def propagate(psi, v_values, grid, hbar, dt, steps):
    """Strang-split evolution under H = p^2/2 + V(x).

    ``v_values`` is (n,) for a scalar potential or (n, 2, 2) Hermitian for a
    two-state one; ``psi`` is (n,) or (n, 2) accordingly.  The half-step
    potential factor is exact (closed-form 2x2 exponential), the kinetic
    factor is applied in Fourier space.
    """
    psi = np.asarray(psi, dtype=complex)
    v_values = np.asarray(v_values)
    _check_resolution(psi, grid)
    kin = np.exp(-0.5j * hbar * grid.k ** 2 * dt)
    if v_values.ndim == 1:
        if psi.shape != (grid.n,):
            raise InvalidParameterError("scalar potential needs a (n,) psi")
        half = np.exp(-0.5j * v_values * dt / hbar)
        for _ in range(steps):
            psi = half * psi
            psi = np.fft.ifft(kin * np.fft.fft(psi))
            psi = half * psi
    elif v_values.shape == (grid.n, 2, 2):
        if psi.shape != (grid.n, 2):
            raise InvalidParameterError("matrix potential needs a (n, 2) psi")
        half = _expi_2x2(v_values, 0.5 * dt / hbar)
        for _ in range(steps):
            psi = np.einsum("nab,nb->na", half, psi)
            psi = np.fft.ifft(kin[:, None] * np.fft.fft(psi, axis=0), axis=0)
            psi = np.einsum("nab,nb->na", half, psi)
    else:
        raise InvalidParameterError("potential must be (n,) or (n, 2, 2)")
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

def _momentum_matrix(grid, hbar):
    if grid.n > MAX_DENSE_N:
        raise GridTooLargeError(
            f"dense operators limited to {MAX_DENSE_N} points")
    f = np.fft.fft(np.eye(grid.n), axis=0)
    return np.fft.ifft((hbar * grid.k)[:, None] * f, axis=0)


def _weyl_dense(symbol, grid, hbar, max_degree):
    from math import comb

    if symbol.degree > max_degree:
        raise UnsupportedSymbolError(
            f"momentum degree {symbol.degree} exceeds {max_degree}")
    p_mat = _momentum_matrix(grid, hbar)
    p_pow = [np.eye(grid.n, dtype=complex)]
    for _ in range(symbol.degree):
        p_pow.append(p_pow[-1] @ p_mat)
    op = np.zeros((grid.n, grid.n), dtype=complex)
    for j, c in enumerate(symbol.coeffs):
        cx = np.asarray(c(grid.x), dtype=complex)
        # symmetrized ordering 2^{-j} sum_k C(j,k) p^k c(x) p^{j-k}
        term = np.zeros_like(op)
        for k in range(j + 1):
            term += comb(j, k) * (p_pow[k] * cx[None, :]) @ p_pow[j - k]
        op += term / 2.0 ** j
    return op


def weyl_quantize(symbol, grid, hbar):
    """Dense Weyl operator of a symbol with momentum degree <= 2."""
    return _weyl_dense(symbol, grid, hbar, PUBLIC_DEGREE)


def expectation(symbol, psi, grid, hbar):
    """<psi| Op_W(a) |psi> without dense matrices (any grid size)."""
    from math import comb

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

    Returns relative and absolute operator-norm discrepancies; the relative
    one vanishes to rounding for momentum degrees <= 2 and is O(hbar^2) once
    degree-3 terms appear.
    """
    op_h = _weyl_dense(h_symbol, grid, hbar, INTERNAL_DEGREE)
    op_a = _weyl_dense(a_symbol, grid, hbar, INTERNAL_DEGREE)
    comm = (1j / hbar) * (op_h @ op_a - op_a @ op_h)
    bracket = _weyl_dense(poisson_bracket(h_symbol, a_symbol), grid, hbar,
                          INTERNAL_DEGREE)
    # compare on the sub-Nyquist band: multiplication by x-dependent
    # coefficients aliases the extreme grid modes, which the resolution
    # guard already excludes from admissible states
    f = np.fft.fft(np.eye(grid.n), axis=0)
    mask = (np.abs(grid.k) <= NYQUIST_FRACTION * grid.k_max).astype(float)
    proj = np.fft.ifft(mask[:, None] * f, axis=0)
    comm = proj @ comm @ proj
    bracket = proj @ bracket @ proj
    scale = np.linalg.norm(bracket, 2)
    diff = np.linalg.norm(comm - bracket, 2)
    # packet-scale metric: act on a minimum-uncertainty reference packet,
    # whose momentum spread sqrt(hbar/2) sets the physical p scale
    psi_ref = gaussian_packet(grid, grid.x0 + 0.5 * grid.length, 0.0,
                              np.sqrt(hbar / 2.0), hbar)
    num = np.linalg.norm((comm - bracket) @ psi_ref)
    den = np.linalg.norm(bracket @ psi_ref)
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
    dt = 0.01 * hbar
    steps = int(np.ceil(t_final / dt))
    psi_t = propagate(psi, v, grid, hbar, t_final / steps, steps)
    pops = adiabatic_populations(psi_t, v)
    return float(pops[1 - surface])


def _classical_cloud_average(symbol, v_deriv, x0, p0, sigma_x, sigma_p,
                             t_final, n_nodes=24, dt=1e-3):
    """Wigner-weighted classical expectation of a(x_t, p_t).

    The initial Wigner function of a Gaussian packet is a product Gaussian;
    Gauss-Hermite nodes in (x, p) are pushed through the flow of
    H = p^2/2 + V by RK4 and averaged.
    """
    nodes, wts = np.polynomial.hermite_e.hermegauss(n_nodes)
    wts = wts / wts.sum()
    xg, pg = np.meshgrid(x0 + sigma_x * nodes, p0 + sigma_p * nodes,
                         indexing="ij")
    wg = np.outer(wts, wts).reshape(-1)
    x = xg.reshape(-1).copy()
    p = pg.reshape(-1).copy()
    steps = int(np.ceil(t_final / dt))
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
    return float(np.sum(wg * symbol.eval(x, p)))


def _auto_grid(x0, length, p_scale, hbar):
    k_need = (p_scale / hbar) / NYQUIST_FRACTION
    n = 2 ** int(np.ceil(np.log2(max(64, length * k_need / np.pi))))
    return QuantumGrid(x0, length, n)


def egorov_error(v_coeff, a_symbol, mass, x0_packet, p0_packet, t_final,
                 grid_x0, grid_length, n_nodes=24):
    """|quantum - classical| expectation error at one mass."""
    hbar = hbar_eff(mass)
    sigma = np.sqrt(hbar / 2.0)
    p_scale = abs(p0_packet) + 12.0 * sigma + 2.0
    grid = _auto_grid(grid_x0, grid_length, p_scale, hbar)
    psi = gaussian_packet(grid, x0_packet, p0_packet, sigma, hbar)
    dt = 0.01 * hbar
    steps = int(np.ceil(t_final / dt))
    v_values = v_coeff(grid.x)
    psi_t = propagate(psi, v_values, grid, hbar, t_final / steps, steps)
    q_val = expectation(a_symbol, psi_t, grid, hbar)
    c_val = _classical_cloud_average(
        a_symbol, v_coeff.deriv, x0_packet, p0_packet, sigma, sigma,
        t_final, n_nodes=n_nodes)
    return abs(q_val - c_val), q_val, c_val, grid.n


def egorov_test(v_coeff, a_symbol, masses, x0_packet, p0_packet, t_final,
                grid_x0, grid_length, n_nodes=24):
    """O(1/M) convergence of classical expectations: fitted log-log slope."""
    masses = np.asarray(masses, dtype=float)
    errors = []
    grids = []
    for m in masses:
        err, _, _, n = egorov_error(v_coeff, a_symbol, m, x0_packet,
                                    p0_packet, t_final, grid_x0,
                                    grid_length, n_nodes=n_nodes)
        errors.append(err)
        grids.append(n)
    errors = np.array(errors)
    slope = float(np.polyfit(np.log(masses), np.log(errors), 1)[0])
    return {
        "masses": [float(m) for m in masses],
        "errors": [float(e) for e in errors],
        "grid_sizes": grids,
        "slope": slope,
    }
