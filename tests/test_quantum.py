from math import comb

import numpy as np
import pytest

from mdfields import quantum
from mdfields.errors import (GridTooLargeError, InvalidParameterError,
                             ResolutionError, UnsupportedSymbolError)

L = 4.0 * np.pi


def packet_grid(n=256):
    return quantum.QuantumGrid(-L / 2.0, L, n)


class TestGridAndPacket:
    def test_hbar_eff(self):
        assert quantum.hbar_eff(10_000.0) == pytest.approx(0.01)
        with pytest.raises(InvalidParameterError):
            quantum.hbar_eff(-1.0)

    def test_grid_axes(self):
        g = quantum.QuantumGrid(0.0, 2.0 * np.pi, 8)
        assert g.x[0] == 0.0
        assert g.dx == pytest.approx(np.pi / 4.0)
        assert g.k_max == pytest.approx(4.0)
        # k holds the FFT frequencies times 2 pi
        np.testing.assert_allclose(np.sort(g.k)[-1], 3.0)

    def test_packet_normalized(self):
        g = packet_grid()
        psi = quantum.gaussian_packet(g, 0.3, 0.5, 0.4, hbar=0.1)
        assert abs(g.norm(psi) - 1.0) <= 1e-12

    def test_packet_moments(self):
        g = packet_grid(512)
        hbar, x0, p0, w = 0.1, 0.2, 0.6, 0.5
        psi = quantum.gaussian_packet(g, x0, p0, w, hbar)
        pos = quantum.Symbol([quantum.Coefficient(lambda x: x)])
        mom = quantum.Symbol([quantum.const_coeff(0.0),
                              quantum.const_coeff(1.0)])
        mom2 = quantum.Symbol([quantum.const_coeff(0.0),
                               quantum.const_coeff(0.0),
                               quantum.const_coeff(1.0)])
        assert quantum.expectation(pos, psi, g, hbar) == pytest.approx(
            x0, abs=1e-10)
        assert quantum.expectation(mom, psi, g, hbar) == pytest.approx(
            p0, abs=1e-10)
        # <p^2> = p0^2 + hbar^2 / 4 w^2
        assert quantum.expectation(mom2, psi, g, hbar) == pytest.approx(
            p0 ** 2 + hbar ** 2 / (4.0 * w ** 2), abs=1e-10)

    def test_resolution_guard(self):
        g = packet_grid(64)
        with pytest.raises(ResolutionError):
            quantum.gaussian_packet(g, 0.0, 50.0, 0.4, hbar=0.05)


class TestPropagation:
    def test_free_packet_drift_and_spread(self):
        g = packet_grid(512)
        hbar, x0, p0, w = 0.1, -1.0, 0.8, 0.4
        psi = quantum.gaussian_packet(g, x0, p0, w, hbar)
        t = 1.5
        psi_t = quantum.propagate(psi, np.zeros(g.n), g, hbar, t / 300, 300)
        # |psi(t)|^2 is a Gaussian at x0 + p0 t with spread grown by the
        # free dispersion
        w_t2 = w ** 2 + (hbar * t / (2.0 * w)) ** 2
        dens = np.abs(psi_t) ** 2
        ref = np.exp(-(g.x - x0 - p0 * t) ** 2 / (2.0 * w_t2))
        ref /= ref.sum() * g.dx
        np.testing.assert_allclose(dens, ref, atol=1e-8)

    def test_harmonic_coherent_motion(self):
        g = packet_grid(512)
        hbar, omega = 0.05, 1.0
        x0, p0 = 0.7, 0.0
        w = np.sqrt(hbar / (2.0 * omega))  # coherent-state width
        psi = quantum.gaussian_packet(g, x0, p0, w, hbar)
        v = 0.5 * omega ** 2 * g.x ** 2
        t = 2.0
        steps = 4000
        psi_t = quantum.propagate(psi, v, g, hbar, t / steps, steps)
        pos = quantum.Symbol([quantum.Coefficient(lambda x: x)])
        got = quantum.expectation(pos, psi_t, g, hbar)
        assert got == pytest.approx(x0 * np.cos(omega * t), abs=1e-6)

    def test_unitarity(self):
        g = packet_grid(256)
        psi = quantum.gaussian_packet(g, 0.0, 0.3, 0.5, 0.1)
        v = 1.0 - np.cos(2.0 * np.pi * g.x / L)
        psi_t = quantum.propagate(psi, v, g, 0.1, 1e-3, 500)
        assert abs(g.norm(psi_t) - 1.0) <= 1e-12

    def test_two_state_rabi(self):
        # constant off-diagonal coupling commutes with the kinetic term:
        # populations oscillate at cos^2(gamma t / hbar) exactly
        g = packet_grid(256)
        hbar, gamma = 0.2, 0.15
        psi0 = quantum.gaussian_packet(g, 0.0, 0.0, 0.5, hbar)
        psi = np.zeros((g.n, 2), dtype=complex)
        psi[:, 0] = psi0
        v = np.zeros((g.n, 2, 2))
        v[:, 0, 1] = gamma
        v[:, 1, 0] = gamma
        t, steps = 1.7, 800
        psi_t = quantum.propagate(psi, v, g, hbar, t / steps, steps)
        p0 = np.sum(np.abs(psi_t[:, 0]) ** 2) * g.dx
        assert p0 == pytest.approx(np.cos(gamma * t / hbar) ** 2, abs=1e-10)

    @staticmethod
    def _assert_fourth_order(psi, v, g, hbar, t):
        # halving dt shrinks the distance to a fine-step reference about
        # 16x at fourth order (4x at Strang's second)
        ref = quantum.propagate(psi, v, g, hbar, t / 800, 800)
        diffs = [np.abs(quantum.propagate(psi, v, g, hbar, t / n, n)
                        - ref).max() for n in (20, 40)]
        assert diffs[0] >= 12.0 * diffs[1], diffs

    def test_fourth_order_scalar(self):
        g = packet_grid(256)
        hbar = 0.1
        psi = quantum.gaussian_packet(g, 0.4, 0.5, np.sqrt(hbar / 2.0), hbar)
        v = 1.0 - np.cos(2.0 * np.pi * g.x / L)
        self._assert_fourth_order(psi, v, g, hbar, 1.0)

    def test_fourth_order_two_state(self):
        # the off-surface model of TestOffSurface, started on the lower
        # adiabatic surface
        g = packet_grid(256)
        hbar = 0.1
        v = np.zeros((g.n, 2, 2))
        v[:, 0, 0] = 1.0 - np.cos(2.0 * np.pi * g.x / L)
        v[:, 1, 1] = 2.0 + np.cos(2.0 * np.pi * g.x / L)
        v[:, 0, 1] = v[:, 1, 0] = 0.2 + 0.1 * np.cos(2.0 * np.pi * g.x / L)
        _, vec = np.linalg.eigh(v)
        psi = quantum.gaussian_packet(g, 0.4, 0.5, np.sqrt(hbar / 2.0),
                                      hbar)[:, None] * vec[:, :, 0]
        psi /= g.norm(psi)
        self._assert_fourth_order(psi, v, g, hbar, 1.0)

    def test_expi_2x2_against_expm(self):
        from scipy.linalg import expm
        rng = np.random.default_rng(0)
        h = rng.normal(size=(5, 2, 2))
        h = 0.5 * (h + np.swapaxes(h, 1, 2))
        theta = 0.37
        got = quantum._expi_2x2(h, theta)
        for i in range(5):
            ref = expm(-1j * theta * h[i])
            np.testing.assert_allclose(got[i], ref, atol=1e-12)

    def test_shape_validation(self):
        g = packet_grid(64)
        psi = quantum.gaussian_packet(g, 0.0, 0.0, 0.6, 0.2)
        with pytest.raises(InvalidParameterError):
            quantum.propagate(psi, np.zeros((g.n, 2, 2)), g, 0.2, 1e-3, 1)


class TestWeylQuantization:
    def test_hermitian_for_real_symbols(self):
        g = quantum.QuantumGrid(-L / 2, L, 128)
        c = quantum.trig_coeff(L, a0=0.1, cos_terms=[(1, 0.5)],
                               sin_terms=[(2, 0.3)])
        sym = quantum.Symbol([c, c, c])
        op = quantum.weyl_quantize(sym, g, 0.1)
        np.testing.assert_allclose(op, op.conj().T, atol=1e-12)

    def test_dense_matches_fft_expectation(self):
        g = quantum.QuantumGrid(-L / 2, L, 256)
        hbar = 0.1
        psi = quantum.gaussian_packet(g, 0.4, 0.3, 0.5, hbar)
        c = quantum.trig_coeff(L, a0=0.2, cos_terms=[(1, 0.6)])
        sym = quantum.Symbol([c, quantum.const_coeff(0.4), c])
        op = quantum.weyl_quantize(sym, g, hbar)
        dense_val = float(np.real(np.conj(psi) @ op @ psi) * g.dx)
        fft_val = quantum.expectation(sym, psi, g, hbar)
        assert abs(dense_val - fft_val) <= 1e-12

    def test_gaussian_wigner_closed_forms(self):
        # Weyl expectation equals the phase-space average against the
        # packet's Wigner function, which factorizes into independent
        # Gaussians: <c(x) p^j> = E[c(x)] E[p^j]
        g = quantum.QuantumGrid(-L / 2, L, 512)
        hbar, x0, p0, w = 0.1, 0.3, 0.5, 0.45
        sp2 = hbar ** 2 / (4.0 * w ** 2)
        psi = quantum.gaussian_packet(g, x0, p0, w, hbar)
        m = 1
        omega = 2.0 * np.pi * m / L
        c = quantum.trig_coeff(L, cos_terms=[(m, 1.0)])
        e_c = np.cos(omega * x0) * np.exp(-0.5 * omega ** 2 * w ** 2)
        cases = [
            (quantum.Symbol([c]), e_c),
            (quantum.Symbol([quantum.const_coeff(0.0), c]), e_c * p0),
            (quantum.Symbol([quantum.const_coeff(0.0),
                             quantum.const_coeff(0.0), c]),
             e_c * (p0 ** 2 + sp2)),
        ]
        for sym, ref in cases:
            got = quantum.expectation(sym, psi, g, hbar)
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_wrong_ordering_fails_wigner_oracle(self):
        # c(x) p^2 quantized as (c p^2 + p^2 c)/2 instead of the
        # symmetrized Weyl ordering misses an O(hbar^2 c'') shift
        g = quantum.QuantumGrid(-L / 2, L, 256)
        hbar, x0, p0, w = 0.2, 0.3, 0.5, 0.45
        sp2 = hbar ** 2 / (4.0 * w ** 2)
        psi = quantum.gaussian_packet(g, x0, p0, w, hbar)
        m = 1
        omega = 2.0 * np.pi * m / L
        c = quantum.trig_coeff(L, cos_terms=[(m, 1.0)])
        ref = np.cos(omega * x0) * np.exp(-0.5 * omega ** 2 * w ** 2) \
            * (p0 ** 2 + sp2)
        cx = c(g.x)

        def p2(f):
            return np.fft.ifft((hbar * g.k) ** 2 * np.fft.fft(f))

        wrong_psi = 0.5 * (cx * p2(psi) + p2(cx * psi))
        got = float(np.real(np.conj(psi) @ wrong_psi) * g.dx)
        assert abs(got - ref) > 1e-4

    def test_operators_match_ordered_products(self):
        # Op(c p^j) psi = 2^{-j} sum_k C(j,k) p^k (c p^{j-k} psi), each p
        # applied through FFTs: degrees 0-2 through weyl_quantize, degree 3
        # through the Fourier-basis builder
        g = quantum.QuantumGrid(-L / 2, L, 128)
        hbar = 0.1
        rng = np.random.default_rng(7)
        psi = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)

        def p_pow(m, f):
            return np.fft.ifft((hbar * g.k) ** m * np.fft.fft(f))

        for j in range(4):
            c = quantum.trig_coeff(
                L, a0=rng.normal(),
                cos_terms=[(m, rng.normal()) for m in (1, 3)],
                sin_terms=[(m, rng.normal()) for m in (2, 5)])
            sym = quantum.Symbol([quantum.const_coeff(0.0)] * j + [c])
            ref = sum(comb(j, k) * p_pow(k, c(g.x) * p_pow(j - k, psi))
                      for k in range(j + 1)) / 2.0 ** j
            if j <= quantum.PUBLIC_DEGREE:
                got = quantum.weyl_quantize(sym, g, hbar) @ psi
            else:
                op = quantum._weyl_fourier(sym, g, hbar,
                                           quantum.INTERNAL_DEGREE)
                got = np.fft.ifft(op @ np.fft.fft(psi))
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(got)

    def test_degree_and_size_limits(self):
        g = quantum.QuantumGrid(-L / 2, L, 64)
        deg3 = quantum.Symbol([quantum.const_coeff(0.0)] * 3
                              + [quantum.const_coeff(1.0)])
        with pytest.raises(UnsupportedSymbolError):
            quantum.weyl_quantize(deg3, g, 0.1)
        big = quantum.QuantumGrid(-L / 2, L, 2048)
        with pytest.raises(GridTooLargeError):
            quantum.weyl_quantize(quantum.Symbol([quantum.const_coeff(1.0)]),
                                  big, 0.1)


class TestMoyalComposition:
    def test_x_only_symbols_compose_pointwise(self):
        # x-only symbols commute: Op(a) Op(b) = Op(a b) exactly
        g = quantum.QuantumGrid(-L / 2, L, 128)
        a = quantum.trig_coeff(L, a0=0.5, cos_terms=[(1, 0.3)])
        b = quantum.trig_coeff(L, sin_terms=[(2, 0.7)])
        op_a = quantum.weyl_quantize(quantum.Symbol([a]), g, 0.1)
        op_b = quantum.weyl_quantize(quantum.Symbol([b]), g, 0.1)
        prod = quantum.Symbol([quantum.Coefficient(
            lambda x: a(x) * b(x))])
        op_ab = quantum.weyl_quantize(prod, g, 0.1)
        assert np.abs(op_a @ op_b - op_ab).max() <= 1e-10


class TestOffSurface:
    def test_population_decays_with_mass(self):
        g11 = quantum.trig_coeff(L, a0=1.0, cos_terms=[(1, -1.0)])
        g22 = quantum.trig_coeff(L, a0=2.0, cos_terms=[(1, 1.0)])
        g12 = quantum.trig_coeff(L, a0=0.2, cos_terms=[(1, 0.1)])
        pops = []
        for mass in (100.0, 1000.0, 10_000.0):
            sigma = np.sqrt(quantum.hbar_eff(mass) / 2.0)
            n = 512 if mass < 5000 else 1024
            g = quantum.QuantumGrid(-L / 2, L, n)
            pops.append(quantum.off_surface_population(
                g11, g22, g12, g, mass, 0.4, 0.5, t_final=1.0))
        assert pops[0] > pops[1] > pops[2]


class TestPoissonBracket:
    def test_kinetic_bracket_closed_form(self):
        # {p^2/2 + V, c(x) p} = c'(x) p^2 - V'(x) c(x)
        v = quantum.trig_coeff(L, a0=1.0, cos_terms=[(1, -1.0)])
        c = quantum.trig_coeff(L, cos_terms=[(2, 0.5)])
        h = quantum.kinetic_plus_potential(v)
        a = quantum.Symbol([quantum.const_coeff(0.0), c])
        pb = quantum.poisson_bracket(h, a)
        x = np.linspace(-L / 2, L / 2, 33)
        for p in (-0.7, 0.0, 1.3):
            ref = c.deriv(x) * p ** 2 - v.deriv(x) * c(x)
            np.testing.assert_allclose(pb.eval(x, p), ref, atol=1e-12)


class TestCommutatorCheck:
    def test_x_p_canonical_pair(self):
        g = quantum.QuantumGrid(-L / 2, L, 128)
        hbar = 0.1
        # (i/hbar)[p_hat, x_hat] should equal {p, x} = -1 exactly; use a
        # periodic position-like symbol so the grid stays consistent
        c = quantum.trig_coeff(L, sin_terms=[(1, 1.0)])
        h = quantum.Symbol([quantum.const_coeff(0.0),
                            quantum.const_coeff(1.0)])
        a = quantum.Symbol([c])
        rep = quantum.commutator_check(h, a, g, hbar)
        assert rep["rel_op_norm"] <= 1e-12

    def test_low_degree_reduction(self):
        g = quantum.QuantumGrid(-L / 2, L, 256)
        hbar = quantum.hbar_eff(1000.0)
        v = quantum.trig_coeff(L, a0=1.0, cos_terms=[(1, -1.0)])
        h = quantum.kinetic_plus_potential(v)
        c = quantum.trig_coeff(L, a0=0.3, cos_terms=[(1, 0.4)],
                               sin_terms=[(2, 0.2)])
        for deg in (0, 1, 2):
            coeffs = [quantum.const_coeff(0.0)] * deg + [c]
            rep = quantum.commutator_check(h, quantum.Symbol(coeffs), g,
                                           hbar)
            assert rep["rel_op_norm"] <= 1e-8, (deg, rep["rel_op_norm"])

    def test_degree_three_control(self):
        g = quantum.QuantumGrid(-L / 2, L, 256)
        hbar = quantum.hbar_eff(1000.0)
        # a mode-2 well has enough V''' for the O(hbar^2) Moyal term to
        # clear the floor at the packet scale
        v = quantum.trig_coeff(L, a0=1.0, cos_terms=[(2, -1.0)])
        h = quantum.kinetic_plus_potential(v)
        a = quantum.Symbol([quantum.const_coeff(0.0)] * 3
                           + [quantum.const_coeff(1.0)])
        rep = quantum.commutator_check(h, a, g, hbar)
        assert rep["rel_packet_norm"] >= 1e-3

    def test_size_limit(self):
        big = quantum.QuantumGrid(-L / 2, L, 2048)
        h = quantum.kinetic_plus_potential(quantum.const_coeff(1.0))
        a = quantum.Symbol([quantum.trig_coeff(L, cos_terms=[(1, 1.0)])])
        with pytest.raises(GridTooLargeError):
            quantum.commutator_check(h, a, big, 0.1)


class TestEgorov:
    def test_harmonic_control(self):
        # quadratic flows push Gaussians exactly: the classical average
        # reproduces the quantum expectation to solver accuracy
        omega = 1.0
        v = quantum.Coefficient(lambda x: 0.5 * omega ** 2 * x ** 2,
                                lambda x: omega ** 2 * x)
        a = quantum.Symbol([quantum.Coefficient(lambda x: x,
                                                lambda x: np.ones_like(x))])
        err, _, _, _ = quantum.egorov_error(
            v, a, mass=1000.0, x0_packet=0.5, p0_packet=0.3, t_final=1.0,
            grid_x0=-L / 2, grid_length=L)
        assert err <= 1e-7

    def test_anharmonic_slope(self):
        v = quantum.trig_coeff(L, a0=1.0, cos_terms=[(1, -1.0)])
        a = quantum.Symbol([quantum.trig_coeff(L, cos_terms=[(1, 0.5)]),
                            quantum.const_coeff(0.3),
                            quantum.const_coeff(1.0)])
        rep = quantum.egorov_test(v, a, [100.0, 1000.0, 10_000.0],
                                  x0_packet=0.4, p0_packet=0.5,
                                  t_final=1.0, grid_x0=-L / 2,
                                  grid_length=L)
        assert rep["slope"] <= -0.8
        assert rep["split_steps"] == [50, 89, 159]
        # the rule holds the split step's share of the Egorov error about
        # flat in M: inside the self-check's tolerance, and not so far
        # below it that the heavy masses are over-resolved
        assert len(rep["step_diffs"]) == 3
        for diff, err in zip(rep["step_diffs"], rep["errors"]):
            assert 1e-3 <= diff / err <= quantum.STEP_CHECK_TOL, diff / err
        assert len(rep["cloud_step_diffs"]) == 3
        for diff, err in zip(rep["cloud_step_diffs"], rep["errors"]):
            assert diff <= quantum.STEP_CHECK_TOL * err

    def test_split_step_rule(self):
        # dt <= SPLIT_STEP * hbar^(1/2): 0.2 hbar at M = 100, and fewer
        # steps than a step ~ hbar would take at the heavier masses
        assert [quantum._split_steps(1.0, quantum.hbar_eff(m))
                for m in (100.0, 1000.0, 10_000.0)] == [50, 89, 159]

    def test_masses_must_differ(self, monkeypatch):
        # equal masses leave the slope undetermined: raise before any
        # propagation instead of fitting a line through one point
        def no_propagation(*args, **kwargs):
            raise AssertionError("propagated before checking the masses")

        monkeypatch.setattr(quantum, "propagate", no_propagation)
        v = quantum.trig_coeff(L, a0=1.0, cos_terms=[(1, -1.0)])
        a = quantum.Symbol([quantum.const_coeff(1.0)])
        with pytest.raises(InvalidParameterError, match="distinct masses"):
            quantum.egorov_test(v, a, [100.0, 100.0], x0_packet=0.4,
                                p0_packet=0.5, t_final=1.0, grid_x0=-L / 2,
                                grid_length=L)

    def test_coarse_split_step_fails_self_check(self, monkeypatch):
        # at 5x the rule's step, the 2 dt rerun moves <a> by about 3x the
        # Egorov error at M = 100
        monkeypatch.setattr(quantum, "SPLIT_STEP", 5.0 * quantum.SPLIT_STEP)
        v = quantum.trig_coeff(L, a0=1.0, cos_terms=[(1, -1.0)])
        a = quantum.Symbol([quantum.trig_coeff(L, cos_terms=[(1, 0.5)]),
                            quantum.const_coeff(0.3),
                            quantum.const_coeff(1.0)])
        with pytest.raises(ResolutionError, match="doubling the split step"):
            quantum.egorov_test(v, a, [100.0, 1000.0], x0_packet=0.4,
                                p0_packet=0.5, t_final=1.0, grid_x0=-L / 2,
                                grid_length=L)

    def test_coarse_cloud_step_fails_self_check(self, monkeypatch):
        # at 10x the rule's RK4 step, the 2 dt rerun of the cloud moves <a>
        # by more than 1 % of the Egorov error
        monkeypatch.setattr(quantum, "CLOUD_DT", 0.1)
        v = quantum.trig_coeff(L, a0=1.0, cos_terms=[(1, -1.0)])
        a = quantum.Symbol([quantum.trig_coeff(L, cos_terms=[(1, 0.5)]),
                            quantum.const_coeff(0.3),
                            quantum.const_coeff(1.0)])
        with pytest.raises(ResolutionError,
                           match="doubling the cloud's RK4 step"):
            quantum.egorov_test(v, a, [100.0, 1000.0], x0_packet=0.4,
                                p0_packet=0.5, t_final=1.0, grid_x0=-L / 2,
                                grid_length=L)

    def test_stacked_cloud_matches_single_width(self):
        # one RK4 pass over every mass's cloud gives each mass the value of
        # its own pass, bit for bit
        v = quantum.trig_coeff(L, a0=1.0, cos_terms=[(1, -1.0)])
        a = quantum.Symbol([quantum.trig_coeff(L, cos_terms=[(1, 0.5)]),
                            quantum.const_coeff(0.3),
                            quantum.const_coeff(1.0)])
        sigmas = [np.sqrt(quantum.hbar_eff(m) / 2.0)
                  for m in (100.0, 1000.0, 10_000.0)]
        stacked = quantum._classical_cloud_average(a, v.deriv, 0.4, 0.5,
                                                   sigmas, 0.5)
        assert stacked.shape == (3,)
        for sigma, got in zip(sigmas, stacked):
            single = quantum._classical_cloud_average(a, v.deriv, 0.4, 0.5,
                                                      [sigma], 0.5)
            assert got == single[0]
