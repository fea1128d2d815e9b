"""Numerical study engine: simulation, distances, margins, tau sweep.

This is the only floating-point corner of the package.  Exact rational
results (transfer matrices, SCMs, regions) are computed first and
converted to doubles at the last step, so that pairs with
identical transfer matrices produce a frequency-domain distance of
exactly zero and skip decisions never rest on round-off alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from . import ratmat
from .identifiability import UndiffRegion, check_identifiable_at, undiff_region
from .model import (
    NdsDefinition, NotRegular, SCMatrix, check_nds_regular,
    check_well_posed, nds_tfm,
)
from .polymat import RatFunMat, ShapeError
from .reconstruction import lump

STABILITY_TOL = 1e-10
# repeated real eigenvalues come back from LAPACK with imaginary noise of
# order norm(A) * sqrt(eps); classify against that scale
REAL_EIG_TOL = 1e-6


class NoConvergence(ArithmeticError):
    """Eigenvalue or SVD iteration failed to converge."""


class SingularE(ArithmeticError):
    """Simulation requires an invertible lumped E (no impulsive modes)."""


class ZeroSpectrum(ArithmeticError):
    """Sampling rules need nonzero eigenvalue magnitudes."""


class Unstable(ArithmeticError):
    """The H-infinity distance is undefined for unstable systems."""


@dataclass
class SimConfig:
    T: float
    M: int
    seed: int = 0
    amplitude: float = 10.0
    x0: np.ndarray | None = None

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError("sampling period must be positive")
        if self.M < 1:
            raise ValueError("sample count must be at least 1")


@dataclass
class Trajectory:
    times: np.ndarray
    u: np.ndarray
    y: np.ndarray
    x: np.ndarray


@dataclass
class DistanceMetrics:
    d_T: float
    d_F: float
    d_S: float


@dataclass
class StabilityMargins:
    s_mr: float | None       # min |eig| over real eigenvalues
    s_md: float | None       # min damping ratio over complex eigenvalues
    rho_max: float
    rho_min: float
    stable: bool
    domain: str = "continuous"


def eig(a) -> np.ndarray:
    """Eigenvalues with a residual guarantee (min singular value test)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError("eig needs a square matrix")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    bound = 1e-8 * (1.0 + np.linalg.norm(a, 2)) if a.size else 0.0
    for lam in vals:
        resid = np.linalg.svd(a - lam * np.eye(a.shape[0]),
                              compute_uv=False)[-1]
        if resid > bound:
            raise NoConvergence(f"eigenvalue residual {resid:.3e} > {bound:.3e}")
    return vals


def svd(a):
    """Singular value decomposition A = U diag(s) V^T with a residual check."""
    a = np.asarray(a, dtype=float)
    try:
        u, s, vt = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    recon = (u[:, :len(s)] * s) @ vt[:len(s)]
    if np.linalg.norm(a - recon) > 1e-10 * (1.0 + np.linalg.norm(a)):
        raise NoConvergence("svd reconstruction residual too large")
    return u, s, vt


def expm(a) -> np.ndarray:
    """Matrix exponential (scaling and squaring)."""
    return scipy.linalg.expm(np.asarray(a, dtype=float))


def stm(nds: NdsDefinition, phi: SCMatrix) -> np.ndarray:
    """State transition matrix E^-1 A of the lumped model, as doubles."""
    model = lump(nds, phi)
    e = ratmat.thaw(model.E_hat)
    if ratmat.det(e) == 0:
        raise SingularE("lumped E is singular; simulation is refused")
    a = ratmat.matmul(ratmat.inv(e), ratmat.thaw(model.A_hat))
    return np.array(ratmat.to_float(a), dtype=float)


def stability_margins(a, domain: str = "continuous") -> StabilityMargins:
    """Spectral stability margins of a state transition matrix.

    Continuous time: stable iff every eigenvalue has a negative real
    part; the real-axis margin is the smallest magnitude among real
    eigenvalues and the damping margin the smallest -Re/|.| among
    complex ones.  Discrete time uses the unit disc and 1 - |.| margins.
    """
    vals = eig(a)
    mags = np.abs(vals)
    rho_max = float(mags.max()) if len(vals) else 0.0
    rho_min = float(mags.min()) if len(vals) else 0.0
    real_mask = np.abs(vals.imag) <= REAL_EIG_TOL * (1.0 + mags)
    real_eigs = vals[real_mask]
    complex_eigs = vals[~real_mask]
    if domain == "continuous":
        stable = bool(len(vals) == 0 or vals.real.max() < -STABILITY_TOL)
        s_mr = float(np.abs(real_eigs).min()) if len(real_eigs) else None
        if len(complex_eigs):
            s_md = float(np.min(-complex_eigs.real / np.abs(complex_eigs)))
        else:
            s_md = None
    elif domain == "discrete":
        stable = bool(len(vals) == 0 or mags.max() < 1.0 - STABILITY_TOL)
        s_mr = float(np.min(1.0 - np.abs(real_eigs))) if len(real_eigs) else None
        if len(complex_eigs):
            s_md = float(np.min(1.0 - np.abs(complex_eigs)))
        else:
            s_md = None
    else:
        raise ValueError(f"unknown time domain {domain!r}")
    return StabilityMargins(s_mr=s_mr, s_md=s_md, rho_max=rho_max,
                            rho_min=rho_min, stable=stable, domain=domain)


def is_stable(a, domain: str = "continuous") -> bool:
    return stability_margins(a, domain).stable


def choose_sampling(a1, a2):
    """Sampling period and count from the pair of state transition matrices.

    T = 0.1 / max rho_max and M = max(1e4, floor(100 x rho_max / rho_min)),
    with the extrema taken over both systems.
    """
    m1 = np.abs(eig(a1))
    m2 = np.abs(eig(a2))
    if not len(m1) or not len(m2):
        raise ZeroSpectrum("empty spectrum")
    rho_max = max(m1.max(), m2.max())
    rho_min = min(m1.min(), m2.min())
    if rho_max == 0.0 or rho_min == 0.0:
        raise ZeroSpectrum("zero eigenvalue magnitude breaks the sampling rule")
    t = 0.1 / rho_max
    m = max(10_000, math.floor(100.0 * rho_max / rho_min))
    return t, m


_MASK64 = (1 << 64) - 1


def _xorshift_stream(seed: int, channel: int):
    """xorshift64* stream; deterministic and platform independent."""
    state = (seed * 0x9E3779B97F4A7C15 + (channel + 1) * 0xBF58476D1CE4E5B9
             + 0x632BE59BD9B4E019) & _MASK64
    if state == 0:
        state = 0x9E3779B97F4A7C15
    while True:
        state ^= state >> 12
        state = (state ^ (state << 25)) & _MASK64
        state ^= state >> 27
        yield ((state * 0x2545F4914F6CDD1D) & _MASK64) >> 63


def prbs(seed: int, m: int, channels: int, amplitude: float = 10.0) -> np.ndarray:
    """Pseudo-random binary signal, one independent stream per channel.

    Every sample is +-amplitude with equal probability; the same seed
    reproduces the same signal exactly.
    """
    if m < 1:
        raise ValueError("need at least one sample")
    out = np.empty((m, channels), dtype=float)
    for j in range(channels):
        gen = _xorshift_stream(int(seed), j)
        col = [amplitude if next(gen) else -amplitude for _ in range(m)]
        out[:, j] = col
    return out


def _lumped_float(nds: NdsDefinition, phi: SCMatrix):
    model = lump(nds, phi)
    e = ratmat.thaw(model.E_hat)
    if ratmat.det(e) == 0:
        raise SingularE("lumped E is singular; simulation is refused")
    e_inv = ratmat.inv(e)
    n, m_u, m_y = nds.m_x, nds.m_u, nds.m_y
    a = np.asarray(ratmat.to_float(
        ratmat.matmul(e_inv, ratmat.thaw(model.A_hat)))).reshape(n, n)
    b = np.asarray(ratmat.to_float(
        ratmat.matmul(e_inv, ratmat.thaw(model.B_hat)))).reshape(n, m_u)
    c = np.asarray(ratmat.to_float(ratmat.thaw(model.C_hat))).reshape(m_y, n)
    d = np.asarray(ratmat.to_float(ratmat.thaw(model.D_hat))).reshape(m_y, m_u)
    return a, b, c, d


def zoh_discretize(a: np.ndarray, b: np.ndarray, t: float):
    """(A_d, B_d) with A_d = exp(A T) and B_d = int_0^T exp(A s) ds B."""
    n, m = a.shape[0], b.shape[1]
    block = np.zeros((n + m, n + m))
    block[:n, :n] = a
    block[:n, n:] = b
    big = expm(block * t)
    return big[:n, :n], big[:n, n:]


def simulate(nds: NdsDefinition, phi: SCMatrix, u, config: SimConfig) -> Trajectory:
    """Zero-order-hold simulation of the lumped model under input u.

    Continuous-time systems are discretized exactly for piecewise
    constant inputs; discrete-time systems iterate the difference
    equation directly.
    """
    a, b, c, d = _lumped_float(nds, phi)
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if u.shape != (config.M, b.shape[1]):
        raise ShapeError(f"input must be {config.M}x{b.shape[1]}, got {u.shape}")
    n = a.shape[0]
    if nds.time_domain == "continuous":
        a_d, b_d = zoh_discretize(a, b, config.T)
    else:
        a_d, b_d = a, b
    x = np.zeros((config.M, n))
    if config.x0 is not None:
        x[0] = np.asarray(config.x0, dtype=float)
    for k in range(config.M - 1):
        x[k + 1] = a_d @ x[k] + b_d @ u[k]
    y = x @ c.T + u @ d.T
    times = np.arange(config.M) * config.T
    return Trajectory(times=times, u=u, y=y, x=x)


def relative_error(y1: Trajectory, y2: Trajectory) -> np.ndarray:
    """|y2 - y1| / |y1| per sample and channel; NaN where |y1| < 1e-12."""
    a = np.asarray(y1.y, dtype=float)
    b = np.asarray(y2.y, dtype=float)
    if a.shape != b.shape:
        raise ShapeError("trajectories have different shapes")
    out = np.full(a.shape, np.nan)
    mask = np.abs(a) >= 1e-12
    out[mask] = np.abs(b[mask] - a[mask]) / np.abs(a[mask])
    return out


def distance_time(y1: Trajectory, y2: Trajectory) -> float:
    """Mean Euclidean norm of the per-sample output difference."""
    a = np.asarray(y1.y, dtype=float)
    b = np.asarray(y2.y, dtype=float)
    if a.shape != b.shape:
        raise ShapeError("trajectories have different shapes")
    eps = b - a
    return float(np.mean(np.sqrt(np.sum(eps * eps, axis=1))))


def exact_tfm(nds: NdsDefinition, phi: SCMatrix) -> RatFunMat:
    """Exact external transfer matrix; the same route as ``nds_tfm``."""
    return nds_tfm(nds, phi)


def _freq_eval(diff: RatFunMat, points: np.ndarray) -> np.ndarray:
    """Stack of frequency response matrices of an exact rational matrix."""
    out = np.empty((len(points), diff.rows, diff.cols), dtype=complex)
    for i in range(diff.rows):
        for j in range(diff.cols):
            e = diff.entries[i][j]
            num = np.array([float(c) for c in reversed(e.num.coeffs)]) \
                if e.num.coeffs else np.array([0.0])
            den = np.array([float(c) for c in reversed(e.den.coeffs)])
            out[:, i, j] = np.polyval(num, points) / np.polyval(den, points)
    return out


def _sigma_max(diff: RatFunMat, points: np.ndarray) -> np.ndarray:
    resp = _freq_eval(diff, points)
    return np.linalg.svd(resp, compute_uv=False)[:, 0]


def distance_freq(nds: NdsDefinition, phi1: SCMatrix, phi2: SCMatrix,
                  grid: int = 2000) -> float:
    """H-infinity norm of the exact transfer matrix difference.

    The rational difference is computed exactly first, so equal transfer
    matrices give 0.0 with no floating-point evaluation at all.  The
    supremum is located on a logarithmic grid and sharpened by
    golden-section refinement around the best point.
    """
    for phi in (phi1, phi2):
        if not check_nds_regular(nds, phi):
            raise NotRegular("NDS is not regular at one of the SCMs")
        if not is_stable(stm(nds, phi), nds.time_domain):
            raise Unstable("H-infinity distance needs stable systems")
    diff = exact_tfm(nds, phi1) - exact_tfm(nds, phi2)
    return hinf_norm(diff, nds.time_domain, grid)


def hinf_norm(diff: RatFunMat, domain: str = "continuous",
              grid: int = 2000) -> float:
    """Supremum of the largest singular value of an exact rational matrix
    over the frequency axis (imaginary axis or unit circle)."""
    if diff.is_zero:
        return 0.0
    if domain == "continuous":
        def pts(ts):
            return 1j * ts
        ts = np.concatenate(([0.0], np.logspace(-3.0, 3.0, grid)))
    else:
        def pts(ts):
            return np.exp(1j * ts)
        ts = np.linspace(0.0, math.pi, grid)
    vals = _sigma_max(diff, pts(np.asarray(ts)))
    k = int(np.argmax(vals))
    lo = ts[max(k - 1, 0)]
    hi = ts[min(k + 1, len(ts) - 1)]
    best = float(vals[k])
    # golden-section sharpening of the located peak
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a_t, b_t = lo, hi
    c_t = b_t - gr * (b_t - a_t)
    d_t = a_t + gr * (b_t - a_t)
    fc = float(_sigma_max(diff, pts(np.array([c_t])))[0])
    fd = float(_sigma_max(diff, pts(np.array([d_t])))[0])
    for _ in range(200):
        if fc < fd:
            a_t, c_t, fc = c_t, d_t, fd
            d_t = a_t + gr * (b_t - a_t)
            fd = float(_sigma_max(diff, pts(np.array([d_t])))[0])
        else:
            b_t, d_t, fd = d_t, c_t, fc
            c_t = b_t - gr * (b_t - a_t)
            fc = float(_sigma_max(diff, pts(np.array([c_t])))[0])
        peak = max(fc, fd)
        if abs(b_t - a_t) <= 1e-12 + 1e-9 * abs(b_t) or \
                (peak > 0 and abs(fd - fc) <= 1e-7 * peak):
            break
    return max(best, fc, fd)


def distance_scm(phi_t: SCMatrix, region: UndiffRegion) -> float:
    """Largest singular value of the SCM deviation after projecting it
    onto the span of the region generators (column by column)."""
    delta = ratmat.sub(phi_t.as_lists(), region.phi0.as_lists())
    if region.transposed:
        delta = ratmat.transpose(delta, cols=region.phi0.cols)
    dmat = np.array(ratmat.to_float(delta), dtype=float)
    if region.dim == 0:
        resid = dmat
    else:
        basis = np.array(ratmat.to_float(region.basis), dtype=float)
        coef, *_ = np.linalg.lstsq(basis, dmat, rcond=None)
        resid = dmat - basis @ coef
    if resid.size == 0:
        return 0.0
    return float(np.linalg.svd(resid, compute_uv=False)[0])


@dataclass
class SweepRow:
    tau: Fraction
    skipped: bool
    reason: str | None = None
    d_T: float | None = None
    d_F: float | None = None
    d_S: float | None = None
    margins: StabilityMargins | None = None
    T: float | None = None
    M: int | None = None

    @property
    def metrics(self) -> DistanceMetrics | None:
        if self.skipped:
            return None
        return DistanceMetrics(d_T=self.d_T, d_F=self.d_F, d_S=self.d_S)


def tau_sweep(nds: NdsDefinition, phi0: SCMatrix, phi_tilde: SCMatrix,
              tau_grid, config: SimConfig | None = None,
              region: UndiffRegion | None = None) -> list:
    """Distances and margins along Phi0 + tau (Phi_tilde - Phi0).

    Grid points whose NDS is irregular, not well-posed, has a singular
    lumped E, or is unstable are skipped with the reason recorded; the
    PRBS seed is fixed for the whole sweep so rows are independent of
    evaluation order.
    """
    seed = config.seed if config else 0
    amplitude = config.amplitude if config else 10.0
    if region is None:
        report = check_identifiable_at(nds, phi0)
        region = undiff_region(report, phi0) \
            if report.verdict == "not_identifiable" \
            else UndiffRegion(phi0=phi0,
                              basis=[[] for _ in range(phi0.rows)])
    a0 = stm(nds, phi0)
    if not is_stable(a0, nds.time_domain):
        raise Unstable("reference system must be stable for the sweep")
    delta = ratmat.sub(phi_tilde.as_lists(), phi0.as_lists())
    rows = []
    for tau in tau_grid:
        tau = Fraction(tau)
        phi_tau = SCMatrix(ratmat.freeze(
            ratmat.add(phi0.as_lists(), ratmat.scale(delta, tau))))
        if not check_nds_regular(nds, phi_tau):
            rows.append(SweepRow(tau=tau, skipped=True, reason="irregular"))
            continue
        if not check_well_posed(nds, phi_tau):
            rows.append(SweepRow(tau=tau, skipped=True,
                                 reason="not_well_posed"))
            continue
        try:
            a_tau = stm(nds, phi_tau)
        except SingularE:
            rows.append(SweepRow(tau=tau, skipped=True, reason="singular_e"))
            continue
        margins = stability_margins(a_tau, nds.time_domain)
        if not margins.stable:
            rows.append(SweepRow(tau=tau, skipped=True, reason="unstable",
                                 margins=margins))
            continue
        t, m = choose_sampling(a0, a_tau)
        u = prbs(seed, m, nds.m_u, amplitude)
        cfg = SimConfig(T=t, M=m, seed=seed, amplitude=amplitude)
        y0 = simulate(nds, phi0, u, cfg)
        y1 = simulate(nds, phi_tau, u, cfg)
        rows.append(SweepRow(
            tau=tau, skipped=False,
            d_T=distance_time(y0, y1),
            d_F=distance_freq(nds, phi_tau, phi0),
            d_S=distance_scm(phi_tau, region),
            margins=margins, T=t, M=m))
    return rows
