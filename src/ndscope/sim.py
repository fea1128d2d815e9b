"""Numerical study engine: simulation, distances, margins, tau sweep.

This is the only floating-point corner of the package.  Exact rational
results (transfer matrices, SCMs, regions) are computed first and
converted to doubles at the last step, so that pairs with
identical transfer matrices produce a frequency-domain distance of
exactly zero and skip decisions never rest on round-off alone.

Simulation kernel.  ``simulate`` runs x[k+1] = A_d x[k] + B_d u[k] in
blocks of L = ``_BLOCK`` samples.  Inside the block that starts at x[bL],

    x[bL + j] = A_d^j x[bL] + sum_{i < j} A_d^(j-1-i) B_d u[bL + i],

for j = 0 .. L.  One product with a lower-triangular block Toeplitz
matrix of the Markov parameters A_d^i B_d gives the forced part of every
sample of a block, one product with the stacked powers A_d^0 .. A_d^(L-1)
gives the free part, and the Python recurrence runs only over the block
boundaries, x[(b+1)L] = A_d^L x[bL] + (forced part at j = L).  Blocks are
processed in groups of L, written into the preallocated state array, so
the temporaries hold O(L^2) samples however long the run is.  The kernel
re-associates the sums of the sample-by-sample recursion: each sample is
one sum of at most L + 1 products with precomputed powers instead of the
end of a chain of matrix-vector products, so the two agree to a few
rounding errors times the size of the powers of A_d.  On the paper's
sweep (804 rows, M up to 23,826) d_T moved by at most 2.4e-14 relative.

PRBS.  ``prbs`` runs one xorshift64* stream per channel.  The state update
is linear over GF(2), so the stream is cut into about sqrt(m) lanes whose
start states come from jump matrices, and all lanes advance together as
uint64 arrays.  The output is bit-identical to stepping each stream one
sample at a time, and ``prbs(seed, m, c)`` is the first m rows of
``prbs(seed, m', c)`` for every m' >= m.

Frequency distance.  ``hinf_norm`` takes the largest singular value
sigma_max of an exact rational matrix H on a grid of the frequency axis
(w = 0 and 2,000 log-spaced points of [1e-3, 1e3] on s = jw; 2,000
points of [0, pi] on z = exp(jw)), then sharpens the best grid point by
golden-section search between its two neighbours.  Each call converts the
coefficients to doubles once, into one zero-padded table with the highest
power first, and one Horner pass over the degree evaluates every
numerator and denominator at all points; the grid and every golden step
share that table.  Leading zeros leave Horner's rule where ``np.polyval``
starts, so ``freq_response`` is bit-identical to ``np.polyval`` entry by
entry.  sigma_max^2 is the largest eigenvalue of the Gram matrix of the
k = min(m_y, m_u) columns (or rows) of H: for k = 1 a squared norm, for
k = 2 (a + d)/2 + hypot((a - d)/2, |b|) from the Gram entries [[a, b],
[conj b, d]], a sum of nonnegative terms, so it agrees with LAPACK to a
few ulps.  Each point's matrix is first scaled by the power of two of
its largest real or imaginary part; the scaling is exact, no square can
overflow, and only parts negligible next to the largest can underflow.
For k >= 3 sigma_max is the batched LAPACK SVD.

Skip rules.  ``screen(nds, phi)`` is the one place that turns an SCM
into the study engine's facts.  It first checks the SCM's shape and the
regularity of every subsystem (an irregular subsystem raises
``NotRegular``), then computes the exact external transfer matrix once,
by ``descriptor_tfm`` on the lifted realization.  Its rules stop at the
first that fails, in this order: ``irregular`` (that call finds the
lifted pencil singular), ``not_well_posed`` (``lump``, building the
float model, finds I - Phi D_zv singular), ``singular_e`` (the lumped E
is singular) and ``unstable`` (``stability_margins`` of E^-1 A).  If all
pass it returns the exact transfer matrix, the lumped model as doubles,
the ``FloatRealization`` (E^-1 A, E^-1 B, C, D) that ``simulate`` takes,
and the margins, whose spectral radii ``choose_sampling`` reads; else
the rule's name, with the margins only for ``unstable`` and no transfer
matrix.  ``tau_sweep`` records the name as a skipped row's reason and
adds ``too_many_samples`` (past ``MAX_SAMPLES``; the row keeps its
margins); callers that cannot skip, ``distance_freq`` and the CLI, raise
the rule's typed error by ``Screening.require``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from . import ratmat
from .model import (
    NdsDefinition, NotRegular, NotWellPosed, SCMatrix, _check_subsystems,
    descriptor_tfm, lifted_realization, nds_tfm,
)
from .polymat import (InputError, NoConvergence, RatFunMat, ShapeError,
                      TooManySamples)
from .reconstruction import lump

STABILITY_TOL = 1e-10
# repeated real eigenvalues come back from LAPACK with imaginary noise of
# order norm(A) * sqrt(eps); classify against that scale
REAL_EIG_TOL = 1e-6
# upper limit of the sampling rule's M; above every M of the paper's 0.1
# grid (23,826) and of the near-graze point tau = 1.09 (1,017,359)
MAX_SAMPLES = 2_000_000
# block length L of the simulation kernel (module docstring)
_BLOCK = 32
# points of the frequency grid of ``hinf_norm`` (module docstring)
_GRID = 2000


class SingularE(InputError, ArithmeticError):
    """Simulation requires an invertible lumped E (no impulsive modes)."""


class ZeroSpectrum(InputError, ArithmeticError):
    """Sampling rules need nonzero eigenvalue magnitudes."""


class Unstable(InputError, ArithmeticError):
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


@dataclass(frozen=True)
class FloatRealization:
    """Lumped model dx = a x + b u, y = c x + d u as doubles, with
    a = E^-1 A_hat and b = E^-1 B_hat, in time domain ``domain``."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    domain: str = "continuous"


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
    return _lumped_float(nds, phi).a


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


def choose_sampling(m1: StabilityMargins, m2: StabilityMargins):
    """Sampling period and count from the margins of a pair of systems.

    T = 0.1 / max rho_max and M = max(1e4, floor(100 x rho_max / rho_min)),
    with the extrema taken over both systems.  Raises TooManySamples when
    M would exceed MAX_SAMPLES, before anything is allocated.
    """
    rho_max = max(m1.rho_max, m2.rho_max)
    rho_min = min(m1.rho_min, m2.rho_min)
    if rho_max == 0.0 or rho_min == 0.0:
        raise ZeroSpectrum("zero eigenvalue magnitude breaks the sampling rule")
    t = 0.1 / rho_max
    ratio = 100.0 * rho_max / rho_min
    if ratio >= MAX_SAMPLES + 1:          # floor(ratio) > MAX_SAMPLES, or inf
        raise TooManySamples(
            f"sampling rule asks for {ratio:.4g} samples; the limit is "
            f"{MAX_SAMPLES}")
    m = max(10_000, math.floor(ratio))
    return t, m


_MASK64 = (1 << 64) - 1
_BITS = np.arange(64, dtype=np.uint64)


def _xorshift_step(s: np.ndarray) -> np.ndarray:
    """One xorshift64 state update of every entry of a uint64 array."""
    s = s ^ (s >> np.uint64(12))
    s = s ^ (s << np.uint64(25))
    return s ^ (s >> np.uint64(27))


def _unpack(s: np.ndarray) -> np.ndarray:
    return ((s[..., None] >> _BITS) & np.uint64(1)).astype(float)


def _pack(bits: np.ndarray) -> np.ndarray:
    return np.sum(bits.astype(np.uint64) << _BITS, axis=-1, dtype=np.uint64)


def _gf2_matmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # 0/1 entries and inner dimension 64: every float sum is an exact
    # integer, and r - 2 floor(r / 2) is its parity (faster than fmod)
    r = p @ q
    return r - 2.0 * np.floor(0.5 * r)


# column c: the bits of one state update applied to the unit state 1 << c
_STEP = _unpack(_xorshift_step(np.uint64(1) << _BITS)).T


def _xorshift_seed(seed: int, channel: int) -> int:
    state = (seed * 0x9E3779B97F4A7C15 + (channel + 1) * 0xBF58476D1CE4E5B9
             + 0x632BE59BD9B4E019) & _MASK64
    return state or 0x9E3779B97F4A7C15


def prbs(seed: int, m: int, channels: int, amplitude: float = 10.0) -> np.ndarray:
    """Pseudo-random binary signal, one independent stream per channel.

    Every sample is +-amplitude with equal probability; the same seed
    reproduces the same signal exactly.  Column j holds the first m
    outputs of xorshift64* stream j, so a longer signal extends a
    shorter one.
    """
    if m < 1:
        raise ValueError("need at least one sample")
    lanes = math.isqrt(m - 1) + 1          # ceil(sqrt(m)) lanes of ``steps``
    steps = -(-m // lanes)
    seed = int(seed)
    states = np.array([[_xorshift_seed(seed, j)] for j in range(channels)],
                      dtype=np.uint64).reshape(channels, 1)
    # lane l starts at output l * steps: double the lanes with the jump
    # matrices STEP^(steps), STEP^(2 steps), STEP^(4 steps), ...
    jump = np.eye(64)
    square, k = _STEP, steps
    while k:
        if k & 1:
            jump = _gf2_matmul(square, jump)
        square = _gf2_matmul(square, square)
        k >>= 1
    while states.shape[1] < lanes:
        ahead = _pack(_gf2_matmul(_unpack(states), jump.T))
        states = np.concatenate((states, ahead), axis=1)
        jump = _gf2_matmul(jump, jump)
    states = states[:, :lanes]
    bits = np.empty((channels, lanes, steps), dtype=bool)
    mul = np.uint64(0x2545F4914F6CDD1D)
    for t in range(steps):
        states = _xorshift_step(states)
        bits[:, :, t] = (states * mul) >> np.uint64(63)
    bits = bits.reshape(channels, lanes * steps)[:, :m]
    return np.ascontiguousarray(np.where(bits, amplitude, -amplitude).T)


def _lumped_float(nds: NdsDefinition, phi: SCMatrix) -> FloatRealization:
    model = lump(nds, phi)
    n, m_u, m_y = nds.m_x, nds.m_u, nds.m_y
    try:
        ab = ratmat.solve(ratmat.thaw(model.E_hat), ratmat.hstack(
            ratmat.thaw(model.A_hat), ratmat.thaw(model.B_hat)))
    except ratmat.SingularMatrixError as exc:
        raise SingularE("lumped E is singular; simulation is refused") \
            from exc
    a = np.asarray(ratmat.to_float([r[:n] for r in ab])).reshape(n, n)
    b = np.asarray(ratmat.to_float([r[n:] for r in ab])).reshape(n, m_u)
    c = np.asarray(ratmat.to_float(ratmat.thaw(model.C_hat))).reshape(m_y, n)
    d = np.asarray(ratmat.to_float(ratmat.thaw(model.D_hat))).reshape(m_y, m_u)
    return FloatRealization(a=a, b=b, c=c, d=d, domain=nds.time_domain)


@dataclass
class Screening:
    """Outcome of ``screen``: ``reason`` is None when every rule passed."""

    reason: str | None = None
    realization: FloatRealization | None = None
    margins: StabilityMargins | None = None
    tfm: RatFunMat | None = None

    def require(self, what: str) -> Screening:
        """This screening, or the typed error of the failed rule."""
        if self.reason is not None:
            error = {"irregular": NotRegular, "not_well_posed": NotWellPosed,
                     "singular_e": SingularE, "unstable": Unstable}
            raise error[self.reason](f"{what}: {self.reason}")
        return self


def screen(nds: NdsDefinition, phi: SCMatrix) -> Screening:
    """Skip rules of the study engine, in order (module docstring)."""
    phi.check_shape(nds)
    _check_subsystems(nds)
    try:
        tfm = descriptor_tfm(*lifted_realization(nds, phi))
    except NotRegular:
        return Screening("irregular")
    try:
        real = _lumped_float(nds, phi)
    except NotWellPosed:
        return Screening("not_well_posed")
    except SingularE:
        return Screening("singular_e")
    margins = stability_margins(real.a, nds.time_domain)
    if not margins.stable:
        return Screening("unstable", margins=margins)
    return Screening(realization=real, margins=margins, tfm=tfm)


def zoh_discretize(a: np.ndarray, b: np.ndarray, t: float):
    """(A_d, B_d) with A_d = exp(A T) and B_d = int_0^T exp(A s) ds B."""
    n, m = a.shape[0], b.shape[1]
    block = np.zeros((n + m, n + m))
    block[:n, :n] = a
    block[:n, n:] = b
    big = expm(block * t)
    return big[:n, :n], big[:n, n:]


def _zoh_states(a_d: np.ndarray, b_d: np.ndarray, u: np.ndarray,
                x0=None) -> np.ndarray:
    """States x[0 .. M-1] of x[k+1] = A_d x[k] + B_d u[k], by the block
    kernel of the module docstring (row vectors: x[k+1] = x[k] A_d^T + ...).
    """
    big_l = _BLOCK
    m, n_u = u.shape
    n = a_d.shape[0]
    powers = np.empty((big_l + 1, n, n))
    powers[0] = np.eye(n)
    for j in range(big_l):
        powers[j + 1] = a_d @ powers[j]
    # markov[k] = A_d^k B_d for k < L; markov[L] = 0 fills the upper triangle
    markov = np.zeros((big_l + 1, n, n_u))
    markov[:big_l] = powers[:big_l] @ b_d
    lag = np.arange(big_l + 1)[None, :] - np.arange(big_l)[:, None] - 1
    lag[lag < 0] = big_l
    # toeplitz[(i, c), (j, r)] = (A_d^(j-1-i) B_d)[r, c] for i < j, else 0
    toeplitz = markov[lag].transpose(0, 3, 1, 2).reshape(
        big_l * n_u, (big_l + 1) * n)
    # free[:, (j, r)] = rows of (A_d^j)^T, so s @ free stacks A_d^j s
    free = powers[:big_l].transpose(2, 0, 1).reshape(n, big_l * n)
    jump = powers[big_l].T
    x = np.empty((m, n))
    s = np.zeros(n)
    if x0 is not None:
        s[:] = np.asarray(x0, dtype=float)
    span = big_l * big_l
    u_pad = np.zeros((span, n_u))
    starts = np.empty((big_l, n))
    for lo in range(0, m, span):
        hi = min(m, lo + span)
        blocks = -(-(hi - lo) // big_l)
        # samples past hi (zeros, or left from the previous group) reach
        # only states past hi, which are dropped
        u_grp = u_pad[:blocks * big_l]
        u_grp[:hi - lo] = u[lo:hi]
        forced = (u_grp.reshape(blocks, big_l * n_u) @ toeplitz).reshape(
            blocks, big_l + 1, n)
        for b in range(blocks):
            starts[b] = s
            s = s @ jump + forced[b, big_l]
        states = starts[:blocks] @ free
        states += forced[:, :big_l].reshape(blocks, big_l * n)
        x[lo:hi] = states.reshape(blocks * big_l, n)[:hi - lo]
    return x


def simulate(real: FloatRealization, u, config: SimConfig) -> Trajectory:
    """Zero-order-hold simulation of a lumped realization under input u.

    Continuous-time systems are discretized exactly for piecewise
    constant inputs; discrete-time systems iterate the difference
    equation directly.  Both run the block kernel ``_zoh_states``.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if u.shape != (config.M, real.b.shape[1]):
        raise ShapeError(
            f"input must be {config.M}x{real.b.shape[1]}, got {u.shape}")
    if real.domain == "continuous":
        a_d, b_d = zoh_discretize(real.a, real.b, config.T)
    else:
        a_d, b_d = real.a, real.b
    x = _zoh_states(a_d, b_d, u, config.x0)
    y = x @ real.c.T + u @ real.d.T
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


def _coeff_table(h: RatFunMat) -> np.ndarray:
    """Float coefficients of every numerator, then every denominator, of
    ``h`` (entries row by row), zero-padded to one width, highest power
    first."""
    polys = ([e.num for row in h.entries for e in row]
             + [e.den for row in h.entries for e in row])
    width = max([len(p.coeffs) for p in polys] + [1])
    table = np.zeros((len(polys), width))
    for row, p in zip(table, polys):
        if p.coeffs:
            row[width - len(p.coeffs):] = [float(c) for c in
                                           reversed(p.coeffs)]
    return table


def _response(table: np.ndarray, points: np.ndarray, rows: int,
              cols: int) -> np.ndarray:
    """Response matrices from a ``_coeff_table``: one Horner pass over
    the degree evaluates every polynomial at every point."""
    vals = np.zeros((len(table), len(points)),
                    dtype=np.result_type(points.dtype, np.float64))
    for c in table.T:
        vals *= points
        vals += c[:, None]
    n = rows * cols
    resp = (vals[:n] / vals[n:]).T.reshape(len(points), rows, cols)
    return resp.astype(complex, copy=False)


def _sigma_max(resp: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a stack (p, m, n)."""
    k = min(resp.shape[1:])
    if k == 0:
        return np.zeros(len(resp))
    if k >= 3:
        return np.linalg.svd(resp, compute_uv=False)[:, 0]
    # the k columns of H, or of H^T when H is wide; sigma_max^2 is the
    # largest eigenvalue of their k x k Gram matrix
    vecs = resp if resp.shape[2] == k else resp.transpose(0, 2, 1)
    # scale each matrix by a power of two (exact) that puts its largest
    # real or imaginary part in [1/2, 1): no square below can overflow,
    # and only parts negligible next to that one can underflow
    top = np.maximum(np.abs(vecs.real), np.abs(vecs.imag)).max(axis=(1, 2))
    e = np.frexp(top)[1]
    re = np.ldexp(vecs.real, -e[:, None, None])
    im = np.ldexp(vecs.imag, -e[:, None, None])
    sq = (re * re + im * im).sum(axis=1)
    if k == 1:
        lam = sq[:, 0]
    else:
        a, d = sq[:, 0], sq[:, 1]
        b = np.hypot((re[:, :, 0] * re[:, :, 1]
                      + im[:, :, 0] * im[:, :, 1]).sum(axis=1),
                     (re[:, :, 0] * im[:, :, 1]
                      - im[:, :, 0] * re[:, :, 1]).sum(axis=1))
        lam = (a + d) / 2 + np.hypot((a - d) / 2, b)
    return np.ldexp(np.sqrt(lam), e)


def freq_response(h: RatFunMat, points) -> np.ndarray:
    """Complex response matrices H(p) of an exact rational matrix, stacked
    along the first axis, one per point p."""
    return _response(_coeff_table(h), np.asarray(points), h.rows, h.cols)


def sigma_max(diff: RatFunMat, points: np.ndarray) -> np.ndarray:
    """Largest singular value of an exact rational matrix at each point."""
    return _sigma_max(freq_response(diff, points))


def distance_freq(nds: NdsDefinition, phi1: SCMatrix,
                  phi2: SCMatrix) -> float:
    """H-infinity norm of the exact transfer matrix difference.

    The rational difference is computed exactly first, so equal transfer
    matrices give 0.0 with no floating-point evaluation at all.  The
    supremum is located on a logarithmic grid and sharpened by
    golden-section refinement around the best point.
    """
    h1, h2 = (screen(nds, phi).require("the NDS at one of the SCMs").tfm
              for phi in (phi1, phi2))
    return hinf_norm(h1 - h2, nds.time_domain)


def hinf_norm(diff: RatFunMat, domain: str = "continuous") -> float:
    """Supremum of the largest singular value of an exact rational matrix
    over the frequency axis (imaginary axis or unit circle).

    A pole on a grid point (1/s at w = 0, 1/(z - 1) at z = 1) gives
    ``math.inf``.  A pole on the axis between grid points still gives a
    large finite value: 1/(s^2 + 4) gives 9.95e9.  ``screen`` rejects such
    systems before any distance; an exact test of the axis is not made.
    In continuous time the exact limit H(inf) counts too: ``math.inf`` for
    an improper entry, lc(num)/lc(den) where the degrees agree.
    """
    if diff.is_zero:
        return 0.0
    at_inf = 0.0
    if domain == "continuous":
        at_inf = math.inf
        if all(e.is_proper for row in diff.entries for e in row):
            lim = [[0.0 if e.is_strictly_proper else
                    float(e.num.leading / e.den.leading) for e in row]
                   for row in diff.entries]
            at_inf = float(_sigma_max(np.array([lim], dtype=complex))[0])

        def pts(ts):
            return 1j * ts
        ts = np.concatenate(([0.0], np.logspace(-3.0, 3.0, _GRID)))
    else:
        def pts(ts):
            return np.exp(1j * ts)
        ts = np.linspace(0.0, math.pi, _GRID)
    table = _coeff_table(diff)

    def sig(ts):
        return _sigma_max(_response(table, pts(ts), diff.rows, diff.cols))
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = sig(ts)
    if not np.isfinite(vals).all():
        return math.inf
    k = int(np.argmax(vals))
    lo = ts[max(k - 1, 0)]
    hi = ts[min(k + 1, len(ts) - 1)]
    best = float(vals[k])
    # golden-section sharpening of the located peak
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a_t, b_t = lo, hi
    c_t = b_t - gr * (b_t - a_t)
    d_t = a_t + gr * (b_t - a_t)
    fc = float(sig(np.array([c_t]))[0])
    fd = float(sig(np.array([d_t]))[0])
    for _ in range(200):
        if fc < fd:
            a_t, c_t, fc = c_t, d_t, fd
            d_t = a_t + gr * (b_t - a_t)
            fd = float(sig(np.array([d_t]))[0])
        else:
            b_t, d_t, fd = d_t, c_t, fc
            c_t = b_t - gr * (b_t - a_t)
            fc = float(sig(np.array([c_t]))[0])
        peak = max(fc, fd)
        if abs(b_t - a_t) <= 1e-12 + 1e-9 * abs(b_t) or \
                (peak > 0 and abs(fd - fc) <= 1e-7 * peak):
            break
    return max(best, fc, fd, at_inf)


def distance_scm(phi_t: SCMatrix, region) -> float:
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
    # exact H(Phi_tau) - H(Phi0) of a kept row; d_F is its H-infinity norm
    tfm_diff: RatFunMat | None = None


def tau_sweep(nds: NdsDefinition, phi0: SCMatrix, phi_tilde: SCMatrix,
              tau_grid, config: SimConfig | None = None, *, region,
              seed: int | None = None) -> list:
    """Distances and margins along Phi0 + tau (Phi_tilde - Phi0).

    d_S projects onto ``region``, the caller's UndiffRegion at Phi0.  A
    grid point that fails a rule of ``screen``, or whose sampling rule
    asks for more than MAX_SAMPLES samples, is skipped with the reason
    recorded (module docstring).  Every row probes with the first M
    samples of one PRBS of amplitude 10 drawn from ``seed`` (default 0),
    so a row does not depend on the other points of the grid.  ``config``
    is the older way to pass the seed: its seed and amplitude are used and
    its T and M are ignored; passing both ``config`` and ``seed`` is a
    TypeError.  Every SCM is screened once, and its screening supplies the
    realization, the margins and the exact transfer matrix of its row; a
    point equal to Phi0 shares the reference's, so d_T = d_F = 0.0 there.
    """
    if config is not None and seed is not None:
        raise TypeError("pass the seed either in config or as seed=")
    if config is not None:
        seed, amplitude = config.seed, config.amplitude
    else:
        seed, amplitude = seed or 0, 10.0
    ref = screen(nds, phi0).require("the reference system of the sweep")
    delta = ratmat.sub(phi_tilde.as_lists(), phi0.as_lists())
    stream = None      # the longest PRBS drawn so far; rows use prefixes
    rows = []
    for tau in tau_grid:
        tau = Fraction(tau)
        phi_tau = SCMatrix(ratmat.freeze(
            ratmat.add(phi0.as_lists(), ratmat.scale(delta, tau))))
        screened = ref if phi_tau == phi0 else screen(nds, phi_tau)
        if screened.reason is not None:
            rows.append(SweepRow(tau=tau, skipped=True,
                                 reason=screened.reason,
                                 margins=screened.margins))
            continue
        try:
            t, m = choose_sampling(ref.margins, screened.margins)
        except TooManySamples:
            rows.append(SweepRow(tau=tau, skipped=True,
                                 reason="too_many_samples",
                                 margins=screened.margins))
            continue
        if stream is None or len(stream) < m:
            stream = prbs(seed, m, nds.m_u, amplitude)
        u = stream[:m]
        cfg = SimConfig(T=t, M=m, seed=seed, amplitude=amplitude)
        diff = screened.tfm - ref.tfm
        rows.append(SweepRow(
            tau=tau, skipped=False,
            d_T=distance_time(simulate(ref.realization, u, cfg),
                              simulate(screened.realization, u, cfg)),
            d_F=hinf_norm(diff, nds.time_domain),
            d_S=distance_scm(phi_tau, region),
            margins=screened.margins, T=t, M=m, tfm_diff=diff))
    return rows
