"""Linear-process models: admissibility checks and the marginal oracle.

The stationary marginal of X_i = sum_k c_k eps_{i-k} has CDF
F(x) = E F_eps(x - P) where P = sum_{k>=1} c_k eps_{-k} is the one-step
predictor, and characteristic function phi_X(t) = prod_k phi_eps(c_k t).
The oracle serves F, f and Q from one law, chosen by its kind:

* exact: Gaussian innovations; the law N(0, sigma^2), sigma^2 =
  scale^2 sum c_k^2, from the innovations module, F(x) = Phi(x/sigma);
* single-point: a memoryless kernel, F = F_eps; the innovation law
  itself;
* fourier: a dependent model with a smooth innovation law. phi_X (lags
  up to the horizon K, a Gaussian top-up for the rest) is inverted once
  by the trapezoidal Gil-Pelaez series onto a table, from which F and f
  are served by Hermite interpolation and Q by Newton steps, all
  vectorized and deterministic (:class:`FourierMarginal`).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientSequence, truncation_horizon
from .errors import ModelError
from .innovations import InnovationModel, get_innovation


@dataclass(frozen=True)
class LinearProcessModel:
    """Innovation law + coefficient kernel + truncation exponent rho.

    gamma1/gamma2 are the regular-variation exponents of f(Q(y)) at the
    lower/upper endpoint, supplied as model metadata.
    """

    innovations: InnovationModel
    coefficients: CoefficientSequence
    rho: float
    gamma1: float | None = None
    gamma2: float | None = None

    def __post_init__(self):
        if not (0.0 < self.rho < 0.5):
            raise ModelError(f"rho must lie strictly in (0, 1/2), got {self.rho}")
        if self.coefficients.kind == "power_law":
            tau = self.coefficients.params["tau"]
            rho_min = 2.0 / (2.0 * tau - 1.0)
            if self.rho < rho_min:
                raise ModelError(
                    f"rho={self.rho} too small for power-law tau={tau}: the "
                    f"squared-tail bound needs rho >= {rho_min:.6g}")

    @property
    def model_id(self):
        return (f"{self.innovations.name}(scale={self.innovations.scale:g})"
                f"|{self.coefficients.label()}|rho={self.rho:g}")

    @property
    def sigma(self):
        """Marginal standard deviation (innovation scale included)."""
        return self.innovations.scale * math.sqrt(self.coefficients.sum_sq)

    def horizon(self, trunc_tol=None):
        """Lag horizon K: the smallest lag whose remaining tail standard
        deviation, innovation scale included, is at most ``trunc_tol``
        (default 1e-6 * sigma). Lags up to K are kept exactly by the path
        simulation, the Fourier engine and the Monte Carlo windows."""
        if trunc_tol is None:
            trunc_tol = 1e-6 * max(self.sigma, 1e-12)
        scale = max(self.innovations.scale, 1e-300)
        return truncation_horizon(self.coefficients, trunc_tol / scale)

    @property
    def has_memory(self):
        return self.coefficients.memory != 0

    @property
    def gamma_min(self):
        if self.gamma1 is None or self.gamma2 is None:
            return None
        return min(self.gamma1, self.gamma2)


# ---------------------------------------------------------------------------
# condition (tail-mass) admissibility


@dataclass(frozen=True)
class AdmissibilityReport:
    kind: str
    rho: float
    sup_product: float
    tail_slope: float
    bounded: bool
    admissible: bool
    rho_min: float | None = None   # power-law only
    tau: float | None = None
    i_range: tuple = (16, 16384)

    def describe(self):
        lines = [f"tail condition at rho={self.rho:g} for {self.kind}:"]
        lines.append(f"  sup_i tail_sq(i) * i^(2/rho) * log(i)^3 = {self.sup_product:.6g}"
                     f" over dyadic i in [{self.i_range[0]}, {self.i_range[1]}]")
        lines.append(f"  dyadic log-log slope of the product = {self.tail_slope:+.4f}"
                     f" ({'bounded' if self.bounded else 'diverging'})")
        if self.rho_min is not None:
            lines.append(f"  analytic admissible interval: rho in [{self.rho_min:.6g}, 0.5)")
        lines.append(f"  verdict: {'admissible' if self.admissible else 'NOT admissible'}")
        return "\n".join(lines)


def check_dependence_condition(coeffs, rho, i_min=16, i_max=16384,
                               slope_tol=0.05):
    """Check the squared-tail decay sum_{k>=i} c_k^2 = O(i^(-2/rho) log(i)^-3).

    Evaluates the normalized product tail_sq(i) * i^(2/rho) * log(i)^3 on a
    dyadic grid and calls it bounded when the product does not grow along
    the upper half of the grid. For the power-law family the analytic
    verdict tau > 5/2 and rho >= 2/(2*tau - 1) decides admissibility.
    """
    if not (0.0 < rho < 0.5):
        raise ModelError(f"rho must lie strictly in (0, 1/2), got {rho}")
    i_vals = []
    i = i_min
    while i <= i_max:
        i_vals.append(i)
        i *= 2
    prod = np.array([coeffs.tail_sq(i) * i ** (2.0 / rho) * math.log(i) ** 3
                     for i in i_vals])
    sup_product = float(prod.max())

    if np.all(prod[len(prod) // 2:] < 1e-12):
        # tail vanishes (finite memory) or decays super-polynomially
        slope = -math.inf
        bounded = True
    else:
        lo = np.log(np.maximum(prod, 1e-300))
        x = np.log(i_vals)
        half = len(i_vals) // 2
        slope = float(np.polyfit(x[half:], lo[half:], 1)[0])
        bounded = slope <= slope_tol

    rho_min = None
    tau = None
    admissible = bounded
    if coeffs.kind == "power_law":
        tau = coeffs.params["tau"]
        rho_min = 2.0 / (2.0 * tau - 1.0)
        admissible = tau > 2.5 and rho >= rho_min

    return AdmissibilityReport(
        kind=coeffs.kind, rho=rho, sup_product=sup_product,
        tail_slope=slope, bounded=bounded, admissible=admissible,
        rho_min=rho_min, tau=tau, i_range=(i_min, i_vals[-1]))


# ---------------------------------------------------------------------------
# innovation smoothness report


@dataclass(frozen=True)
class SmoothnessReport:
    name: str
    sup_pdf: float
    sup_pdf_deriv: float
    sup_pdf_deriv2: float
    max_fd1_error: float
    max_fd2_error: float
    violation: bool
    worst_x: float

    def describe(self):
        status = "violated" if self.violation else "satisfied"
        return (f"density smoothness for {self.name}: {status} "
                f"(sup f={self.sup_pdf:.6g}, sup |f'|={self.sup_pdf_deriv:.6g}, "
                f"sup |f''|={self.sup_pdf_deriv2:.6g}, worst finite-difference "
                f"mismatch {max(self.max_fd1_error, self.max_fd2_error):.3g} "
                f"near x={self.worst_x:.4g})")


def validate_innovation(innov, lo=None, hi=None, step=0.01, fd_tol=1e-3):
    """Numerical smoothness probe for an innovation density.

    Scans a grid covering the effective support (CDF mass outside below
    1e-8) and compares central finite differences of the density against
    the declared derivative, staggered at midpoints so kinks between grid
    nodes are straddled. Report-only: a violation is flagged, not raised.
    """
    if lo is None:
        lo = float(innov.quantile(1e-8))
    if hi is None:
        hi = float(innov.quantile(1.0 - 1e-8))
    if not hi > lo:
        raise ValueError("empty probe interval")
    mass_out = float(innov.cdf(lo)) + float(1.0 - innov.cdf(hi))
    if mass_out > 1e-6:
        raise ValueError(
            f"probe grid [{lo:g}, {hi:g}] misses {mass_out:.3g} of the mass")

    grid = np.arange(lo, hi + step, step)
    mid = 0.5 * (grid[:-1] + grid[1:])
    h = step

    pdf_mid = innov.pdf(mid)
    fd1 = (innov.pdf(mid + h) - innov.pdf(mid - h)) / (2.0 * h)
    err1 = np.abs(fd1 - innov.pdf_deriv(mid))
    fd2 = (innov.pdf_deriv(mid + h) - innov.pdf_deriv(mid - h)) / (2.0 * h)
    err2 = np.abs(fd2 - innov.pdf_deriv2(mid))

    worst = int(np.argmax(np.maximum(err1, err2)))
    return SmoothnessReport(
        name=innov.name,
        sup_pdf=float(np.max(pdf_mid)),
        sup_pdf_deriv=float(np.max(np.abs(innov.pdf_deriv(mid)))),
        sup_pdf_deriv2=float(np.max(np.abs(innov.pdf_deriv2(mid)))),
        max_fd1_error=float(err1.max()),
        max_fd2_error=float(err2.max()),
        violation=bool(err1.max() > fd_tol or err2.max() > fd_tol),
        worst_x=float(mid[worst]))


# ---------------------------------------------------------------------------
# Fourier marginal engine

ALIAS_TARGET = 1e-20   # Chernoff bound of the aliasing at the table ends
TRUNC_TARGET = 1e-18   # bound of each omitted tail of the F, f, f', f'' series
_CELLS_PER_SCALE = 64  # table cells per unit of innovation scale
_SERIES_BLOCK = 1 << 14  # cap on points * terms per direct-series block
_NOISE_EPS = 64        # node densities below this many eps of max f are noise


def log_cf(innovation, weights, top_var, t):
    """log phi(t) of sum_k weights[k] eps_k + N(0, top_var), for real or
    complex t (at t = -i theta, the log moment generating function)."""
    t = np.asarray(t)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = innovation.cf(np.multiply.outer(t, weights))
        if np.iscomplexobj(values) or np.any(values < 0.0):
            values = values + 0j
        terms = np.log(values)
    return terms.sum(axis=-1) - 0.5 * top_var * t * t


def half_period(innovation, weights, top_var):
    """Half-period D of the series, a power of two, and its aliasing bound.

    The trapezoidal series with step h = pi/D is the exact CDF of the
    wrapped law, so at |x| <= D it is off by at most
    sum_{m>=1} [P(X <= x - 2mD) + P(X > x + 2mD)]
        <= (M(theta) + M(-theta)) exp(-theta D) / (1 - exp(-2 theta D))
    (Chernoff, M the moment generating function). theta runs up a
    geometric grid until the closed form stops being finite and
    increasing, i.e. up to its first pole; D is the smallest power of two
    that meets ``ALIAS_TARGET`` at one theta of that grid.
    """
    theta = 2.0 ** (np.arange(97) / 8.0) / (64.0 * innovation.scale)
    up = log_cf(innovation, weights, top_var, -1j * theta)
    down = log_cf(innovation, weights, top_var, 1j * theta)
    with np.errstate(invalid="ignore"):
        log_m = np.logaddexp(up.real, down.real)
        ok = (np.isfinite(log_m) & (np.abs(up.imag) < 1e-9)
              & (np.abs(down.imag) < 1e-9))
        ok[1:] &= np.diff(log_m) >= 0.0
    stop = ok.size if ok.all() else int(np.argmin(ok))
    if stop == 0:
        raise ModelError(f"no finite moment generating function for "
                         f"{innovation.name!r} innovations")
    theta, log_m = theta[:stop], log_m[:stop]
    i = int(np.argmin((log_m - math.log(ALIAS_TARGET)) / theta))
    theta, log_m = float(theta[i]), float(log_m[i])
    d = 2.0 ** math.ceil(math.log2((log_m - math.log(ALIAS_TARGET)) / theta))
    return d, math.exp(log_m - theta * d) / -math.expm1(-2.0 * theta * d)


def series_length(log_phi, h):
    """Smallest N whose omitted tails are all at most ``TRUNC_TARGET``.

    Returns N and the bounds of the omitted tails of the F, f, f' and f''
    series: sum_{k>N} a_k with a_k = |phi(kh)| (kh)^p / k^q. log|phi| is
    concave and decreasing on t > 0 for the smooth laws (Gaussian,
    logistic, and so their products), so a_{k+1}/a_k <= r ((N+2)/(N+1))^p
    for k > N, with r = |phi((N+1)h)| / |phi(Nh)|, and the tail is at most
    a_{N+1} / (1 - that ratio).
    """
    k_max = 512
    while k_max <= 1 << 22:
        k = np.arange(1, k_max + 2, dtype=float)
        g = log_phi(k * h).real
        n, nxt = k[:-1], np.exp(g[1:])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = np.exp(g[1:] - g[:-1])
            tails = []
            for p, scale in ((0, 1.0 / (np.pi * (n + 1))), (0, h / np.pi),
                             (1, h / np.pi), (2, h / np.pi)):
                ratio = r * ((n + 2) / (n + 1)) ** p
                tail = scale * ((n + 1) * h) ** p * nxt / (1.0 - ratio)
                tails.append(np.where(nxt == 0.0, 0.0,
                                      np.where(ratio < 1.0, tail, np.inf)))
        tails = np.array(tails)
        good = np.all(tails <= TRUNC_TARGET, axis=0)
        if good.any():
            i = int(np.argmax(good))
            return int(n[i]), tuple(float(v) for v in tails[:, i])
        k_max *= 4
    raise ModelError("characteristic function decays too slowly for the "
                     "Fourier series")


def fourier_series(log_phi, x, half, n_terms):
    """F and f at points x by the trapezoidal Gil-Pelaez series

        F(x) = 1/2 + h x/(2 pi) - sum_{k=1..N} Im(phi(kh) e^{-ikhx})/(pi k),
        f(x) = h/(2 pi) + (h/pi) sum_{k=1..N} Re(phi(kh) e^{-ikhx}),

    with h = pi/D (a centered law). Where |x| > ``half`` the period grows
    to D + |x|, and the term count with it, so that every point keeps at
    least the distance ``half`` to its nearest alias.
    """
    x = np.asarray(x, dtype=float)
    d = max(half, 0.5 * (half + float(np.max(np.abs(x), initial=0.0))))
    h = math.pi / d
    n = int(math.ceil(n_terms * d / half))
    F = 0.5 + x * (h / (2.0 * math.pi))
    f = np.full_like(x, h / (2.0 * math.pi))
    step = max(1, _SERIES_BLOCK // max(x.size, 1))
    for k0 in range(1, n + 1, step):
        k = np.arange(k0, min(k0 + step, n + 1), dtype=float)
        w = np.exp(log_phi(k * h) - 1j * np.multiply.outer(x, k * h))
        F -= (w.imag / (np.pi * k)).sum(axis=-1)
        f += (h / np.pi) * w.real.sum(axis=-1)
    return F, f


def _horner(c, t):
    """sum_m c[m] t^m, for coefficient rows c[0], c[1], ..."""
    out = c[-1]
    for row in c[-2::-1]:
        out = out * t + row
    return out


def _quintic(p0, v0, w0, p1, v1, w1):
    """Coefficients in t of the quintic on [0, 1] with values p, first
    derivatives v and second derivatives w at t = 0 and t = 1."""
    return np.stack([
        p0, v0, 0.5 * w0,
        -10.0 * p0 - 6.0 * v0 - 1.5 * w0 + 10.0 * p1 - 4.0 * v1 + 0.5 * w1,
        15.0 * p0 + 8.0 * v0 + 1.5 * w0 - 15.0 * p1 + 7.0 * v1 - w1,
        -6.0 * p0 - 3.0 * v0 - 0.5 * w0 + 6.0 * p1 - 3.0 * v1 + 0.5 * w1])


class FourierMarginal:
    """F, f and f' of X = sum_{k<=K} c_k eps_k + N(0, top_var), inverted
    from phi_X once, onto a table.

    The table spans one period [-D, D] of the series (:func:`fourier_series`)
    in cells of width dx <= scale/64. Four FFTs give the series' f, f', f''
    at the nodes and F, f, f' at three check points per cell. On each cell
    the served density f_s is the quintic Hermite interpolant of f, f', f''
    at its two nodes, and the served CDF is its integral,
    F_s(x) = F_j + int_{x_j}^x f_s, with F at the left end 0 and F_j the
    running sum of the cell integrals (normalized to 1: the wrapped
    density integrates to 1 over a period). So f_s is exactly the
    derivative of F_s, F_s is continuous and nondecreasing where f_s >= 0,
    and F keeps relative precision in the lower tail. Outside [-D, D] the
    direct series serves F and f. Q is seeded by ``searchsorted`` on the
    node values and polished by Newton steps on F_s, within the cell.

    Error bounds, all measured or proven at build:
    ``cdf_error_bound`` = aliasing bound + F-series truncation bound +
    the largest |F_s - F| at the check points; ``density_error`` and
    ``deriv_error`` are the same truncation-plus-measured sums for f and
    f'; ``alias`` bounds the aliasing (which also bounds F(-D) and
    1 - F(D)).
    """

    def __init__(self, innovation, weights, top_var):
        self.innovation = innovation
        self.weights = np.asarray(weights, dtype=float)
        self.top_var = float(top_var)
        self.half, self.alias = half_period(innovation, self.weights,
                                             self.top_var)
        h = math.pi / self.half
        self.n_terms, trunc = series_length(self.log_phi, h)
        # powers of two make every node x_j = (j - cells/2) dx exact
        self.dx = 2.0 ** math.floor(math.log2(innovation.scale
                                              / _CELLS_PER_SCALE))
        while 8.0 * self.half / self.dx <= self.n_terms:
            self.dx /= 2.0
        cells = int(round(2.0 * self.half / self.dx))
        self.cells = cells
        x, F, f, d1, d2 = self._series_grid(4 * cells, h)

        nodes = np.arange(0, 4 * cells + 1, 4) % (4 * cells)  # +D wraps to -D
        # node densities at the FFT's rounding level (a few eps max f) are
        # noise, and are zeroed with their derivatives so that f_s >= 0
        keep = f[nodes] > _NOISE_EPS * np.finfo(float).eps * np.max(f)
        dx = self.dx
        fn, vn, wn = (np.where(keep, v[nodes], 0.0)
                      for v in (f, dx * d1, dx * dx * d2))
        c = _quintic(fn[:-1], vn[:-1], wn[:-1], fn[1:], vn[1:], wn[1:])
        # f_s = sum_m c_m t^m on a cell, F_s = F_j + dx t sum_m c_m t^m/(m+1)
        c_int = c / np.arange(1.0, 7.0)[:, None]
        total = np.cumsum(np.concatenate([[0.0], dx * c_int.sum(axis=0)]),
                          dtype=np.longdouble)
        self.coef = c / float(total[-1])
        self.coef_int = c_int / float(total[-1])
        self.F_nodes = (total / total[-1]).astype(float)

        check = np.arange(4 * cells) % 4 != 0
        j, t = self._cell(x[check])
        self.cdf_error_bound = self.alias + trunc[0] + float(
            np.max(np.abs(self._cdf_at(j, t) - F[check])))
        self.density_error = trunc[1] + float(
            np.max(np.abs(self._pdf_at(j, t) - f[check])))
        self.deriv_error = trunc[2] + float(
            np.max(np.abs(self._deriv_at(j, t) - d1[check])))

    def _series_grid(self, size, h):
        """x_j = -D + j 2D/size and the series' F, f, f', f'' there, by
        FFT: e^{-ikh x_j} = (-1)^k e^{-2 pi i jk/size}."""
        k = np.arange(size, dtype=float)
        b = np.zeros(size, dtype=complex)
        terms = slice(1, self.n_terms + 1)
        b[terms] = np.exp(self.log_phi(k[terms] * h)) * (-1.0) ** k[terms]
        kh = k * h
        x = self.half * (2.0 * k / size - 1.0)
        F = 0.5 + x * (h / (2.0 * np.pi)) - np.fft.fft(
            b / (np.pi * np.maximum(k, 1.0))).imag
        f = h / np.pi * (0.5 + np.fft.fft(b).real)
        d1 = h / np.pi * np.fft.fft(kh * b).imag
        d2 = -h / np.pi * np.fft.fft(kh * kh * b).real
        return x, F, f, d1, d2

    def log_phi(self, t):
        return log_cf(self.innovation, self.weights, self.top_var, t)

    def _left(self, j):
        return (j - self.cells // 2) * self.dx

    def _cell(self, x):
        """Cell index and exact position t in [0, 1] within the cell."""
        j = np.clip(np.floor(x / self.dx) + self.cells // 2, 0,
                    self.cells - 1).astype(np.int64)
        return j, (x - self._left(j)) / self.dx

    def _cdf_at(self, j, t):
        """F_s at position t of cells j; the cap keeps the rounded sum from
        passing the next node value."""
        return np.minimum(
            self.F_nodes[j] + self.dx * t * _horner(
                np.take(self.coef_int, j, axis=1), t),
            self.F_nodes[j + 1])

    def _pdf_at(self, j, t):
        return _horner(np.take(self.coef, j, axis=1), t)

    def _deriv_at(self, j, t):
        return _horner(self.coef[1:, j] * np.arange(1.0, 6.0)[:, None],
                       t) / self.dx

    def _evaluate(self, x, at, which):
        """F (which 0) or f (which 1) at a 1-d array x: ``at`` on the table
        inside [-D, D], the direct series outside."""
        out = np.empty_like(x)
        inside = np.abs(x) <= self.half
        out[inside] = at(*self._cell(x[inside]))
        if not inside.all():
            out[~inside] = fourier_series(self.log_phi, x[~inside], self.half,
                                          self.n_terms)[which]
        return out

    def cdf(self, x):
        return self._evaluate(x, self._cdf_at, 0)

    def pdf(self, x):
        return self._evaluate(x, self._pdf_at, 1)

    def quantile(self, y):
        """Q(y) for y in (0, 1): Newton steps on F_s from the linear
        interpolant of the node values, kept inside the seed's cell. y
        above the last node value (within rounding of 1) maps into the
        last cell.

        The seed is off by at most dx (L dx / 8) e^{L dx} for a score bound
        L on the cell, and each step squares the error times L/2. With
        dx <= scale/64 that is below 1e-19 after two steps for a bounded
        score (L = 1/scale) and after three for the Gaussian one
        (L = |x|/scale^2, |x| <= D).
        """
        j = np.clip(np.searchsorted(self.F_nodes, y, side="right") - 1,
                    0, self.cells - 1)
        lo, hi = self.F_nodes[j], self.F_nodes[j + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.clip(np.where(hi > lo, (y - lo) / (hi - lo), 0.5), 0.0, 1.0)
        c, c_int = np.take(self.coef, j, axis=1), np.take(self.coef_int, j,
                                                          axis=1)
        tiny = np.finfo(float).tiny
        for _ in range(2 if self.innovation.score_bound[1] == 0.0 else 3):
            F = lo + self.dx * t * _horner(c_int, t)
            f = np.maximum(_horner(c, t), tiny)
            t = np.clip(t - (F - y) / (f * self.dx), 0.0, 1.0)
        return self._left(j) + self.dx * t


# ---------------------------------------------------------------------------
# marginal oracle


@dataclass
class MarginalOracle:
    """Numerical F, f, Q of the stationary marginal, served by one law.

    ``law`` serves vectorized ``cdf``, ``pdf`` and ``quantile``. By
    ``kind``, it is:

    * ``exact``: the Gaussian law N(0, sigma^2) of Gaussian innovations;
    * ``single-point``: the innovation law itself (a memoryless kernel,
      F = F_eps);
    * ``fourier``: the :class:`FourierMarginal` of a dependent model.
    """

    model_id: str
    kind: str
    law: InnovationModel | FourierMarginal = field(repr=False)
    gamma1: float | None = None
    gamma2: float | None = None

    @property
    def cdf_error_bound(self):
        """Bound of sup |cdf - F|: 0 for the closed forms and the engine's
        build-time bound for ``fourier``."""
        return self.law.cdf_error_bound if self.kind == "fourier" else 0.0

    def cdf(self, x):
        return _shaped(self.law.cdf, x)

    def pdf(self, x):
        return _shaped(self.law.pdf, x)

    def quantile(self, y):
        y_arr = np.asarray(y, dtype=float)
        if np.any(y_arr <= 0.0) or np.any(y_arr >= 1.0):
            raise ValueError("quantile argument must lie strictly in (0, 1)")
        return _shaped(self.law.quantile, y_arr)


def _shaped(fn, v):
    """fn over the flattened array v, in v's shape; a float for a scalar."""
    arr = np.asarray(v, dtype=float)
    out = fn(arr.ravel()).reshape(arr.shape)
    return float(out) if arr.shape == () else out


def build_marginal_oracle(model):
    """Numerical marginal oracle: the single-point oracle for a memoryless
    kernel, whose predictor is identically zero, and the Fourier engine
    for a model with memory.

    Lags up to the model's default horizon K enter the engine exactly,
    the rest as a Gaussian top-up. The engine needs a smooth innovation
    law and raises ModelError otherwise.
    """
    innov = model.innovations
    coeffs = model.coefficients
    if coeffs.memory == 0:
        return MarginalOracle(model.model_id, "single-point", innov,
                              model.gamma1, model.gamma2)
    if not innov.smooth:
        raise ModelError(
            f"the Fourier marginal engine needs a smooth innovation "
            f"density; {innov.name!r} is not smooth")
    K = model.horizon()
    engine = FourierMarginal(innov, coeffs.weights(K),
                             coeffs.tail_sq(K + 1) * innov.scale ** 2)
    return MarginalOracle(model.model_id, "fourier", engine, model.gamma1,
                          model.gamma2)


def exact_marginal_oracle(model):
    """Closed-form oracle N(0, sigma^2); only Gaussian innovations have
    one."""
    if model.innovations.name != "gaussian":
        raise ModelError(
            f"no closed-form marginal for {model.innovations.name} innovations")
    return MarginalOracle(model.model_id, "exact",
                          get_innovation("gaussian", scale=model.sigma),
                          model.gamma1, model.gamma2)
