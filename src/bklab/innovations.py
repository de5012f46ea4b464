"""Innovation laws driving the linear process.

Each law bundles its CDF, density, first two density derivatives, quantile
function and a sampler, together with declared moment and smoothness
metadata. The smoothness flag records whether the density and its first
two derivatives are bounded on the whole line; laws with kinks or jumps
(uniform, Laplace, exponential) declare ``smooth=False`` and are also
caught numerically by :func:`validate_innovation` in the model module.
Each law also declares its characteristic function in closed form, which
the Fourier marginal engine of the model module inverts.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtr, ndtri

_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class InnovationModel:
    """An i.i.d. innovation law with analytic CDF/density machinery.

    Callables are vectorized over numpy arrays. ``moment_order`` is the
    largest a with E|eps|^a finite (inf allowed); ``smooth`` says whether
    sup over the line of density + |f'| + |f''| is finite. ``score_bound``
    is a pair (alpha, beta) with |f'/f|(z) <= alpha + beta |z| on the
    interior of the support. ``cf`` is the characteristic function
    E exp(i t eps); its closed form also accepts complex t, and at
    t = -i theta it is the moment generating function E exp(theta eps)
    wherever that is finite. ``variance`` is Var(eps) and ``pdf_max`` the
    supremum of the density, the Lipschitz constant of the CDF.
    """

    name: str
    cdf: callable
    pdf: callable
    pdf_deriv: callable
    pdf_deriv2: callable
    quantile: callable
    sampler: callable  # (rng, size) -> ndarray
    moment_order: float
    smooth: bool
    score_bound: tuple
    cf: callable
    variance: float
    pdf_max: float
    scale: float = 1.0

    def sample(self, rng, size):
        return self.sampler(rng, size)


def _gaussian(scale=1.0):
    s = float(scale)

    def pdf(x):
        z = np.asarray(x, dtype=float) / s
        return np.exp(-0.5 * z * z) / (_SQRT2PI * s)

    return InnovationModel(
        name="gaussian",
        cdf=lambda x: ndtr(np.asarray(x, dtype=float) / s),
        pdf=pdf,
        pdf_deriv=lambda x: -(np.asarray(x, dtype=float) / s) * pdf(x) / s,
        pdf_deriv2=lambda x: ((np.asarray(x, dtype=float) / s) ** 2 - 1.0) * pdf(x) / s**2,
        quantile=lambda y: s * ndtri(np.asarray(y, dtype=float)),
        sampler=lambda rng, size: s * rng.standard_normal(size),
        moment_order=math.inf,
        smooth=True,
        scale=s,
        score_bound=(0.0, 1.0 / s**2),
        cf=lambda t: np.exp(-0.5 * (s * np.asarray(t)) ** 2),
        variance=s * s,
        pdf_max=1.0 / (_SQRT2PI * s),
    )


def _logistic(scale=1.0):
    s = float(scale)

    def cdf(x):
        return expit(np.asarray(x, dtype=float) / s)

    def pdf(x):
        p = cdf(x)
        return p * (1.0 - p) / s

    def pdf_deriv(x):
        p = cdf(x)
        return p * (1.0 - p) * (1.0 - 2.0 * p) / s**2

    def pdf_deriv2(x):
        p = cdf(x)
        return p * (1.0 - p) * (1.0 - 6.0 * p + 6.0 * p * p) / s**3

    def cf(t):
        # z / sinh(z) at z = pi s t, even in z; written with exp(-w) for
        # Re w >= 0 so that large |t| underflows to 0 instead of overflowing
        z = np.pi * s * np.asarray(t)
        w = np.where(np.real(z) < 0.0, -z, z)
        with np.errstate(invalid="ignore"):
            out = 2.0 * w * np.exp(-w) / -np.expm1(-2.0 * w)
        return np.where(w == 0.0, 1.0, out)

    return InnovationModel(
        name="logistic",
        cdf=cdf,
        pdf=pdf,
        pdf_deriv=pdf_deriv,
        pdf_deriv2=pdf_deriv2,
        quantile=lambda y: s * (np.log(np.asarray(y, dtype=float))
                                - np.log1p(-np.asarray(y, dtype=float))),
        sampler=lambda rng, size: rng.logistic(0.0, s, size),
        moment_order=math.inf,
        smooth=True,
        scale=s,
        score_bound=(1.0 / s, 0.0),
        cf=cf,
        variance=(math.pi * s) ** 2 / 3.0,
        pdf_max=0.25 / s,
    )


def _uniform():
    # Uniform on (0, 1): identity CDF inside the support. The density jumps
    # at the support edges, so the law is declared non-smooth.
    def cdf(x):
        return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0)

    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))

    def cf(t):
        it = 1j * np.asarray(t)
        with np.errstate(invalid="ignore"):
            return np.where(it == 0.0, 1.0, np.expm1(it) / it)

    return InnovationModel(
        name="uniform",
        cdf=cdf,
        pdf=pdf,
        pdf_deriv=zero,
        pdf_deriv2=zero,
        quantile=lambda y: np.asarray(y, dtype=float),
        sampler=lambda rng, size: rng.random(size),
        moment_order=math.inf,
        smooth=False,
        score_bound=(0.0, 0.0),
        cf=cf,
        variance=1.0 / 12.0,
        pdf_max=1.0,
    )


def _laplace(scale=1.0):
    s = float(scale)

    def cdf(x):
        z = np.asarray(x, dtype=float) / s
        return np.where(z < 0.0, 0.5 * np.exp(np.minimum(z, 0.0)),
                        1.0 - 0.5 * np.exp(-np.maximum(z, 0.0)))

    def pdf(x):
        z = np.abs(np.asarray(x, dtype=float)) / s
        return 0.5 * np.exp(-z) / s

    def pdf_deriv(x):
        # Discontinuous at 0; the midpoint convention keeps it finite there.
        z = np.asarray(x, dtype=float) / s
        return -np.sign(z) * 0.5 * np.exp(-np.abs(z)) / s**2

    def pdf_deriv2(x):
        z = np.abs(np.asarray(x, dtype=float)) / s
        return 0.5 * np.exp(-z) / s**3

    def quantile(y):
        y = np.asarray(y, dtype=float)
        return s * np.where(y < 0.5, np.log(2.0 * y), -np.log(2.0 * (1.0 - y)))

    return InnovationModel(
        name="laplace",
        cdf=cdf,
        pdf=pdf,
        pdf_deriv=pdf_deriv,
        pdf_deriv2=pdf_deriv2,
        quantile=quantile,
        sampler=lambda rng, size: rng.laplace(0.0, s, size),
        moment_order=math.inf,
        smooth=False,
        scale=s,
        score_bound=(1.0 / s, 0.0),
        cf=lambda t: 1.0 / (1.0 + (s * np.asarray(t)) ** 2),
        variance=2.0 * s * s,
        pdf_max=0.5 / s,
    )


def _exponential(scale=1.0):
    s = float(scale)

    def cdf(x):
        z = np.asarray(x, dtype=float) / s
        return np.where(z > 0.0, -np.expm1(-np.maximum(z, 0.0)), 0.0)

    def pdf(x):
        z = np.asarray(x, dtype=float) / s
        return np.where(z >= 0.0, np.exp(-np.maximum(z, 0.0)) / s, 0.0)

    return InnovationModel(
        name="exponential",
        cdf=cdf,
        pdf=pdf,
        pdf_deriv=lambda x: np.where(np.asarray(x, dtype=float) >= 0.0,
                                     -pdf(x) / s, 0.0),
        pdf_deriv2=lambda x: np.where(np.asarray(x, dtype=float) >= 0.0,
                                      pdf(x) / s**2, 0.0),
        quantile=lambda y: -s * np.log1p(-np.asarray(y, dtype=float)),
        sampler=lambda rng, size: rng.exponential(s, size),
        moment_order=math.inf,
        smooth=False,
        scale=s,
        score_bound=(1.0 / s, 0.0),
        cf=lambda t: 1.0 / (1.0 - 1j * s * np.asarray(t)),
        variance=s * s,
        pdf_max=1.0 / s,
    )


_FACTORIES = {
    "gaussian": _gaussian,
    "normal": _gaussian,
    "logistic": _logistic,
    "uniform": lambda: _uniform(),
    "laplace": _laplace,
    "exponential": _exponential,
}


def get_innovation(name, scale=None):
    """Look up an innovation law by name.

    Parameters
    ----------
    name : str
        One of ``gaussian``/``normal``, ``logistic``, ``uniform``,
        ``laplace``, ``exponential``.
    scale : float, optional
        Scale parameter; not accepted for ``uniform``.
    """
    key = name.lower()
    if key not in _FACTORIES:
        raise ValueError(f"unknown innovation law {name!r}; "
                         f"choose from {sorted(set(_FACTORIES))}")
    factory = _FACTORIES[key]
    if key == "uniform":
        if scale not in (None, 1.0):
            raise ValueError("uniform law has no scale parameter")
        return factory()
    return factory() if scale is None else factory(scale)
