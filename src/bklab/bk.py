"""Quantile-vs-empirical residuals and their rate normalizers.

The residual at y is R(y) = f(Q(y)) * q(y) - alpha(y): how far the scaled
quantile process is from the uniform empirical process after the density
correction. Its classical normalizers (natural logs throughout):

* rate_b(n)               = n^(-1/4) (log n)^(1/2) (log log n)^(1/4)
* rate_lambda(n)          = n^(-1/2) (2 log log n)^(1/2)
* rate_kiefer_pointwise(n) = n^(-1/4) (log log n)^(3/4)

All three require n >= 16, the smallest power of two with log log n > 0.

Suprema over an interval (a, b) are exact. R is smooth between its
breakpoints: the jumps k/n of the empirical quantile and the PIT order
statistics U_(i), where the empirical CDF jumps. On the open piece between
two breakpoints Q_n(y) = X_(k) and E_n(y) = j/n are constant, so

    R'(y) = 2 sqrt(n) + (f'/f)(Q(y)) q(y),

and R increases on the piece when L d < 2, with L a bound of |f'/f| on the
piece's Q-range and d = max |Q - X_(k)| there. That is the piece's
monotonicity certificate, with margin 2 - L d; a certified piece attains
its sup |R| at a one-sided endpoint limit. A piece that fails is bisected
for as long as the Lipschitz bound |R'| <= sqrt(n) (2 + L d) leaves room
above the running maximum, one quantile evaluation per split. The sup
includes the end limits R(a+) and R(b-). The weighted sup uses the same
pieces, bounding (y(1-y))^nu |R| on a piece by the largest weight on it
times the piece's bound of |R|. The result is the largest value attained,
within ``SUP_TOL`` of the supremum of the served oracle functions.

The pass is one sweep over blocks of ``_BLOCK`` consecutive pieces, sized
so that a block's arrays stay in cache. Each block builds its breakpoints,
evaluates Q and f once per breakpoint, and keeps only the pieces whose
bound beats the running maxima; bisection starts from those, so the sups,
the smallest margin and the bisected-piece count do not depend on the
block size. The exact pass keeps no residual values.

L comes from the oracle's served law (:func:`_score_bound`). The exact
and single-point oracles serve an innovation law, N(0, sigma^2) or the
innovation itself, and L is its declared alpha + beta |x|: |x|/sigma^2
for the exact Gaussian oracle. For the Fourier engine L is the
innovation's bounded score alpha, widened by the engine's error bounds
relative to the smallest density at the ends of the sup's range.

``refine=<int>`` selects the brute-force grid instead: both one-sided
limits at every jump, sampled 1e-12 to either side, plus ``refine``
uniform points. It stops (b - a)/(refine + 1) short of the interval ends
and is kept only as a cross-check of the exact sup in the tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from .empirical import alpha_process, equantile, jump_grid
from .errors import ModelError

DENSITY_FLOOR = 1e-12
SUP_TOL = 1e-13  # bisection stops once no piece can beat the max by more
_BLOCK = 1 << 14  # pieces per block of the exact sup's sweep: fits in cache


def _check_n(n):
    n = int(n)
    if n < 16:
        raise ValueError(f"rate normalizers require n >= 16, got {n}")
    return n


def rate_b(n):
    """n^(-1/4) (log n)^(1/2) (log log n)^(1/4)."""
    n = _check_n(n)
    return n ** -0.25 * math.sqrt(math.log(n)) * math.log(math.log(n)) ** 0.25


def rate_lambda(n):
    """n^(-1/2) (2 log log n)^(1/2)."""
    n = _check_n(n)
    return math.sqrt(2.0 * math.log(math.log(n))) / math.sqrt(n)


def rate_kiefer_pointwise(n):
    """n^(-1/4) (log log n)^(3/4)."""
    n = _check_n(n)
    return n ** -0.25 * math.log(math.log(n)) ** 0.75


def csr_nu_min(gamma):
    """Minimum admissible weight exponent: max(2*gamma, 3*gamma - 2).

    Defined for gamma >= 1 (below that the weighted bound does not apply).
    """
    gamma = float(gamma)
    if gamma < 1.0:
        raise ValueError(f"weight threshold needs gamma >= 1, got {gamma}")
    return max(2.0 * gamma, 3.0 * gamma - 2.0)


@dataclass(frozen=True)
class ResidualSeries:
    """Plain and weighted suprema of |R|, with R on a y-grid for a grid sup.

    The exact sup reports the smallest certificate margin 2 - L d over its
    pieces and the number of pieces it bisected, and carries no grid:
    ``y_grid`` and ``values`` are None. The grid sup (``refine=``) reports
    its grid and R on it, NaN and 0.
    """

    y_grid: np.ndarray | None
    values: np.ndarray | None
    sup_abs: float
    weighted_sup: float
    nu: float
    interval: tuple
    n: int
    seed: int | None = None
    min_margin: float = math.nan
    refined: int = 0

    def to_csv(self, fh):
        if self.y_grid is None:
            raise ValueError("an exact residual series has no grid to write")
        a, b = self.interval
        fh.write(f"# n={self.n} seed={self.seed} a={a!r} b={b!r} nu={self.nu!r}\n")
        fh.write("y,residual,weight,weighted_abs\n")
        w = _weight(self.y_grid, self.nu)
        for y, r, wi in zip(self.y_grid, self.values, w):
            fh.write(f"{float(y)!r},{float(r)!r},{float(wi)!r},"
                     f"{float(abs(r) * wi)!r}\n")


def _weight(y, nu):
    if nu == 0.0:
        return np.ones_like(y)
    return (y * (1.0 - y)) ** nu


def _quantile_density(oracle, y):
    """Q(y) and f(Q(y)), with f bounded away from zero."""
    qy = np.asarray(oracle.quantile(y), dtype=float)
    fq = np.asarray(oracle.pdf(qy), dtype=float)
    if np.any(fq < DENSITY_FLOOR):
        bad = float(y[np.argmin(fq)])
        raise ModelError(
            f"density at Q({bad:.6g}) is below {DENSITY_FLOOR:g}: the "
            "density must stay bounded away from zero on the working interval")
    return qy, fq


def residual_values(summary, pit_summary, oracle, y):
    """R(y) = f(Q(y)) q(y) - alpha(y), vectorized over y."""
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    n = summary.n
    qy, fq = _quantile_density(oracle, y_arr)
    q = math.sqrt(n) * (qy - equantile(summary, y_arr))
    return fq * q - alpha_process(pit_summary, y_arr)


def residual_pointwise(summary, pit_summary, oracle, y):
    """Residual at a single interior point y."""
    y = float(y)
    if not (0.0 < y < 1.0):
        raise ValueError("y must lie strictly in (0, 1)")
    return float(residual_values(summary, pit_summary, oracle, np.array([y]))[0])


# ---------------------------------------------------------------------------
# exact piecewise sup


def _score_bound(oracle, f_ends):
    """(alpha, beta) with |f'/f|(x) <= alpha + beta |x| for the oracle's
    served density, at every x between the quantiles of the sup's
    outermost breakpoints, where the served density is ``f_ends`` (the
    smaller of its two values there).

    The exact and single-point oracles serve an innovation law, whose
    declared ``score_bound`` holds on the whole line. For the Fourier
    engine, let g be the wrapped true density
    sum_m f(x + 2mD), which the series approximates. The innovation's
    score is bounded, |f_eps'/f_eps| <= a, and f = E f_eps(x - P) gives
    |f'| <= a f for every translate, so |g'| <= a g. The served f_s and
    f_s' differ from g and g' by at most E0 and E1 (``density_error``,
    ``deriv_error``: series truncation bounds plus the interpolation
    error measured at build). The true density is log-concave (a sum of
    independent log-concave terms), so between the two outermost
    quantiles it is at least its smaller end value, and g - f <= a alias
    (f <= a min(F, 1 - F)); hence f_s >= floor = f_ends - 2 E0 - a alias
    there. Then |f_s'| <= a g + E1 <= a (f_s + E0) + E1, and
    |f_s'/f_s| <= a + (a E0 + E1) / floor.
    """
    if oracle.kind != "fourier":
        return oracle.law.score_bound
    engine = oracle.law
    innovation = engine.innovation
    a, b = innovation.score_bound
    if b != 0.0:
        raise ModelError(
            f"the exact residual sup over a fourier oracle needs a "
            f"bounded innovation score; {innovation.name!r} has none "
            f"(Gaussian innovations have the exact oracle)")
    floor = f_ends - 2.0 * engine.density_error - a * engine.alias
    if not floor > 0.0:
        raise ModelError(
            f"density {f_ends:.3g} at the ends of the sup's range is "
            f"within the Fourier engine's error bound")
    e0, e1 = engine.density_error, engine.deriv_error
    return a + (a * e0 + e1) / floor, 0.0


def _jump_slots(v, n, strict):
    """Per value: the count of jumps k/n (k = 1..n-1) below it, or at or
    below it when not ``strict``. floor(n v) is off by at most one where
    n v or k/n rounds across an integer; one guarded step each way
    corrects it against the float jumps themselves."""
    v = np.asarray(v, dtype=float)
    s = np.clip(np.floor(v * n), 0, n - 1).astype(np.int64)

    def below(k):
        return k / n < v if strict else k / n <= v

    s += (s < n - 1) & below(s + 1)
    s -= (s > 0) & ~below(s)
    return s


class _Breakpoints:
    """Breakpoints t on [min cut, max cut] and the state of each piece,
    served a block at a time.

    ``cuts`` are (y, lower) interval ends. The breakpoints are the jumps
    k/n, the PIT order statistics U_(i) and the cuts, in ascending order;
    on piece p, (t[p], t[p+1]), Q_n(y) = X_(k) and n E_n(y) = j. ``at``
    is the index in t of each cut, and ``size`` the length of t. A cut
    that coincides with a jump sits on the inner side of it. Where a PIT
    order statistic coincides with a jump k/n, the zero-length piece
    between them has values between the two one-sided limits at k/n, so
    no sup changes.
    """

    def __init__(self, pit_summary, cuts):
        n = self.n = pit_summary.n
        us = pit_summary.sorted
        lo = min(y for y, _ in cuts)
        hi = max(y for y, _ in cuts)
        self.k_lo = int(_jump_slots(lo, n, strict=False))
        k_hi = int(_jump_slots(hi, n, strict=True))
        self.i_lo = int(np.searchsorted(us, lo, side="right"))
        i_hi = int(np.searchsorted(us, hi, side="left"))
        self.u = us[self.i_lo:i_hi]
        # an event is a jump or an order statistic; U_(i) follows the
        # earlier order statistics and the jumps below it (counted a block
        # at a time, in cache)
        below = np.concatenate([
            _jump_slots(self.u[i:i + _BLOCK], n, strict=True)
            for i in range(0, max(self.u.size, 1), _BLOCK)])
        self.event_u = np.arange(self.u.size) + below - self.k_lo

        pos = [int(_jump_slots(y, n, strict=not lower)) - self.k_lo
               + int(np.searchsorted(self.u, y, side="right" if lower
                                     else "left"))
               for y, lower in cuts]
        order = sorted(range(len(cuts)), key=lambda i: (pos[i], cuts[i]))
        self.at = [0] * len(cuts)
        for rank, i in enumerate(order):
            self.at[i] = pos[i] + rank
        self.cuts = [(self.at[i], cuts[i][0]) for i in order]
        self.size = self.u.size + k_hi - self.k_lo + len(cuts)

    def block(self, start, stop):
        """t[start:stop + 1], and k and j on pieces start .. stop - 1."""
        cuts = [(p - start, y) for p, y in self.cuts if start <= p <= stop]
        e0 = start - sum(p < start for p, _ in self.cuts)
        events = stop + 1 - start - len(cuts)
        i0, i1 = (int(i) for i in np.searchsorted(self.event_u,
                                                  (e0, e0 + events)))
        at_u = self.event_u[i0:i1] - e0
        at_jump = np.ones(events, dtype=bool)
        at_jump[at_u] = False
        # jumps and order statistics up to each event
        jumps = np.cumsum(at_jump)
        stats = np.arange(1, events + 1) - jumps
        k0 = self.k_lo + e0 - i0  # jumps below the block
        t = (k0 + jumps) / self.n
        t[at_u] = self.u[i0:i1]
        if cuts:
            slots = [p - rank for rank, (p, _) in enumerate(cuts)]
            t = np.insert(t, slots, [y for _, y in cuts])
            # a cut adds no event: its counts are those of the event before
            jumps, stats = (np.insert(c, slots, np.append(0, c)[slots])
                            for c in (jumps, stats))
        return t, k0 + 1 + jumps[:-1], self.i_lo + i0 + stats[:-1]


class _Pieces:
    """Open pieces (l, r) on which Q_n = x and E_n = e, with Q, the
    one-sided limits of R and the weight at both ends, and whether each
    piece lies in the plain and in the weighted interval."""

    def __init__(self, l, r, ql, qr, rl, rr, wl, wr, x, e, plain, weighted):
        self.l, self.r, self.ql, self.qr = l, r, ql, qr
        self.rl, self.rr, self.wl, self.wr = rl, rr, wl, wr
        self.x, self.e, self.plain, self.weighted = x, e, plain, weighted

    def take(self, mask):
        return _Pieces(*(v[mask] for v in vars(self).values()))

    @staticmethod
    def concat(parts):
        columns = zip(*(vars(p).values() for p in parts))
        return _Pieces(*(np.concatenate(c) for c in columns))

    def halves(self, mid, qm, rm, wm):
        """Both halves of every piece, split at mid where Q = qm, R = rm
        and the weight is wm."""
        same = (self.x, self.e, self.plain, self.weighted)
        left = (self.l, mid, self.ql, qm, self.rl, rm, self.wl, wm) + same
        right = (mid, self.r, qm, self.qr, rm, self.rr, wm, self.wr) + same
        return _Pieces(*(np.concatenate(pair) for pair in zip(left, right)))

    def peak_weight(self, nu):
        """The weight's largest value on each piece, at its point nearest
        1/2."""
        inner = np.where(self.l >= 0.5, self.wl, 0.25 ** nu)
        return np.where(self.r <= 0.5, self.wr, inner)

    def margin(self, score):
        """2 - L d: positive where R is certified increasing."""
        alpha, beta = score
        top = np.maximum(np.abs(self.ql), np.abs(self.qr))
        d = np.maximum(np.abs(self.ql - self.x), np.abs(self.qr - self.x))
        return 2.0 - (alpha + beta * top) * d

    def bound(self, margin, rn, al, ar):
        """Upper bound of |R| on each piece, given al = |rl| and ar = |rr|:
        the larger end limit where the piece is certified, else the
        Lipschitz bound with |R'| <= sqrt(n) (2 + L d) = sqrt(n) (4 - margin).
        """
        top = np.maximum(al, ar)
        fail = np.flatnonzero(margin <= 0.0)
        if fail.size:
            lip = rn * (4.0 - margin[fail])
            top[fail] = np.maximum(top[fail], 0.5 * (
                al[fail] + ar[fail] + lip * (self.r[fail] - self.l[fail])))
        return top


def _candidates(pieces, margin, rn, nu, best, best_w):
    """Raise the plain and weighted maxima by the pieces' end limits, and
    mark the pieces whose bound still beats them by more than SUP_TOL."""
    p, w = pieces.plain, pieces.weighted
    al, ar = np.abs(pieces.rl), np.abs(pieces.rr)
    best = max(best, np.max(al, where=p, initial=0.0),
               np.max(ar, where=p, initial=0.0))
    bound = pieces.bound(margin, rn, al, ar)
    need = p & (bound > best + SUP_TOL)
    if w.any():
        best_w = max(best_w, np.max(pieces.wl * al, where=w, initial=0.0),
                     np.max(pieces.wr * ar, where=w, initial=0.0))
        need |= w & (pieces.peak_weight(nu) * bound > best_w + SUP_TOL)
    return best, best_w, need


def _sweep(summary, oracle, points, ranges, score, nu):
    """One pass over the pieces, a block at a time. Returns the plain and
    weighted maxima of the end limits, the smallest margin over the pieces
    in ``ranges``, and the pieces, with their margins, whose bound beat
    the running maxima.

    The maxima only grow, so the kept pieces hold every piece whose bound
    beats the final ones, and the first bisection round selects exactly
    those: no result depends on the block size.
    """
    n = summary.n
    rn = math.sqrt(n)
    best = best_w = 0.0
    min_margin = math.inf
    kept, kept_margin = [], []
    q_last = f_last = None
    for start in range(0, points.size - 1, _BLOCK):
        stop = min(start + _BLOCK, points.size - 1)
        t, k, j = points.block(start, stop)
        if q_last is None:
            qt, ft = _quantile_density(oracle, t)
        else:
            qt, ft = np.empty_like(t), np.empty_like(t)
            qt[0], ft[0] = q_last, f_last
            qt[1:], ft[1:] = _quantile_density(oracle, t[1:])
        q_last, f_last = qt[-1], ft[-1]
        x = summary.sorted[k - 1]
        e = j / n
        rl = ft[:-1] * (rn * (qt[:-1] - x)) - rn * (e - t[:-1])
        rr = ft[1:] * (rn * (qt[1:] - x)) - rn * (e - t[1:])
        in_range = np.zeros((2, k.size), dtype=bool)
        for row, (lo, hi) in zip(in_range, ranges):
            row[max(lo - start, 0):max(hi - start, 0)] = True
        wt = _weight(t, nu)
        pieces = _Pieces(t[:-1], t[1:], qt[:-1], qt[1:], rl, rr, wt[:-1],
                         wt[1:], x, e, *in_range)
        margin = pieces.margin(score)
        min_margin = min(min_margin, float(np.min(
            margin, where=in_range[0] | in_range[1], initial=math.inf)))
        best, best_w, keep = _candidates(pieces, margin, rn, nu, best,
                                         best_w)
        keep = np.flatnonzero(keep)
        kept.append(pieces.take(keep))
        kept_margin.append(margin[keep])
    return (best, best_w, min_margin, _Pieces.concat(kept),
            np.concatenate(kept_margin))


def _bisect(oracle, pieces, margin, score, rn, nu, best, best_w):
    """Bisect the pieces whose bound beats the maxima by more than SUP_TOL
    until none does. Returns both maxima and the number of pieces that the
    first round splits."""
    refined = None
    while True:
        best, best_w, need = _candidates(pieces, margin, rn, nu, best, best_w)
        mid = 0.5 * (pieces.l + pieces.r)
        need &= (pieces.l < mid) & (mid < pieces.r)
        if refined is None:
            refined = int(np.count_nonzero(need))
        if not need.any():
            return best, best_w, refined
        pieces, mid = pieces.take(need), mid[need]
        qm, fm = _quantile_density(oracle, mid)
        rm = fm * (rn * (qm - pieces.x)) - rn * (pieces.e - mid)
        pieces = pieces.halves(mid, qm, rm, _weight(mid, nu))
        margin = pieces.margin(score)


def _exact_sup(summary, pit_summary, oracle, plain, nu, seed):
    """Exact sup |R| over ``plain`` = (a, b) and, when ``nu`` is set,
    sup (y(1-y))^nu |R| over (1/(n+1), n/(n+1)), from one breakpoint pass.
    """
    n = summary.n
    a, b = plain
    if not (0.0 < a < b < 1.0):
        raise ValueError(f"the exact sup needs 0 < a < b < 1, got ({a}, {b})")
    cuts = [(a, True), (b, False)]
    if nu is not None:
        cuts += [(1.0 / (n + 1), True), (n / (n + 1.0), False)]
    points = _Breakpoints(pit_summary, cuts)
    ranges = [points.at[i:i + 2] for i in range(0, len(cuts), 2)]
    nu = 0.0 if nu is None else float(nu)
    # f at t[0] and t[-1], the outermost cuts
    _, f_ends = _quantile_density(oracle, np.array(
        [points.cuts[0][1], points.cuts[-1][1]]))
    score = _score_bound(oracle, float(np.min(f_ends)))
    best, best_w, min_margin, pieces, margin = _sweep(
        summary, oracle, points, ranges, score, nu)
    best, best_w, refined = _bisect(oracle, pieces, margin, score,
                                    math.sqrt(n), nu, best, best_w)
    return ResidualSeries(
        y_grid=None, values=None, sup_abs=float(best),
        weighted_sup=float(best if nu == 0.0 else best_w), nu=nu,
        interval=(a, b), n=n, seed=seed, min_margin=min_margin,
        refined=refined)


def _grid_series(summary, pit_summary, oracle, a, b, refine, nu, seed):
    grid = jump_grid(pit_summary, a, b, refine)
    vals = residual_values(summary, pit_summary, oracle, grid)
    w = _weight(grid, nu)
    return ResidualSeries(y_grid=grid, values=vals,
                          sup_abs=float(np.abs(vals).max()),
                          weighted_sup=float((w * np.abs(vals)).max()),
                          nu=nu, interval=(a, b), n=summary.n, seed=seed)


def residual_sup(summary, pit_summary, oracle, a, b, refine=None, seed=None):
    """Residual series and sup of |R| over (a, b), 0 < a < b < 1.

    The sup is exact (module docstring); ``refine=<int>`` takes it over
    the jump grid with that many uniform points instead, as a cross-check.
    """
    if refine is not None:
        return _grid_series(summary, pit_summary, oracle, a, b, refine, 0.0,
                            seed)
    return _exact_sup(summary, pit_summary, oracle, (a, b), None, seed)


def weighted_residual_sup(summary, pit_summary, oracle, nu, refine=None,
                          gamma=None, seed=None, interval=None):
    """Weighted sup of (y(1-y))^nu |R(y)| over (1/(n+1), n/(n+1)).

    The weight exponent must exceed max(2*gamma, 3*gamma - 2) for the
    model's gamma = min(gamma1, gamma2) >= 1; gamma is read from the
    oracle metadata unless passed explicitly. ``sup_abs`` is the plain sup
    over ``interval`` = (a, b), from the same breakpoint pass, and over
    the weight interval when ``interval`` is None. ``refine=<int>`` takes
    both sups over the jump grid of the weight interval instead, as a
    cross-check; ``interval`` applies to the exact pass only.
    """
    if gamma is None:
        if oracle.gamma1 is None or oracle.gamma2 is None:
            raise ModelError(
                "weighted residual needs the model's endpoint exponents "
                "gamma1/gamma2 (set them on the model or pass gamma=)")
        gamma = min(oracle.gamma1, oracle.gamma2)
    threshold = csr_nu_min(gamma)
    if not nu > threshold:
        raise ModelError(
            f"weight exponent nu={nu} is not admissible for gamma={gamma}: "
            f"need nu > max(2*gamma, 3*gamma - 2) = {threshold}")

    n = summary.n
    ends = (1.0 / (n + 1), n / (n + 1.0))
    if refine is not None:
        return _grid_series(summary, pit_summary, oracle, *ends, refine,
                            float(nu), seed)
    plain = ends if interval is None else tuple(interval)
    return _exact_sup(summary, pit_summary, oracle, plain, nu, seed)
