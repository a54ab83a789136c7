"""Markovian traffic-source models and their effective bandwidths.

Three matrix-based source families are supported: a discrete-time Markov
source (per-block state transitions, deterministic rate per state), a
continuous-time Markov fluid source, and a Markov-modulated Poisson
process (MMPP).  Two-state ON/OFF parameterizations of each family have
closed-form effective bandwidths; the general n-state forms take the
Perron root of a nonnegative or Metzler matrix, each family's kernel
(``_ebw``): e^{theta Lambda} J for a discrete source, and diag(u c) +
G/s for the fluid (u = 1, s = theta) and MMPP (u = e^theta - 1, s = 1)
sources, which share one.  A matrix source keeps its chain's matrix in
the storage its shape allows (``_structure``), which owns the arithmetic
done on it, so that no family branches on storage: a ``_Dense`` matrix,
whose root comes from the symmetric solver where the chain satisfies
detailed balance (``reversible``) and from the dense spectrum otherwise;
a birth-death chain's three diagonals (``_Band``), O(n) Laguerre steps;
and a memoryless discrete chain's row (``_RankOne``), whose a*(theta) is
its law's log-moment generating function, and whose rate scale and law
cost O(n), with no solver.  Every eigenvalue is one ``_perron_root``.

A source's family is its type, decided here alone: ``_typed_source`` is
the one check that an object is a source of a named family (its
``_kind``: ``discrete``, ``fluid`` or ``mmpp`` for the two-state
sources, ``nstate`` for a matrix source) with the attributes a caller
reads, and no other module probes a source's type.  A matrix source
carries its family's data: matrix, rate vector, kernel and its time
base (``_discrete``: one step per block, else a generator in continuous
time).  Every matrix source, reversible or not, gives the rate scale at
a*(theta) = C_E without a bracket (``_pencil_scale``) from one deflated
resolvent pencil (``pencil``): a fluid or MMPP source by one eigenvalue
call, a discrete source by secant steps that fall onto the root.  Its
chain law is one subtraction-free elimination of the chain's rates for
every family (``_gth``): the stationary law, once per source, behind
``mean_rate`` (a memoryless chain's is its row), and the deviation
matrix behind ``burstiness``, its variance rate over its squared mean
rate (eta or zeta for the two-state ON/OFF sources, whose ``mean_rate``
is lam p_on).  Every source answers ``effective_bandwidth(theta)``
(closed form where one exists) and ``as_matrix()``, its matrix twin (a
matrix source is its own); a two-state source also carries its
closed-form rates at a*(theta) = C_E (``_max_rate``), which
``throughput.max_avg_rate`` reads.  ``_poisson`` marks the MMPP types,
whose Poisson layer the energy and low-theta formulas charge on top.
A kind string is parsed here only by ``source_from_json``.

The effective bandwidth a*(theta) of a source is the minimum constant
service rate (bits/block) that sustains the source under a queue-tail
decay requirement of exponent ``theta`` (1/bit).  a*(theta) increases
from the mean rate (theta -> 0) toward the peak rate (theta -> inf).
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from .errors import (
    NonConvergence, NoUniqueStationary, ValidationError, _EPS, _check_scalar, _exact_number,
    _known_fields,
)

# QoS exponent: plain positive float, 1/bit.  theta = 0 is accepted only
# by the limit operations that implement theta -> 0 results.
QosExponent = float

_ROW_SUM_TOL = 1e-12
# the band route is about as fast as eigvalsh from 40 states and faster
# from 50, but every exactly pinned chain of 50 states or fewer keeps
# eigvalsh; CHANGES.md has the sweeps
_TRIDIAGONAL_MIN_STATES = 64
_LAGUERRE_MAX_STEPS = 100


def _frozen_array(obj, value, *names):
    """``value`` as a read-only float array, stored on ``obj`` under each name."""
    arr = np.array(value, dtype=float)
    arr.setflags(write=False)
    for name in names:
        object.__setattr__(obj, name, arr)
    return arr


class _Support:
    """A chain's support graph, built once per matrix and shared by the
    checks on it: the off-diagonal edges u -> v (entry > 0), ``rows`` and
    ``cols``, with u's neighbours ``cols[start[u]:start[u + 1]]`` in
    ascending order.
    """

    def __init__(self, M: np.ndarray):
        edges = M > 0
        n = edges.shape[0]
        np.fill_diagonal(edges, False)
        self.symmetric = bool(np.array_equal(edges, edges.T))
        # np.nonzero walks row-major, so each row's columns come out ascending
        self.rows, self.cols = np.nonzero(edges)
        self.start = [0, *np.cumsum(np.bincount(self.rows, minlength=n)).tolist()]

    def trees(self, roots, graph=None):
        """(parent, tree): breadth-first trees, one from each of ``roots``
        not yet reached, neighbours ascending, over the support or the
        neighbour lists ``graph`` = (start, cols); a root's parent is -1,
        and ``tree`` numbers each vertex's tree, -1 where none reached it."""
        start, cols = graph or (self.start, self.cols)
        n = len(start) - 1
        parent, tree = [-1] * n, [-1] * n
        todo, count = n, 0  # vertices in no tree yet, trees grown
        for root in roots:
            if tree[root] >= 0:
                continue
            tree[root] = count
            queue = [root]
            for u in queue:
                if len(queue) == todo:
                    break  # every vertex it could reach is in
                for v in cols[start[u]:start[u + 1]].tolist():
                    if tree[v] < 0:
                        tree[v] = count
                        parent[v] = u
                        queue.append(v)
            todo -= len(queue)
            count += 1
        return np.array(parent), np.array(tree)

    @cached_property
    def recurrent_root(self):
        """A vertex reached from every vertex, None where there is none,
        as the chain has one recurrent class exactly when there is one
        (Kemeny and Snell 1960).  It reaches every vertex over the edges
        turned round, so of the trees from every vertex in turn over
        those, the first to hold it covers the graph, so is the last."""
        # the edges turned round; a stable sort keeps each row ascending
        n = len(self.start) - 1
        back = ([0, *np.cumsum(np.bincount(self.cols, minlength=n)).tolist()],
                self.rows[np.argsort(self.cols, kind="stable")])
        roots = np.flatnonzero(self.trees(range(n), back)[0] < 0)
        root = int(roots[-1])
        return root if len(roots) == 1 or np.all(self.trees([root], back)[1] >= 0) else None


def _path_sums(parent: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Sum of ``step`` over each vertex's tree path up to, not including,
    its root, by pointer doubling: about log2(depth) vectorized rounds.

    ``step`` may carry extra trailing axes; roots contribute nothing.
    """
    roots = parent < 0
    up = np.where(roots, np.arange(len(parent)), parent)  # roots point at themselves
    total = step.copy()
    total[roots] = 0
    while True:
        # total[v] sums the path from v up to, not including, up[v]
        skip = up[up]
        if np.array_equal(skip, up):
            return total
        total += total[up]
        up = skip


def _is_reversible(Q: np.ndarray, support: _Support) -> bool:
    """Whether the chain with transition probabilities or rates ``Q``
    (and that ``support``) satisfies detailed balance, pi_i Q_ij = pi_j
    Q_ji for some positive pi.

    pi itself is never formed: on long chains it underflows.  The edge
    set off the diagonal must be symmetric.  Log-potentials phi (log pi
    / 2) are summed along breadth-first trees, each tree edge's step
    from its two logs read straight off Q, and every edge must then meet
    log Q_ij - log Q_ji = 2 (phi_j - phi_i) to within a few ulps of the
    magnitudes summed into it.
    """
    if not support.symmetric:
        return False
    n = Q.shape[0]
    # each off-diagonal edge's two logs once: i -> j and j -> i for i < j
    ahead = support.rows < support.cols
    i, j = support.rows[ahead], support.cols[ahead]
    fwd, back = np.log(Q[i, j]), np.log(Q[j, i])
    parent = support.trees(range(n))[0]  # with symmetric edges each tree is a class
    child = np.flatnonzero(parent >= 0)
    above = parent[child]
    down, up = np.log(Q[above, child]), np.log(Q[child, above])
    # per tree edge: the potential step and the magnitude it carries
    step = np.zeros((n, 2))
    step[child, 0] = 0.5 * (down - up)
    step[child, 1] = np.abs(down) + np.abs(up)
    phi, mag = _path_sums(parent, step).T
    resid = np.abs(fwd - back - 2.0 * (phi[j] - phi[i]))
    # rounding of the logs and of the doubling sums, log2(n) rounds deep
    ulps = (4.0 + 2.0 * math.log2(n)) * _EPS
    return bool(np.all(resid <= ulps * (np.abs(fwd) + np.abs(back) + mag[i] + mag[j])))


# ---------------------------------------------------------------------------
# Effective bandwidths
# ---------------------------------------------------------------------------


class _Operand:
    """A chain's matrix M (J or G) in the storage ``_structure`` picks,
    with the arithmetic done on it: diag(w) M (``tilted``), diag(v) + M / s
    (``shifted``) and ``symmetrized``, in the same storage, and the Perron
    root (``root``, for ``_perron_root``); and its chain ``src``'s law, a
    discrete a*(theta) (``log_mgf``), the rate-scale pencil and a discrete
    ``excess`` on it, which a memoryless chain reads off its row."""

    def law(self, src) -> np.ndarray:
        return _gth(src._matrix, src._root)

    def log_mgf(self, rates: np.ndarray, theta: float, symmetric: bool) -> float:
        """a*(theta) = (1/theta) ln sp(e^{theta*Lambda} J), bits/block, at
        ``rates``, with e^{theta*max(rates)} scaled out so that it never
        overflows for large theta*rate products."""
        lam_max = float(np.max(rates))
        # an exponent past -DBL_MAX is -inf, whose factor is its limit 0
        with np.errstate(over="ignore"):
            w = np.exp(theta * (rates - lam_max))
        M = self.tilted(w)
        sp = _perron_root(M.symmetrized() if symmetric else M, symmetric)
        if sp <= 0.0:
            raise NonConvergence("spectral radius collapsed to zero")
        return lam_max + math.log(sp) / theta

    def pencil(self, src, t: float):
        """The function e -> top eigenvalue of diag(d) B diag(d) at d =
        sqrt(e), B the deflated resolvent K = t (t I - A)^-1 at t > 0 (inf
        allowed) of a generator, or J K of a discrete chain (Elwalid and
        Mitra 1993), in the frame where A is the chain's generator.  Its
        value is positive for e >= 0 not all 0; else NonConvergence.

        For a reversible chain the frame is the symmetrized D M D^-1 of its
        matrix M (J or G), with r = l = sqrt(pi) = diag(D), and B is
        symmetric; for any other chain it is M itself, with r = 1, l = pi.
        The resolvent's pole at t = 0 is the rank-one term r l^T of A's
        null vectors (Kemeny and Snell 1960); taking it out,

            t (t I - A)^-1 = s/(t+s) r l^T + t (t I - A + s r l^T)^-1,

        leaves an inverse bounded by the chain's fundamental matrix at
        every t >= 0, so K tends to r l^T as t -> 0 and to I as t -> inf;
        s = max |A_ii| puts both terms on A's scale.  Past t = 1 the
        inverse is taken in w = 1/t, so t = inf gives K = I."""
        pi, n = src._stationary, src.n_states
        M = _Dense(src._matrix).symmetrized().m if src.reversible else src._matrix
        r, l = (np.sqrt(pi),) * 2 if src.reversible else (np.ones(n), pi)
        A = M - np.eye(n) if src._discrete else M
        s = float(np.max(np.abs(np.diagonal(A)))) or 1.0  # 0 only for a one-state chain
        P = np.outer(r, l)
        try:
            if t <= 1.0:
                K = t * np.linalg.inv(t * np.eye(n) - A + s * P) + s / (t + s) * P
            else:
                w = 1.0 / t
                K = np.linalg.inv(np.eye(n) - w * (A - s * P)) + s * w / (1.0 + s * w) * P
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(f"pencil solver failed: {exc}") from exc
        B = M @ K if src._discrete else K

        def root(e):
            d = np.sqrt(e)
            return _pencil_root(_Dense(d[:, None] * B * d), src.reversible)
        return root

    def excess(self, src, x: float, t: float):
        """(t / sp(C^{1/2} J K C^{1/2}), F) of a discrete chain's rate scale
        (``_pencil_scale``) at t = e^x - 1: a bound on its start, and F(y) =
        log sp(E(y) J K / t), E / t with e^{max(y c) - x} scaled out, its
        entries in [0, 1 / (1 - e^{-x})], and F with that exponent added."""
        root, c = self.pencil(src, t), src._rates
        top, scale = float(np.max(c)), -1.0 / math.expm1(-x)  # e^x / t

        def excess(y):
            e = np.exp(y * (c - top)) * -np.expm1(-y * c) * scale
            return math.log(root(e)) + (y * top - x)
        return t / root(c), excess


@dataclass(frozen=True, eq=False)
class _Dense(_Operand):
    """A matrix ``m`` as it is."""

    m: np.ndarray

    def tilted(self, w: np.ndarray) -> _Dense:
        return _Dense(w[:, None] * self.m)

    def shifted(self, v: np.ndarray, s: float) -> _Dense:
        return _Dense(np.diag(v) + self.m / s)

    def symmetrized(self) -> _Dense:
        """sqrt(M_ij) sqrt(M_ji) off the diagonal and M's own diagonal: for a
        reversible chain D M D^-1, D a positive diagonal, so M's spectrum.
        Each square root comes before the product, so tiny entries do not
        underflow, and the product commutes, so it is exactly symmetric."""
        root = np.sqrt(np.maximum(self.m, 0.0))
        A = root * root.T
        np.fill_diagonal(A, np.diagonal(self.m))
        return _Dense(A)

    def root(self, symmetric: bool) -> float:
        if symmetric:
            return float(np.linalg.eigvalsh(self.m)[-1])
        return float(np.max(np.linalg.eigvals(self.m).real))


@dataclass(frozen=True, eq=False)
class _Band(_Operand):
    """A tridiagonal matrix M as its three diagonals: ``diag``, ``up``
    (M[i, i+1]) and ``down`` (M[i+1, i]), each operation O(n)."""

    diag: np.ndarray
    up: np.ndarray
    down: np.ndarray

    def tilted(self, w: np.ndarray) -> _Band:
        return _Band(w * self.diag, w[:-1] * self.up, w[1:] * self.down)

    def shifted(self, v: np.ndarray, s: float) -> _Band:
        return _Band(v + self.diag / s, self.up / s, self.down / s)

    def symmetrized(self) -> _Band:
        s = np.sqrt(np.maximum(self.up, 0.0)) * np.sqrt(np.maximum(self.down, 0.0))
        return _Band(self.diag, s, s)

    def root(self, symmetric: bool) -> float:
        """M's roots depend only on the diagonal d and the products e_i =
        M[i, i+1] M[i+1, i] >= 0, so are T's, all real, T being M with
        off-diagonal sqrt(M_ij M_ji).  This runs on them scaled by a power
        of two to ||T||inf in [0.5, 1), from T's Gershgorin bound and lo =
        max d.

        Laguerre steps from above never pass the root, each one O(n) pivot
        pass whose signs (a Sturm count) keep a bracket [lo, hi] on it.  Where
        the top roots cluster they close in only linearly, so a step longer
        than half the one before is held back for a probe at hi - step / (1 -
        q), where steps shrinking by their last ratio q would end, but no
        lower than the bracket's midpoint; once steps are shorter than tol,
        the probe is tol below hi.  The passes stop when hi - lo <= tol = 4
        eps ||T||inf or a step no longer moves hi.  A landing at or below the
        root is checked tol above it, a probe there gives way to the landing
        held back, and a midpoint there halves the bracket again.  The root
        is then within tol plus the pivots' rounding (2e-14 ||T||inf of
        ``eigvalsh`` in the tests)."""
        d = self.diag
        n = len(d)
        up, down = np.maximum(self.up, 0.0), np.maximum(self.down, 0.0)
        with np.errstate(over="ignore"):  # a norm past DBL_MAX is the error below
            radius = np.convolve(np.sqrt(up) * np.sqrt(down), (1.0, 1.0))  # e_{i-1}^.5 + e_i^.5
            norm = float(np.max(np.abs(d) + radius))
        if not math.isfinite(norm):
            raise NonConvergence("tridiagonal matrix has a non-finite norm")
        k = math.frexp(norm)[1]
        lo, hi = (math.ldexp(float(np.max(v)), -k) for v in (d, d + radius))
        d, e = np.ldexp(d, -k).tolist(), [0.0, *(np.ldexp(up, -k) * np.ldexp(down, -k)).tolist()]
        x, tol, last, then = hi, 4 * _EPS, math.inf, []  # then: next x if x is at or below the root
        for _ in range(_LAGUERRE_MAX_STEPS):
            sums = _pivot_sums(d, e, x)
            lo, hi = (x, hi) if sums is None else (lo, x)
            if hi <= lo + tol:
                return math.ldexp(lo, k)
            if sums is None:
                x = then.pop() if then else 0.5 * (lo + hi)
                continue
            G, H = sums
            x = hi - n / G / (1.0 + math.sqrt((n - 1) * max(n * (H / G) / G - 1.0, 0.0)))
            if not x < hi:
                return math.ldexp(hi, k)
            q, last = (hi - x) / last, hi - x
            x = max(x, lo)
            then = [x + tol]
            if q > 0.5:
                aitken = hi - last / (1.0 - q) if q < 1.0 else lo
                probe = hi - tol if last < tol else max(aitken, 0.5 * (lo + hi))
                if lo < probe < x:
                    x, last, then = probe, math.inf, [*then, x]
        raise NonConvergence(f"no Perron root within {_LAGUERRE_MAX_STEPS} Laguerre steps")


def _pivot_sums(d: list, e: list, x: float):
    """(p'/p, (p'/p)^2 - p''/p) at x for p(x) = det(xI - T), from the pivots
    q_k = x - d_k - e_k/q_{k-1} and their derivatives; None at the first
    pivot <= 0, where x is at or below the largest root."""
    q, dq, ddq, g, G, H = 1.0, 0.0, 0.0, 0.0, 0.0, 0.0  # e[0] = 0 starts it
    for dk, ek in zip(d, e):
        r = ek / q
        s = r / q  # e_k / q_{k-1}^2
        ddq, dq, q = s * (ddq - 2.0 * dq * g), 1.0 + s * dq, x - dk - r
        if not q > 0.0:
            return None
        g = dq / q
        G, H = G + g, H + g * g - ddq / q
    return G, H


@dataclass(frozen=True, eq=False)
class _RankOne(_Operand):
    """The rank-one matrix u v^T as its two vectors: a memoryless chain's
    1 p^T, every row its law p, whose law, a*(theta) and rate scale cost
    O(n) on the law's support, the only states visited after one block."""

    u: np.ndarray
    v: np.ndarray

    def root(self, symmetric: bool) -> float:
        with np.errstate(over="ignore"):  # a root past DBL_MAX is _perron_root's error
            return float(self.v @ self.u)

    def law(self, src) -> np.ndarray:
        return self.v / self.v.sum()

    def log_mgf(self, rates: np.ndarray, theta: float, symmetric: bool) -> float:
        """sp(e^{theta Lambda} J) = p.e^{theta rates}, so a*(theta) = (1/theta)
        ln pi.e^{theta rates}, the scaled log-moment generating function of
        the law pi = p / sum p (Kelly 1996), in O(n) and with no eigenvalue
        solver.

        On the support with e^{theta top} scaled out, top its largest rate,
        and the largest term lifted (``_lift``) where the law is subnormal,
        nothing overflows or underflows: that gives c.  Re-centred on c, as
        c + log1p(pi.expm1(theta (rates - c))) / theta, which holds at any
        c, it keeps the digits that the log of a sum near 1 loses: within
        an ulp of 50-digit mpmath in the tests, where c was 2400 ulps off.
        Where a term passes DBL_MAX (pi below 1e-308 at large theta) c
        stands.  Both sums are over p's own total, so its rounding off 1
        does not reach a*(theta) as theta -> 0."""
        on = self.v > 0
        p, rates = self.v[on], rates[on]
        k, total = int(np.argmax(rates)), float(p.sum())
        top = float(rates[k])
        with np.errstate(over="ignore"):  # an exponent past -DBL_MAX is -inf, whose factor is 0
            a, b = _lift(p, theta * (rates - top), k)
        c = top + (math.log(_perron_root(_RankOne(np.exp(a), p), True) / total) - b) / theta
        with np.errstate(over="ignore"):
            s = float(p @ np.expm1(theta * (rates - c))) / total
        return c + math.log1p(s) / theta if math.isfinite(s) else c

    def excess(self, src, x: float, t: float):
        """J = 1 pi^T has J^2 = J, so J K = J: no resolvent, and sp(diag(d) J
        diag(d)) = pi.e, taken as p.e / sum p, free of pi's rounding.  F
        takes E / t as it is while e^{max(y c)} is finite on the support, the
        log of a ratio near 1, not a sum of terms of size x that cancel:
        within 4.6e-16 of 50-digit mpmath in the tests, where the scaled F
        alone left lambda* up to 3.7 ulps off.  Past that it scales as every
        chain does, and lifts the largest term as ``log_mgf`` does."""
        on = self.v > 0
        p, c = self.v[on], src._rates[on]
        k, total = int(np.argmax(c)), float(p.sum())
        top = float(c[k])
        scale = -1.0 / math.expm1(-x)  # e^x / t
        # e^{y c} is finite below y top = 700; a law on rate 0 alone has pencil root 0
        unscaled = 700.0 / top if top > 0.0 else math.inf

        def excess(y):
            if y < unscaled:
                return math.log(_pencil_root(_RankOne(np.expm1(y * c), p), True) / total / t)
            a, b = _lift(p, y * (c - top), k)
            e = np.exp(a) * -np.expm1(-y * c) * scale
            return math.log(_pencil_root(_RankOne(e, p), True) / total) - b + (y * top - x)
        return t / (_pencil_root(_RankOne(c, p), True) / total), excess


def _lift(p: np.ndarray, a: np.ndarray, k: int):
    """(a + b, b) for the b >= 0 that lifts the largest term p_j e^{a_j + b}
    (a <= 0 = a_k) to e^-700 where it is below, so that their sum does not
    underflow: b = 0, changing no term, where p_k >= e^-700."""
    if p[k] >= math.exp(-700.0):
        return a, 0.0
    b = max(0.0, -700.0 - float(np.max(np.log(p) + a)))
    return a + b, b


def _band_of(M: np.ndarray):
    """M's ``_Band``, views of its three diagonals, where M has no nonzero
    entry off them; else None."""
    band = [np.diagonal(M, k) for k in (0, 1, -1)]
    return _Band(*band) if np.count_nonzero(M) == sum(map(np.count_nonzero, band)) else None


def _structure(M: np.ndarray, discrete: bool):
    """(``_operand``, ``reversible``, ``_root``) of a source's chain M,
    the last two read off its shape where it shows them, in O(n) with no
    search.  A memoryless chain, J = 1 p^T, is in detailed balance
    with pi = p / sum p, unless some p_j is not positive, which makes edges
    one-way, and its root is the first j with p_j > 0.  A tridiagonal chain
    whose every edge has its reverse is a forest of paths, reversible as
    Kolmogorov's criterion has no cycle to check (Kelly 1979), with root 0
    where it is one path, None where each of its paths is a closed class.
    Any other chain takes its support graph (``_Support``).  Only this
    picks an operand's storage."""
    if discrete and np.all(M == M[0]):  # memoryless
        on = M[0] > 0
        return _RankOne(np.ones(M.shape[0]), M[0]), bool(on.all()), int(np.argmax(on))
    band = _band_of(M)
    operand = band if band is not None and M.shape[0] >= _TRIDIAGONAL_MIN_STATES else _Dense(M)
    if band is not None and np.array_equal(band.up > 0, band.down > 0):
        return operand, True, 0 if np.all(band.up > 0) else None
    support = _Support(M)
    return operand, _is_reversible(M, support), support.recurrent_root


def _perron_root(M: _Operand, symmetric: bool) -> float:
    """Largest real eigenvalue of a Metzler matrix (off-diagonal >= 0) in
    any storage: the library's one eigenvalue call.

    By Perron-Frobenius no other eigenvalue of a nonnegative matrix, or of
    a Metzler one (a nonnegative matrix shifted by a multiple of I), has a
    larger real part.  The route is M's storage's ``root``, fixed when the
    source was built: a ``_Dense`` M takes the symmetric solver where it
    is ``symmetric`` and the dense spectrum otherwise, a ``_Band`` O(n)
    Laguerre steps, a ``_RankOne`` u v^T is v.u.  Failures are
    NonConvergence, as are a non-finite entry of M and a non-finite root.

    The kernels hand a reversible chain's matrix over ``symmetrized``.
    If the chain's edges meet detailed balance only to a log-residual
    tau, so that the symmetrized entries are within a factor e^{tau/2} of
    a diagonal similarity of M, Perron monotonicity (applied to both
    matrices shifted by c I) bounds the change in the root by (e^{tau/2}
    - 1)(rho + c), with c = max(0, -min diag M).  ``_is_reversible``
    accepts tau of a few ulps of the logs involved.
    """
    if not all(np.isfinite(a).all() for a in vars(M).values()):
        raise NonConvergence("matrix has non-finite entries")
    try:
        root = M.root(symmetric)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigenvalue solver failed: {exc}") from exc
    if not math.isfinite(root):
        raise NonConvergence(f"non-finite Perron root {root}")
    return root


def _pencil_root(M: _Operand, symmetric: bool) -> float:
    """The pencil's value at M: its Perron root, which must be positive."""
    mu = _perron_root(M, symmetric)
    if not mu > 0.0:
        raise NonConvergence(f"pencil root {mu} is not positive")
    return mu


def _expm1(x: float) -> float:
    """e^x - 1 by ``math.expm1``, inf past x = ln(DBL_MAX), where it raises."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


def effective_bandwidth_onoff_discrete(
    params: OnOffDiscreteParams, theta: QosExponent
) -> float:
    """Closed-form a*(theta) for the two-state discrete ON/OFF source."""
    theta = _check_scalar("theta", theta)
    p11, p22, lam = params.p11, params.p22, params.lam
    if lam == 0.0:
        return 0.0
    if p11 == 1.0:
        # OFF is absorbing: the long-run arrival stream is empty.
        return 0.0
    lt = lam * theta
    if lt <= 300.0:
        # the root of r^2 - x r + (p11 + p22 - 1) e^{lt}, x = p11 + p22 e^{lt},
        # is 1 + u with u^2 - (x - 2) u - (1 - p11) e = 0 for e = e^{lt} - 1:
        # formed from e, u keeps its digits as lt -> 0
        e = math.expm1(lt)
        x_2 = p22 * e - (1.0 - p11) - (1.0 - p22)
        return math.log1p(_stable_quadratic_root(x_2, 4.0 * (1.0 - p11) * e)) / theta
    if p22 > 0.0:
        # same root scaled by e^{-lam*theta}; exact, overflow-free
        iE = math.exp(-lt)
        x = p11 * iE + p22
        disc = x * x - 4.0 * (p11 + p22 - 1.0) * iE
        return lam + math.log(0.5 * (x + math.sqrt(disc))) / theta
    # p22 = 0 and lam*theta huge: root ~ sqrt(E (1-p11)) to machine precision
    return 0.5 * lam + 0.5 * math.log1p(-p11) / theta


def _stable_quadratic_root(x: float, y: float) -> float:
    """(x + sqrt(x^2 + y)) / 2 without cancellation for x < 0, y >= 0."""
    s = math.sqrt(x * x + y)
    if x >= 0.0:
        return 0.5 * (x + s)
    return 0.5 * y / (s - x)


def _ebw_onoff_continuous(
    params: OnOffContinuousParams, theta: QosExponent, poisson: bool
) -> float:
    """a*(theta) = (x + sqrt(x^2 + 4 alpha t lam)) / (2 theta) with
    x = t lam - (alpha + beta): the two-state fluid source at t = theta,
    the MMPP (``poisson``) at t = e^theta - 1; inf where t lam passes
    DBL_MAX."""
    theta = _check_scalar("theta", theta)
    a, b, lam = params.alpha, params.beta, params.lam
    if lam == 0.0:
        return 0.0
    t = _expm1(theta) if poisson else theta
    return _stable_quadratic_root(t * lam - (a + b), 4.0 * a * t * lam) / theta


def effective_bandwidth_onoff_fluid(
    params: OnOffContinuousParams, theta: QosExponent
) -> float:
    """Closed-form a*(theta) for the two-state fluid source."""
    return _ebw_onoff_continuous(params, theta, poisson=False)


def effective_bandwidth_onoff_mmpp(
    params: OnOffContinuousParams, theta: QosExponent
) -> float:
    """Closed-form a*(theta) for the two-state MMPP source."""
    return _ebw_onoff_continuous(params, theta, poisson=True)


def as_discrete_source(params: OnOffDiscreteParams) -> DiscreteMarkovSource:
    """Embed ON/OFF discrete params as an explicit 2-state matrix source."""
    J = np.array(
        [[params.p11, 1.0 - params.p11], [1.0 - params.p22, params.p22]]
    )
    return DiscreteMarkovSource(J, np.array([0.0, params.lam]))


def as_fluid_source(params: OnOffContinuousParams) -> FluidMarkovSource:
    """Embed ON/OFF continuous params as a 2-state fluid matrix source."""
    G = _onoff_generator(params)
    return FluidMarkovSource(G, np.array([0.0, params.lam]))


def as_mmpp_source(params: OnOffContinuousParams) -> MmppSource:
    """Embed ON/OFF continuous params as a 2-state MMPP matrix source."""
    G = _onoff_generator(params)
    return MmppSource(G, np.array([0.0, params.lam]))


def _onoff_generator(params: OnOffContinuousParams) -> np.ndarray:
    a, b = params.alpha, params.beta
    return np.array([[-a, a], [b, -b]])


# ---------------------------------------------------------------------------
# Sources: the per-family functions above are their methods
# ---------------------------------------------------------------------------


class _MatrixSource:
    """A chain and a rate per state, the first two fields of each family
    (kept also as ``_matrix`` and ``_rates``).  At construction
    ``_structure`` gives ``_operand`` and, from it, ``reversible``,
    whether the chain satisfies detailed balance, and ``_root``, a state
    every state reaches, None where the chain has several recurrent
    classes: a discrete chain with several fails to build, a generator on
    first use of its law.  Memoryless and birth-death chains show both in
    their shape in O(n); only other chains search a support graph
    (``_Support``).  ``_operand`` is the matrix in the storage its shape
    allows: a ``_RankOne`` 1 p^T, p a read-only view of the first row,
    where every row of a transition matrix is exactly p (a memoryless
    chain); a ``_Band`` of three read-only diagonal views where it is
    tridiagonal with at least ``_TRIDIAGONAL_MIN_STATES`` states (a
    birth-death chain); else a ``_Dense``.  With ``reversible`` it fixes
    the route of every ``_perron_root`` call.  The matrix check is one
    for every family: square, finite, and rows summing to 1 in discrete
    time, to 0 for a generator.  A family gives its entry rule
    (``_check_entries``), its kernel ``_ebw``, its time base
    ``_discrete`` and its rate-scale solve ``_pencil_scale`` on the
    operand's pencil; the operand's law is solved on first use, once per
    source, and read-only.
    """

    _kind = "nstate"
    _max_rate = None  # no closed form: throughput's n-state solver scales the rates
    # arrivals in each state are Poisson, not fluid: only the MMPP's are
    _poisson = False
    # one state step per block (a transition matrix J), not continuous time
    _discrete = False

    def __post_init__(self):
        matrix, rates = (f.name for f in fields(self)[:2])
        M = _frozen_array(self, np.atleast_2d(getattr(self, matrix)), matrix, "_matrix")
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
            raise ValueError(f"{matrix} must be a square matrix")
        if not np.all(np.isfinite(M)):
            raise ValueError(f"{matrix} entries must be finite")
        self._check_entries(M)
        target = float(self._discrete)
        row_err = np.max(np.abs(M.sum(axis=1) - target))
        if row_err > _ROW_SUM_TOL:
            raise ValueError(
                f"{matrix} rows must sum to {target:g} within {_ROW_SUM_TOL:g} "
                f"(worst error {row_err:.3g})"
            )
        r = _frozen_array(self, getattr(self, rates), rates, "_rates")
        if r.ndim != 1 or r.shape[0] != M.shape[0]:
            raise ValueError(f"{rates} must be a vector matching the chain size")
        if not np.all(np.isfinite(r)) or np.any(r < 0):
            raise ValueError(f"{rates} must be finite and >= 0")
        operand, reversible, root = _structure(M, self._discrete)
        object.__setattr__(self, "reversible", reversible)
        object.__setattr__(self, "_root", root)
        object.__setattr__(self, "_operand", operand)
        if self._discrete:
            self._check_recurrent()

    @property
    def n_states(self) -> int:
        return self._matrix.shape[0]

    @cached_property
    def _stationary(self) -> np.ndarray:
        self._check_recurrent()
        return _frozen_array(self, self._operand.law(self))

    def _check_recurrent(self):
        if self._root is None:
            raise NoUniqueStationary(
                f"{'chain' if self._discrete else 'generator'} has multiple "
                "recurrent classes; stationary law is not unique"
            )

    def as_matrix(self):
        """A matrix source is its own matrix twin."""
        return self

    def effective_bandwidth(self, theta: QosExponent) -> float:
        """a*(theta) of the chain, bits/block, from its family's ``_ebw``."""
        return self._ebw(self._rates, _check_scalar("theta", theta))

    @property
    def mean_rate(self) -> float:
        """Long-run mean arrival rate pi c, bits/block."""
        return float(self._stationary @ self._rates)

    @cached_property
    def burstiness(self) -> float:
        """sigma^2 / mu^2, the chain's variance rate over its squared mean
        rate: the theta-term of a*(theta) = mu + theta sigma^2 / 2 + O(theta^2).

        sigma^2 sums the autocovariances of the rate over all lags: 2
        pi(d D d), d the rates less mu and D the deviation matrix, whose D d
        is the x with -G x = d and pi x = 0 (in discrete time that sum
        counts lag 0 twice).  x comes from the law's elimination (``_gth``)
        pinned at the most visited state, where centring it cancels least,
        once per source.  It does not depend on the rates' scale.  An MMPP
        gives the value of its intensities as a fluid: its Poisson layer is
        a separate penalty (``_poisson``).
        """
        pi, mu = self._stationary, self.mean_rate
        if mu == 0.0:
            raise ValueError("zero rates carry no traffic; burstiness is undefined")
        d = self._rates - mu
        x = _gth(self._matrix, int(np.argmax(pi)), d)
        x -= pi @ x
        rate = 2.0 * float(pi @ (d * x))
        return (rate - float(pi @ (d * d)) if self._discrete else rate) / (mu * mu)


@dataclass(frozen=True, eq=False)
class DiscreteMarkovSource(_MatrixSource):
    """Discrete-time Markov source: one state transition per block.

    ``transition_probs[i][j]`` is the probability of moving from state i
    to state j at a block boundary; ``rates[i]`` is the deterministic
    arrival volume (bits/block) while in state i.
    """

    transition_probs: np.ndarray
    rates: np.ndarray
    reversible: bool = field(init=False)

    _discrete = True

    @staticmethod
    def _check_entries(J: np.ndarray) -> None:
        if np.any(J < -1e-15) or np.any(J > 1 + 1e-12):
            raise ValueError("transition_probs entries must lie in [0, 1]")

    def _ebw(self, rates: np.ndarray, theta: float) -> float:
        """a*(theta) at ``rates``: J's ``log_mgf``."""
        return self._operand.log_mgf(rates, theta, self.reversible)

    def _pencil_scale(self, theta: float, ce: float) -> float:
        """lambda* with a*(theta; lambda* c) = C_E > 0, rates not all 0,
        without a bracket.

        With y = theta lambda, x = theta C_E, t = e^x - 1 and E(y) =
        diag(e^{y c} - 1), sp(e^{y C} J) = e^x is sp(E(y) J K) = t, K the
        resolvent t (t I - G)^-1 (``_Operand.pencil``), which commutes with J.
        Every entry of E(e^s) J K is a nonnegative sum of exponentials in
        s = log y, so F(s) = log sp(E J K / t) is convex (Kingman 1961)
        and increasing, and secant steps in s from two points above the
        root fall monotonically onto it.  The starts y0 and 2 y0 are above
        it: y0 = min(x / mean shape, t / sp(C^{1/2} J K C^{1/2})), the
        first as log sp(e^{y C} J) is convex in y with slope mean shape at
        0, the second as e^{yc} - 1 >= yc.  The steps stop once an iterate
        no longer falls, or F no longer falls and stays positive, which
        only rounding does; the iterate of smaller |F| is lambda* theta.
        The operand gives F, in range at any y, and that second start."""
        x = theta * ce
        with np.errstate(over="ignore"):  # inf past x = ln(DBL_MAX), where K = I
            t = float(np.expm1(x))
        bound, excess = self._operand.excess(self, x, t)
        mean = self.mean_rate
        y = min(x / mean if mean > 0.0 else math.inf, bound)
        y_hi, f_hi, f = 2.0 * y, excess(2.0 * y), excess(y)
        while 0.0 < f < f_hi:
            # the secant step in s = log y, taken as a factor on y
            y_next = y * math.exp(f * math.log(y_hi / y) / (f - f_hi))
            if not y_next < y:
                break
            y_hi, f_hi, y, f = y, f, y_next, excess(y_next)
        return (y if abs(f) <= abs(f_hi) else y_hi) / theta


class _GeneratorSource(_MatrixSource):
    """A continuous-time chain: the fluid and MMPP families' generator."""

    @staticmethod
    def _check_entries(G: np.ndarray) -> None:
        negative = G < -1e-15
        np.fill_diagonal(negative, False)
        if negative.any():
            raise ValueError("generator off-diagonal entries must be >= 0")

    def _ebw(self, rates: np.ndarray, theta: float) -> float:
        """a*(theta) at ``rates``: the Perron root of Lambda + G/theta, or of
        ((e^theta - 1) Lambda + G)/theta for an MMPP, as diag(v) + G/s over
        theta/s, x/1.0 being exact; e^theta - 1 is inf past ln(DBL_MAX)."""
        # an overflow, or e^theta - 1 = inf times a rate 0, is _perron_root's error
        with np.errstate(over="ignore", invalid="ignore"):
            v, s = (_expm1(theta) * rates, 1.0) if self._poisson else (rates, theta)
            M = self._operand.shifted(v, s)
        root = _perron_root(M.symmetrized() if self.reversible else M, self.reversible)
        return root / (theta / s)

    def _pencil_scale(self, theta: float, ce: float) -> float:
        """lambda* with a*(theta; lambda* c) = C_E > 0, rates not all 0,
        without a search.

        a*(theta; lambda c) = C_E is the pencil u lambda C v = (t I - G) v,
        with C = diag(c), t = theta C_E and u = theta (fluid) or e^theta - 1
        (MMPP), so lambda* = C_E (theta/u) / mu', mu' the Perron root of
        K C with K the resolvent t (t I - G)^-1 (``_Operand.pencil``): the top
        eigenvalue of C^{1/2} K C^{1/2}.  Nothing overflows for theta C_E
        up to 1e300, and mu' tends to the mean shape as C_E -> 0.  Past
        theta = ln(DBL_MAX) an MMPP's u is inf and lambda* its limit 0."""
        with np.errstate(over="ignore"):
            u = float(np.expm1(theta)) if self._poisson else theta
        return ce * (theta / u) / self._operand.pencil(self, theta * ce)(self._rates)


@dataclass(frozen=True, eq=False)
class FluidMarkovSource(_GeneratorSource):
    """Markov fluid source: continuous-time chain, linear arrivals.

    ``generator[i][j]`` (i != j) is the transition rate from state i to
    state j in 1/block; rows sum to zero.  While in state i, fluid
    arrives deterministically at ``rates[i]`` bits/block.
    """

    generator: np.ndarray
    rates: np.ndarray
    reversible: bool = field(init=False)


@dataclass(frozen=True, eq=False)
class MmppSource(_GeneratorSource):
    """Markov-modulated Poisson process: Poisson arrivals whose intensity
    (bits/block) is selected by a continuous-time Markov chain."""

    generator: np.ndarray
    intensities: np.ndarray
    reversible: bool = field(init=False)

    _poisson = True


# the per-family names of the one matrix-source method
effective_bandwidth_discrete = DiscreteMarkovSource.effective_bandwidth
effective_bandwidth_fluid = FluidMarkovSource.effective_bandwidth
effective_bandwidth_mmpp = MmppSource.effective_bandwidth


@dataclass(frozen=True)
class OnOffDiscreteParams:
    """Two-state discrete source: OFF (silent) and ON at rate ``lam``.

    ``p11`` is the probability of staying OFF, ``p22`` of staying ON.
    """

    p11: float
    p22: float
    lam: float

    def __post_init__(self):
        for name in ("p11", "p22"):
            v = _exact_number(name, float, getattr(self, name))
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
            object.__setattr__(self, name, v)
        if self.p11 == 1.0 and self.p22 == 1.0:
            raise ValueError("p11 = p22 = 1 gives a disconnected (reducible) chain")
        object.__setattr__(self, "lam", _check_scalar("lam", self.lam, positive=False))
        if self.p11 == 1.0:
            warnings.warn(
                "p11 = 1 makes OFF absorbing: effective bandwidth and "
                "average rate are 0 by convention",
                stacklevel=2,
            )

    @property
    def p_on(self) -> float:
        """Steady-state probability of the ON state."""
        # grouped so p22 = 1 gives exactly 1.0 and p11 = 1 exactly 0.0
        return (1.0 - self.p11) / ((1.0 - self.p11) + (1.0 - self.p22))

    @property
    def mean_rate(self) -> float:
        """Long-run mean arrival rate lam p_on, bits/block."""
        return self.lam * self.p_on

    @property
    def _high_snr_factor(self) -> float:
        """The mean rate over the top mean rate around a cycle: p_on, or
        2 p_on at p22 = 0, where ON never follows ON."""
        return self.p_on if self.p22 > 0.0 else 2.0 * self.p_on

    @property
    def burstiness(self) -> float:
        """eta, the chain's variance rate over its squared mean rate."""
        p11, p22 = self.p11, self.p22
        if p11 == 1.0:
            raise ValueError("p11 = 1 carries no traffic; burstiness is undefined")
        return (1.0 - p22) * (p11 + p22) / ((1.0 - p11) * (2.0 - p11 - p22))

    def _max_rate(self, ce: float, theta: float):
        """(r*, lambda*) with a*(theta) = C_E: lambda* = C_E + log(num/den) / theta,
        num = 1 - p11 e^{-x}, den = p22 (1 - e^{-x}) + (1 - p11) e^{-x} at x =
        theta C_E.  num - den = (1 - p22)(1 - e^{-x}), so log1p keeps the digits
        as x -> 0; a subnormal den (p22 ~ 0, where num = 1) is summed in logs."""
        if self.p11 == 1.0:
            return 0.0, 0.0
        p11, p22, x = self.p11, self.p22, theta * ce
        em, rise = math.exp(-x), -math.expm1(-x)  # e^{-x} and 1 - e^{-x}
        den = p22 * rise + (1.0 - p11) * em
        if den >= sys.float_info.min:
            log_ratio = math.log1p((1.0 - p22) * rise / den)
        else:
            a, b = math.log1p(-p11) - x, math.log(p22) if p22 else -math.inf
            log_ratio = -max(a, b) - math.log1p(math.exp(-abs(a - b)))
        lam = ce + log_ratio / theta
        return self.p_on * lam, lam

    _kind = "discrete"
    _poisson = False
    as_matrix = as_discrete_source
    effective_bandwidth = effective_bandwidth_onoff_discrete


@dataclass(frozen=True)
class OnOffContinuousParams:
    """Two-state continuous-time parameters shared by the fluid and MMPP
    models: ``alpha`` is the OFF->ON rate, ``beta`` the ON->OFF rate
    (both 1/block), ``lam`` the ON-state rate or Poisson intensity.  They
    name no family: ``OnOffFluidParams`` and ``OnOffMmppParams`` do."""

    alpha: float
    beta: float
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_scalar("alpha", self.alpha))
        object.__setattr__(self, "beta", _check_scalar("beta", self.beta, positive=False))
        object.__setattr__(self, "lam", _check_scalar("lam", self.lam, positive=False))

    @property
    def p_on(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    _high_snr_factor = p_on  # a chain in continuous time can stay ON

    @property
    def mean_rate(self) -> float:
        """Long-run mean arrival rate lam p_on, bits/block."""
        return self.lam * self.p_on

    @property
    def burstiness(self) -> float:
        """zeta, the chain's variance rate over its squared mean rate."""
        return 2.0 * self.beta / (self.alpha * (self.alpha + self.beta))

    def _max_rate(self, ce: float, theta: float):
        """(r*, lambda*) of the fluid source; the MMPP's (``_poisson``) is it
        scaled by theta/(e^theta - 1), the exact cost of its Poisson layer."""
        lam = (theta * ce + self.alpha + self.beta) / (theta * ce + self.alpha) * ce
        r_avg = self.p_on * lam
        if self._poisson:
            with np.errstate(over="ignore"):  # theta past ln(DBL_MAX): factor 0
                factor = theta / float(np.expm1(theta))
            r_avg, lam = r_avg * factor, lam * factor
        return r_avg, lam


class OnOffFluidParams(OnOffContinuousParams):
    """Two-state Markov fluid source: fluid arrives at ``lam`` while ON."""

    _kind = "fluid"
    _poisson = False
    as_matrix = as_fluid_source
    effective_bandwidth = effective_bandwidth_onoff_fluid


class OnOffMmppParams(OnOffContinuousParams):
    """Two-state MMPP: Poisson arrivals of intensity ``lam`` while ON."""

    _kind = "mmpp"
    _poisson = True
    as_matrix = as_mmpp_source
    effective_bandwidth = effective_bandwidth_onoff_mmpp


AnySource = Union[
    DiscreteMarkovSource,
    FluidMarkovSource,
    MmppSource,
    OnOffDiscreteParams,
    OnOffFluidParams,
    OnOffMmppParams,
]


def _typed_source(src, *attrs):
    """``src``, if it is a source of a named family (it has a ``_kind``)
    whose type has each of ``attrs``, the attributes the caller reads;
    else a TypeError.  This is the one check of what a source is."""
    if all(hasattr(type(src), name) for name in ("_kind", *attrs)):
        return src
    hint = ""
    if isinstance(src, OnOffContinuousParams):
        hint = ("; two-state continuous parameters name no family: use OnOffFluidParams "
                "or OnOffMmppParams, or convert with as_fluid_source or as_mmpp_source")
    raise TypeError(f"unsupported source type: {type(src).__name__}{hint}")


# ---------------------------------------------------------------------------
# Stationary distributions
# ---------------------------------------------------------------------------


def _gth(Q: np.ndarray, root: int, d=None) -> np.ndarray:
    """The stationary law pi of the chain with off-diagonal rates ``Q``
    (its diagonal is never read), or, given d with pi d = 0, the x with
    -G x = d and x[root] = 0, G the chain's generator.

    Every state but ``root`` is eliminated in turn (Grassmann, Taksar and
    Heyman 1985), farthest first, from Q's rates clipped at 0, the edges
    of ``_Support``: a band stays a band.  Each pivot is a sum of rates,
    never a difference, and positive where every state reaches ``root``,
    transient ones too, so pi comes out to a few ulps in every entry
    (O'Cinneide 1993); a pivot that underflows is NonConvergence.  The
    same multipliers eliminate d (Heyman and O'Leary 1995);
    back-substitution from ``root`` reads each pivot's column for pi and
    its row for x.
    """
    n = Q.shape[0]
    order = np.argsort(np.abs(np.arange(n) - root), kind="stable")  # root, root - 1, root + 1, ...
    A = np.maximum(Q[np.ix_(order, order)], 0.0)
    rows, cols = np.nonzero(A)
    below, above = np.max(rows - cols, initial=0), np.max(cols - rows, initial=0)
    b = np.zeros(n) if d is None else d[order]
    s = np.ones(n)  # the pivots; root has none
    x = np.empty(n)
    x[0] = 1.0 if d is None else 0.0
    with np.errstate(all="ignore"):  # a pivot that underflowed is refused below
        for k in range(n - 1, 0, -1):
            s[k] = A[k, :k].sum()
            i, j = max(k - above, 0), max(k - below, 0)  # the band's rows into k, columns out
            m = A[i:k, k] / s[k]
            A[i:k, j:k] += np.outer(m, A[k, j:k])
            if d is not None:
                b[i:k] += m * b[k]
        U = A.T if d is None else A
        for k in range(1, n):
            x[k] = (b[k] + U[k, :k] @ x[:k]) / s[k]
            if d is None and x[k] > 1.0:  # pi relative to pi[root]: rescale by 2^-e, exactly
                x[:k + 1] = np.ldexp(x[:k + 1], -np.frexp(x[k])[1])
        out = np.empty(n)
        out[order] = x / x.sum() if d is None else x
    if not np.all(np.isfinite(out)):
        raise NonConvergence("chain law elimination failed: a pivot underflowed")
    return out


# ---------------------------------------------------------------------------
# JSON construction
# ---------------------------------------------------------------------------

# kind -> (source type, the JSON fields its constructor takes in order)
_JSON_KINDS = {
    "discrete": (DiscreteMarkovSource, ("transition", "rates")),
    "fluid": (FluidMarkovSource, ("transition", "rates")),
    "mmpp": (MmppSource, ("transition", "rates")),
    "onoff-discrete": (OnOffDiscreteParams, ("p11", "p22", "lambda")),
    "onoff-fluid": (OnOffFluidParams, ("alpha", "beta", "lambda")),
    "onoff-mmpp": (OnOffMmppParams, ("alpha", "beta", "lambda")),
}
_SOURCE_KINDS = tuple(_JSON_KINDS)
# constructor arguments that error messages name, by JSON field
_JSON_NAMES = {"lam": "lambda", "intensities": "rates"}


def source_from_json(doc) -> AnySource:
    """Build a source from a JSON document (dict or JSON string).

    Accepted shapes::

        {"kind": "discrete"|"fluid"|"mmpp", "transition": [[...]], "rates": [...]}
        {"kind": "onoff-discrete", "p11": ..., "p22": ..., "lambda": ...}
        {"kind": "onoff-fluid"|"onoff-mmpp", "alpha": ..., "beta": ..., "lambda": ...}

    Each kind gives its own type, so the family travels with the
    source.  A field the kind does not take is rejected.  Raises
    ValidationError with the offending field path.
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ValidationError("$", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("$", "source document must be a JSON object")
    kind = doc.get("kind")
    if kind not in _SOURCE_KINDS:
        raise ValidationError(
            "kind", f"must be one of {', '.join(_SOURCE_KINDS)}; got {kind!r}"
        )
    build, fields = _JSON_KINDS[kind]
    _known_fields(doc, ("kind", *fields))
    if fields[0] == "transition":
        mat = _field_matrix(doc, "transition")
        args = (mat, _numbers("rates", _field(doc, "rates"), len(mat)))
    else:
        args = [_exact_number(name, float, _field(doc, name)) for name in fields]
    try:
        return build(*args)
    except (ValueError, NoUniqueStationary) as exc:
        # constructor messages open with the argument they reject; any
        # other failure (a reducible chain, say) is the first field's
        named = str(exc).split(" ", 1)[0]
        named = _JSON_NAMES.get(named, named)
        raise ValidationError(named if named in fields else fields[0], str(exc)) from exc


def _field(doc: dict, name: str):
    if name not in doc:
        raise ValidationError(name, "missing required field")
    return doc[name]


def _numbers(path: str, v, expect_len: int) -> np.ndarray:
    """The JSON list of ``expect_len`` numbers at ``path``."""
    if not isinstance(v, list):
        raise ValidationError(path, "must be a list of numbers")
    if len(v) != expect_len:
        raise ValidationError(path, f"expected length {expect_len}, got {len(v)}")
    return np.array(
        [_exact_number(f"{path}[{i}]", float, x) for i, x in enumerate(v)], dtype=float
    )


def _field_matrix(doc: dict, name: str) -> np.ndarray:
    v = _field(doc, name)
    if not isinstance(v, list) or not v:
        raise ValidationError(name, "must be a non-empty list of rows")
    return np.array([_numbers(f"{name}[{i}]", row, len(v)) for i, row in enumerate(v)])
