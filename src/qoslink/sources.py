"""Markovian traffic-source models and their effective bandwidths.

Three matrix-based source families are supported: a discrete-time Markov
source (per-block state transitions, deterministic rate per state), a
continuous-time Markov fluid source, and a Markov-modulated Poisson
process (MMPP).  Two-state ON/OFF parameterizations of each family have
closed-form effective bandwidths; the general n-state forms take the
Perron root of a nonnegative or Metzler matrix.  Each matrix source
decides once, when it is built, whether its chain satisfies detailed
balance (``reversible``).  For a reversible chain that matrix is similar
to a symmetric one, whose largest eigenvalue comes from the symmetric
solver, faster and with a perfectly conditioned eigenvalue; other chains
take the general dense spectrum.  A birth-death chain of 64 states or
more (a tridiagonal matrix) takes O(n) Laguerre steps instead.  Those
forms are kernels on raw arrays (``_ebw_discrete``, ``_ebw_fluid``,
``_ebw_mmpp``), so a solver that scales the rates can call them
without building a source at each step.

A source's family is its type, decided here alone: ``_typed_source`` is
the one check that an object is a source of a named family (its
``_kind``: ``discrete``, ``fluid`` or ``mmpp`` for the two-state
sources, ``nstate`` for a matrix source) with the attributes a caller
reads, and no other module probes a source's type.  A matrix source
carries its family's data: matrix, rate vector, kernel, the kernel's
rounding-noise norm and its time base (``_discrete``: one step per
block, else a generator in continuous time).  A reversible generator
source also carries its spectrum (``_spectrum``, on first use), from
which ``_pencil_scale`` gives the rate scale at a*(theta) = C_E
without a search.  Its chain law is one
solve for every family, on the generator G (J - I for a discrete
chain): the stationary law, at most once per source, and the deviation
matrix behind ``burstiness``, its variance rate over its squared mean
rate (eta or zeta for the two-state ON/OFF sources).  Every source
answers ``effective_bandwidth(theta)`` (closed form where one exists)
and ``as_matrix()``, its matrix twin (a matrix source is its own); a
two-state source also carries its closed-form rates at a*(theta) = C_E
(``_max_rate``), which ``throughput.max_avg_rate`` reads.
``_poisson`` marks the MMPP types, whose Poisson layer the energy and
low-theta formulas charge on top.  A kind string is parsed here only by
``source_from_json``.

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
from typing import Union

import numpy as np

from .errors import (
    NonConvergence, NoUniqueStationary, ValidationError, _EPS, _check_scalar, _exact_number,
    _known_fields,
)

# QoS exponent: plain positive float, 1/bit.  theta = 0 is accepted only
# by the limit operations that implement theta -> 0 results.
QosExponent = float

_ROW_SUM_TOL = 1e-12
_EXP_CAP = 700.0  # keeps math.exp finite
_TRIDIAGONAL_MIN_STATES = 64  # eigvalsh is as fast below: CHANGES.md has the sweep
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
    def forest(self):
        """``trees`` from every vertex in turn: they cover the graph, and
        with a symmetric edge set each tree is a class."""
        return self.trees(range(len(self.start) - 1))

    @cached_property
    def one_recurrent_class(self) -> bool:
        """Whether the chain has one recurrent class: whether some vertex
        is reached from every vertex (Kemeny and Snell 1960), so reaches
        every vertex over the edges turned round.  There the first tree
        holding such a vertex covers the graph, so is the last tree, and
        its root reaches every vertex."""
        if self.symmetric:
            back, parent = None, self.forest[0]
        else:
            # the edges turned round; a stable sort keeps each row ascending
            n = len(self.start) - 1
            back = ([0, *np.cumsum(np.bincount(self.cols, minlength=n)).tolist()],
                    self.rows[np.argsort(self.cols, kind="stable")])
            parent = self.trees(range(n), back)[0]
        roots = np.flatnonzero(parent < 0)
        return len(roots) == 1 or bool(np.all(self.trees(roots[-1:], back)[1] >= 0))


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
    parent = support.forest[0]
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


def _perron_root(M: np.ndarray) -> float:
    """Largest real eigenvalue of a Metzler matrix (off-diagonal >= 0).

    By Perron-Frobenius no other eigenvalue of a nonnegative matrix, or of
    a Metzler one (a nonnegative matrix shifted by a multiple of I), has a
    larger real part.  A tridiagonal M (a birth-death chain) of at least
    ``_TRIDIAGONAL_MIN_STATES`` states takes ``_tridiagonal_root``:
    Laguerre steps from above, which never pass the root, each one O(n)
    pivot pass whose signs (a Sturm count) keep a bracket [lo, hi] on it.
    They stop when a step no longer moves hi or lo is within 4 eps ||T||inf
    of hi, T being M with off-diagonal sqrt(M_ij M_ji); a step landing at
    or below lo is checked that far above it, else the bracket is halved.
    The root is then within that plus the pivots' rounding (2e-14 ||T||inf
    of ``eigvalsh`` in the tests).  Any other exactly symmetric M takes
    the symmetric solver (``eigvalsh``), whose largest eigenvalue is the
    root and is perfectly conditioned; any other M, the largest real part
    of the dense spectrum (``eigvals``).  Failures are NonConvergence, as
    are a non-finite entry of M and a non-finite root on any route.

    The kernels below hand a reversible chain's matrix over symmetrized
    (``_symmetrized``).  If the chain's edges meet detailed balance only
    to a log-residual tau, so that the symmetrized entries are within a
    factor e^{tau/2} of a diagonal similarity of M, Perron monotonicity
    (applied to both matrices shifted by c I) bounds the change in the
    root by (e^{tau/2} - 1)(rho + c), with c = max(0, -min diag M).
    ``_is_reversible`` accepts tau of a few ulps of the logs involved.
    """
    if not np.isfinite(M).all():
        raise NonConvergence("matrix has non-finite entries")
    try:
        if M.shape[0] >= _TRIDIAGONAL_MIN_STATES and np.count_nonzero(M) == sum(
                np.count_nonzero(np.diagonal(M, k)) for k in (-1, 0, 1)):
            root = _tridiagonal_root(M)
        elif np.array_equal(M, M.T):
            root = float(np.linalg.eigvalsh(M)[-1])
        else:
            root = float(np.max(np.linalg.eigvals(M).real))
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigenvalue solver failed: {exc}") from exc
    if not math.isfinite(root):
        raise NonConvergence(f"non-finite Perron root {root}")
    return root


def _tridiagonal_root(M: np.ndarray) -> float:
    """``_perron_root``'s route for a tridiagonal M, whose roots depend only
    on the diagonal d and the products e_i = M[i, i+1] M[i+1, i] >= 0, so
    are T's, all real.  It runs on them scaled by a power of two to
    ||T||inf in [0.5, 1), from T's Gershgorin bound and lo = max d."""
    n = M.shape[0]
    d = np.diagonal(M)
    up, down = np.maximum(np.diagonal(M, 1), 0.0), np.maximum(np.diagonal(M, -1), 0.0)
    with np.errstate(over="ignore"):  # a norm past DBL_MAX is the error below
        radius = np.convolve(np.sqrt(up) * np.sqrt(down), (1.0, 1.0))  # sqrt(e_{i-1}) + sqrt(e_i)
        norm = float(np.max(np.abs(d) + radius))
    if not math.isfinite(norm):
        raise NonConvergence("tridiagonal matrix has a non-finite norm")
    k = math.frexp(norm)[1]
    lo, hi = (math.ldexp(float(np.max(v)), -k) for v in (d, d + radius))
    d, e = np.ldexp(d, -k).tolist(), [0.0, *(np.ldexp(up, -k) * np.ldexp(down, -k)).tolist()]
    x, tol, laguerre = hi, 4 * _EPS, False  # laguerre: whether x is a step's landing
    for _ in range(_LAGUERRE_MAX_STEPS):
        sums = _pivot_sums(d, e, x)
        lo, hi = (x, hi) if sums is None else (lo, x)
        if hi <= lo + tol:
            return math.ldexp(lo, k)
        if sums is None:  # check a landing by a point just above it, else halve
            x, laguerre = (lo + tol if laguerre else 0.5 * (lo + hi)), False
            continue
        G, H = sums
        x = hi - n / G / (1.0 + math.sqrt((n - 1) * max(n * (H / G) / G - 1.0, 0.0)))
        if not x < hi:
            return math.ldexp(hi, k)
        x, laguerre = max(x, lo), True
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


def _symmetrized(M: np.ndarray) -> np.ndarray:
    """sqrt(M_ij) sqrt(M_ji) off the diagonal and M's own diagonal.

    For M of a reversible chain this is D M D^-1 for a positive diagonal
    D, so it has M's spectrum.  Each square root is taken before the
    product, so tiny entries do not underflow, and the product commutes,
    so the result is exactly symmetric.
    """
    root = np.sqrt(np.maximum(M, 0.0))
    A = root * root.T
    np.fill_diagonal(A, np.diagonal(M))
    return A


def _ebw_discrete(
    transition_probs: np.ndarray, rates: np.ndarray, theta: float, reversible: bool
) -> float:
    """a*(theta) = (1/theta) ln sp(e^{theta*Lambda} J), bits/block.

    The spectral radius is taken after scaling out e^{theta*max(rates)}
    so it never overflows for large theta*rate products.
    """
    lam_max = float(np.max(rates))
    # row i of e^{theta*Lambda} J is e^{theta*rates[i]} * J[i, :]; an
    # exponent past -DBL_MAX is -inf, whose factor is its limit 0
    with np.errstate(over="ignore"):
        M = np.exp(theta * (rates - lam_max))[:, None] * transition_probs
    sp = _perron_root(_symmetrized(M) if reversible else M)
    if sp <= 0.0:
        raise NonConvergence("spectral radius collapsed to zero")
    return lam_max + math.log(sp) / theta


def _ebw_fluid(
    generator: np.ndarray, rates: np.ndarray, theta: float, reversible: bool
) -> float:
    """a*(theta) = max real eigenvalue of (Lambda + G/theta), bits/block."""
    with np.errstate(over="ignore"):  # an overflow is _perron_root's error
        M = np.diag(rates) + generator / theta
    return _perron_root(_symmetrized(M) if reversible else M)


def _ebw_mmpp(
    generator: np.ndarray, intensities: np.ndarray, theta: float, reversible: bool
) -> float:
    """a*(theta) = (1/theta) * max real eigenvalue of ((e^theta - 1) Lambda + G)."""
    with np.errstate(over="ignore"):  # an overflow is _perron_root's error
        M = math.expm1(theta) * np.diag(intensities) + generator
    return _perron_root(_symmetrized(M) if reversible else M) / theta


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
    the MMPP (``poisson``) at t = e^theta - 1."""
    theta = _check_scalar("theta", theta)
    a, b, lam = params.alpha, params.beta, params.lam
    if lam == 0.0:
        return 0.0
    t = math.expm1(theta) if poisson else theta
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
    (kept also as ``_matrix`` and ``_rates``).  At construction one
    support graph (``_Support``) gives ``reversible``, whether the chain
    satisfies detailed balance, and whether the chain has one recurrent
    class: a discrete chain with several fails to build, a generator on
    first use of its law.  The matrix check is one for every family:
    square, finite, and rows summing to 1 in discrete time, to 0 for a
    generator.  A family gives its entry rule (``_check_entries``), its
    raw-array ``_kernel``, that kernel's rounding-noise norm and its
    time base ``_discrete``; the chain law is the same for every family,
    on the generator ``_generator``.  The stationary law is solved on
    first use, at most once per source, and is read-only.
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
        support = _Support(M)
        object.__setattr__(self, "reversible", _is_reversible(M, support))
        object.__setattr__(self, "_one_recurrent_class", support.one_recurrent_class)
        if self._discrete:
            self._check_recurrent()

    @property
    def n_states(self) -> int:
        return self._matrix.shape[0]

    @property
    def _generator(self) -> np.ndarray:
        """G, or J - I for a discrete chain: the stationary law solves
        pi G = 0 and the deviation matrix is (1 pi^T - G)^-1 - 1 pi^T."""
        M = self._matrix
        return M - np.eye(M.shape[0]) if self._discrete else M

    @cached_property
    def _stationary(self) -> np.ndarray:
        pi = self._solve_stationary()
        pi.setflags(write=False)
        return pi

    def _check_recurrent(self):
        if not self._one_recurrent_class:
            raise NoUniqueStationary(
                f"{'chain' if self._discrete else 'generator'} has multiple "
                "recurrent classes; stationary law is not unique"
            )

    def _solve_stationary(self) -> np.ndarray:
        self._check_recurrent()
        G = self._generator
        pi = _stationary_from(G.T)
        if np.max(np.abs(pi @ G)) > 1e-10 * max(1.0, np.max(np.abs(G))):
            raise NoUniqueStationary("stationary equations are inconsistent")
        return pi

    def _variance_rate(self, pi: np.ndarray, d: np.ndarray) -> float:
        # 2 pi(d D d) with D the deviation matrix, and D d solves
        # (1 pi^T - G) x = d because pi d = 0; in discrete time that sum
        # counts lag 0 twice
        x = np.linalg.solve(pi - self._generator, d)
        rate = 2.0 * float(pi @ (d * x))
        return rate - float(pi @ (d * d)) if self._discrete else rate

    def as_matrix(self):
        """A matrix source is its own matrix twin."""
        return self

    def _pencil_scale(self, theta: float, ce: float):
        """The rate scale lambda* with a*(theta; lambda* c) = C_E > 0 in
        closed form, or None where the family has none: throughput's
        n-state solver then searches for it."""
        return None

    def effective_bandwidth(self, theta: QosExponent) -> float:
        """a*(theta) of the chain, bits/block, from its family's kernel
        (``_ebw_discrete``, ``_ebw_fluid`` or ``_ebw_mmpp``)."""
        theta = _check_scalar("theta", theta)
        return self._kernel(self._matrix, self._rates, theta, self.reversible)

    @property
    def burstiness(self) -> float:
        """sigma^2 / mu^2, the chain's variance rate over its squared mean
        rate: the theta-term of a*(theta) = mu + theta sigma^2 / 2 + O(theta^2).

        sigma^2 sums the autocovariances of the rate over all lags, which
        the deviation matrix gives from one linear solve against the
        stationary law (``_variance_rate``).  It does not depend on the
        rates' scale.  An MMPP gives the value of its intensities as a
        fluid: its Poisson layer is a separate penalty (``_poisson``).
        """
        pi = self._stationary
        mu = float(pi @ self._rates)
        if mu == 0.0:
            raise ValueError("zero rates carry no traffic; burstiness is undefined")
        return self._variance_rate(pi, self._rates - mu) / (mu * mu)


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

    _kernel = staticmethod(_ebw_discrete)
    _discrete = True

    @staticmethod
    def _check_entries(J: np.ndarray) -> None:
        if np.any(J < -1e-15) or np.any(J > 1 + 1e-12):
            raise ValueError("transition_probs entries must lie in [0, 1]")

    def _noise_norm(self, peak: float, theta: float, ce: float) -> float:
        # the root sp = e^{theta (a* - peak)}, of a matrix with entries
        # <= 1, gives a* as peak + ln(sp) / theta
        return peak + math.exp(min(theta * (peak - ce), _EXP_CAP)) / theta


class _GeneratorSource(_MatrixSource):
    """A continuous-time chain: the fluid and MMPP families' generator."""

    @staticmethod
    def _check_entries(G: np.ndarray) -> None:
        off = G.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < -1e-15):
            raise ValueError("generator off-diagonal entries must be >= 0")

    @cached_property
    def _spectrum(self):
        """(sigma, X), read-only: the symmetrized generator S = U diag(sigma)
        U^T of a reversible chain, and X = diag(sqrt(c)) U for the rate
        shape c.  S's top eigenvector is sqrt(pi), and its eigenvalue is
        set to exactly 0, as for a generator whose rows sum to 0 exactly;
        no other sigma may lie above it.  That vector is taken from the
        stationary law, not from ``eigh``, whose vector is off by about eps
        ||S|| / (spectral gap), and the others are orthonormalized against
        it by one QR: where the gap is within rounding of 0, ``eigh`` may
        return its top two vectors turned in their plane, and the slow
        mode then keeps its full length only through that QR."""
        sigma, U = np.linalg.eigh(_symmetrized(self._matrix))
        np.minimum(sigma, 0.0, out=sigma)
        sigma[-1] = 0.0
        Q = np.linalg.qr(np.column_stack([np.sqrt(self._stationary), U[:, :-1]]))[0]
        X = np.sqrt(self._rates)[:, None] * np.roll(Q, -1, axis=1)
        for arr in (sigma, X):
            arr.setflags(write=False)
        return sigma, X

    def _pencil_scale(self, theta: float, ce: float):
        """lambda* of a reversible chain from its cached spectrum (Elwalid
        and Mitra 1993).

        a*(theta; lambda c) = C_E is the pencil u lambda C v = (t I - G) v,
        with C = diag(c), t = theta C_E and u = theta (fluid) or e^theta - 1
        (MMPP).  On S's eigenvectors it is symmetric: 1 / (u lambda*) is
        the top eigenvalue of X diag(1 / (t - sigma)) X^T, so lambda* =
        C_E (theta/u) / mu' with mu' the top eigenvalue of X diag(w) X^T,
        w = t / (t - sigma) = 1 / (1 - sigma/theta/C_E).  Every w lies in
        [0, 1], formed without t, so nothing overflows, and as C_E -> 0,
        mu' tends to the mean shape.  One product and one ``eigvalsh``;
        None for other chains, and for zero rates (mu' = 0)."""
        if not self.reversible:
            return None
        sigma, X = self._spectrum
        u = math.expm1(theta) if self._poisson else theta
        with np.errstate(over="ignore"):  # sigma/theta past -DBL_MAX: its weight is 0
            w = 1.0 / (1.0 - sigma / theta / ce)
        try:
            mu = float(np.linalg.eigvalsh((X * w) @ X.T)[-1])
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(f"eigenvalue solver failed: {exc}") from exc
        if not math.isfinite(mu):
            raise NonConvergence(f"non-finite pencil root {mu}")
        return ce * (theta / u) / mu if mu > 0.0 else None

    @property
    def _row_norm(self) -> float:
        return float(np.max(np.sum(np.abs(self.generator), axis=1)))


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

    _kernel = staticmethod(_ebw_fluid)

    def _noise_norm(self, peak: float, theta: float, ce: float) -> float:
        # the root is a* itself
        return peak + self._row_norm / theta


@dataclass(frozen=True, eq=False)
class MmppSource(_GeneratorSource):
    """Markov-modulated Poisson process: Poisson arrivals whose intensity
    (bits/block) is selected by a continuous-time Markov chain."""

    generator: np.ndarray
    intensities: np.ndarray
    reversible: bool = field(init=False)

    _kernel = staticmethod(_ebw_mmpp)
    _poisson = True

    def _noise_norm(self, peak: float, theta: float, ce: float) -> float:
        # the root is theta a*
        return (math.expm1(theta) * peak + self._row_norm) / theta


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
# Stationary distributions and mean rates
# ---------------------------------------------------------------------------


def _stationary_from(A: np.ndarray) -> np.ndarray:
    # A has one-dimensional null space and rows summing to the zero
    # vector, so any single row may carry the normalization instead.
    n = A.shape[0]
    M = A.copy()
    M[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(M, b)
    except np.linalg.LinAlgError as exc:
        raise NoUniqueStationary(str(exc)) from exc
    if np.any(pi < -1e-9):
        raise NoUniqueStationary("stationary solve produced negative mass")
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def average_rate(src) -> float:
    """Long-run mean arrival rate of a source, bits/block."""
    if isinstance(src, _MatrixSource):
        return float(src._stationary @ src._rates)
    if isinstance(src, (OnOffDiscreteParams, OnOffContinuousParams)):
        return src.lam * src.p_on
    raise TypeError(f"unsupported source type: {type(src).__name__}")


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
