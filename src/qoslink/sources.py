"""Markovian traffic-source models and their effective bandwidths.

Three matrix-based source families are supported: a discrete-time Markov
source (per-block state transitions, deterministic rate per state), a
continuous-time Markov fluid source, and a Markov-modulated Poisson
process (MMPP).  Two-state ON/OFF parameterizations of each family have
closed-form effective bandwidths; the general n-state forms take the
Perron root of a nonnegative or Metzler matrix from one dense
eigen-decomposition.  Each matrix source decides once, when it is built,
whether its chain satisfies detailed balance (``reversible``).  For a
reversible chain that matrix is similar to a symmetric one, whose
largest eigenvalue comes from the symmetric solver, faster and with a
perfectly conditioned eigenvalue; other chains take the general dense
spectrum.  Those forms are kernels on raw arrays (``_ebw_discrete``,
``_ebw_fluid``, ``_ebw_mmpp``), so a solver that scales the rates can
call them without building a source at each step.

A source's family is its type, decided here alone.  A matrix source
carries its family's data: matrix, rate vector, kernel, the kernel's
rounding-noise norm, and a stationary law solved at most once per
source.  Every source answers ``effective_bandwidth(theta)`` (closed
form where one exists), ``as_matrix()``, its matrix twin (a matrix
source is its own), and ``burstiness``, its variance rate over its
squared mean rate: eta or zeta for the two-state ON/OFF sources, one
deviation-matrix solve for a matrix source.  ``_poisson`` marks the
MMPP types, whose Poisson layer the energy and low-theta formulas
charge on top.  The two-state sources carry the kind label that the
kind-string entry points name them by (``_kind_source``).

The effective bandwidth a*(theta) of a source is the minimum constant
service rate (bits/block) that sustains the source under a queue-tail
decay requirement of exponent ``theta`` (1/bit).  a*(theta) increases
from the mean rate (theta -> 0) toward the peak rate (theta -> inf).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property, singledispatch
from typing import Union

import numpy as np

from .errors import NonConvergence, NoUniqueStationary, ValidationError, _check_theta

# QoS exponent: plain positive float, 1/bit.  theta = 0 is accepted only
# by the limit operations that implement theta -> 0 results.
QosExponent = float

_ROW_SUM_TOL = 1e-12
_EXP_CAP = 700.0  # keeps math.exp finite


def _frozen_array(obj, value, *names):
    """``value`` as a read-only float array, stored on ``obj`` under each name."""
    arr = np.array(value, dtype=float)
    arr.setflags(write=False)
    for name in names:
        object.__setattr__(obj, name, arr)
    return arr


def _param(name: str, value, positive: bool = False) -> float:
    """A scalar source parameter as a float: finite and >= 0, or > 0."""
    value = float(value)
    if not math.isfinite(value) or value < 0 or (positive and value == 0):
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value}")
    return value


class _Support:
    """A chain's support graph, built once per matrix and shared by the
    checks on it: ``loops``, whether each state has a positive diagonal
    entry, and the off-diagonal edges u -> v (entry > 0), ``rows`` and
    ``cols``, with u's neighbours ``cols[start[u]:start[u + 1]]`` in
    ascending order.
    """

    def __init__(self, M: np.ndarray):
        edges = M > 0
        n = edges.shape[0]
        self.loops = np.diagonal(edges).copy()
        np.fill_diagonal(edges, False)
        self.symmetric = bool(np.array_equal(edges, edges.T))
        # np.nonzero walks row-major, so each row's columns come out ascending
        self.rows, self.cols = np.nonzero(edges)
        self.start = [0, *np.cumsum(np.bincount(self.rows, minlength=n)).tolist()]

    def _tree(self, root: int, parent: list, reached: list) -> list:
        """Grow a breadth-first tree from ``root`` over the vertices not
        yet ``reached``, neighbours in ascending order, into ``parent``;
        its vertices in visiting order."""
        todo = reached.count(False)
        reached[root] = True
        queue = [root]
        for u in queue:
            if len(queue) == todo:
                break  # every vertex it could reach is in
            for v in self.cols[self.start[u]:self.start[u + 1]].tolist():
                if not reached[v]:
                    reached[v] = True
                    parent[v] = u
                    queue.append(v)
        return queue

    @cached_property
    def forest(self):
        """(parent, tree): breadth-first trees covering the graph, each
        grown from the lowest vertex not yet reached, vertex 0 first; a
        root's parent is -1, and ``tree`` numbers each vertex's tree.

        Every tree is a shortest-path tree when each vertex is reached
        from the root of its own class: a strongly connected graph, or
        one with a symmetric edge set, whose trees are its classes.
        """
        n = len(self.loops)
        parent = [-1] * n
        tree = [0] * n
        reached = [False] * n
        count = 0
        for root in range(n):
            if not reached[root]:
                for v in self._tree(root, parent, reached):
                    tree[v] = count
                count += 1
        return np.array(parent), np.array(tree)

    @cached_property
    def classes(self):
        """(labels, terminal): each vertex's strong class, and the classes
        with no edge out of them.

        A finite chain has a unique stationary distribution exactly when
        there is a single such terminal (recurrent) class.
        """
        if self.symmetric:
            labels = self.forest[1]
            return labels, np.arange(labels.max() + 1)
        labels = _strong_classes(self.start, self.cols.tolist())
        has_exit = np.zeros(labels.max() + 1, dtype=bool)
        exits = labels[self.rows] != labels[self.cols]
        has_exit[labels[self.rows[exits]]] = True
        return labels, np.flatnonzero(~has_exit)

    def period(self, members: np.ndarray) -> int:
        """Period (gcd of cycle lengths) of the strong class ``members``."""
        if self.loops[members].any():
            return 1
        inside = np.zeros(len(self.loops), dtype=bool)
        inside[members] = True
        if self.symmetric:
            parent = self.forest[0]  # the class is one tree from its lowest vertex
        else:
            parent = [-1] * len(inside)
            self._tree(int(members[0]), parent, (~inside).tolist())
            parent = np.array(parent)
        depth = _path_sums(parent, np.ones(len(inside), dtype=int))
        # the period is the gcd of depth[u] + 1 - depth[v] over the edges
        # u -> v inside the class
        edge = inside[self.rows] & inside[self.cols]
        u, v = self.rows[edge], self.cols[edge]
        return max(int(np.gcd.reduce(np.abs(depth[u] + 1 - depth[v]))), 1)


def _strong_classes(start: list, cols: list) -> np.ndarray:
    """Strong-class label of each vertex of the graph with neighbour lists
    ``cols[start[u]:start[u + 1]]``: Tarjan's depth-first search (1972),
    iterative, labels numbered in the order the classes complete."""
    n = len(start) - 1
    index = [-1] * n  # discovery order
    low = [0] * n  # least discovery order reachable within the open classes
    labels = [-1] * n
    stack = []  # vertices of classes not yet complete
    count = n_labels = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        path = [(root, start[root])]  # the search path, with each vertex's next edge
        while path:
            v, e = path[-1]
            for e in range(e, start[v + 1]):
                w = cols[e]
                if index[w] < 0:
                    path[-1] = (v, e + 1)
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    path.append((w, start[w]))
                    break
                if labels[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == index[v]:
                    # v roots a class: it and everything above it on the stack
                    while True:
                        w = stack.pop()
                        labels[w] = n_labels
                        if w == v:
                            break
                    n_labels += 1
    return np.array(labels)


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
    / 2) are summed along breadth-first trees, and every edge must then
    meet log Q_ij - log Q_ji = 2 (phi_j - phi_i) to within a few ulps of
    the magnitudes summed into it.
    """
    if not support.symmetric:
        return False
    n = Q.shape[0]
    # each off-diagonal edge's log once, by flat index: i -> j and j -> i
    # for i < j, row-major, so ``ahead`` is sorted
    rows, cols = support.rows, support.cols
    ahead = rows < cols
    i, j = rows[ahead], cols[ahead]
    key = i * n + j
    fwd = np.log(Q.take(key))
    back = np.log(Q.take(j * n + i))
    parent = support.forest[0]
    child = np.flatnonzero(parent >= 0)
    above = parent[child]
    at = np.searchsorted(key, np.minimum(above, child) * n + np.maximum(above, child))
    down = np.where(above < child, fwd[at], back[at])
    up = np.where(above < child, back[at], fwd[at])
    # per tree edge: the potential step and the magnitude it carries
    step = np.zeros((n, 2))
    step[child, 0] = 0.5 * (down - up)
    step[child, 1] = np.abs(down) + np.abs(up)
    phi, mag = _path_sums(parent, step).T
    resid = np.abs(fwd - back - 2.0 * (phi[j] - phi[i]))
    # rounding of the logs and of the doubling sums, log2(n) rounds deep
    ulps = (4.0 + 2.0 * math.log2(n)) * np.finfo(float).eps
    return bool(np.all(resid <= ulps * (np.abs(fwd) + np.abs(back) + mag[i] + mag[j])))


# ---------------------------------------------------------------------------
# Effective bandwidths
# ---------------------------------------------------------------------------


def _perron_root(M: np.ndarray) -> float:
    """Largest real eigenvalue of a Metzler matrix (off-diagonal >= 0).

    By Perron-Frobenius no other eigenvalue of a nonnegative matrix, or of
    a Metzler one (a nonnegative matrix shifted by a multiple of I), has a
    larger real part.  An exactly symmetric M takes the symmetric solver
    (``eigvalsh``), whose largest eigenvalue is the root and is perfectly
    conditioned; any other M takes the largest real part of the dense
    spectrum (``eigvals``).  Either solver's failure is NonConvergence.

    The kernels below hand a reversible chain's matrix over symmetrized
    (``_symmetrized``).  If the chain's edges meet detailed balance only
    to a log-residual tau, so that the symmetrized entries are within a
    factor e^{tau/2} of a diagonal similarity of M, Perron monotonicity
    (applied to both matrices shifted by c I) bounds the change in the
    root by (e^{tau/2} - 1)(rho + c), with c = max(0, -min diag M).
    ``_is_reversible`` accepts tau of a few ulps of the logs involved.
    """
    try:
        if np.array_equal(M, M.T):
            return float(np.linalg.eigvalsh(M)[-1])
        return float(np.max(np.linalg.eigvals(M).real))
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigenvalue solver failed: {exc}") from exc


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
    # row i of e^{theta*Lambda} J is e^{theta*rates[i]} * J[i, :]
    M = np.exp(theta * (rates - lam_max))[:, None] * transition_probs
    sp = _perron_root(_symmetrized(M) if reversible else M)
    if sp <= 0.0:
        raise NonConvergence("spectral radius collapsed to zero")
    return lam_max + math.log(sp) / theta


def _ebw_fluid(
    generator: np.ndarray, rates: np.ndarray, theta: float, reversible: bool
) -> float:
    """a*(theta) = max real eigenvalue of (Lambda + G/theta), bits/block."""
    M = np.diag(rates) + generator / theta
    return _perron_root(_symmetrized(M) if reversible else M)


def _ebw_mmpp(
    generator: np.ndarray, intensities: np.ndarray, theta: float, reversible: bool
) -> float:
    """a*(theta) = (1/theta) * max real eigenvalue of ((e^theta - 1) Lambda + G)."""
    M = math.expm1(theta) * np.diag(intensities) + generator
    return _perron_root(_symmetrized(M) if reversible else M) / theta


def effective_bandwidth_onoff_discrete(
    params: OnOffDiscreteParams, theta: QosExponent
) -> float:
    """Closed-form a*(theta) for the two-state discrete ON/OFF source."""
    theta = _check_theta(theta)
    p11, p22, lam = params.p11, params.p22, params.lam
    if lam == 0.0:
        return 0.0
    if p11 == 1.0:
        # OFF is absorbing: the long-run arrival stream is empty.
        return 0.0
    lt = lam * theta
    if lt <= 300.0:
        E = math.exp(lt)
        x = p11 + p22 * E
        disc = x * x - 4.0 * (p11 + p22 - 1.0) * E
        return math.log(0.5 * (x + math.sqrt(disc))) / theta
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
    if s == -x:  # y underflowed relative to x^2
        return 0.0
    return 0.5 * y / (s - x)


def effective_bandwidth_onoff_fluid(
    params: OnOffContinuousParams, theta: QosExponent
) -> float:
    """Closed-form a*(theta) for the two-state fluid source."""
    theta = _check_theta(theta)
    a, b, lam = params.alpha, params.beta, params.lam
    if lam == 0.0:
        return 0.0
    x = theta * lam - (a + b)
    y = 4.0 * a * theta * lam
    return _stable_quadratic_root(x, y) / theta


def effective_bandwidth_onoff_mmpp(
    params: OnOffContinuousParams, theta: QosExponent
) -> float:
    """Closed-form a*(theta) for the two-state MMPP source."""
    theta = _check_theta(theta)
    a, b, lam = params.alpha, params.beta, params.lam
    if lam == 0.0:
        return 0.0
    em = math.expm1(theta)
    x = em * lam - (a + b)
    y = 4.0 * a * em * lam
    return _stable_quadratic_root(x, y) / theta


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
    satisfies detailed balance, and the chain's strong classes.  A family
    gives its matrix check, its ``_check_chain`` of those classes, its
    raw-array ``_kernel``, that kernel's rounding-noise norm and the
    solve of its stationary law, which runs on first use, at most once
    per source, and is read-only.
    """

    # arrivals in each state are Poisson, not fluid: only the MMPP's are
    _poisson = False

    def __post_init__(self):
        matrix, rates = (f.name for f in fields(self)[:2])
        M = _frozen_array(self, np.atleast_2d(getattr(self, matrix)), matrix, "_matrix")
        self._check_matrix(M)
        r = _frozen_array(self, getattr(self, rates), rates, "_rates")
        if r.ndim != 1 or r.shape[0] != M.shape[0]:
            raise ValueError(f"{rates} must be a vector matching the chain size")
        if not np.all(np.isfinite(r)) or np.any(r < 0):
            raise ValueError(f"{rates} must be finite and >= 0")
        support = _Support(M)
        object.__setattr__(self, "reversible", _is_reversible(M, support))
        self._check_chain(support, *support.classes)

    @property
    def n_states(self) -> int:
        return self._matrix.shape[0]

    @cached_property
    def _stationary(self) -> np.ndarray:
        pi = self._solve_stationary()
        pi.setflags(write=False)
        return pi

    def as_matrix(self):
        """A matrix source is its own matrix twin."""
        return self

    def effective_bandwidth(self, theta: QosExponent) -> float:
        """a*(theta) of the chain, bits/block, from its family's kernel
        (``_ebw_discrete``, ``_ebw_fluid`` or ``_ebw_mmpp``)."""
        return self._kernel(self._matrix, self._rates, _check_theta(theta), self.reversible)

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

    def _check_chain(self, support: _Support, labels: np.ndarray, terminal: np.ndarray):
        if len(terminal) != 1:
            raise NoUniqueStationary(
                "chain has multiple recurrent classes; stationary law is not unique"
            )
        if support.period(np.flatnonzero(labels == terminal[0])) != 1:
            raise ValueError("periodic chains are not supported")

    @staticmethod
    def _check_matrix(J: np.ndarray) -> None:
        if J.ndim != 2 or J.shape[0] != J.shape[1] or J.shape[0] < 1:
            raise ValueError("transition_probs must be a square matrix")
        if not np.all(np.isfinite(J)):
            raise ValueError("transition_probs entries must be finite")
        if np.any(J < -1e-15) or np.any(J > 1 + 1e-12):
            raise ValueError("transition_probs entries must lie in [0, 1]")
        row_err = np.max(np.abs(J.sum(axis=1) - 1.0))
        if row_err > _ROW_SUM_TOL:
            raise ValueError(
                f"transition_probs rows must sum to 1 within {_ROW_SUM_TOL:g} "
                f"(worst error {row_err:.3g})"
            )

    def _noise_norm(self, peak: float, theta: float, ce: float) -> float:
        # the root sp = e^{theta (a* - peak)}, of a matrix with entries
        # <= 1, gives a* as peak + ln(sp) / theta
        return peak + math.exp(min(theta * (peak - ce), _EXP_CAP)) / theta

    def _variance_rate(self, pi: np.ndarray, d: np.ndarray) -> float:
        # the fundamental matrix (I - J + 1 pi^T)^-1 sums the lags from 0,
        # counting lag 0 twice in 2 pi(d x)
        x = np.linalg.solve(np.eye(self.n_states) - self.transition_probs + pi, d)
        return 2.0 * float(pi @ (d * x)) - float(pi @ (d * d))

    def _solve_stationary(self) -> np.ndarray:
        J = self.transition_probs
        pi = _stationary_from(J.T - np.eye(J.shape[0]))
        if np.max(np.abs(pi @ J - pi)) > 1e-10:
            raise NoUniqueStationary("stationary equations are inconsistent")
        return pi


class _GeneratorSource(_MatrixSource):
    """A continuous-time chain: the fluid and MMPP families' generator."""

    def _check_chain(self, support: _Support, labels: np.ndarray, terminal: np.ndarray):
        # a split chain builds, and fails on first use of its law
        object.__setattr__(self, "_recurrent_classes", len(terminal))

    @staticmethod
    def _check_matrix(G: np.ndarray) -> None:
        if G.ndim != 2 or G.shape[0] != G.shape[1] or G.shape[0] < 1:
            raise ValueError("generator must be a square matrix")
        if not np.all(np.isfinite(G)):
            raise ValueError("generator entries must be finite")
        off = G.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < -1e-15):
            raise ValueError("generator off-diagonal entries must be >= 0")
        row_err = np.max(np.abs(G.sum(axis=1)))
        if row_err > _ROW_SUM_TOL:
            raise ValueError(
                f"generator rows must sum to 0 within {_ROW_SUM_TOL:g} "
                f"(worst error {row_err:.3g})"
            )

    @property
    def _row_norm(self) -> float:
        return float(np.max(np.sum(np.abs(self.generator), axis=1)))

    def _variance_rate(self, pi: np.ndarray, d: np.ndarray) -> float:
        # 2 pi(d D d) with D the deviation matrix, and D d solves
        # (1 pi^T - G) x = d because pi d = 0
        x = np.linalg.solve(pi - self.generator, d)
        return 2.0 * float(pi @ (d * x))

    def _solve_stationary(self) -> np.ndarray:
        return _generator_law(self.generator, self._recurrent_classes)


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
            v = float(getattr(self, name))
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
            object.__setattr__(self, name, v)
        if self.p11 == 1.0 and self.p22 == 1.0:
            raise ValueError("p11 = p22 = 1 gives a disconnected (reducible) chain")
        object.__setattr__(self, "lam", _param("lam", self.lam))
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
        object.__setattr__(self, "alpha", _param("alpha", self.alpha, positive=True))
        object.__setattr__(self, "beta", _param("beta", self.beta))
        object.__setattr__(self, "lam", _param("lam", self.lam))

    @property
    def p_on(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    @property
    def burstiness(self) -> float:
        """zeta, the chain's variance rate over its squared mean rate."""
        return 2.0 * self.beta / (self.alpha * (self.alpha + self.beta))


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


# the two-state sources by the kind label each carries: the kind-string
# entry points name one of these
_ONOFF_KINDS = {
    cls._kind: cls for cls in (OnOffDiscreteParams, OnOffFluidParams, OnOffMmppParams)
}


def _onoff_type(kind: str) -> type:
    """The two-state source type a kind label names."""
    if kind not in _ONOFF_KINDS:
        raise ValueError(f"kind must be one of {', '.join(_ONOFF_KINDS)}, got {kind!r}")
    return _ONOFF_KINDS[kind]


# every kind a kind-string entry point takes: constant-rate arrivals, a
# two-state source by its label, or any source object as ``nstate``
_KINDS = ("constant", *_ONOFF_KINDS, "nstate")


def _kind_source(kind: str, p11, p22, alpha, beta, source):
    """The source a kind-string call names; ``None`` is constant-rate.
    A two-state source is built with lam = 0: its rate is solved for."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if kind == "constant":
        return None
    if kind == "nstate":
        if source is None:
            raise ValueError("nstate kind requires a source object")
        return source
    cls = _ONOFF_KINDS[kind]
    if cls is OnOffDiscreteParams:
        if p11 is None or p22 is None:
            raise ValueError("discrete kind requires p11 and p22")
        return cls(p11, p22, 0.0)
    if alpha is None or beta is None:
        raise ValueError(f"{kind} kind requires alpha and beta")
    return cls(alpha, beta, 0.0)


AnySource = Union[
    DiscreteMarkovSource,
    FluidMarkovSource,
    MmppSource,
    OnOffDiscreteParams,
    OnOffFluidParams,
    OnOffMmppParams,
]


# ---------------------------------------------------------------------------
# Stationary distributions and mean rates
# ---------------------------------------------------------------------------


def stationary_distribution_discrete(src: DiscreteMarkovSource) -> np.ndarray:
    """Unique probability vector pi with pi @ J = pi (read-only, solved once per source)."""
    return src._stationary


def stationary_distribution_fluid(generator) -> np.ndarray:
    """Unique probability vector pi with pi @ G = 0, of a fluid or MMPP
    source (read-only, solved once per source) or of a raw generator."""
    if isinstance(generator, _GeneratorSource):
        return generator._stationary
    G = np.atleast_2d(np.asarray(generator, dtype=float))
    _GeneratorSource._check_matrix(G)
    return _generator_law(G, len(_Support(G).classes[1]))


def _generator_law(G: np.ndarray, recurrent_classes: int) -> np.ndarray:
    if recurrent_classes != 1:
        raise NoUniqueStationary(
            "generator has multiple recurrent classes; stationary law is not unique"
        )
    pi = _stationary_from(G.T)
    if np.max(np.abs(pi @ G)) > 1e-10 * max(1.0, np.max(np.abs(G))):
        raise NoUniqueStationary("stationary equations are inconsistent")
    return pi


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


@singledispatch
def average_rate(src) -> float:
    """Long-run mean arrival rate of a source, bits/block."""
    raise TypeError(f"unsupported source type: {type(src).__name__}")


@average_rate.register
def _(src: _MatrixSource) -> float:
    return float(src._stationary @ src._rates)


@average_rate.register(OnOffDiscreteParams)
@average_rate.register(OnOffContinuousParams)
def _(src) -> float:
    return src.lam * src.p_on


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
    source.  Raises ValidationError with the offending field path.
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
    if fields[0] == "transition":
        mat = _field_matrix(doc, "transition")
        args = (mat, _numbers("rates", _field(doc, "rates"), len(mat)))
    else:
        args = [_number(name, _field(doc, name)) for name in fields]
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


def _number(path: str, v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(path, f"must be a number, got {type(v).__name__}")
    if not math.isfinite(float(v)):
        raise ValidationError(path, "must be finite")
    return float(v)


def _numbers(path: str, v, expect_len: int) -> np.ndarray:
    """The JSON list of ``expect_len`` numbers at ``path``."""
    if not isinstance(v, list):
        raise ValidationError(path, "must be a list of numbers")
    if len(v) != expect_len:
        raise ValidationError(path, f"expected length {expect_len}, got {len(v)}")
    return np.array([_number(f"{path}[{i}]", x) for i, x in enumerate(v)], dtype=float)


def _field_matrix(doc: dict, name: str) -> np.ndarray:
    v = _field(doc, name)
    if not isinstance(v, list) or not v:
        raise ValidationError(name, "must be a non-empty list of rows")
    return np.array([_numbers(f"{name}[{i}]", row, len(v)) for i, row in enumerate(v)])
