"""Random-effects regression for collections of species richness estimates.

Each observation i carries a richness estimate and the standard error
reported alongside it. The model treats that standard error as a known
sampling noise scale and adds a shared between-observation variance
component on top:

    estimate_i = intercept + covariates_i . slopes + u_i + e_i
    u_i ~ N(0, sigma_u_sq),   e_i ~ N(0, std_error_i ** 2)

The variance component is estimated by restricted maximum likelihood with
the boundary constraint sigma_u_sq >= 0. For a fixed sigma_u_sq the
coefficient vector has a closed weighted-least-squares form, so the fit
reduces to a one-dimensional bounded Newton search over sigma_u_sq. The
same objective, with its score and information, serves ``betta.mixed``,
and at sigma_u_sq = 0 it gives Cochran's Q in ``betta.inference``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DesignMatrixError,
    IllConditionedWarning,
    NumericalError,
    StdErrorFlooredWarning,
    UnidentifiableError,
)
from .optimize import minimize_bounded

STD_ERROR_FLOOR_SCALE = 1e-8
# The square roots of the largest double and of the smallest normal one: the
# largest standard error with a finite square, and the smallest with a normal one.
MAX_STD_ERROR = 1.3407807929942596e154
MIN_NORMAL_STD_ERROR = 1.4916681462400413e-154
CONDITION_WARN_THRESHOLD = 1e10
# A variance search stops once no component moves by more than this times U.
STEP_TOL_SCALE = 1e-10
INTERCEPT_NAME = "(intercept)"
# The components a variance search frees, as slices of (sigma_u_sq, sigma_g_sq).
_SIGMA_U, _SIGMA_G, _BOTH_VARIANCES = slice(0, 1), slice(1, 2), slice(0, 2)


@dataclass(frozen=True)
class RichnessObservation:
    """One sampling unit as a record, read and checked only by
    ``Dataset(observations=...)``."""

    id: str
    estimate: float
    std_error: float
    covariates: tuple[float, ...] = ()
    group: str | None = None


def _covariate_block(covariates, ids: tuple[str, ...], p: int) -> np.ndarray:
    """The covariate rows as an (m, p) float array.

    A row of another width is a ValueError naming its observation, both
    for ragged rows and for rows that all share a wrong width.
    """
    try:
        x = np.array(covariates, dtype=float)
    except ValueError:  # ragged rows, or cells that are not numbers
        x = None
    if x is not None and x.shape == (len(ids), p):
        return x
    for obs_id, row in zip(ids, covariates):
        if len(row) != p:
            raise ValueError(f"observation {obs_id!r} has {len(row)} covariates, expected {p}")
    raise ValueError(f"covariates must be {len(ids)} rows of {p} numbers")


def _column(values, m: int, name: str) -> np.ndarray:
    column = np.array(values, dtype=float)
    if column.shape != (m,):
        raise ValueError(f"{name} must hold one value per id ({m}), got shape {column.shape}")
    return column


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """An ordered collection of observations sharing one covariate layout.

    The data are held as columns, each built and checked once: ids, the
    estimates and standard errors (float arrays of shape (m,)), the
    covariates (shape (m, p), stored behind an intercept column as the
    design matrix) and the group labels, a tuple or None. The arrays are
    read-only, so the accessors hand them out without copying. Either
    every observation carries a group label or none does.
    """

    covariate_names: tuple[str, ...]
    _ids: tuple[str, ...]
    _estimates: np.ndarray
    _std_errors: np.ndarray
    _design: np.ndarray
    _groups: tuple[str, ...] | None

    def __init__(
        self, observations: Sequence[RichnessObservation], covariate_names: Sequence[str]
    ) -> None:
        rows = tuple(observations)
        self._store(
            ids=[o.id for o in rows],
            estimates=[o.estimate for o in rows],
            std_errors=[o.std_error for o in rows],
            covariates=[o.covariates for o in rows],
            covariate_names=covariate_names,
            groups=[o.group for o in rows],
        )

    @classmethod
    def from_columns(
        cls,
        ids: Sequence[str],
        estimates,
        std_errors,
        covariates=None,
        covariate_names: Sequence[str] = (),
        groups: Sequence[str | None] | None = None,
    ) -> "Dataset":
        """Build a dataset from columns; the arrays are copied.

        covariates is (m, p) array-like, p = len(covariate_names), or None
        when p = 0. groups holds one label per id, or is None; labels that
        are all None mean an ungrouped dataset. Invalid input is a
        ValueError, which names the first faulty observation if there is one.
        """
        dataset = cls.__new__(cls)
        dataset._store(ids, estimates, std_errors, covariates, covariate_names, groups)
        return dataset

    def _store(self, ids, estimates, std_errors, covariates, covariate_names, groups) -> None:
        ids = tuple(ids)
        names = tuple(covariate_names)
        m = len(ids)
        repeated = [n for n in names if names.count(n) > 1]
        if repeated:
            raise ValueError(f"covariate name {repeated[0]!r} appears more than once")
        # m >= 2 is a fit-time requirement, not a construction-time one: a
        # single row is what `betta estimate` writes.
        if m == 0:
            raise ValueError("a dataset needs at least one observation")
        y = _column(estimates, m, "estimates")
        se = _column(std_errors, m, "std_errors")
        if covariates is None:
            covariates = np.empty((m, 0))
        x = _covariate_block(covariates, ids, len(names))
        labels = None if groups is None else tuple(groups)
        if labels is not None and len(labels) != m:
            raise ValueError(f"groups must hold one label per id ({m}), got {len(labels)}")

        faulty = ~(np.isfinite(y) & _usable_std_error(se) & np.isfinite(x).all(axis=1))
        first = int(np.argmax(faulty)) if faulty.any() else m
        if labels is not None and "" in labels:
            first = min(first, labels.index(""))
        if first < m:
            name = f"observation {ids[first]!r}"
            if not np.isfinite(y[first]):
                raise ValueError(f"{name}: estimate must be finite, got {float(y[first])!r}")
            if not _usable_std_error(se[first]):
                raise ValueError(f"{name}: {_std_error_refusal(float(se[first]))}")
            if not np.isfinite(x[first]).all():
                raise ValueError(f"{name}: covariates must be finite")
            raise ValueError(f"{name}: a group label must be a non-empty string")
        if labels is not None:
            n_unlabelled = labels.count(None)
            if n_unlabelled == m:
                labels = None
            elif n_unlabelled:
                unlabelled = [i for i, g in zip(ids, labels) if g is None]
                raise ValueError(f"observations without a group label: {unlabelled}")

        design = np.column_stack([np.ones(m), x])
        for array in (y, se, design):
            array.flags.writeable = False
        for name, value in (("covariate_names", names), ("_ids", ids), ("_estimates", y),
                            ("_std_errors", se), ("_design", design), ("_groups", labels)):
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return len(self._ids)

    @property
    def p(self) -> int:
        return len(self.covariate_names)

    def estimates(self) -> np.ndarray:
        return self._estimates

    def std_errors(self) -> np.ndarray:
        return self._std_errors

    def covariate_matrix(self) -> np.ndarray:
        return self._design[:, 1:]

    def design_matrix(self) -> np.ndarray:
        """Covariates with a leading all-ones intercept column, shape (m, p+1)."""
        return self._design

    def ids(self) -> tuple[str, ...]:
        return self._ids

    def groups(self) -> tuple[str, ...] | None:
        """The group label of every observation, or None for an ungrouped dataset."""
        return self._groups

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.covariate_names == other.covariate_names
            and self._ids == other._ids
            and self._groups == other._groups
            and np.array_equal(self._estimates, other._estimates)
            and np.array_equal(self._std_errors, other._std_errors)
            and np.array_equal(self._design, other._design)
        )


@dataclass(frozen=True)
class BettaFit:
    """Result of fit_betta.

    fitted and std_residuals are aligned with the dataset's observation
    order; std_residuals divide by the (floored) reported standard errors,
    not by the total model variance.
    """

    beta_hat: np.ndarray = field(repr=False)
    sigma_u_sq_hat: float
    beta_cov: np.ndarray = field(repr=False)
    reml_value: float
    fitted: np.ndarray = field(repr=False)
    std_residuals: np.ndarray = field(repr=False)
    converged: bool


def _usable_std_error(se):
    """Whether a standard error (a float, or an array elementwise) is one a fit
    can use: at least 0 and at most MAX_STD_ERROR, so that its square is finite.
    Written as comparisons, so NaN fails and no square can overflow."""
    return (0.0 <= se) & (se <= MAX_STD_ERROR)


def _std_error_refusal(se: float) -> str:
    """The message for a standard error that _usable_std_error refuses."""
    return (f"std_error must be finite and >= 0, got {se!r}; a usable one is also "
            f"at most {MAX_STD_ERROR!r}, so that its square is finite")


def floored_variances(dataset: Dataset) -> np.ndarray:
    """Squared standard errors with the smallest lifted to a small positive floor.

    A reported standard error of exactly zero would give that observation
    infinite weight, and one below MIN_NORMAL_STD_ERROR a square that is not
    a normal double, whose reciprocal overflows. Each is replaced by
    1e-8 * (1 + |estimate|) so the row stays usable while contributing almost
    no down-weighting of the rest; larger standard errors are squared as given.
    """
    se = dataset.std_errors()
    low = se < MIN_NORMAL_STD_ERROR
    if low.any():
        warnings.warn(
            f"{int(low.sum())} observation(s) report a zero standard error or one below "
            f"{MIN_NORMAL_STD_ERROR!r}, whose square is not a normal double; "
            "flooring to 1e-8 * (1 + |estimate|)",
            StdErrorFlooredWarning,
            stacklevel=2,
        )
        se = se.copy()
        se[low] = STD_ERROR_FLOOR_SCALE * (1.0 + np.abs(dataset.estimates()[low]))
    return se * se


def _check_full_rank(x: np.ndarray, names: tuple[str, ...]) -> None:
    """Raise DesignMatrixError naming the columns that add no rank."""
    m, k = x.shape
    if k > m:
        raise DesignMatrixError(
            f"design matrix has more columns ({k}) than observations ({m})",
            columns=names[1:],
        )
    if np.linalg.matrix_rank(x) == k:
        return
    bad: list[str] = []
    rank = 0
    for j in range(k):
        r = np.linalg.matrix_rank(x[:, : j + 1])
        if r == rank:
            bad.append(names[j] if j < len(names) else f"column {j}")
        rank = r
    raise DesignMatrixError(
        "design matrix is rank deficient; collinear column(s): " + ", ".join(bad),
        columns=tuple(bad),
    )


def _canonical_order(dataset: Dataset) -> np.ndarray:
    """A total order on observations that does not depend on input order.

    Rows are sorted by estimate, then standard error, then each covariate
    in turn, then group label, then id; a stable sort keeps rows that tie
    on all of them in input order. Fitting in this canonical order makes
    every floating-point reduction identical for any permutation of the
    same rows, so permuting a dataset cannot change the fit. When the
    estimates are pairwise distinct the first key alone decides every
    position, and one argsort of them, of any kind, gives the same permutation.
    """
    y = dataset.estimates()
    order = np.argsort(y)
    ranked = y[order]
    if (ranked[1:] != ranked[:-1]).all():
        return order
    # lexsort's last key is the primary one. Object arrays compare labels
    # and ids as Python strings.
    keys = [np.array(dataset.ids(), dtype=object)]
    if dataset.groups() is not None:
        keys.append(np.array(dataset.groups(), dtype=object))
    x = dataset.covariate_matrix()
    keys += [x[:, j] for j in reversed(range(dataset.p))]
    keys += [dataset.std_errors(), y]
    return np.lexsort(keys)


def _solve_normal_equations(gram: np.ndarray, rhs: np.ndarray):
    """Solve gram @ beta = rhs by Cholesky, for one system or a stack of them;
    return (beta, symmetrized gram, log det gram)."""
    gram = 0.5 * (gram + gram.swapaxes(-1, -2))
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("weighted design Gram matrix is not positive definite") from exc
    beta = np.linalg.solve(chol.swapaxes(-1, -2), np.linalg.solve(chol, rhs))
    logdet = 2.0 * np.log(chol.diagonal(axis1=-2, axis2=-1)).sum(axis=-1)
    return beta, gram, logdet


def _search_upper_bound(sample_var, variances: np.ndarray):
    """Upper bound of the variance search, from the estimates' sample variance
    (a scalar and its (m,) variances, or one of each per dataset).

    Ten times the sample variance of the estimates comfortably exceeds any
    explainable between-observation variance; the smallest reported
    variance, positive once floored, keeps the interval non-degenerate when
    the estimates happen to be constant. Both terms scale as the data
    squared, so the interval does too.
    """
    return np.maximum(10.0 * sample_var, variances.min(axis=-1))


def _boundary_wins(boundary: float, interior: float) -> bool:
    """Whether a boundary candidate ties (relative to 1 + |interior|) or beats
    an interior one, so that an optimum on the boundary is reported exactly."""
    return boundary >= interior - 1e-12 * (1.0 + abs(interior))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis, for each row of stacked vectors; each is the
    one BLAS dot that a 1-D a @ b runs."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _total(a: np.ndarray) -> np.ndarray:
    """The sum of each (k, k) matrix of a, each summed as np.sum of one contiguous matrix."""
    return a.reshape(a.shape[:-2] + (-1,)).sum(axis=-1)


class _ProfiledObjective:
    """Profiled restricted log-likelihood of one dataset, or of a stack of
    datasets that share one design, each in its canonical order.

    Building it runs the checks and set-up both fits share, once per
    stack; ``maximize`` is their bounded variance search and ``fit_result``
    their post-fit block. Built from one Dataset, it holds that dataset's
    arrays: the design x (m, k), the estimates y and the floored variances
    (m,), the search's start and upper bound U (scalars). Built from a
    sequence of datasets, each array gains a leading axis of length D, and
    the searches run in lockstep. The flat terms are written over that
    leading axis, and each dataset's rows pass through the same per-matrix
    kernels (``@``, Cholesky, solve, inverse) with or without it, so a
    dataset's values do not depend on D or on the datasets beside it.

    The marginal covariance is block diagonal by group, each block
    diag(v) + sigma_g_sq * 1 1^T with v_i = std_error_i^2 + sigma_u_sq.
    The flat model is weighted least squares with w = 1/v. With groups and
    sigma_g_sq > 0, Sherman-Morrison per block gives, for a, b in [X, y] and
    r, a^T V^-1 b = sum_i w_i (a_i - a_g)(b_i - b_g) + sum_g S_g a_g b_g /
    (1 + sigma_g_sq S_g), a_g the w-weighted group means and S_g = sum_g w_i:
    nothing cancels when a floored standard error makes one w_i huge. ln det V
    gains sum_g ln(1 + sigma_g_sq S_g). An evaluation costs O(m p^2). At
    sigma_g_sq = 0 the group terms are skipped: the result and its cost are
    the flat model's. ``groups`` is ``dataset.groups()`` of one dataset, or
    None (flat).
    """

    def __init__(self, datasets: Dataset | Sequence[Dataset], groups: tuple[str, ...] | None = None):
        single = isinstance(datasets, Dataset)
        stack = (datasets,) if single else tuple(datasets)
        first = stack[0]
        if first.m < 2:
            raise ValueError(f"fitting needs at least 2 observations, got {first.m}")
        x_full = first.design_matrix()
        _check_full_rank(x_full, (INTERCEPT_NAME,) + first.covariate_names)
        if first.m == first.p + 1:
            raise UnidentifiableError(
                f"only {first.m} observations for {first.p + 1} coefficients; with no "
                "residual degrees of freedom the restricted likelihood is flat and the "
                "variance component cannot be identified"
            )
        if not all(np.array_equal(ds.design_matrix(), x_full) for ds in stack[1:]):
            raise ValueError("the datasets of one objective must share one design matrix")

        n, m = len(stack), first.m
        orders = np.array([_canonical_order(ds) for ds in stack])
        # Entry (d, i) in canonical order is entry self._flat[d * m + i] of the
        # datasets' columns laid end to end.
        self._flat = (orders + m * np.arange(n)[:, None]).ravel()
        self.order = orders[0] if single else orders
        shape = self.order.shape
        self.x = x_full.take(self.order, axis=0)
        self.y = np.concatenate([ds.estimates() for ds in stack])[self._flat].reshape(shape)
        self.variances = np.concatenate([floored_variances(ds) for ds in stack])[self._flat].reshape(shape)
        self.codes = None
        if groups is not None:
            # Object arrays keep labels as Python strings; fixed-width NumPy
            # strings would drop trailing NULs and merge labels.
            labels = np.array(groups, dtype=object)[self.order]
            levels, codes = np.unique(labels, return_inverse=True)
            self.codes, self.n_groups = codes, len(levels)
            self._bins = {1: codes}                         # _group_sums' bins, by width
            self._xy1 = np.column_stack([self.x, self.y, np.ones(len(self.y))])

        # The search starts from the sample variance, which is inside [0, upper].
        self.start = np.var(self.y, axis=-1, ddof=1)
        self.upper = _search_upper_bound(self.start, self.variances)

    def _group_sums(self, block: np.ndarray) -> np.ndarray:
        """Group sums of an (m,) or (m, k) block, all columns in one bincount."""
        k = block[0].size
        bins = self._bins.get(k)
        if bins is None:
            bins = self._bins[k] = (self.codes[:, None] * k + np.arange(k)).ravel()
        sums = np.bincount(bins, weights=block.ravel(), minlength=self.n_groups * k)
        return sums.reshape((self.n_groups,) + block.shape[1:])

    def components(self, sigma_u_sq, sigma_g_sq=0.0):
        """(REML, beta, symmetrized X^T V^-1 X, r, w = 1/v, X * w) at the
        variances; for a stack, at one sigma_u_sq per dataset or a shared one."""
        v = self.variances + np.asarray(sigma_u_sq)[..., None]
        w = 1.0 / v
        xw = self.x * w[..., None]
        grouped = self.codes is not None and sigma_g_sq > 0.0
        if grouped:
            # [X, y]^T V^-1 [X, y] about the weighted group means, so that nothing cancels.
            sums = self._group_sums(self._xy1 * w[:, None])      # w * [X, y, 1]
            w_sums = sums[:, -1]
            means = sums[:, :-1] / w_sums[:, None]
            between = w_sums / (1.0 + sigma_g_sq * w_sums)
            dev = self._xy1[:, :-1] - means[self.codes]
            full = (dev * w[:, None]).T @ dev + (means.T * between) @ means
            gram, rhs = full[:-1, :-1], full[:-1, -1:]
        else:
            xt = xw.swapaxes(-1, -2)
            gram, rhs = xt @ self.x, xt @ self.y[..., None]
        beta, gram, logdet = _solve_normal_equations(gram, rhs)
        beta = beta[..., 0]
        resid = dev_r = self.y - (self.x @ beta[..., None])[..., 0]
        if grouped:                       # ln det V and r^T V^-1 r by the same split
            r_means = self._group_sums(w * resid) / w_sums
            dev_r = resid - r_means[self.codes]
            logdet += float(np.sum(np.log1p(sigma_g_sq * w_sums)) + between @ (r_means * r_means))
        total = (np.log(v) + dev_r * dev_r * w).sum(axis=-1) + logdet
        return -0.5 * total, beta, gram, resid, w, xw

    def value(self, sigma_u_sq, sigma_g_sq=0.0):
        return self.components(sigma_u_sq, sigma_g_sq)[0]

    def score_and_information(self, sigma_g_sq: float, gram, resid, w, xw, free: slice):
        """Grouped REML score and average information in the free variances.

        gram, resid, w and xw are ``components`` at (sigma_u_sq, sigma_g_sq).
        With dV_k = I and Z Z^T (Z the group indicators) and u = (P y, Z Z^T P y),
        the score is (y^T P dV_k P y - tr(P dV_k)) / 2 and AI_kl = u_k^T P u_l / 2
        (Gilmour, Thompson & Cullis 1995). Products with V^-1 use the block
        inverse V^-1 M = w*M - w*c[g] * groupsum(w*M)[g] and
        Z^T V^-1 M = groupsum(w*M) / (1 + sigma_g_sq * S_g), S_g = groupsum(w).
        """
        sums = self._group_sums(np.column_stack([xw, w * resid, w]))
        xw_sums, wr_sums, w_sums = sums[:, :-2], sums[:, -2], sums[:, -1]   # Z^T W [X, r, 1]
        shrink = 1.0 / (1.0 + sigma_g_sq * w_sums)
        c = sigma_g_sq * shrink
        b, z_py = xw_sums * shrink[:, None], wr_sums * shrink    # Z^T V^-1 X and Z^T P y
        wc = w * c[self.codes]
        a = xw - wc[:, None] * xw_sums[self.codes]               # V^-1 X
        py = w * resid - wc * wr_sums[self.codes]                # P y = V^-1 r
        ginv = np.linalg.inv(gram)
        trace_p = float(w.sum() - wc @ w - (ginv * (a.T @ a)).sum())
        trace_pzz = float(w_sums @ shrink - (ginv * (b.T @ b)).sum())
        score = 0.5 * np.array([py @ py - trace_p, z_py @ z_py - trace_pzz])

        # AI = (U^T V^-1 U - (X^T V^-1 U)^T G^-1 X^T V^-1 U) / 2 with U = (P y, Z z),
        # z = Z^T P y, and V^-1 Z z = w * (shrink * z)[g].
        wpy_sums = self._group_sums(w * py)
        cross = float(wpy_sums * shrink @ z_py)
        u_v_u = np.array([[(w * py) @ py - c @ (wpy_sums * wpy_sums), cross],
                          [cross, (z_py * z_py) @ (w_sums * shrink)]])
        x_v_u = np.column_stack([a.T @ py, b.T @ z_py])
        information = 0.5 * (u_v_u - x_v_u.T @ ginv @ x_v_u)
        return score[free], information[free, free]

    def newton_terms(self, theta, free: slice):
        """The REML at theta = (sigma_u_sq, sigma_g_sq), one row per dataset of
        a stack, its score in the free components and a positive curvature
        there: the grouped average information, or for sigma_u_sq alone at
        sigma_g_sq = 0 (the flat model) the observed information 2 AI - tr(PP) / 2
        if positive, else AI = (Py)^T P (Py) / 2. There, with Py = w * r and
        A = G^-1 X^T W^2 X, tr P = sum(w) - tr A and
        tr(PP) = sum(w^2) - 2 tr(G^-1 X^T W^3 X) + tr(A^2).
        """
        value, _, gram, resid, w, xw = self.components(theta[..., 0], theta[..., 1])
        if self.codes is not None and (free != _SIGMA_U or theta[1] > 0.0):
            return (value, *self.score_and_information(theta[1], gram, resid, w, xw, free))
        py = w * resid
        ginv = np.linalg.inv(gram)
        xt = xw.swapaxes(-1, -2)
        a = ginv @ (xt @ xw)
        z = xt @ py[..., None]
        score = 0.5 * (_dot(py, py) - w.sum(axis=-1) + a.trace(axis1=-2, axis2=-1))
        average = 0.5 * (_dot(w, py * py) - (z.swapaxes(-1, -2) @ ginv @ z)[..., 0, 0])
        trace_pp = (_dot(w, w) - 2.0 * _total(ginv * ((xw * w[..., None]).swapaxes(-1, -2) @ xw))
                    + _total(a * a.swapaxes(-1, -2)))
        observed = 2.0 * average - 0.5 * trace_pp
        curvature = np.where(observed > 0.0, observed, average)
        return value, score[..., None], curvature[..., None, None]

    def maximize(self, minimize, start, free: slice):
        """Maximize the REML over the free components on [0, U] by ``minimize``
        from ``start``, which holds the other; return ((sigma_u_sq, sigma_g_sq),
        maximum, converged). For a stack, start's components are shared or one
        per dataset, the D searches run in lockstep, and the variances come
        back as a (D, 2) array. A sigma_u_sq search probes 0, which wins ties."""
        theta = np.empty(np.shape(self.start) + (2,))
        theta[..., 0], theta[..., 1] = start

        def negated(x):
            point = theta.copy()
            point[..., free] = x
            value, score, curvature = self.newton_terms(point, free)
            return -value, -score, curvature

        result = minimize(negated, self.upper,
                          xatol=STEP_TOL_SCALE * self.upper, x0=theta[..., free])
        theta[..., free], best = result.x, -result.fx
        if free == _SIGMA_U:
            positive = theta[..., 0] > 0.0
            if positive.any():
                at_zero = self.value(0.0, theta[..., 1])
                wins = positive & _boundary_wins(at_zero, best)
                theta[..., 0], best = np.where(wins, 0.0, theta[..., 0]), np.where(wins, at_zero, best)
        return theta, best, result.converged

    def fit_result(self, cls, sigma_u_sq, sigma_g_sq, converged, **extra):
        """Build a ``cls`` (BettaFit or a subclass) at the fitted variances; for
        a stack, a list of one per dataset, from one sigma_u_sq and converged
        flag per dataset."""
        value, beta, gram, resid = self.components(sigma_u_sq, sigma_g_sq)[:4]
        for cond in np.ravel(np.linalg.cond(gram)).tolist():
            if cond > CONDITION_WARN_THRESHOLD:
                warnings.warn(
                    f"weighted design Gram matrix condition number {cond:.3g} exceeds 1e10; "
                    "coefficient covariance may be unreliable",
                    IllConditionedWarning,
                    stacklevel=3,
                )
        beta_cov = np.linalg.inv(gram)
        beta_cov = 0.5 * (beta_cov + beta_cov.swapaxes(-1, -2))

        fitted = np.empty(self.y.size)
        std_residuals = np.empty(self.y.size)
        fitted[self._flat] = (self.x @ beta[..., None]).ravel()
        std_residuals[self._flat] = (resid / np.sqrt(self.variances)).ravel()
        fitted, std_residuals = fitted.reshape(self.y.shape), std_residuals.reshape(self.y.shape)
        if self.y.ndim == 1:
            return cls(beta_hat=beta, sigma_u_sq_hat=float(sigma_u_sq), beta_cov=beta_cov,
                       reml_value=float(value), fitted=fitted, std_residuals=std_residuals,
                       converged=converged, **extra)
        n = len(beta)
        return [cls(beta_hat=b, sigma_u_sq_hat=s, beta_cov=c, reml_value=r, fitted=f,
                    std_residuals=e, converged=ok, **extra)
                for b, s, c, r, f, e, ok in zip(beta, np.broadcast_to(sigma_u_sq, n).tolist(), beta_cov,
                                                value.tolist(), fitted, std_residuals,
                                                np.broadcast_to(converged, n).tolist())]


def fit_betta(dataset: Dataset) -> BettaFit:
    """Fit the random-effects richness regression by restricted maximum likelihood.

    Parameters
    ----------
    dataset : Dataset
        Observations with estimates, reported standard errors, covariates.

    Returns
    -------
    BettaFit
        Coefficients (intercept first), the nonnegative variance component,
        the coefficient covariance (X^T W^-1 X)^-1 at the fitted weights,
        the restricted log-likelihood at the optimum, fitted values and
        standardized residuals in dataset order, and a convergence flag.

    Notes
    -----
    Only sigma_u_sq is searched, the coefficients being closed-form at each
    value, on [0, U] with U = max(10 * var(estimates), min floored reported
    variance), by Newton steps from var(estimates), clamped into [0, U], to
    a step of 1e-10 * U. Both scale as the estimates squared, so multiplying
    the estimates and standard errors by c scales sigma_u_sq by c^2 and
    leaves the tests' p-values unchanged up to rounding. sigma_u_sq = 0 is
    always evaluated and wins ties, so homogeneous data give exactly zero.
    """
    objective = _ProfiledObjective(dataset)
    (sigma_u_sq, _), _, converged = objective.maximize(
        minimize_bounded, (objective.start, 0.0), _SIGMA_U)
    return objective.fit_result(BettaFit, sigma_u_sq, 0.0, converged)


def fit_betta_batch(datasets: Sequence[Dataset]) -> list[BettaFit]:
    """fit_betta of each of several datasets that share one design matrix.

    The same objective and search as fit_betta, with a leading axis over
    the datasets: the design is checked once, and the searches run in
    lockstep, so NumPy's fixed cost per call is paid once per step of the
    whole batch, not once per dataset. Each fit is bit for bit the one
    fit_betta returns for its dataset alone, whatever the batch holds. An
    error in any dataset's fit is raised for the batch.
    """
    if not datasets:
        return []
    objective = _ProfiledObjective(datasets)
    theta, _, converged = objective.maximize(minimize_bounded, (objective.start, 0.0), _SIGMA_U)
    return objective.fit_result(BettaFit, theta[:, 0], 0.0, converged)
