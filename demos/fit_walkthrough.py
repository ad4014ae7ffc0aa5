#!/usr/bin/env python3
"""Walk through a single meta-regression fit, start to finish.

Six samples, a sequencing-depth covariate, and deliberately optimistic
standard errors on two rows so the between-sample variance component has
something to soak up. Everything prints; nothing is written to disk.
"""

import numpy as np

from betta import Dataset, RichnessObservation, fit_betta
from betta.inference import global_test, homogeneity_test, residual_diagnostics, wald_tests

rng = np.random.default_rng(8)

depth = np.array([1.0, 1.5, 2.0, 2.5, 3.0, 3.5])  # reads, millions
true_richness = 400.0 + 120.0 * depth
claimed_se = np.array([25.0, 30.0, 8.0, 35.0, 9.0, 28.0])
noise = rng.normal(0.0, 60.0, depth.size)  # extra spread the SEs do not admit

obs = tuple(
    RichnessObservation(
        id=f"sample{i}",
        estimate=float(true_richness[i] + noise[i] + rng.normal(0.0, claimed_se[i])),
        std_error=float(claimed_se[i]),
        covariates=(float(depth[i]),),
    )
    for i in range(depth.size)
)
ds = Dataset(observations=obs, covariate_names=("depth",))

fit = fit_betta(ds)
print(f"sigma_u^2 (excess variance): {fit.sigma_u_sq_hat:.1f}")
print(f"restricted log-likelihood:   {fit.reml_value:.3f}")
print()

print("coefficients:")
for name, test in zip(("(intercept)", "depth"), wald_tests(fit)):
    j = 0 if name == "(intercept)" else 1
    se = float(np.sqrt(fit.beta_cov[j, j]))
    print(f"  {name:12s} {fit.beta_hat[j]:9.2f}  se {se:7.2f}  z {test.statistic:6.2f}  p {test.p_value:.4f}")

gt = global_test(fit)
print(f"\nall-slopes test: chisq {gt.statistic:.2f} on {gt.dof} dof, p {gt.p_value:.4f}")

q = homogeneity_test(ds)  # Cochran's Q: reads the data, not the fit
print(f"homogeneity:     Q {q.statistic:.2f} on {q.dof} dof, p {q.p_value:.4f}")
# small p here means the claimed standard errors cannot explain the spread

print("\nper-sample diagnostics (std residual, then the +-2se interval):")
for row in residual_diagnostics(fit, ds).rows:
    print(f"  {row.id}: resid {row.std_residual:6.2f}   [{row.lower:7.1f}, {row.upper:7.1f}]")
