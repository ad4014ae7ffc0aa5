#!/usr/bin/env python3
# How often do we detect a richness difference that is really there?
# Two groups of samples, the second one gets 10% extra rare taxa.
# Rates settle near the printed values; bump N_DATASETS for smoother ones.

from dataclasses import replace

import numpy as np

from betta.simulate import (
    METHOD_BETTA,
    METHOD_REGRESSION,
    TWO_CATEGORY,
    ExperimentConfig,
    SampleSizeDistribution,
    SyntheticPopulation,
    run_experiment,
)

N_DATASETS = 200  # keep the demo under ~10 seconds

# a long-tailed community: 2000 taxa, most of them rare
k = np.arange(1, 2001, dtype=float)
weights = k ** -0.8
pop = SyntheticPopulation(
    probabilities=np.sort(weights / weights.sum()),
    singleton_weight=1.0 / 20000.0,
)
sizes = SampleSizeDistribution((4500, 5000, 5500))

config = ExperimentConfig(
    replicates_per_dataset=8,
    n_datasets=N_DATASETS,
    covariate_kind=TWO_CATEGORY,
    alpha_levels=(0.05,),
    seed=42,
    estimator="chao1",
)

# no percents: a size study; a percent contrast: a power study
null_report = run_experiment(pop, sizes, config)
print("false-positive rate at alpha=0.05 (no real difference):")
print(f"  weighted fit on chao1:     {null_report.rate_for(METHOD_BETTA, 0.05):.3f}")
print(f"  least squares on observed: {null_report.rate_for(METHOD_REGRESSION, 0.05):.3f}")

for pct in (5.0, 10.0):
    rep = run_experiment(pop, sizes, replace(config, percents=(pct,)))
    print(f"\npower against {pct:g}% extra rare taxa:")
    print(f"  weighted fit on chao1:     {rep.rate_for(METHOD_BETTA, 0.05):.3f}"
          f"  (mc se {rep.mc_se_for(METHOD_BETTA, 0.05):.3f})")
    print(f"  least squares on observed: {rep.rate_for(METHOD_REGRESSION, 0.05):.3f}")

# the moral: rare-taxon gains barely move the observed count, so the
# unweighted regression stays blind long after the weighted fit catches on
