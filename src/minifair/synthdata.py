"""Desk-scale synthetic stand-ins for the three tabular benchmarks.

Raw benchmark CSVs are not vendored, so these generators produce structurally
matching data for smoke runs and the acceptance suite: sensitive attributes
causally shift both the observed features and the target, which is exactly
the bias pattern the invariant-representation method is meant to suppress.
Each generator writes a CSV whose header matches the corresponding built-in
DatasetSpec.
"""
from __future__ import annotations

import csv

import numpy as np

LAW_RACE_EFFECT = {"white": 0.70, "black": -0.50, "hispanic": -0.10}
LAW_RACE_PROBS = {"white": 0.5, "black": 0.3, "hispanic": 0.2}
LAW_GENDER_EFFECT = {"male": 0.10, "female": -0.10}

COMPAS_RACE_EFFECT = {"african_american": 0.75, "caucasian": -0.75}
COMPAS_CAUCASIAN_SHARE = 0.6
COMPAS_SEX_EFFECT = {"male": 0.10, "female": -0.10}
COMPAS_INTERCEPT = 0.55

# Measurement bias: given the outcome, the depressed group's risk features
# read milder and the boosted group's read harsher.
COMPAS_POSITIVE_RISK_SHIFT = {"caucasian": -0.60, "african_american": 0.0}
COMPAS_NEGATIVE_RISK_SHIFT = {"caucasian": 0.0, "african_american": 0.30}

ADULT_RACE_EFFECT = {"white": 0.45, "black": -0.45, "other": 0.0}
ADULT_RACE_PROBS = {"white": 0.6, "black": 0.25, "other": 0.15}
ADULT_SEX_EFFECT = {"male": 0.35, "female": -0.35}


def _pick(rng, table):
    names = list(table)
    probs = np.array([table[k] for k in names])
    return names[rng.choice(len(names), p=probs / probs.sum())]


def generate_law_csv(path, n=800, seed=0):
    """Law-school style regression data: entrance scores predict first-year grade.

    Race and gender shift the scores mildly and the target strongly, so a
    model with access to them separates group prediction distributions while
    unaware/invariant models barely do.
    """
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["race", "gender", "lsat", "ugpa", "fya"])
        for _ in range(n):
            race = _pick(rng, LAW_RACE_PROBS)
            gender = "male" if rng.random() < 0.5 else "female"
            bias = LAW_RACE_EFFECT[race] + LAW_GENDER_EFFECT[gender]
            apt = rng.normal()
            lsat = 0.45 * apt + 0.06 * bias + rng.normal(scale=0.80)
            ugpa = 0.40 * apt + 0.05 * bias + rng.normal(scale=0.80)
            # target kept near unit scale, like the z-scored first-year average
            fya = 0.36 * apt + 0.45 * bias + rng.normal(scale=0.675)
            writer.writerow([race, gender, f"{lsat:.6f}", f"{ugpa:.6f}", f"{fya:.6f}"])


def generate_compas_csv(path, n=2000, seed=0):
    """Recidivism-style classification data with group-dependent base rates
    and measurement bias in the risk features.

    Labels follow group base rates; the latent risk the features track is
    drawn conditionally on the outcome and is systematically understated for
    the depressed group, the pattern that pushes group-aware models toward
    concentrated false negatives.
    """
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["race", "sex", "age", "priors_count", "charge_degree", "two_year_recid"])
        for _ in range(n):
            race = "caucasian" if rng.random() < COMPAS_CAUCASIAN_SHARE else "african_american"
            sex = "male" if rng.random() < 0.8 else "female"
            bias = COMPAS_RACE_EFFECT[race] + COMPAS_SEX_EFFECT[sex]
            label = int(rng.random() < _sigmoid(COMPAS_INTERCEPT + bias))
            if label:
                risk = rng.normal(1.35 + COMPAS_POSITIVE_RISK_SHIFT[race], 0.75)
            else:
                risk = rng.normal(-0.55 + COMPAS_NEGATIVE_RISK_SHIFT[race], 1.05)
            age = int(np.clip(34 - 5.0 * risk + rng.normal(scale=5.0), 18, 75))
            priors = int(np.clip(rng.poisson(np.exp(0.6 * risk + 0.4)), 0, 25))
            degree = "felony" if rng.random() < _sigmoid(0.8 * risk) else "misdemeanor"
            writer.writerow([race, sex, age, priors, degree, label])


def generate_adult_csv(path, n=1500, seed=0):
    """Census-income style classification data with sensitive-driven bias."""
    rng = np.random.default_rng(seed)
    workclasses = ["private", "government", "self_employed"]
    occupations = ["clerical", "managerial", "service", "technical"]
    marital = ["married", "single", "divorced"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "age",
                "education_num",
                "hours_per_week",
                "capital_gain",
                "capital_loss",
                "workclass",
                "occupation",
                "marital_status",
                "race",
                "sex",
                "income",
            ]
        )
        for _ in range(n):
            race = _pick(rng, ADULT_RACE_PROBS)
            sex = "male" if rng.random() < 0.65 else "female"
            bias = ADULT_RACE_EFFECT[race] + ADULT_SEX_EFFECT[sex]
            skill = rng.normal()
            age = int(np.clip(38 + 6.0 * skill + rng.normal(scale=9.0), 17, 85))
            edu = int(np.clip(10 + 2.2 * skill + 0.6 * bias + rng.normal(scale=1.5), 1, 16))
            hours = int(np.clip(40 + 5.0 * skill + rng.normal(scale=8.0), 5, 90))
            gain = float(np.round(np.maximum(0.0, rng.normal(scale=1.0) + skill) ** 2 * 800, 2))
            loss = float(np.round(np.maximum(0.0, rng.normal(scale=0.7)) ** 2 * 300, 2))
            workclass = workclasses[int(rng.integers(len(workclasses)))]
            occupation = occupations[
                int(np.clip(1.2 * skill + rng.normal(scale=1.0) + 1.5, 0, 3))
            ]
            status = marital[int(rng.integers(len(marital)))]
            logit = 1.2 * skill + bias - 0.3
            label = ">50K" if rng.random() < _sigmoid(logit) else "<=50K"
            writer.writerow(
                [age, edu, hours, gain, loss, workclass, occupation, status, race, sex, label]
            )


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))
