"""Oracles the benchmark checks coopt's outputs against.

Written from the documented file formats alone and sharing no code with
coopt, so a defect in coopt's contraction kernels cannot hide in the
checks of its own results.
"""

from __future__ import annotations

import itertools
import json

import numpy as np


class Problem:
    """A problem file as per-agent utility factors.

    Energies E become utilities exp(-E/hbar).  A dense objective is one
    factor over all its variables; a pairwise objective is one factor per
    neighbour, and the agent's expected utility is the product of the
    factors' expectations because the neighbours play independently.
    """

    def __init__(self, path):
        with open(path) as f:
            doc = json.load(f)
        hbar = float(doc.get("hbar", 1.0))
        energy = doc["mode"] == "energy"
        card = {v["name"]: int(v["cardinality"]) for v in doc["variables"]}
        agent_of = {a["acts_on"]: i for i, a in enumerate(doc["agents"])}
        self.names = [a["name"] for a in doc["agents"]]
        self.sizes = [card[a["acts_on"]] for a in doc["agents"]]
        self.factors = []  # per agent: [(other agent indices, array with own axis first)]
        for agent in doc["agents"]:
            own, objective = agent["acts_on"], agent["objective"]
            if "dense" in objective:
                order = objective["dense"]["order"]
                table = np.array(objective["dense"]["values"], dtype=float)
                table = table.reshape([card[v] for v in order])
                util = np.exp(-table / hbar) if energy else table
                util = np.moveaxis(util, order.index(own), 0)
                factors = [([agent_of[v] for v in order if v != own], util)]
            else:
                factors = [
                    ([agent_of[term["with"]]], np.exp(-np.array(term["table"], dtype=float) / hbar))
                    for term in objective["pairwise"]
                ]
            self.factors.append(factors)

    def profile(self, doc) -> list[np.ndarray]:
        return [np.array(doc["profile"][name], dtype=float) for name in self.names]

    def payoffs(self, profile, i: int) -> np.ndarray:
        """Expected utility of each own action of agent i against the others."""
        v = np.ones(self.sizes[i])
        for others, util in self.factors[i]:
            t = util
            for j in reversed(others):
                t = t @ profile[j]
            v = v * t
        return v

    def map_step(self, profile, alpha: float) -> list[np.ndarray]:
        """One step of p_i proportional to payoffs_i**alpha (alpha capped at 1e6)."""
        alpha = min(alpha, 1e6)
        out = []
        with np.errstate(divide="ignore"):
            for i in range(len(self.sizes)):
                s = alpha * np.log(self.payoffs(profile, i))
                p = np.exp(s - s.max())
                out.append(p / p.sum())
        return out

    def epsilon(self, profile) -> float:
        """Largest gain any agent gets from a unilateral pure deviation."""
        gains = []
        for i, p in enumerate(profile):
            v = self.payoffs(profile, i)
            gains.append(max(float(v.max() - p @ v), 0.0))
        return max(gains)

    def pure_nash(self) -> set[tuple[int, ...]]:
        """Every pure profile with no strictly improving deviation, by brute force."""
        found = set()
        for joint in itertools.product(*(range(k) for k in self.sizes)):
            point = [np.eye(k)[a] for k, a in zip(self.sizes, joint)]
            if all(
                self.payoffs(point, i)[a] >= self.payoffs(point, i).max()
                for i, a in enumerate(joint)
            ):
                found.add(joint)
        return found


def grid_hamiltonian(path) -> np.ndarray:
    """Dense matrix of a grid Hamiltonian file: -(1/2) d2/dx2 by central
    differences with Dirichlet boundaries, plus the potential."""
    with open(path) as f:
        grid = json.load(f)["grid"]
    n = int(grid["n"])
    h = (grid["xmax"] - grid["xmin"]) / (n - 1)
    matrix = np.diag(1.0 / h**2 + np.asarray(grid["potential"], dtype=float))
    i = np.arange(n - 1)
    matrix[i, i + 1] = matrix[i + 1, i] = -0.5 / h**2
    return matrix


def is_distribution(p: np.ndarray) -> bool:
    return bool(np.isfinite(p).all() and (p >= 0).all() and abs(p.sum() - 1.0) <= 1e-9)
