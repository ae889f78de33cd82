"""The three workloads: their inputs, one op each, and each op's check.

Every workload is a single-process closed loop: one caller, one op at a
time, through the package's public entry points. ``op(i)`` runs the i-th op
of a fixed sequence and returns its output; ``check(i, output)`` returns
``None`` when the output is right and a reason when it is not.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from mimobc import cli, region, verifier
from mimobc.fixtures import (
    admissible_channel_for,
    admissible_mixture_for,
    random_channel,
    random_hierarchy,
    rng_for,
)
from mimobc.model import aggregate_covariance


def quarter_circle(points: int) -> list[tuple[float, float]]:
    """The weight sweep ``mimobc region`` uses for two users."""
    return [(math.cos(t), math.sin(t)) for t in np.linspace(0.0, math.pi / 2.0, points)]


class Region:
    """Boundary points of 2-user, 2-antenna channels, one weight vector per op.

    The inputs are the first two channels of the optimizer-vs-oracle
    acceptance check, swept over 11 weight vectors with the CLI's default
    optimizer seed; they do not depend on the workload seed, because the
    cost of the slow points past w2 = w1 varies by orders of magnitude with
    the channel and by a third with the restart draws (see README.md). The
    loop stops only between whole sweeps, so every run holds the same mix of
    fast and slow points.
    """

    name = "region"
    CHANNEL_KEYS = ((1002, 0), (1002, 1))
    OPTIMIZER_SEED = 42
    ORACLE_RESOLUTION = 41
    ORACLE_SLACK = 1e-3

    def __init__(self, seed: int, workdir: Path):
        self.channels = [random_channel(rng_for(*k), 2, 2) for k in self.CHANNEL_KEYS]
        self.weights = quarter_circle(11)
        self.pass_len = len(self.channels) * len(self.weights)
        self.opt = region.OptimizerConfig(seed=self.OPTIMIZER_SEED)
        self._oracle: dict[int, np.ndarray] = {}

    def _point(self, i: int):
        j = i % self.pass_len
        return j // len(self.weights), self.weights[j % len(self.weights)]

    def op(self, i: int):
        c, w = self._point(i)
        return region.trace_boundary(self.channels[c], [w], self.opt)

    def oracle_rates(self, c: int) -> np.ndarray:
        if c not in self._oracle:
            grid = region.grid_oracle(self.channels[c], self.ORACLE_RESOLUTION)
            self._oracle[c] = np.array([rates for _, rates in grid])
        return self._oracle[c]

    def check(self, i: int, output) -> str | None:
        c, w = self._point(i)
        (_, rates), = output
        got = float(np.dot(w, rates))
        best = float(np.max(self.oracle_rates(c) @ np.asarray(w)))
        if not got >= best - self.ORACLE_SLACK:
            return f"w.R = {got:.6g} below grid oracle {best:.6g} - {self.ORACLE_SLACK:g}"
        return None


class Converse:
    """Converse walkthroughs on seeded K=3, n=3 hierarchies (default
    quadrature path), one walkthrough per op.

    The hierarchies have two values per auxiliary (``ALPHABET``), which
    keeps a walkthrough near 3 s, so that a run holds a dozen ops and its
    median is not one op's time on a machine whose speed drifts (see
    README.md). A pass is three instances; a faster program cycles over the
    same three, so it is timed on the same instances as a slower one.
    """

    name = "converse"
    ALPHABET = (2, 2)
    POOL = 3
    pass_len = POOL

    def __init__(self, seed: int, workdir: Path):
        self.instances = []
        for c in range(self.POOL):
            rng = rng_for(seed, 2, c)
            h = random_hierarchy(rng, 3, self.ALPHABET)
            ch = admissible_channel_for(aggregate_covariance(h.base), rng, 3)
            self.instances.append((h, ch))

    def op(self, i: int):
        h, ch = self.instances[i % self.POOL]
        return verifier.converse_walkthrough(h, ch)

    @staticmethod
    def stage_brackets(report) -> list[bool]:
        """Whether each fixed-point stage was bracketed, from its report."""
        return [
            r.residual("bracketed") >= 0.0
            for r in report.reports
            if r.name.startswith("stage_") and r.name[6:].isdigit()
        ]

    def check(self, i: int, report) -> str | None:
        if not report.passed:
            failed = [r.name for r in report.reports if not r.passed]
            return f"walkthrough did not pass: {failed}"
        brackets = self.stage_brackets(report)
        if not brackets or not all(brackets):
            return f"stages bracketed: {brackets}"
        return None


class Verify:
    """``mimobc verify`` on JSON files, each a seeded 2-user channel and an
    admissible 3-component mixture; the files cycle through n = 1, 2, 3."""

    name = "verify"
    POOL = 30
    pass_len = POOL

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.inputs = []
        for c in range(self.POOL):
            rng = rng_for(seed, 3, c)
            ch = random_channel(rng, 1 + c % 3, 2)
            src = admissible_mixture_for(ch, rng, 3)
            doc = {
                "channel": {
                    "noise_covs": [s.tolist() for s in ch.noise_covs],
                    "input_cap": ch.input_cap.tolist(),
                },
                "source": {
                    "weights": src.weights.tolist(),
                    "means": src.means.tolist(),
                    "comp_covs": src.comp_covs.tolist(),
                },
            }
            path = workdir / f"verify_in_{c}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.inputs.append(path)

    def op(self, i: int):
        c = i % self.POOL
        out = self.workdir / f"verify_out_{c}.json"
        out.unlink(missing_ok=True)
        rc = cli.main(["verify", str(self.inputs[c]), "--output", str(out)])
        return rc, out.read_text(encoding="utf-8") if out.exists() else None

    def check(self, i: int, output) -> str | None:
        rc, text = output
        if rc != 0:
            return f"exit code {rc}"
        try:
            reports = json.loads(text)
        except (TypeError, ValueError) as exc:
            return f"output does not parse: {exc}"
        if not isinstance(reports, list) or not reports:
            return "output is not a non-empty list of reports"
        failed = [r.get("name") for r in reports if not (isinstance(r, dict) and r.get("passed") is True)]
        if failed:
            return f"reports not passed: {failed}"
        return None


WORKLOADS = {w.name: w for w in (Region, Converse, Verify)}
