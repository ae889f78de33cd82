"""Structured pass/fail records for numerical checks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Residual:
    """One labeled residual. ``kind`` is "ineq" (must be >= -tol) or "eq"
    (|value| must be <= tol)."""

    label: str
    value: float
    kind: str = "ineq"

    def holds(self, tol: float) -> bool:
        if self.kind == "ineq":
            return self.value >= -tol
        return abs(self.value) <= tol


@dataclass(frozen=True, slots=True)
class VerificationReport:
    name: str
    passed: bool
    residuals: tuple[Residual, ...]
    tolerance_used: float
    notes: str = ""

    @classmethod
    def from_residuals(cls, name, residuals, tol, notes="") -> "VerificationReport":
        residuals = tuple(residuals)
        ok = all(r.holds(tol) for r in residuals)
        return cls(name=name, passed=ok, residuals=residuals,
                   tolerance_used=float(tol), notes=notes)

    def residual(self, label: str) -> float:
        for r in self.residuals:
            if r.label == label:
                return r.value
        raise KeyError(label)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "residuals": [{"label": r.label, "value": r.value} for r in self.residuals],
            "tolerance": self.tolerance_used,
            "notes": self.notes,
        }


@dataclass(frozen=True, slots=True)
class WalkthroughStage:
    """One stage of the converse recursion: the interpolation parameter, the
    anchored covariance, and the residuals established at that stage."""

    user_index: int
    t_star: float
    A: object  # ndarray; kept loose to avoid a numpy import here
    entropy_match_residual: float
    sandwich_lower_residual: float
    sandwich_upper_residual: float
    integral_entropy_residual: float

    def to_dict(self) -> dict:
        return {
            "user_index": self.user_index,
            "t_star": self.t_star,
            "A": [list(row) for row in self.A],
            "entropy_match_residual": self.entropy_match_residual,
            "sandwich_lower_residual": self.sandwich_lower_residual,
            "sandwich_upper_residual": self.sandwich_upper_residual,
            "integral_entropy_residual": self.integral_entropy_residual,
        }


@dataclass(frozen=True, slots=True)
class WalkthroughReport:
    stages: tuple[WalkthroughStage, ...]
    achieved_rates: tuple[float, ...]
    region_rates: tuple[float, ...]
    split: tuple  # recovered covariance split, one ndarray per user
    passed: bool
    reports: tuple[VerificationReport, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "stages": [s.to_dict() for s in self.stages],
            "achieved_rates": list(self.achieved_rates),
            "region_rates": list(self.region_rates),
            "split": [[list(row) for row in K] for K in self.split],
            "passed": self.passed,
            "reports": [r.to_dict() for r in self.reports],
        }
