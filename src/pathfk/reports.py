"""Uniform pass/fail reporting for statistical checks."""

from __future__ import annotations

import io
from dataclasses import dataclass, field


@dataclass
class CheckReport:
    name: str
    statistic: float
    threshold: float
    passed: bool
    n_samples: int
    details: list = field(default_factory=list)
    samples: list = field(default_factory=list)  # (label, value) per-sample stats

    @classmethod
    def make(cls, name, statistic, threshold, n_samples, details=None, samples=None):
        statistic = float(statistic)
        threshold = float(threshold)
        passed = statistic <= threshold
        details = list(details or [])
        if not passed and not details:
            details = [f"statistic {statistic:.6g} exceeds threshold {threshold:.6g}"]
        return cls(name, statistic, threshold, passed, int(n_samples),
                   details, list(samples or []))

    def samples_csv(self) -> str:
        buf = io.StringIO()
        buf.write("sample,value\n")
        for label, value in self.samples:
            buf.write(f"{label},{repr(float(value))}\n")
        return buf.getvalue()

    def one_line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"[{tag}] {self.name}: statistic={self.statistic:.6g} "
                f"threshold={self.threshold:.6g} (n={self.n_samples})")
