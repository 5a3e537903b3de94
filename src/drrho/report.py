"""Run reports: metric time series plus configuration and provenance.

Reports are the single artifact every training or analysis command emits.
Serialization is deterministic (sorted keys, repr-roundtripped floats, no
timestamps) so that reruns with the same seed produce bit-identical files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

CODE_VERSION = "drrho-0.1.0"


@dataclass
class ExperimentReport:
    config_snapshot: dict
    provenance: dict = field(default_factory=dict)
    series: list[tuple[int, str, float]] = field(default_factory=list)

    def add(self, step: int, metric: str, value: float) -> None:
        """Append one measurement; steps must be nondecreasing per metric."""
        last = self._last_step(metric)
        if last is not None and step < last:
            raise ValueError(f"step {step} for {metric!r} precedes last recorded step {last}")
        self.series.append((int(step), str(metric), float(value)))

    def _last_step(self, metric: str) -> int | None:
        for s, m, _ in reversed(self.series):
            if m == metric:
                return s
        return None

    @property
    def summary(self) -> dict[str, float]:
        """Final value per metric (the last series entry of each)."""
        out: dict[str, float] = {}
        for _, metric, value in self.series:
            out[metric] = value
        return out

    def metric_series(self, metric: str) -> list[tuple[int, float]]:
        return [(s, v) for s, m, v in self.series if m == metric]

    def to_json_dict(self) -> dict:
        return {
            "config": self.config_snapshot,
            "provenance": {**self.provenance, "code_version": CODE_VERSION},
            "summary": self.summary,
            "series": [[s, m, v] for s, m, v in self.series],
        }

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n")

    def save_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["step", "metric", "value"])
            for s, m, v in self.series:
                writer.writerow([s, m, repr(v)])

    def write_plot_data(self, out_dir: str | Path) -> list[Path]:
        """One two-column (x, y) CSV per metric, ready for any plotting tool."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        metrics = sorted({m for _, m, _ in self.series})
        for metric in metrics:
            path = out_dir / f"{metric}.csv"
            with open(path, "w", newline="") as f:
                writer = csv.writer(f)
                writer.writerow(["x", "y"])
                for s, v in self.metric_series(metric):
                    writer.writerow([s, repr(v)])
            written.append(path)
        return written
