"""Markdown experiment report generation.

Runs the full evaluation (or any subset of datasets) and renders a
paper-vs-measured markdown report — the programmatic counterpart of
EXPERIMENTS.md.  Usable as a module::

    python -m repro.analysis.report --datasets mnist --out report.md

The heavy lifting (training, simulation) goes through the same cached
pipelines the benchmarks use, so generating a report after a benchmark run
in the same process is cheap.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field

from repro.analysis.experiments import (
    PreparedSystem,
    ablation_rows,
    comparison_rows,
    get_config,
    prepare_system,
)
from repro.analysis.paper import PAPER_TABLE1, PAPER_TABLE2
from repro.analysis.tables import render_table

__all__ = ["Report", "ReportSection", "build_report", "generate_report"]


@dataclass
class ReportSection:
    """One titled block of a report."""

    title: str
    body: str

    def render(self) -> str:
        return f"## {self.title}\n\n{self.body}\n"


@dataclass
class Report:
    """An ordered collection of sections with a header."""

    title: str
    sections: list[ReportSection] = field(default_factory=list)

    def add(self, title: str, body: str) -> None:
        self.sections.append(ReportSection(title, body))

    def render(self) -> str:
        parts = [f"# {self.title}\n"]
        parts.extend(section.render() for section in self.sections)
        return "\n".join(parts)


def _comparison_section(dataset: str, system: PreparedSystem) -> str:
    rows = comparison_rows(system)
    measured = render_table(
        ["coding", "accuracy %", "latency", "spikes", "E(TN)", "E(SN)"],
        rows,
        title=f"measured ({system.config.name})",
    )
    paper_rows = [
        [name, row["acc"], row["latency"], row["spikes"], row["tn"], row["sn"]]
        for name, row in PAPER_TABLE2[dataset].items()
    ]
    paper = render_table(
        ["coding", "accuracy %", "latency", "spikes", "E(TN)", "E(SN)"],
        paper_rows,
        title=f"paper ({dataset})",
    )
    return f"```\n{measured}\n\n{paper}\n```"


def _ablation_section(systems: dict[str, PreparedSystem]) -> str:
    rows = ablation_rows(systems)
    headers = ["method", "latency"]
    for name in systems:
        headers.extend([f"{name} acc %", f"{name} spikes"])
    measured = render_table(headers, rows, title="measured")
    paper_rows = [
        [k, v["latency"], v["cifar10_acc"], v["cifar10_spikes"],
         v["cifar100_acc"], v["cifar100_spikes"]]
        for k, v in PAPER_TABLE1.items()
    ]
    paper = render_table(
        ["method", "latency", "c10 acc %", "c10 spikes", "c100 acc %", "c100 spikes"],
        paper_rows,
        title="paper (VGG-16)",
    )
    return f"```\n{measured}\n\n{paper}\n```"


def build_report(datasets: list[str], scale: str | None = None, verbose: bool = False) -> Report:
    """Prepare systems for ``datasets`` and assemble the full report."""
    if not datasets:
        raise ValueError("need at least one dataset")
    report = Report(title="T2FSNN reproduction report")
    systems: dict[str, PreparedSystem] = {}
    for dataset in datasets:
        config = get_config(dataset, scale=scale)
        systems[dataset] = prepare_system(config, verbose=verbose)
        system = systems[dataset]
        report.add(
            f"System — {dataset}",
            f"- config: `{config.name}` (arch {config.arch}, width {config.width}, "
            f"T={config.window})\n"
            f"- DNN accuracy: {system.dnn_accuracy * 100:.2f}%\n"
            f"- analog (converted) accuracy: {system.analog_accuracy * 100:.2f}%",
        )
        report.add(f"Table II block — {dataset}", _comparison_section(dataset, system))
    if len(systems) > 1:
        report.add("Table I — ablation", _ablation_section(systems))
    return report


def generate_report(
    datasets: list[str], out_path: str | None = None, scale: str | None = None
) -> str:
    """Build and optionally write the report; returns the markdown text."""
    text = build_report(datasets, scale=scale).render()
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _main(argv: list[str] | None = None) -> None:  # pragma: no cover - CLI shim
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--datasets", nargs="+", default=["mnist"],
        choices=["mnist", "cifar10", "cifar100"],
    )
    parser.add_argument("--out", default=None, help="output markdown path")
    parser.add_argument("--scale", default=None, choices=["ci", "paper"])
    args = parser.parse_args(argv)
    text = generate_report(args.datasets, out_path=args.out, scale=args.scale)
    if args.out is None:
        print(text)


if __name__ == "__main__":  # pragma: no cover
    _main()
