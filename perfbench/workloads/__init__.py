"""The benchmark's four workloads, by name."""

from __future__ import annotations

from pathlib import Path

from .capacity_analytic import CapacityAnalytic
from .capacity_samples import CapacitySamples
from .cli_session import CliSession
from .mc_first_passage import McFirstPassage

WORKLOADS = {w.name: w for w in (McFirstPassage, CapacityAnalytic, CapacitySamples, CliSession)}


def make(name: str, seed: int, smoke: bool, src: Path, out_dir: Path):
    cls = WORKLOADS[name]
    if cls is CliSession:
        return cls(seed, smoke, src=src, out_dir=out_dir)
    return cls(seed, smoke)
