"""The three benchmark workloads: their inputs, sizes and pinned outputs.

Nothing here imports affwalk, so the orchestrator can read the definitions
without paying the import it measures in each pass process.

Each workload is an acceptance-gate configuration run through a public entry
point.  ``gate_seed`` is the seed of that gate; the report hash is pinned at
it (at every seed for ``entropy``, whose report does not depend on the seed).
Any other seed is a held-out seed: every metric and count is still produced
and checked, only the hash pin is skipped.

Each workload has three sizes.  ``full`` is the gate size: the traced run
and one untimed pass per timed run use it.  ``timed`` is the size of the
timed passes: the same configuration with fewer replicas (or a smaller
``n_max``), so that one pass takes a few tenths of a second and a run holds
dozens of them.  ``quick`` is the reduced size of the benchmark's own tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIGS = BENCH_DIR / "configs"


@dataclass(frozen=True)
class Size:
    """One size of a workload, with its outputs as recorded at commit 9a0df80."""

    param: int  # replicas (tracking), samples (stationarity), n_max (entropy)
    sha256: str  # report bytes at the gate seed
    work: Optional[int] = None  # walk steps or convolution cells, when pinned
    support: Optional[int] = None  # final convolution support (entropy)


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # file under configs/ holding the measure block
    gate_seed: int
    workers: int  # worker processes of the gate-size pass; timed passes use 1
    work_unit: str  # what work_per_s counts
    seed_independent: bool  # report bytes do not depend on the seed
    full: Size
    timed: Size
    quick: Size

    def size(self, name: str) -> Size:
        return getattr(self, name)

    def config_path(self) -> Path:
        return CONFIGS / self.config


# prop44 on MU_REV with the criterion-10 gate parameters; every replica walks
# stab_factor * max(grid) + margin = 4 * 1000 + 32 = 4032 steps.
TRACKING_GRID = "125,250,500,1000"
TRACKING_EPSILON = "0.15"

# run_stationarity with the criterion-12 gate parameters.
STATIONARITY_P = 2
STATIONARITY_RADIUS = 6
STATIONARITY_N = 50

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tracking",
            config="mu_rev.json",
            gate_seed=0,
            workers=1,
            work_unit="walk steps",
            seed_independent=False,
            full=Size(
                200,
                "4b969450316b8b485115658ffe4c981c9cf6d25fe838599139f4e9187b31693d",
                work=806_400,
            ),
            timed=Size(
                10,
                "726a3f6db15bf81f3084ecd57890045791069bd48d9d37ea9957f440cb6a6128",
                work=40_320,
            ),
            quick=Size(
                20,
                "bbe266287ab36ed10ed1f58548acdc1cf5cc1db691b63e1e52ee3e4fc0a654a7",
                work=80_640,
            ),
        ),
        Workload(
            name="stationarity",
            config="mu_rev.json",
            gate_seed=9,
            workers=2,
            work_unit="walk steps",
            seed_independent=False,
            full=Size(
                10_000,
                "610876dc73720858006491c76e4ee60a15ec8dbeab6e77c448be046f4913b09d",
            ),
            # below about 5,000 samples the report's TV check fails at every
            # seed (passed false, exit code 1); the checker expects that
            timed=Size(
                500,
                "edb8b1fb3de68bedecb95aa8f07d6172b759f77f0954ddb827af3fa695c1a2f6",
            ),
            quick=Size(
                1_000,
                "71e9f6b6f24c586bf42670a63bc59baea827a2b7e717df9fc3523c94782bb6b4",
            ),
        ),
        Workload(
            name="entropy",
            config="mu_sym.json",
            gate_seed=0,
            workers=1,
            work_unit="convolution cells",
            seed_independent=True,
            full=Size(
                22,
                "9bb238b33095ca6733992c5fe87ea3307be0080c3719036a76c401f34a637e28",
                work=271_218,
                support=68_397,
            ),
            timed=Size(
                16,
                "d1455856ad92710cecca49fd221080dd843c53202b24fb557d95ddcbe3669cd1",
                work=21_160,
                support=5_841,
            ),
            quick=Size(
                12,
                "5323510856d6d35d6cc46e1ab2608144907e7558fcf170ba5f4c03af3156f448",
                work=3_282,
                support=1_019,
            ),
        ),
    )
}


def hash_pinned(workload: Workload, seed: int) -> bool:
    """True when the report hash at this seed is pinned."""
    return workload.seed_independent or seed == workload.gate_seed


def load_config(workload: Workload) -> dict:
    with open(workload.config_path(), "r", encoding="utf-8") as fh:
        return json.load(fh)
