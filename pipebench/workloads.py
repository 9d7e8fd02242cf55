"""Workload definitions and the seeded draws shared by harness and worker.

Problems are generated as ``.mpde`` text from the ``tests/data`` templates.
The templates' own ``trunc_z`` is too short above their native ``trunc_t``
(the recurrence raises TruncationError), so generated problems set
``trunc_z = solver.required_z_truncation(...) + margin``; the margin is the
number of extra output columns, and the solution grid is
``(trunc_t + 1) x (margin + 1)``.

The seed draws three things and nothing else: the order of the ops within
each cycle, the verdict directions (0 and pi always included) and the
resummation points t on the clean ray pi/2 with |t| in [0.03, 0.09].
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

RESUM_DIRECTION = math.pi / 2
N_RESUM_POINTS = 5
N_EXTRA_DIRECTIONS = 2
# keep the drawn directions clear of the singular direction 0 (the
# verdict's angular tolerance is 2 degrees plus a confidence cone)
DIRECTION_CLEARANCE = 0.2


@dataclass(frozen=True)
class Problem:
    name: str      # tests/data template stem
    trunc_t: int
    margin: int    # output z-columns beyond the recurrence's requirement

    @property
    def key(self) -> str:
        return f"{self.name}@{self.trunc_t}"


@dataclass(frozen=True)
class CliOp:
    command: str   # msumma CLI sub-command
    name: str      # tests/data template stem, run at its native truncation

    @property
    def key(self) -> str:
        return f"{self.command} {self.name}"


# In-process workloads: the ops making up one cycle, each a tuple of the
# problems it runs.  Every cycle has an odd number of ops, so in whole
# cycles the median op falls inside one op's own times, not on the edge
# between two: a pade-ladder op runs both templates at one trunc_t, and
# wide-grid adds the rung 150 between 100 and 200.
LADDERS = {
    "pade-ladder": tuple(tuple(Problem(name, tt, 20)
                               for name in ("heat", "divergent_data"))
                         for tt in (60, 120, 200)),
    "wide-grid": tuple((Problem("wave", tt, 200),) for tt in (100, 150, 200)),
}
# the workload that runs singularities and resummation in each op
RESUMMING = {"pade-ladder": True, "wide-grid": False}


def op_key(problems) -> str:
    return "+".join(p.name for p in problems) + f"@{problems[0].trunc_t}"


# `report wave` exits 3 today (no divergent level), so wave is solved
CLI_CYCLE = (CliOp("report", "heat"), CliOp("report", "divergent_data"),
             CliOp("solve", "wave"))

WORKLOADS = ("pade-ladder", "wide-grid", "cli-cold")


@dataclass(frozen=True)
class Draws:
    directions: tuple
    resum_points: tuple
    order_rng: random.Random

    def cycle_order(self, n: int) -> list:
        order = list(range(n))
        self.order_rng.shuffle(order)
        return order


def draw(seed: int) -> Draws:
    rng = random.Random(seed)
    extra = [rng.uniform(DIRECTION_CLEARANCE,
                         2 * math.pi - DIRECTION_CLEARANCE)
             for _ in range(N_EXTRA_DIRECTIONS)]
    directions = tuple([0.0, math.pi] + extra)
    mags = sorted(rng.uniform(0.03, 0.09) for _ in range(N_RESUM_POINTS))
    points = tuple(complex(0.0, m) for m in mags)  # t = i|t|, on the ray
    return Draws(directions, points, random.Random(rng.getrandbits(64)))


def template(name: str) -> str:
    return (DATA / f"{name}.mpde").read_text(encoding="utf-8")


def with_truncation(text: str, trunc_t: int, trunc_z: int) -> str:
    """Template text with its trunc_t and trunc_z statements replaced."""
    text, n_t = re.subn(r"(?m)^trunc_t:.*$", f"trunc_t: {trunc_t};", text)
    text, n_z = re.subn(r"(?m)^trunc_z:.*$", f"trunc_z: {trunc_z};", text)
    if (n_t, n_z) != (1, 1):
        raise ValueError("template must state trunc_t and trunc_z once each")
    return text
