"""Realize a cell encoding as a concrete scoring network, a CompGraph.

Layout: stem (3x3 conv then BN) -> stacked copies of the encoded cell ->
head (BN, ReLU, global average pool, linear classifier without a bias, which
would not move the Jacobian). All cells share one architecture and one
channel width; there are no reduction blocks and no training, the network
exists only to be differentiated at init.

Inside a cell, node 0 is the cell input and node j sums the realized ops
of every edge (i, j) with i < j. Edge realizations:
  - none: contributes nothing (a node left without contributions becomes
    an explicit zero tensor where an edge or the next stage reads it);
  - skip_connect: the source node unchanged;
  - nor_conv_1x1 / nor_conv_3x3: ReLU -> conv -> BN;
  - avg_pool_3x3: 3x3 mean pooling.
The cell output is node 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arch_space import EDGES, ArchEncoding, Operation
from .autodiff_core import CompGraph


@dataclass(frozen=True)
class SkeletonConfig:
    """Outer network shape around the repeated cell."""

    in_channels: int = 3
    image_hw: int = 8
    stem_channels: int = 8
    num_stages: int = 1
    cells_per_stage: int = 1
    num_classes: int = 10

    def __post_init__(self) -> None:
        if self.in_channels < 1 or self.image_hw < 1:
            raise ValueError(f"input shape must be positive, got "
                             f"{self.in_channels}x{self.image_hw}x{self.image_hw}")
        if self.stem_channels < 1:
            raise ValueError(f"stem_channels must be >= 1, got {self.stem_channels}")
        if self.num_stages < 1 or self.cells_per_stage < 1:
            raise ValueError("need at least one stage and one cell per stage")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")

    @property
    def input_shape(self) -> tuple[int, int, int]:
        return (self.in_channels, self.image_hw, self.image_hw)


def _he_conv(rng: np.random.Generator, cout: int, cin: int, k: int) -> np.ndarray:
    fan_in = cin * k * k
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(cout, cin, k, k))


def build_network(arch: ArchEncoding, skeleton: SkeletonConfig | None = None,
                  rng: np.random.Generator | None = None) -> CompGraph:
    """Construct the scoring network for ``arch``; its records hold the weights.

    Deterministic: weights are drawn from ``rng`` in a fixed order (stem,
    then cells in depth order with edges in index order, then head), and
    ``rng`` defaults to ``default_rng(0)``.
    """
    skeleton = skeleton if skeleton is not None else SkeletonConfig()
    rng = rng if rng is not None else np.random.default_rng(0)

    graph = CompGraph()
    cs = skeleton.stem_channels

    cur = graph.add("conv", 0, weight=_he_conv(rng, cs, skeleton.in_channels, 3))
    cur = graph.add("bn", cur)

    ops = arch.ops
    num_cells = skeleton.num_stages * skeleton.cells_per_stage

    def read(node: int) -> int:  # a node without contributions becomes zeros once read
        if nodes[node] is None:
            nodes[node] = graph.add("zeros", nodes[0])
        return nodes[node]

    for _ in range(num_cells):
        nodes: list[int | None] = [cur]
        for node in range(1, 4):
            parts: list[int] = []
            for edge_idx, (src, dst) in enumerate(EDGES):
                if dst != node:
                    continue
                op = ops[edge_idx]
                if op is Operation.NONE:
                    continue
                if op is Operation.SKIP_CONNECT:
                    parts.append(read(src))
                elif op is Operation.AVG_POOL_3X3:
                    parts.append(graph.add("avg_pool", read(src)))
                else:
                    k = 1 if op is Operation.NOR_CONV_1X1 else 3
                    rid = graph.add("relu", read(src))
                    rid = graph.add("conv", rid, weight=_he_conv(rng, cs, cs, k))
                    parts.append(graph.add("bn", rid))
            nodes.append(None if not parts else parts[0] if len(parts) == 1
                         else graph.add("sum", *parts))
        cur = read(3)

    head_w = rng.normal(0.0, np.sqrt(2.0 / cs), size=(cs, skeleton.num_classes))
    cur = graph.add("bn", cur)
    cur = graph.add("relu", cur)
    cur = graph.add("gap", cur)
    graph.add("linear", cur, weight=head_w)
    return graph
