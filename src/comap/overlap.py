"""Overlap assessment: classify cone samples against neighbor map points.

A query pose is expanded into its view cone, sampled, and each sample is
REDUNDANT when some neighbor map point lies within the mean sample spacing
``r``. The redundant fraction is the overlap degree; above ``t_seen`` the
pose counts as a seen location.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Pose, cone_from_fov, sample_cone, sample_spacing
from .mapstore import GlobalMap, neighbor_point_rows
from .params import DEFAULT_PARAMS, ProtocolParams
from .spatial import KdTree


@dataclass
class OverlapVerdict:
    """Outcome of one overlap assessment."""

    overlap_degree: float
    seen: bool
    redundant_samples: np.ndarray
    # None when the cone was not sampled: no gated neighbor point exists,
    # so all ``sample_count`` samples are fresh.
    fresh_samples: np.ndarray | None
    r: float
    sample_count: int

    @property
    def redundant_count(self) -> int:
        return len(self.redundant_samples)

    @property
    def fresh_count(self) -> int:
        return self.sample_count - self.redundant_count


def classify_samples(samples: np.ndarray, neighbor_points: np.ndarray, r: float) -> np.ndarray:
    """Boolean redundancy mask: sample i has a neighbor point within r (inclusive)."""
    return KdTree(neighbor_points).any_within(samples, r)


def assess_overlap(
    map: GlobalMap,
    q: Pose,
    q_fov: float,
    k: int,
    seed: int,
    params: ProtocolParams = DEFAULT_PARAMS,
    exclude_client: int | None = None,
) -> OverlapVerdict:
    """Assess how much of the view cone at ``q`` is already mapped.

    ``k`` samples are drawn deterministically from the cone (height
    ``params.h``); neighbor frames are gated by distance ``params.t_d`` and
    axis angle. The samples are classified against the map's persistent
    point index, counting only points that belong to a gated frame, so no
    tree is built per query. The verdict is deterministic given the map
    contents, query, and seed. When no gated frame lists a point, every
    sample is fresh and the cone is not sampled at all.
    """
    if k < 1:
        raise ValueError(f"sample count must be >= 1, got {k}")

    cone = cone_from_fov(q, q_fov, params.h)
    rows = neighbor_point_rows(map, q, q_fov, params.t_d, exclude_client=exclude_client)
    if not len(rows):
        return OverlapVerdict(0.0, False, np.empty((0, 3)), None, sample_spacing(cone, k), k)
    samples, r = sample_cone(cone, k, seed)
    redundant = map.any_point_within(samples, r, rows)

    n_red = int(redundant.sum())
    degree = n_red / k
    return OverlapVerdict(
        overlap_degree=degree,
        seen=degree > params.t_seen,
        redundant_samples=samples[redundant],
        fresh_samples=samples[~redundant],
        r=r,
        sample_count=k,
    )


def overlap_from_response(status: int, listed: int, k: int) -> float:
    """Reconstruct the overlap degree a response implies for a k-sample query."""
    if k < 1:
        raise ValueError(f"sample count must be >= 1, got {k}")
    return listed / k if status == 0 else (k - listed) / k
