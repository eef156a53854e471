"""Seen-location path: proactive shared-map slices, localization against a
slice, the device-initiated update-detection loop, and the server-side
staleness check.

Both server-side reads are query-local. The map points inside a cone come
from the map's persistent point index: every row within the smallest ball
that holds the cone, padded against rounding, is a candidate, and
``contains_many`` decides on the candidates alone. Shared frames are the
in-cone points' owners plus the gated neighbor frames whose positions one
``contains_many`` call puts in the cone, gathered from the map's frame
table into one ``FRAME_DTYPE`` table and one id column, as the wire
carries them. The update check asks the index once for the candidates of
every cone in its window, tests re-observation only for its high-confidence
rows and their neighbors, takes the neighbors from the index's exact k
nearest, clusters the confirmed rows with a union-find, and answers with
the wire's ``UpdateStatusMsg``.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Pose,
    ViewCone,
    cone_candidate_ball,
    cone_from_fov,
    contains_many,
    sample_spacing,
)
from .mapstore import GlobalMap, _gated_frames
# Re-exported: the benchmark's tracer patches mapstore.select_neighbors by this name.
from .mapstore import select_neighbors  # noqa: F401
from .params import DEFAULT_PARAMS, ProtocolParams
from .spatial import KdTree
from .wire import (
    KeyframeUploadMsg,
    SharedMapRequestMsg,
    SharedMapResponseMsg,
    UpdateCheckMsg,
    UpdateStatusMsg,
    VERDICT_EXPANSION,
    VERDICT_UPDATING,
    point_table,
)


@dataclass
class SharedMapSlice:
    """A proactive slice of the global map around a query pose, its frames
    as the wire carries them (``SharedMapResponseMsg``)."""

    frames: np.ndarray
    frame_point_ids: np.ndarray
    point_ids: np.ndarray
    point_positions: np.ndarray
    point_observations: np.ndarray

    def to_response(self) -> SharedMapResponseMsg:
        points = point_table(len(self.point_ids))
        points["id"] = self.point_ids
        points["position"] = self.point_positions
        points["observation_count"] = np.minimum(self.point_observations, 0xFFFF)
        return SharedMapResponseMsg(self.frames, self.frame_point_ids, points)


def _window_rows(map: GlobalMap, cones: list[ViewCone]) -> list[np.ndarray]:
    """Per cone, the point-table rows of the map points inside it, in no
    particular order.

    An in-cone point lies in the smallest ball that holds its cone. The
    point index is asked once for every cone's candidates in that ball,
    padded against rounding (and padded again by the index), and
    ``contains_many`` decides on each cone's candidates alone, so no
    exact-distance filter is needed.
    """
    centres, radii = zip(*(cone_candidate_ball(cone) for cone in cones))
    positions = map.point_positions
    return [
        rows[contains_many(cone, positions[rows])]
        for cone, rows in zip(cones, map.point_candidate_rows(centres, radii))
    ]


def build_shared_map(
    map: GlobalMap,
    q: Pose,
    q_fov: float,
    alpha: float,
    params: ProtocolParams = DEFAULT_PARAMS,
    exclude_client: int | None = None,
) -> SharedMapSlice:
    """Assemble the shared cone's map content.

    The cone is the query's view cone widened by the oversharing factor;
    shared points are exactly the map points inside it, so the oversharing
    factor directly governs how far one slice carries the device. Shared
    frames are the owners of in-cone points plus the distance/angle gated
    neighbor frames positioned inside the cone, in frame id order.
    """
    cone = cone_from_fov(q, q_fov, params.h, alpha)
    in_cone = np.zeros(len(map.points), dtype=bool)
    in_cone[_window_rows(map, [cone])[0]] = True
    owner_rows, listed_rows = map.listings(in_cone)
    if exclude_client is not None:
        # A point is shared only when another client's frame lists it, and
        # only other clients' frames are shared.
        other = map._frames["client_id"][owner_rows] != exclude_client
        owner_rows, listed_rows = owner_rows[other], listed_rows[other]

    # Frames listing a shared point always intersect the cone; gated
    # neighbor frames are kept only when their position lies in it.
    gated = _gated_frames(map, q, q_fov, params.t_d, exclude_client)
    gated = gated[contains_many(cone, map._frames["pose"][gated, :3])]
    frame_rows = np.union1d(owner_rows, gated)
    # A shared frame's in-cone ids are its run of the listings, which
    # ascend by frame row; a gated frame listing none has an empty run.
    runs = np.searchsorted(owner_rows, frame_rows)
    counts = np.diff(runs, append=len(owner_rows))

    rows = np.unique(listed_rows)
    ids = map.points[rows]
    order = np.argsort(ids, kind="stable")
    rows, ids = rows[order], ids[order]
    return SharedMapSlice(
        frames=map.frame_headers(frame_rows, counts),
        frame_point_ids=map.points[listed_rows],
        point_ids=ids,
        point_positions=map.point_positions[rows],
        point_observations=map.point_observation_counts[rows],
    )


@dataclass(frozen=True)
class LocalizationOutcome:
    matched_count: int
    success: bool


def _cluster_sizes(positions: np.ndarray, radius: float) -> list[int]:
    """Single-linkage component sizes with the given linking radius, ordered
    by each component's lowest member.

    A union-find over the linked pairs, run on whole arrays: each round
    hangs the higher root of every pair whose roots differ under the lowest
    root it is linked to, then jumps pointers until every node points at
    its root (hook and jump, as in Shiloach and Vishkin, J. Algorithms
    3(1), 1982). Every parent is at or below its child, so each root is
    its component's lowest member.
    """
    parent = np.arange(len(positions))
    i, j = KdTree(positions).pairs_within(radius).T
    while True:
        pi, pj = parent[i], parent[j]
        split = pi != pj
        if not split.any():
            break
        pi, pj = pi[split], pj[split]
        np.minimum.at(parent, np.maximum(pi, pj), np.minimum(pi, pj))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    sizes = np.bincount(parent)
    return sizes[sizes > 0].tolist()


def get_update_status(
    map: GlobalMap,
    kfs: list[KeyframeUploadMsg],
    r_match: float | None = None,
    params: ProtocolParams = DEFAULT_PARAMS,
) -> UpdateStatusMsg:
    """Decide whether repeated localization failures mean the world changed.

    High-confidence map points (observation count at or above the in-cone
    median) that no submitted keyframe re-observed within ``r_match`` are
    stale candidates; a candidate is confirmed when at least half of its
    ``params.k_nn`` nearest map points are also unobserved. The verdict is
    ``VERDICT_UPDATING``, with the confirmed points' ids ascending as the
    stale ids, only when enough confirmed points form a spatial cluster;
    otherwise the device is simply off the map (``VERDICT_EXPANSION``, no
    stale ids).

    The cost follows the window, not the map: one query of the point index
    gives every cone's candidate rows, which ``contains_many`` decides on;
    the k nearest neighbours come from the index's k + 1 nearest, with a
    ball query only where the k-th and (k+1)-th are within rounding of a
    tie; and a union-find over the linked pairs sizes the clusters.
    """
    if not kfs:
        raise ValueError("update check needs at least one keyframe")
    k_nn = params.k_nn
    if r_match is None:
        r_match = default_r_match(kfs[0].fov, params)

    positions = map.point_positions
    counts = map.point_observation_counts
    high = [np.empty(0, dtype=np.int64)]
    for rows in _window_rows(map, [cone_from_fov(kf.pose, kf.fov, params.h) for kf in kfs]):
        if len(rows):
            # At or above the median: twice the count reaches the sum of
            # the middle two (the middle one twice for an odd count).
            c = counts[rows]
            s = np.sort(c)
            high.append(rows[2 * c >= s[(len(s) - 1) // 2] + s[len(s) // 2]])
    high_rows = np.unique(np.concatenate(high))

    examined = len(high_rows)
    if examined == 0:
        return UpdateStatusMsg(VERDICT_EXPANSION, [])

    obs = np.concatenate([kf.points["position"] for kf in kfs]).astype(np.float64)
    if not len(obs):
        return UpdateStatusMsg(VERDICT_EXPANSION, [], examined=examined)
    obs_tree = KdTree(obs)
    candidate_rows = high_rows[~obs_tree.any_within(positions[high_rows], r_match)]
    confirmed = candidate_rows
    if len(candidate_rows):
        nn = map.nearest_point_rows(positions[candidate_rows], k_nn + 1)
        near = np.unique(nn)
        observed = obs_tree.any_within(positions[near], r_match)[np.searchsorted(near, nn)]
        # Per row: drop the candidate itself, keep the first k_nn neighbours.
        keep = nn != candidate_rows[:, None]
        keep &= np.cumsum(keep, axis=1) <= k_nn
        unobserved = np.sum(keep & ~observed, axis=1)
        confirmed = candidate_rows[unobserved >= max(1, math.ceil(k_nn / 2))]
    sizes = _cluster_sizes(positions[confirmed], 2.0 * r_match)
    updating = (
        len(confirmed) >= params.stale_min
        and bool(sizes)
        and max(sizes) >= params.cluster_min
    )
    return UpdateStatusMsg(
        verdict=VERDICT_UPDATING if updating else VERDICT_EXPANSION,
        stale_ids=np.sort(map.points[confirmed]) if updating else [],
        examined=examined,
        high_confidence=examined,
        stale_candidates=int(len(candidate_rows)),
        cluster_count=sum(1 for s in sizes if s >= params.cluster_min),
    )


def default_r_match(fov: float, params: ProtocolParams = DEFAULT_PARAMS) -> float:
    """Localization matching radius: ``r_match_factor`` times the
    overlap-sampling spacing of a cone of this fov."""
    cone = cone_from_fov(Pose(0, 0, 0), fov, params.h)
    return params.r_match_factor * sample_spacing(cone, params.np_default)


class DeviceAction(enum.Enum):
    CONTINUE_ON_SHARED_MAP = "continue_on_shared_map"
    EXPAND = "expand"
    UPDATE_DETECTED = "update_detected"


@dataclass
class DeviceLoopState:
    """Per-client state for the shared-map device loop.

    ``link`` sends one protocol message and returns the server's reply.
    """

    client_id: int
    fov: float
    link: object
    params: ProtocolParams = DEFAULT_PARAMS
    np_hint: int = 0
    r_match: float = 0.0
    slice_tree: KdTree | None = None
    recent_kfs: deque = field(init=False)  # the next update check's keyframes
    trace: list = field(default_factory=list)
    update_events: list = field(default_factory=list)

    def __post_init__(self):
        if self.np_hint <= 0:
            self.np_hint = self.params.np_default
        if self.r_match <= 0:
            self.r_match = default_r_match(self.fov, self.params)
        self.recent_kfs = deque(maxlen=self.params.update_window)

    def set_slice(self, resp: SharedMapResponseMsg):
        pts = resp.points["position"].astype(np.float64)
        self.slice_tree = KdTree(pts) if len(pts) else None

    def clear_slice(self):
        self.slice_tree = None

    def has_slice(self) -> bool:
        return self.slice_tree is not None

    def localize_on_slice(self, observations: np.ndarray) -> LocalizationOutcome:
        if not self.has_slice():
            return LocalizationOutcome(0, False)
        obs = np.asarray(observations, dtype=np.float64).reshape(-1, 3)
        if not len(obs):
            return LocalizationOutcome(0, False)
        matched = int(self.slice_tree.any_within(obs, self.r_match).sum())
        return LocalizationOutcome(matched, matched >= self.params.match_threshold)


def run_device_loop(
    state: DeviceLoopState,
    keyframe_id: int,
    pose: Pose,
    observations: np.ndarray,
) -> DeviceAction:
    """One round of the device-initiated update-detection loop.

    Up to ``f`` rounds of request-then-localize; an empty slice means the
    pose is off the seen map and expansion takes over. After ``f``
    consecutive localization failures the device submits its recent
    keyframes for an update check and dispatches on the verdict. What a
    map update actually does is delegated to the recorded hook events.
    """
    observations = np.asarray(observations, dtype=np.float64).reshape(-1, 3)
    # The request advertises this keyframe's map-point count so the server
    # samples at the same granularity as the matching overlap query.
    np_hint = len(observations) if len(observations) else state.np_hint
    for _ in range(state.params.f):
        request = SharedMapRequestMsg(state.client_id, keyframe_id, np_hint, pose)
        state.trace.append({"event": "shared_map_request", "keyframe_id": keyframe_id})
        resp = state.link.send(request)
        if isinstance(resp, SharedMapResponseMsg) and not resp.empty:
            state.set_slice(resp)
            outcome = state.localize_on_slice(observations)
            state.trace.append(
                {
                    "event": "localize",
                    "keyframe_id": keyframe_id,
                    "matched": outcome.matched_count,
                    "success": outcome.success,
                }
            )
            if outcome.success:
                return DeviceAction.CONTINUE_ON_SHARED_MAP
        else:
            state.clear_slice()
            state.trace.append({"event": "slice_empty", "keyframe_id": keyframe_id})
            return DeviceAction.EXPAND

    check = UpdateCheckMsg(
        state.client_id, [kf.to_upload_msg(state.client_id) for kf in state.recent_kfs]
    )
    state.trace.append(
        {"event": "update_check", "keyframe_id": keyframe_id, "window": len(check.keyframes)}
    )
    status = state.link.send(check)
    if isinstance(status, UpdateStatusMsg) and status.verdict == VERDICT_UPDATING:
        state.update_events.append(
            {
                "keyframe_id": keyframe_id,
                "stale_ids": [int(i) for i in status.stale_ids],
            }
        )
        state.trace.append(
            {
                "event": "update_detected",
                "keyframe_id": keyframe_id,
                "stale_count": int(len(status.stale_ids)),
            }
        )
        return DeviceAction.UPDATE_DETECTED
    state.trace.append({"event": "update_expansion", "keyframe_id": keyframe_id})
    return DeviceAction.EXPAND

