"""The benchmark's workloads: inputs made from a seed, the server they run
against, and the clients of one closed-loop pass.

A run calls ``prepare`` once (untimed input that stands for files a user
already has, such as a saved map), then ``setup`` before every pass; a full
``setup`` is what ``setup_s`` measures. Given the clients of an earlier
set-up, ``setup`` reuses their keyframe streams (same seed, same inputs)
and builds only a fresh server. Everything goes through comap's public API:
``comap.sim`` for scenes and keyframe streams, ``MapServer`` and
``TcpMapServer``, the transports, ``client_pipeline`` and the snapshot
functions. Module attributes are looked up at call time so that the tracer
can wrap them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from comap import mapstore, sim
from comap.mapstore import GlobalMap, audit
from comap.params import CAMERA_PRESETS, ProtocolParams
from comap.runtime import (
    ClientConfig,
    InProcTransport,
    MapServer,
    TcpMapServer,
    TcpTransport,
    client_pipeline,
)

INTRINSICS = CAMERA_PRESETS["sim_752x480"]
PARAMS = ProtocolParams()
NOISE_SIGMA = 0.05


@dataclass(frozen=True)
class User:
    client_id: int
    waypoints: tuple
    role: str = "mapper"
    mode: str = "mapxx"
    d_kf: float = 2.0

    def trajectory(self) -> sim.TrajectorySpec:
        return sim.TrajectorySpec(waypoints=list(self.waypoints), d_kf=self.d_kf)


@dataclass
class Client:
    user: User
    config: ClientConfig
    keyframes: list


@dataclass
class Setup:
    """One pass's inputs: a server and the clients that will drive it."""

    server: MapServer
    clients: list[Client]
    concurrent: bool = False
    tcp: TcpMapServer | None = None

    def transport(self):
        if self.tcp is not None:
            return TcpTransport(self.tcp.addr)
        return InProcTransport(self.server)

    def close(self):
        if self.tcp is not None:
            self.tcp.stop()
            self.tcp = None


def noise_seed(server_seed: int, client_id: int) -> int:
    # The per-user keyframe-noise seed comap.scenario.run_scenario uses.
    return server_seed * 7919 + client_id


def keyframes(user: User, scene, server_seed: int) -> list:
    return list(
        sim.generate_keyframes(
            user.trajectory(),
            scene,
            INTRINSICS,
            np_max=PARAMS.np_max,
            noise_sigma=NOISE_SIGMA,
            seed=noise_seed(server_seed, user.client_id),
            params=PARAMS,
        )
    )


def make_client(user: User, scene, server_seed: int) -> Client:
    cfg = ClientConfig(user.client_id, INTRINSICS, mode=user.mode, params=PARAMS)
    return Client(user, cfg, keyframes(user, scene, server_seed))


def new_server(gmap: GlobalMap, server_seed: int) -> MapServer:
    return MapServer(gmap, params=PARAMS, seed=server_seed)


def run_clients_inproc(server: MapServer, clients: list[Client]):
    """Drive clients one after another in-process (used to build inputs)."""
    for c in clients:
        transport = InProcTransport(server)
        res = client_pipeline(c.config, c.keyframes, transport)
        if res.aborted:
            raise RuntimeError(f"input client {c.user.client_id} aborted: {res.trace[-1]}")


# -- fleet20 ---------------------------------------------------------------

FLEET20_SEED = 5  # bench seed 0 is the canonical twenty-user fleet
FLEET20_BOUNDS = np.array([[-25.0, -30.0, -18.0], [340.0, 30.0, 22.0]])
FLEET20_LANDMARKS = 60000
FLEET20_USERS = tuple(
    User(k + 1, ((15.0 * k, 0.0, 1.5, 0.0), (15.0 * k + 30.0, 0.0, 1.5, 0.0)),
         role="mapper" if k == 0 else "follower")
    for k in range(20)
)


class Fleet20:
    """Twenty users on staggered 30 m paths, each overlapping half of its
    predecessor's; one client at a time, in-process, from an empty map."""

    name = "fleet20"
    users = FLEET20_USERS

    def server_seed(self, seed: int) -> int:
        return FLEET20_SEED + seed

    def prepare(self, seed: int, workdir: Path):
        return None

    def setup(self, seed: int, prepared, clients=None) -> Setup:
        s = self.server_seed(seed)
        if clients is None:
            scene = sim.generate_scene(s + 8, FLEET20_BOUNDS, FLEET20_LANDMARKS)
            clients = [make_client(u, scene, s) for u in self.users]
        return Setup(new_server(GlobalMap(np_max=PARAMS.np_max), s), clients)

    def invariants(self, setup: Setup, results: list) -> list[str]:
        return [
            f"client {r.client_id} raised {len(r.update_events)} update events"
            for r in results
            if r.update_events
        ]


# -- lanes2-tcp --------------------------------------------------------------

LANE_LENGTH = 300.0
LANE_GAP = 90.0
LANE_HALF_WIDTH = 30.0
LANE_DENSITY = 0.08  # landmarks per cubic metre: every keyframe carries np_max
LANE_ID_OFFSET = 1_000_000  # lane k's landmark ids start at k * LANE_ID_OFFSET + 1
LANES_USERS = tuple(
    User(k + 1, ((0.0, k * LANE_GAP, 1.5, 0.0), (LANE_LENGTH, k * LANE_GAP, 1.5, 0.0)))
    for k in range(2)
)


def shift_ids(client: Client, offset: int) -> Client:
    client.keyframes = [
        dataclasses.replace(kf, landmark_ids=kf.landmark_ids + offset) for kf in client.keyframes
    ]
    return client


class Lanes2Tcp:
    """Two concurrent clients over TCP on disjoint straight lanes 90 m
    apart: every keyframe is fresh and uploaded in full. Each lane has its
    own scene, so input generation scans only the landmarks a lane sees."""

    name = "lanes2-tcp"
    users = LANES_USERS

    def server_seed(self, seed: int) -> int:
        return seed

    def prepare(self, seed: int, workdir: Path):
        return None

    def setup(self, seed: int, prepared, clients=None) -> Setup:
        s = self.server_seed(seed)
        if clients is None:
            clients = [self.lane_client(k, user, s) for k, user in enumerate(self.users)]
        server = new_server(GlobalMap(np_max=PARAMS.np_max), s)
        return Setup(server, clients, concurrent=True, tcp=TcpMapServer(server).start())

    @staticmethod
    def lane_client(k: int, user: User, server_seed: int) -> Client:
        y = k * LANE_GAP
        bounds = np.array([[-25.0, y - LANE_HALF_WIDTH, -18.0],
                           [LANE_LENGTH + 25.0, y + LANE_HALF_WIDTH, 22.0]])
        count = int(LANE_DENSITY * np.prod(bounds[1] - bounds[0]))
        scene = sim.generate_scene(server_seed + 8 + k, bounds, count)
        return shift_ids(make_client(user, scene, server_seed), k * LANE_ID_OFFSET)

    def invariants(self, setup: Setup, results: list) -> list[str]:
        problems = [
            f"client {r.client_id} uploaded {r.uploads} of {r.keyframes} keyframes"
            for r in results
            if r.uploads != r.keyframes
        ]
        short = [ev for r in results for ev in r.trace
                 if ev["event"] == "upload" and ev["points"] != PARAMS.np_max]
        if short:
            problems.append(f"{len(short)} uploads carry fewer than {PARAMS.np_max} points")
        return problems


# -- stale-snapshot ----------------------------------------------------------

STALE_SEED = 3  # bench seed 0 is the canonical planted-change replay
CORRIDOR_SCENE_SEED = 77
CORRIDOR_BOUNDS = np.array([[-25.0, -25.0, -18.0], [79.0, 25.0, 22.0]])
CORRIDOR_CLUSTERS = [
    {"label": f"blob{x}", "count": 180, "center": [float(x), 0.0, 1.5], "sigma": 3.0}
    for x in (0, 6, 12, 48, 54)
] + [{"label": "cars", "count": 55, "center": [28.0, 0.0, 1.5], "sigma": 2.2}]
CORRIDOR_LANDMARKS = sum(c["count"] for c in CORRIDOR_CLUSTERS) + 2450
CORRIDOR = ((0.0, 0.0, 1.5, 0.0), (50.0, 0.0, 1.5, 0.0))
STALE_MAPPERS = (User(1, CORRIDOR), User(2, CORRIDOR, mode="vanilla"))
STALE_FOLLOWERS = tuple(User(3 + k, CORRIDOR, role="follower") for k in range(4))

# A region mapped earlier, 205 m from the corridor (well beyond t_d = 40 m),
# with more points than fleet20's final map. Its landmark ids are shifted
# past the corridor scene's so the two never merge.
DISTANT_SCENE_SEED = 91
DISTANT_Y = 205.0
DISTANT_LENGTH = 360.0
DISTANT_BOUNDS = np.array(
    [[-25.0, DISTANT_Y - 30.0, -18.0], [DISTANT_LENGTH + 25.0, DISTANT_Y + 30.0, 22.0]]
)
DISTANT_DENSITY = 0.06
DISTANT_ID_OFFSET = 1_000_000
DISTANT_MAPPER = User(
    100, ((0.0, DISTANT_Y, 1.5, 0.0), (DISTANT_LENGTH, DISTANT_Y, 1.5, 0.0)),
    mode="vanilla", d_kf=6.0,
)


def corridor_scene():
    return sim.generate_scene(
        CORRIDOR_SCENE_SEED, CORRIDOR_BOUNDS, CORRIDOR_LANDMARKS, CORRIDOR_CLUSTERS
    )


def distant_client(server_seed: int) -> Client:
    count = int(DISTANT_DENSITY * np.prod(DISTANT_BOUNDS[1] - DISTANT_BOUNDS[0]))
    scene = sim.generate_scene(DISTANT_SCENE_SEED, DISTANT_BOUNDS, count)
    return shift_ids(make_client(DISTANT_MAPPER, scene, server_seed), DISTANT_ID_OFFSET)


class StaleSnapshot:
    """Followers replay the planted-change corridor after its ``cars``
    cluster was removed, against a server loaded from a snapshot of the
    unchanged corridor plus a large, distant, already-mapped region."""

    name = "stale-snapshot"
    users = STALE_FOLLOWERS

    def __init__(self, distant: bool = True):
        self.distant = distant

    def server_seed(self, seed: int) -> int:
        return STALE_SEED + seed

    def prepare(self, seed: int, workdir: Path) -> Path:
        """Map the unchanged corridor (and the distant region) and save it."""
        s = self.server_seed(seed)
        scene = corridor_scene()
        server = new_server(GlobalMap(np_max=PARAMS.np_max), s)
        inputs = [make_client(u, scene, s) for u in STALE_MAPPERS]
        if self.distant:
            inputs.append(distant_client(s))
        run_clients_inproc(server, inputs)
        violations = audit(server.map)
        if violations:
            raise RuntimeError(f"snapshot map fails audit: {violations[:3]}")
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / f"stale-snapshot-s{seed}-d{int(self.distant)}.mpps"
        mapstore.save_snapshot(server.map, path)
        return path

    def setup(self, seed: int, prepared: Path, clients=None) -> Setup:
        s = self.server_seed(seed)
        if clients is None:
            changed = sim.mutate_scene(corridor_scene(), "remove_cluster", "cars")
            clients = [make_client(u, changed, s) for u in self.users]
        return Setup(new_server(mapstore.load_snapshot(prepared), s), clients)

    # Every follower must flag the change: most of the removed cluster, and
    # little else. At this engine's first benchmark commit, over seeds 0-59
    # and four followers, recall of the cars ids ranged 0.69-0.82 and
    # precision 0.95-1.0. The canonical follower's C07 claim (recall >= 0.8)
    # is pinned at the recorded seed by the decision digest.
    MIN_RECALL = 0.5
    MIN_PRECISION = 0.9

    def invariants(self, setup: Setup, results: list) -> list[str]:
        cars = {int(i) for i in corridor_scene().cluster_ids("cars")}
        problems = []
        for r in results:
            flagged = set()
            for ev in r.update_events:
                flagged.update(ev["stale_ids"])
            recall = len(flagged & cars) / len(cars)
            precision = len(flagged & cars) / len(flagged) if flagged else 0.0
            if recall < self.MIN_RECALL or precision < self.MIN_PRECISION:
                problems.append(
                    f"follower {r.client_id} flagged {len(r.update_events)} updates, "
                    f"cars recall {recall:.2f}, precision {precision:.2f}"
                )
        return problems


WORKLOADS = {w.name: w for w in (Fleet20(), Lanes2Tcp(), StaleSnapshot())}
