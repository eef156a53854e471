"""comap: participatory map-sharing protocol engine and multi-agent simulator.

Devices describe new keyframes to the map server with a 64-byte metadata
query; the server samples the pose's view cone against the global map to
grade overlap, so devices upload only fresh map data, reuse shared map
slices on seen paths, and detect when the world has changed.
"""

from .expansion import (
    AlignmentEstimate,
    Keyframe,
    RigidTransform,
    build_response,
    estimate_alignment,
    inject_redundancy,
    integrate_upload,
    on_session_end,
    partition_keyframe,
)
from .geometry import (
    CameraIntrinsics,
    Pose,
    ViewCone,
    compute_fov,
    contains,
    contains_many,
    cone_from_fov,
    make_view_cone,
    optical_axis,
    sample_cone,
)
from .mapstore import (
    GlobalMap,
    MapFrame,
    NeighborSet,
    audit,
    insert_frame,
    load_snapshot,
    save_snapshot,
    select_neighbors,
)
from .overlap import OverlapVerdict, assess_overlap
from .params import CAMERA_PRESETS, DEFAULT_PARAMS, FULL_KEYFRAME_BYTES, ProtocolParams
from .runtime import (
    ClientConfig,
    InProcTransport,
    MapServer,
    TcpMapServer,
    TcpTransport,
    TokenBucket,
    client_pipeline,
    serve,
    throttle,
)
from .scenario import (
    Metrics,
    ScenarioConfig,
    config_from_dict,
    freshness_traffic_report,
    load_config,
    run_scenario,
    vanilla_twin,
)
from .sharing import (
    DeviceAction,
    DeviceLoopState,
    LocalizationOutcome,
    SharedMapSlice,
    UpdateStatus,
    UpdateVerdict,
    build_shared_map,
    get_update_status,
    run_device_loop,
)
from .sim import (
    Scene,
    TrajectorySpec,
    generate_keyframes,
    generate_scene,
    mutate_scene,
    observe,
)
from .spatial import KdTree, build_point_kdtree
from .wire import (
    DecodeError,
    KeyframeUploadMsg,
    OverlapQueryMsg,
    OverlapResponseMsg,
    SessionEndMsg,
    SessionRegisterMsg,
    SharedMapRequestMsg,
    SharedMapResponseMsg,
    TrafficStats,
    UpdateCheckMsg,
    UpdateStatusMsg,
    decode,
    encode,
    meter,
)

__version__ = "0.1.0"
