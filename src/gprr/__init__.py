"""gprr: record-and-replay for CPU/GPU register and memory interactions.

Record a reference stack driving a simulated GPU into a compact .gpr
file, verify it statically, then reproduce the computation on new inputs
through a small replayer with no stack present.
"""

from .actions import (ActionClass, Granularity, IoDescriptor, IoMode, IoRole,
                      LoadMemDump, MapGpuMem, MemDump, Recording,
                      RecordingHeader, RegRead, RegReadWait, RegWrite,
                      ReplayAction, UnmapGpuMem, WaitIrq, canonical_actions)
from .device import (SKU_A, SKU_B, SKUS, Device, DeviceSnapshot, Perm,
                     RegisterMap, SkuProfile, default_register_map)
from .patcher import PatchError, PatchResult, patch_recording
from .recfmt import DecodeError, decode, encode, read_file, write_file
from .recorder import DiscoveryError, RecordHarness, RecordResult, record
from .refstack import (AllocFlags, DelayPolicy, GpuStack, WorkloadGraph,
                       build_graph, parse_workload)
from .replayer import (Checkpoint, DivergenceKind, DivergenceReport,
                       PreemptAck, ReplayConfig, ReplayResult, ReplaySession,
                       expected_event_log, init, replay_sequence)
from .verifier import VerificationReport, verify

__version__ = "0.1.0"
