//! Shared foundation types for the DFOGraph workspace.
//!
//! This crate deliberately has no heavy dependencies: it defines the vertex
//! identifier types, the [`Pod`] plain-old-data contract used for vertex and
//! edge attributes and messages, the binary codec used by every on-disk
//! format, the engine configuration, error types, and the byte-accounting
//! statistics shared by the storage and network substrates.

pub mod codec;
pub mod config;
pub mod error;
pub mod ids;
pub mod jobspec;
pub mod pod;
pub mod stats;

pub use codec::{read_exact_or_eof, read_u32, read_u64, write_u32, write_u64};
pub use config::{BatchPolicy, CrashPoint, CrashPos, DispatchKind, EngineConfig, ReprKind};
pub use error::{gather_ranks, DfoError, Result};
pub use ids::{BatchId, PartitionId, Rank, VertexId, VertexRange};
pub use jobspec::{JobParams, JobPhase, JobSpec, JobStatus, JOB_WIRE_VERSION};
pub use pod::{
    bytes_of, pod_from_bytes, pod_zeroed, slice_as_bytes, slice_as_bytes_mut, vec_from_bytes, Pod,
};
pub use stats::{Counter, PhaseStats, RecoveryStats, TrafficRecorder, TrafficSample};
