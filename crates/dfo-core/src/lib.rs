//! The DFOGraph engine: vertex-centric **push** processing over two-level
//! column-oriented partitions, fully out of core (paper §2–§4).
//!
//! The public surface mirrors the paper's three APIs:
//!
//! * [`NodeCtx::vertex_array`] — the paper's `GetVertexArray<T>`: creates or
//!   recovers a named on-disk vertex array.
//! * [`NodeCtx::process_vertices`] — per-vertex computation with selective
//!   scheduling over an optional `active` array.
//! * [`NodeCtx::process_edges`] — the signal/slot push model, executed as
//!   four pipelined phases: *generating*, *inter-node passing* (with message
//!   filtering), *intra-node dispatching* (adaptive push/none) and
//!   *processing* (adaptive CSR/DCSR edge access).
//!
//! Code runs SPMD: [`Cluster::run`] launches one thread per simulated node,
//! each owning its throttled disk and network endpoint; the closure you pass
//! is the per-node program, exactly like an MPI rank.
//!
//! ```no_run
//! use dfo_core::Cluster;
//! use dfo_types::EngineConfig;
//!
//! let cfg = EngineConfig::for_test(2);
//! let graph = dfo_graph::gen::rmat(dfo_graph::gen::GenConfig::new(10, 8, 1));
//! let cluster = Cluster::create(cfg, "/tmp/dfo-demo").unwrap();
//! cluster.preprocess(&graph).unwrap();
//! // in-degree counting: every vertex signals 1 along its out-edges
//! let slot_calls = cluster
//!     .run(|ctx| {
//!         let deg = ctx.vertex_array::<u64>("deg")?;
//!         ctx.process_edges(
//!             &[],
//!             &["deg"],
//!             None,
//!             |_v, _c| Some(1u64),
//!             |msg, _src, dst, _data: &(), c| {
//!                 c.update(&deg, dst, |d| d + msg);
//!                 1u64
//!             },
//!         )
//!     })
//!     .unwrap();
//! assert!(slot_calls[0] > 0);
//! ```

pub mod accum;
pub mod array;
pub mod cluster;
pub mod edges;
pub mod messages;
pub mod node;
pub mod resident;
pub mod supervisor;

pub use accum::Accum;
pub use array::{BatchCtx, VertexArray};
pub use cluster::Cluster;
pub use node::NodeCtx;
pub use resident::ResidentMesh;
pub use supervisor::{RankSpec, SuperviseReport, Supervisor};
