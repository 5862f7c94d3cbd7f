//! DFOGraph preprocessing: everything computed before the first iteration.
//!
//! Given a sorted edge list and an [`dfo_types::EngineConfig`], the
//! [`preprocess::preprocess`] entry point produces, on every node's disk,
//! the structures §2.2–§4.3 of the paper describe:
//!
//! * **edge chunks** keyed by (source partition, destination batch), each
//!   stored as DCSR plus an optional CSR (accepted by the *CSR inflate
//!   ratio*),
//! * **dispatching graphs** (source vertex → destination batch) per source
//!   partition, same adaptive representation,
//! * **filter lists** (sorted sources of partition *i* with outgoing edges
//!   into partition *j*, stored on node *i*),
//! * the replicated [`plan::Plan`] describing partition and batch ranges.

pub mod batching;
pub mod csr;
pub mod filter;
pub mod partition;
pub mod plan;
pub mod preprocess;

pub use batching::choose_batch_size;
pub use csr::{choose_repr, IndexedChunk, MergeCursor};
pub use filter::{read_filter_list, write_filter_list};
pub use partition::partition_vertices;
pub use plan::{ChunkInfo, NodeMeta, Plan};
pub use preprocess::{preprocess, PreprocessOutput};
