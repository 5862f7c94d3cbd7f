//! Storage substrate for DFOGraph: per-node throttled disks with full byte
//! accounting, buffered sequential streams, the chunk frame container and
//! its decoded-chunk cache, the versioned block store behind every vertex
//! array (per-batch blocks, or pages of the partition in the no-batching
//! ablation), and the memory budgets under which blocks and message buffers
//! skip the disk round trip.
//!
//! The paper's testbed gives every node a 2 GB/s NVMe SSD; this substrate
//! reproduces the *bandwidth-bound* behaviour of that hardware on any
//! machine: every byte moved through a [`NodeDisk`] is counted (and,
//! optionally, time-stamped for the Figure 5 traffic plots) and paced by a
//! token-bucket [`Throttle`], so experiment runtimes are dominated by the
//! same byte volumes the paper reasons about.

pub mod blockstore;
pub mod chunkcache;
pub mod commitlog;
pub mod compress;
pub mod disk;
pub mod spill;
pub mod throttle;

pub use blockstore::VersionedArrayStore;
pub use chunkcache::{CachedValue, ChunkCache, ChunkCacheStats, ChunkKey};
pub use commitlog::CommitLog;
pub use compress::{BlockFile, FrameWriter, FRAME_MAGIC, SEEK_BLOCK_BYTES};
pub use disk::{ClassStats, DiskReader, DiskStats, DiskWriter, FileClass, NodeDisk, RandomFile};
pub use spill::{ChunkPool, MemBudget, SpillBuf};
pub use throttle::Throttle;
