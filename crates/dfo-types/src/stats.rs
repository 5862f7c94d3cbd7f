//! Byte-accounting statistics shared by the storage and network substrates.
//!
//! Figure 5 of the paper plots disk and network bandwidth over time for
//! DFOGraph vs Chaos; [`TrafficRecorder`] captures exactly that series, and
//! [`PhaseStats`] captures the per-phase totals checked against the Table 2
//! worst-case bounds.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A relaxed atomic byte/op counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// One traffic sample: milliseconds since recorder start, bytes transferred.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrafficSample {
    pub at_ms: u64,
    pub bytes: u64,
}

/// Records a time series of transfers for bandwidth-over-time plots
/// (Figure 5). Sampling is cheap: one lock-protected push per transfer;
/// transfers are MB-granular so contention is negligible.
#[derive(Clone)]
pub struct TrafficRecorder {
    inner: Arc<TrafficInner>,
}

struct TrafficInner {
    start: Instant,
    samples: Mutex<Vec<TrafficSample>>,
    total: Counter,
    enabled: bool,
}

impl TrafficRecorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            inner: Arc::new(TrafficInner {
                start: Instant::now(),
                samples: Mutex::new(Vec::new()),
                total: Counter::new(),
                enabled,
            }),
        }
    }

    /// Records `bytes` transferred now.
    #[inline]
    pub fn record(&self, bytes: u64) {
        self.inner.total.add(bytes);
        if self.inner.enabled && bytes > 0 {
            let at_ms = self.inner.start.elapsed().as_millis() as u64;
            self.inner.samples.lock().push(TrafficSample { at_ms, bytes });
        }
    }

    /// Total bytes recorded so far.
    pub fn total(&self) -> u64 {
        self.inner.total.get()
    }

    /// Snapshot of the raw samples.
    pub fn samples(&self) -> Vec<TrafficSample> {
        self.inner.samples.lock().clone()
    }

    /// Aggregates samples into fixed-width buckets and returns
    /// `(bucket_start_ms, bytes)` pairs — the series plotted in Figure 5.
    pub fn bucketed(&self, bucket_ms: u64) -> Vec<(u64, u64)> {
        assert!(bucket_ms > 0);
        let samples = self.inner.samples.lock();
        if samples.is_empty() {
            return Vec::new();
        }
        let last = samples.iter().map(|s| s.at_ms).max().unwrap();
        let n = (last / bucket_ms + 1) as usize;
        let mut buckets = vec![0u64; n];
        for s in samples.iter() {
            buckets[(s.at_ms / bucket_ms) as usize] += s.bytes;
        }
        buckets.into_iter().enumerate().map(|(i, b)| (i as u64 * bucket_ms, b)).collect()
    }

    pub fn reset(&self) {
        self.inner.samples.lock().clear();
        self.inner.total.reset();
    }
}

/// Per-phase byte totals for one `ProcessEdges` call on one node, matching
/// the rows of Table 2 (generate / pass / dispatch / process).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    pub generate_disk_read: u64,
    pub generate_disk_write: u64,
    pub pass_disk_read: u64,
    pub pass_net_sent: u64,
    pub dispatch_disk_read: u64,
    pub dispatch_disk_write: u64,
    pub dispatch_net_recv: u64,
    pub process_disk_read: u64,
    pub process_disk_write: u64,
    /// Messages generated on this node this call (|M_i| in §4.3).
    pub messages_generated: u64,
    /// Messages actually sent on the wire after filtering.
    pub messages_sent: u64,
    /// Decoded-chunk cache hits this call (edge chunks + dispatch graphs);
    /// 0 when `chunk_cache_bytes == 0`.
    pub chunk_cache_hits: u64,
    /// Decoded-chunk cache misses this call (each miss cost one chunk read).
    pub chunk_cache_misses: u64,
    /// Bytes of decoded chunks evicted from the cache this call to stay
    /// inside the memory budget.
    pub chunk_cache_evicted_bytes: u64,
    /// *Logical* disk bytes read across the whole call: what the pipeline
    /// consumed, before compression. Equal to the sum of physical reads
    /// when chunk compression is off; larger when compressed chunks were
    /// decoded on the way in.
    pub logical_disk_read: u64,
    /// *Logical* disk bytes written across the whole call (pre-compression
    /// payload). The per-phase `*_disk_*` fields above stay physical.
    pub logical_disk_write: u64,
    /// Wall time of phase 1 (generating) in nanoseconds.
    pub generate_nanos: u64,
    /// Wall time of phase 2 (passing, measured on the sender thread) in
    /// nanoseconds. Phases 2 and 3 overlap by design (§4.4/§4.5), so the
    /// per-phase times can legitimately sum past the call's wall time.
    pub pass_nanos: u64,
    /// Wall time of the phase-2+3 overlap window (send + dispatch) as seen
    /// from the call's main thread, in nanoseconds.
    pub dispatch_nanos: u64,
    /// Wall time of phase 4 (processing) in nanoseconds.
    pub process_nanos: u64,
}

impl PhaseStats {
    /// Adds every counter of `other` to this one.
    pub fn merge(&mut self, other: &PhaseStats) {
        let mut other = other.clone();
        for (mine, theirs) in self.wire_fields_mut().into_iter().zip(other.wire_fields_mut()) {
            *mine += *theirs;
        }
    }

    /// Total *physical* disk bytes this call moved (per-phase sums).
    pub fn total_disk(&self) -> u64 {
        self.generate_disk_read
            + self.generate_disk_write
            + self.pass_disk_read
            + self.dispatch_disk_read
            + self.dispatch_disk_write
            + self.process_disk_read
            + self.process_disk_write
    }

    /// Every field, in wire order — the one place the field list is spelled
    /// out after the struct itself, shared by the codec and
    /// [`PhaseStats::merge`]. **Append only**: decoders match encodings by
    /// position.
    fn wire_fields_mut(&mut self) -> [&mut u64; 20] {
        [
            &mut self.generate_disk_read,
            &mut self.generate_disk_write,
            &mut self.pass_disk_read,
            &mut self.pass_net_sent,
            &mut self.dispatch_disk_read,
            &mut self.dispatch_disk_write,
            &mut self.dispatch_net_recv,
            &mut self.process_disk_read,
            &mut self.process_disk_write,
            &mut self.messages_generated,
            &mut self.messages_sent,
            &mut self.chunk_cache_hits,
            &mut self.chunk_cache_misses,
            &mut self.chunk_cache_evicted_bytes,
            &mut self.logical_disk_read,
            &mut self.logical_disk_write,
            &mut self.generate_nanos,
            &mut self.pass_nanos,
            &mut self.dispatch_nanos,
            &mut self.process_nanos,
        ]
    }

    /// Encodes the stats as a count-prefixed `u64` list, so a decoder built
    /// against fewer fields skips the extras and one built against more
    /// zero-fills the missing tail (append-only evolution, like the job
    /// messages in [`crate::jobspec`]).
    pub fn encode_wire(&self) -> Vec<u8> {
        let mut copy = self.clone();
        let fields = copy.wire_fields_mut();
        let mut out = Vec::with_capacity(4 + fields.len() * 8);
        out.extend((fields.len() as u32).to_le_bytes());
        for v in fields {
            out.extend(v.to_le_bytes());
        }
        out
    }

    /// Decodes stats written by [`PhaseStats::encode_wire`] of any vintage.
    pub fn decode_wire(bytes: &[u8]) -> crate::Result<Self> {
        let mut c = crate::codec::Cur::new(bytes);
        let mut s = PhaseStats::default();
        let mut fields = s.wire_fields_mut();
        for i in 0..c.u32()? as usize {
            // a newer sender's extra trailing fields are read and dropped
            let v = c.u64()?;
            if let Some(f) = fields.get_mut(i) {
                **f = v;
            }
        }
        Ok(s)
    }
}

/// Checkpoint-restart counters of one supervised rank (§3.2 over process
/// relaunch): how many times the rank re-bootstrapped the mesh after a peer
/// failure, the epoch it last joined under, and how many one-call rollbacks
/// it performed to rejoin peers that died before committing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Mesh re-bootstraps performed by this rank (0 = never failed over).
    pub restarts: u64,
    /// Epoch of the most recent successful mesh bootstrap.
    pub mesh_epoch: u64,
    /// Checkpoints this rank rolled back because it had committed a
    /// `Process` call that a crashed peer had not (the ahead-rank window):
    /// each rollback discards exactly one committed call so all ranks
    /// resume from the same global call sequence.
    pub rollbacks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_stats_wire_roundtrip() {
        let s = PhaseStats {
            pass_net_sent: 7,
            process_nanos: 99,
            chunk_cache_hits: 3,
            ..PhaseStats::default()
        };
        let back = PhaseStats::decode_wire(&s.encode_wire()).unwrap();
        assert_eq!(back, s);
        // an older 3-field encoding still decodes, missing tail zero-filled
        let mut short = Vec::new();
        crate::codec::write_u32(&mut short, 3).unwrap();
        for v in [1u64, 2, 3] {
            crate::codec::write_u64(&mut short, v).unwrap();
        }
        let old = PhaseStats::decode_wire(&short).unwrap();
        assert_eq!(old.generate_disk_read, 1);
        assert_eq!(old.pass_disk_read, 3);
        assert_eq!(old.process_nanos, 0);
    }

    #[test]
    fn recovery_stats_default_is_clean() {
        let r = RecoveryStats::default();
        assert_eq!(r, RecoveryStats { restarts: 0, mesh_epoch: 0, rollbacks: 0 });
    }

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.add(10);
        c.add(32);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn recorder_totals_and_buckets() {
        let r = TrafficRecorder::new(true);
        r.record(100);
        r.record(50);
        assert_eq!(r.total(), 150);
        let buckets = r.bucketed(1000);
        let sum: u64 = buckets.iter().map(|(_, b)| b).sum();
        assert_eq!(sum, 150);
    }

    #[test]
    fn disabled_recorder_still_counts_total() {
        let r = TrafficRecorder::new(false);
        r.record(77);
        assert_eq!(r.total(), 77);
        assert!(r.samples().is_empty());
    }

    #[test]
    fn phase_stats_merge() {
        let mut a = PhaseStats { pass_net_sent: 10, messages_generated: 4, ..Default::default() };
        let b = PhaseStats { pass_net_sent: 5, messages_sent: 3, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.pass_net_sent, 15);
        assert_eq!(a.messages_generated, 4);
        assert_eq!(a.messages_sent, 3);
    }

    #[test]
    fn phase_stats_merge_sums_timings() {
        let mut a = PhaseStats { generate_nanos: 10, process_nanos: 5, ..Default::default() };
        let b = PhaseStats {
            generate_nanos: 1,
            pass_nanos: 2,
            dispatch_nanos: 3,
            process_nanos: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(
            (a.generate_nanos, a.pass_nanos, a.dispatch_nanos, a.process_nanos),
            (11, 2, 3, 9)
        );
    }
}
