//! Job model: the finished-job report and the handle a submitter holds.
//!
//! The spec/status vocabulary ([`dfo_types::JobSpec`],
//! [`dfo_types::JobPhase`], [`JobStatus`]) lives in `dfo_types::jobspec`
//! since the remote protocol made it a wire format; this crate re-exports
//! it, so `dfo_service::JobSpec` keeps working. The shared job record
//! itself is [`crate::exec::Job`].

use crate::exec::{Executor, Job};
use dfo_algos::AlgoOutput;
use dfo_storage::ChunkCacheStats;
use dfo_types::{JobStatus, PhaseStats, Pod, Result};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Everything a finished job produced.
#[derive(Clone, Debug)]
pub struct JobReport {
    pub id: u64,
    pub graph: String,
    pub algorithm: String,
    /// Per-rank local outputs in rank order; concatenated they cover the
    /// whole vertex set ([`JobReport::assemble`]).
    pub outputs: Vec<AlgoOutput>,
    /// Per-rank per-job [`PhaseStats`] totals. Chunk-cache hits/misses are
    /// counted at this job's own lookup sites, so they are attributable to
    /// this job even when others ran concurrently on the same caches.
    pub rank_stats: Vec<PhaseStats>,
    /// Sum of `rank_stats` — the job's cluster-wide totals.
    pub totals: PhaseStats,
    /// Per-rank **shared** chunk-cache counter deltas over this job's
    /// wall-clock window. Unlike `totals`, these include every concurrent
    /// job's traffic on the graph's caches — they describe the device, not
    /// the job; eviction pressure in particular only exists at cache level.
    pub cache_window: Vec<ChunkCacheStats>,
    /// Retryable failures absorbed before this report was produced
    /// ([`dfo_types::JobSpec::max_retries`]); 0 for a first-try success.
    pub retries: u32,
    pub elapsed: Duration,
}

impl JobReport {
    /// Concatenates the per-rank outputs into one typed vector over the
    /// whole vertex set (ranks own contiguous ascending vertex ranges).
    pub fn assemble<T: Pod>(&self) -> Result<Vec<T>> {
        let mut all = Vec::new();
        for out in &self.outputs {
            all.extend(out.values_as::<T>()?);
        }
        Ok(all)
    }
}

/// Where a job's single terminal result waits for its handle — the
/// mutex+condvar both [`JobHandle`] and [`crate::RemoteJobHandle`] block on.
#[derive(Default)]
pub(crate) struct ResultSlot {
    result: Mutex<Option<Result<JobReport>>>,
    done: Condvar,
}

impl ResultSlot {
    /// Publishes the result; the first one wins.
    pub fn put(&self, result: Result<JobReport>) {
        let mut slot = self.result.lock();
        if slot.is_none() {
            *slot = Some(result);
            self.done.notify_all();
        }
    }

    /// Takes the result, blocking until it is there or `deadline` passes.
    pub fn take(&self, deadline: Option<Instant>) -> Option<Result<JobReport>> {
        let mut slot = self.result.lock();
        loop {
            if slot.is_some() {
                return slot.take();
            }
            match deadline {
                None => self.done.wait(&mut slot),
                Some(d) => {
                    let left = d.checked_duration_since(Instant::now()).filter(|l| !l.is_zero())?;
                    self.done.wait_for(&mut slot, left);
                }
            }
        }
    }
}

/// Tracks one submitted job. Not cloneable: [`JobHandle::wait`] consumes
/// the handle and hands over the job's single [`JobReport`].
pub struct JobHandle {
    pub(crate) job: Arc<Job>,
    pub(crate) slot: Arc<ResultSlot>,
    pub(crate) svc: Weak<Executor>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.stats();
        f.debug_struct("JobHandle")
            .field("id", &st.id)
            .field("phase", &st.phase)
            .field("graph", &st.graph)
            .field("algorithm", &st.algorithm)
            .finish()
    }
}

impl JobHandle {
    pub fn id(&self) -> u64 {
        self.job.id
    }

    /// Blocks until the job finishes and returns its report — or the error
    /// it failed with ([`dfo_types::DfoError::Cancelled`] if it was
    /// cancelled).
    pub fn wait(self) -> Result<JobReport> {
        self.slot.take(None).expect("an unbounded wait ends with the result")
    }

    /// Like [`JobHandle::wait`], but gives up after `timeout`. On timeout
    /// the handle comes back in the `Err` arm, still valid — poll again,
    /// [`JobHandle::cancel`], or [`JobHandle::wait`] for good.
    pub fn wait_timeout(
        self,
        timeout: Duration,
    ) -> std::result::Result<Result<JobReport>, JobHandle> {
        self.slot.take(Some(Instant::now() + timeout)).ok_or(self)
    }

    /// Requests cooperative cancellation. A queued job is withdrawn without
    /// running; a running job's ranks observe the token at their next
    /// `Process`-call boundary, agree collectively, and unwind together —
    /// freeing the job's admission budget. [`JobHandle::wait`] then returns
    /// [`dfo_types::DfoError::Cancelled`]. Idempotent; a job that already
    /// finished is unaffected.
    pub fn cancel(&self) {
        self.job.cancel.store(true, Ordering::Relaxed);
        // reap a queued job right away rather than when it reaches the front
        if let Some(svc) = self.svc.upgrade() {
            crate::service::pump(&svc);
        }
    }

    /// Point-in-time snapshot of the job's phase and admission footprint.
    pub fn stats(&self) -> JobStatus {
        self.job.status()
    }
}
