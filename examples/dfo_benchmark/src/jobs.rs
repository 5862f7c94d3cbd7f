//! Running one batch job — over the in-process transport or two loopback
//! TCP ranks — under a watchdog, with the public counters diffed around it.

use dfograph::core::{Cluster, NodeCtx};
use dfograph::types::{slice_as_bytes, DfoError, Result};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::traced::{self, Counters, SpanRec};
use crate::workloads::{Job, Workload, RANKS};

/// The result digest that must be identical for every job of a workload:
/// FNV-1a over the 8-byte words (then the tail bytes) of the ranks' outputs
/// taken in rank order.
pub fn digest_outputs<'a>(outputs: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for bytes in outputs {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            h = (h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk"))).wrapping_mul(PRIME);
        }
        for &b in words.remainder() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    }
    h
}

/// The library's own algorithm for `job`, result as bytes.
pub fn library_job(ctx: &mut NodeCtx, job: Job) -> Result<Vec<u8>> {
    match job {
        Job::PageRank { iters } => {
            let a = dfograph::algos::pagerank(ctx, iters)?;
            Ok(slice_as_bytes(&dfograph::algos::read_local(ctx, &a)?).to_vec())
        }
        Job::Sssp => {
            let a = dfograph::algos::sssp(ctx, 0)?;
            Ok(slice_as_bytes(&dfograph::algos::read_local(ctx, &a)?).to_vec())
        }
        Job::SvcDegree => {
            let a = dfograph::algos::out_degree_array(ctx)?;
            Ok(slice_as_bytes(&dfograph::algos::read_local(ctx, &a)?).to_vec())
        }
    }
}

/// `n` loopback addresses on ports the kernel just handed out.
pub fn free_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("binding an ephemeral loopback port"))
        .collect();
    listeners
        .iter()
        .map(|l| format!("127.0.0.1:{}", l.local_addr().expect("bound listener").port()))
        .collect()
}

/// What one rank hands back from a job.
pub struct RankOut {
    pub output: Vec<u8>,
    pub spans: Vec<SpanRec>,
    pub counters: Counters,
}

/// One finished job.
pub struct JobOut {
    pub wall_s: f64,
    pub ranks: Vec<RankOut>,
}

impl JobOut {
    pub fn digest(&self) -> u64 {
        digest_outputs(self.ranks.iter().map(|r| r.output.as_slice()))
    }

    /// Counter deltas summed over ranks.
    pub fn counters(&self) -> Counters {
        let mut sum = Counters::default();
        for r in &self.ranks {
            sum.add(&r.counters);
        }
        sum
    }
}

/// Where a workload's jobs run: a long-lived in-process cluster (so the
/// chunk cache survives between jobs, as it does for a resident user), or a
/// preprocessed directory that every TCP job re-opens per rank.
#[derive(Clone)]
pub enum Runner {
    Sim(Arc<Cluster>),
    Tcp { workload: Workload, base: PathBuf },
}

impl Runner {
    pub fn open(w: &Workload, base: &Path) -> Result<Runner> {
        if w.tcp {
            Ok(Runner::Tcp { workload: *w, base: base.to_path_buf() })
        } else {
            Ok(Runner::Sim(Arc::new(Cluster::create(w.config(), base)?)))
        }
    }

    /// Runs one job; `traced` selects the harness's span-wrapped driver
    /// instead of the library's algorithm.
    pub fn run(&self, job: Job, traced: bool) -> Result<JobOut> {
        let epoch = Instant::now();
        let body = move |ctx: &mut NodeCtx| -> Result<RankOut> {
            let before = Counters::of(ctx);
            let (output, spans) = if traced {
                traced::run(ctx, job, epoch)?
            } else {
                (library_job(ctx, job)?, Vec::new())
            };
            Ok(RankOut { output, spans, counters: Counters::of(ctx).since(&before) })
        };
        let ranks = match self {
            Runner::Sim(cluster) => cluster.run(body)?,
            Runner::Tcp { workload, base } => run_tcp(workload, base, &body)?,
        };
        Ok(JobOut { wall_s: epoch.elapsed().as_secs_f64(), ranks })
    }

    /// The launch path alone: the same entry point around an empty closure.
    pub fn launch_only(&self) -> Result<()> {
        match self {
            Runner::Sim(cluster) => cluster.run(|_| Ok(())).map(|_| ()),
            Runner::Tcp { workload, base } => run_tcp(workload, base, &|_| Ok(())).map(|_| ()),
        }
    }
}

/// One TCP job: each rank is a thread with its own `Cluster` handle on the
/// shared base directory, meshed through `cfg.peers` on fresh ports.
fn run_tcp<T: Send>(
    w: &Workload,
    base: &Path,
    body: &(impl Fn(&mut NodeCtx) -> Result<T> + Sync),
) -> Result<Vec<T>> {
    let peers = free_addrs(RANKS);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..RANKS)
            .map(|rank| {
                let peers = peers.clone();
                s.spawn(move || -> Result<T> {
                    let mut cfg = w.config();
                    cfg.peers = Some(peers);
                    Cluster::create(cfg, base)?.run_distributed(rank, body)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| Err(DfoError::Panic("TCP rank thread panicked".into())))
            })
            .collect()
    })
}

/// Runs `f` on its own thread and gives up after `limit`: a hung job is a
/// failed operation, not a stuck benchmark. `None` means the watchdog fired;
/// the thread is then still out there, so the caller must report and exit
/// the process.
pub fn with_watchdog<T: Send + 'static>(
    limit: Duration,
    f: impl FnOnce() -> Result<T> + Send + 'static,
) -> Option<Result<T>> {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(res) => {
            let joined = worker.join();
            Some(res.and_then(|v| {
                joined.map(|()| v).map_err(|_| DfoError::Panic("job thread panicked".into()))
            }))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => None,
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            Some(Err(DfoError::Panic("job thread panicked".into())))
        }
    }
}
