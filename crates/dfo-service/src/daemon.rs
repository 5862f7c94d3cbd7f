//! The resident daemon: one process per rank, serving **concurrent** jobs
//! over the mesh.
//!
//! [`Daemon::run`] is the per-rank entry point of service phase 2. Every
//! rank process connects the [`ResidentMesh`] **once** (paying mesh
//! bootstrap at startup, not per job), opens the preprocessed graphs under
//! `<base>/graphs/`, and then splits by role:
//!
//! * **Rank 0** additionally binds the job-control listener
//!   (`cfg.control_addr` / `DFO_CONTROL_ADDR`) and accepts
//!   [`crate::DfoClient`] connections. Client handler threads submit
//!   [`JobSpec`]s to the shared [executor core](crate::exec) — the same
//!   validation, admission, retry and report code the in-process
//!   [`crate::Service`] runs — with the overlap cap set to [`MAX_OVERLAP`];
//!   the generation loop hands each admitted job to a worker thread. The
//!   worker — the **mesh runner** — fans the spec to the peer ranks as a
//!   [`PeerCmd::Run`] over the reserved control tag and runs its own rank
//!   under the job's tag namespace; status transitions, [`JobReport`]s and
//!   typed errors stream back to the submitting client through the job's
//!   event sink.
//! * **Peer ranks** sit in a follower loop: block on the next control
//!   message from rank 0 and spawn a worker per [`PeerCmd::Run`], so the
//!   peer enters every overlapping job that rank 0's workers fan out.
//!
//! Jobs may overlap because every job runs in its own tag namespace over
//! the shared endpoint (see [`ResidentMesh`] — rank 0 assigns the job id
//! and every rank enters the job under it), and because admission keeps the
//! in-flight control fan-out within the demux head-of-line budget
//! ([`MAX_OVERLAP`]). Control fan-outs are serialized under a mutex so a
//! multi-frame control message is never interleaved with another on a
//! peer's FIFO (peer, tag) queue.
//!
//! Job results travel **in-band**: every rank encodes its output slice,
//! [`dfo_types::PhaseStats`] and measured footprint as a
//! [`wire::RankResult`] and the job closure gathers them to rank 0 with
//! `NodeCtx::exchange` — no side channel, no shared filesystem assumption.
//! The measured footprints feed the executor's estimator, so repeat
//! submissions of an `(algorithm, graph)` pair are admitted against learned
//! estimates.
//!
//! ## Failure model: relaunch in place, honor retries
//!
//! Jobs end by the engine's one [cancel-vs-poison
//! rule](dfo_core::cluster#the-cancel-vs-poison-rule): cooperative
//! cancellation leaves the mesh healthy — overlapping jobs never notice —
//! and any other job failure poisons it, taking every overlapping job down
//! with a retryable `NetClosed`. The mesh runner reports that to the
//! executor as mesh death, and the daemon then:
//!
//! 1. drains its workers (the executor either **requeues** each failed job
//!    — when its error [`DfoError::is_retryable`] and it has attempts left
//!    under [`JobSpec::max_retries`] — or fails it to its client with the
//!    typed error),
//! 2. rebuilds the mesh **in place** with [`ResidentMesh::relaunch`] — the
//!    relaunch protocol batch and supervised runs use too: next epoch (the
//!    supervisor-published one when `cfg.epoch_file` is set, so ranks
//!    converge even when failures overlap; else every rank bumps by one per
//!    mesh death), bounded by `cfg.max_restarts`, and
//! 3. resumes the scheduler: requeued jobs re-run on the fresh mesh, with
//!    attempts surfaced in [`JobStatus::retries`] / [`JobReport`] and the
//!    `dfo_job_retries_total` counter. Rank 0 counts the relaunch in
//!    `dfo_mesh_relaunches_total`; the mesh itself publishes
//!    `dfo_mesh_epoch` and `dfo_recovery_seconds`.
//!
//! Past the relaunch budget the daemon fails everything still queued and
//! exits with the error that killed the last mesh.

use crate::catalog::{Catalog, CatalogEntry};
use crate::exec::{self, Executor, Job, JobEvent, JobTable, Next, RanksOut};
use crate::wire::{self, ClientMsg, DaemonMsg, PeerCmd, RankResult, PROTO_VERSION};
use dfo_core::ResidentMesh;
use dfo_obs::{Registry, Telemetry};
use dfo_types::{DfoError, EngineConfig, JobSpec, Result};
use parking_lot::Mutex;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Most jobs allowed in flight on the mesh at once. Each running job keeps
/// at most one outstanding control fan-out per peer, so this bound keeps
/// the control tag's demux queue ([`dfo_net::DEMUX_QUEUE_DEPTH`] frames per
/// (peer, tag)) comfortably clear of head-of-line blocking even when every
/// job's fan-out lands at once.
pub const MAX_OVERLAP: usize = match dfo_net::DEMUX_QUEUE_DEPTH / 4 {
    0 => 1,
    n => n,
};

/// The write half of one client connection, shared by the handler thread
/// (replies) and the job workers (job events). Send failures mark the sink
/// dead and are otherwise ignored: a vanished client must never take the
/// daemon down with it.
struct ClientSink {
    w: Mutex<TcpStream>,
    dead: AtomicBool,
}

impl ClientSink {
    fn send(&self, msg: &DaemonMsg) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        let mut w = self.w.lock();
        if wire::send_msg(&mut *w, msg.encode()).is_err() {
            self.dead.store(true, Ordering::Relaxed);
        }
    }
}

/// Rank-0 daemon state shared between the accept/handler threads, the
/// generation loop and the job workers.
struct Shared {
    core: Executor,
    /// Live and recently finished jobs, for `ListJobs` and `Cancel` by id.
    jobs: JobTable,
    /// The connection that requested shutdown, owed a `ShutdownOk`.
    shutdown_sink: Mutex<Option<Arc<ClientSink>>>,
}

/// The resident per-rank daemon. See the module docs; in short, each rank
/// process of the deployment calls [`Daemon::run`] with its rank and the
/// shared engine config, and rank 0's `control_addr` is what
/// [`crate::DfoClient::connect`] dials.
pub struct Daemon;

impl Daemon {
    /// Runs one rank of the daemon mesh until a client requests shutdown
    /// (clean `Ok`) or the mesh dies past its `cfg.max_restarts` relaunch
    /// budget (the error that killed it). Graphs are discovered under
    /// `<base>/graphs/` — preprocess them first with
    /// [`crate::Service::load_graph`] (or ship the directories); the daemon
    /// never preprocesses.
    pub fn run(cfg: EngineConfig, rank: usize, base: impl Into<PathBuf>) -> Result<()> {
        let base = base.into();
        if rank == 0 {
            // the scrape endpoint lives on rank 0 alongside the control listener
            let core = Executor::new(cfg, base, MAX_OVERLAP)?;
            core.catalog.open_all()?;
            let mesh = ResidentMesh::connect(&core.cfg, 0)?
                .with_telemetry(Telemetry::new(core.registry.clone()));
            run_rank0(core, mesh)
        } else {
            let catalog = Catalog::new(cfg.clone(), base, Registry::new());
            catalog.open_all()?;
            run_peer(&catalog, ResidentMesh::connect(&cfg, rank)?)
        }
    }
}

/// This rank's share of one job, on either role: run the SPMD body under
/// the coordinator-assigned job id — every rank's [`RankResult`] gathered
/// to rank 0 in-band — and settle. `Ok(Some(_))` on rank 0, `Ok(None)` on a
/// peer; any `Err` but [`DfoError::Cancelled`] means the mesh is dead.
///
/// Settling the healthy paths (success or cooperative cancel) is a barrier
/// in the job's namespace so no rank deletes scratch another rank still
/// touches, then each rank removes its **own** scratch directory — correct
/// whether the deployment shares a filesystem or not — and retires the
/// job's namespace. When the job failed, or the mesh died under the
/// barrier, the scratch directory is removed best-effort with no barrier,
/// which is race-free because a retry runs under a fresh per-attempt scope.
fn run_job_on_rank(
    mesh: &ResidentMesh,
    entry: &CatalogEntry,
    spec: &JobSpec,
    job_id: u64,
    scope: &str,
    token: Arc<AtomicBool>,
) -> Result<Option<Vec<RankResult>>> {
    let ran = mesh.run_job_as(job_id, entry.cluster(), scope, |ctx| {
        let mine = exec::run_rank_job(ctx, spec, token)?;
        let mut outgoing = vec![Vec::new(); mesh.nodes()];
        outgoing[0] = mine.encode();
        let gathered = ctx.exchange(outgoing)?;
        if mesh.rank() != 0 {
            return Ok(None);
        }
        gathered.iter().map(|bytes| RankResult::decode(bytes)).collect::<Result<_>>().map(Some)
    });
    let dir = entry.cluster().disks()[mesh.rank()].root().join(scope);
    let settled = match &ran {
        Ok(_) | Err(DfoError::Cancelled(_)) => mesh.job_barrier(job_id).and_then(|()| {
            if dir.exists() {
                std::fs::remove_dir_all(&dir).map_err(|e| {
                    DfoError::io(format!("removing scratch dir {}", dir.display()), e)
                })?;
            }
            Ok(())
        }),
        Err(_) => Ok(()),
    };
    mesh.end_job(job_id);
    if ran.is_err() || settled.is_err() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    settled.and(ran)
}

// ---------------------------------------------------------------------------
// peer ranks: the follower loop

/// Peer follower: one round per mesh generation, relaunching in place — in
/// lockstep with rank 0 — until the relaunch budget runs out or rank 0
/// coordinates a shutdown.
fn run_peer(catalog: &Catalog, mut mesh: ResidentMesh) -> Result<()> {
    loop {
        match peer_round(catalog, &mesh) {
            Ok(()) => return Ok(()), // coordinated shutdown
            Err(e) => mesh = mesh.relaunch(e)?,
        }
    }
}

/// One peer mesh generation: receive control commands from rank 0 and run
/// a worker thread per job, so jobs overlap on the peer exactly as rank 0
/// overlaps them. Returns `Ok` on a coordinated shutdown; `Err` when the
/// mesh died (every spawned worker is joined either way — the
/// generation's threads never outlive it).
fn peer_round(catalog: &Catalog, mesh: &ResidentMesh) -> Result<()> {
    // the first *job* error this generation, preferred over the follower
    // loop's own (usually derived NetClosed) error as the reported cause
    let first_fail: Mutex<Option<DfoError>> = Mutex::new(None);
    let out: Result<()> = std::thread::scope(|sc| {
        loop {
            let msg = mesh.ctrl_recv(0)?;
            match PeerCmd::decode(&msg) {
                Err(e) => {
                    mesh.poison(); // make rank 0 observe the death too
                    return Err(e);
                }
                Ok(PeerCmd::Shutdown) => return Ok(()),
                Ok(PeerCmd::Run { job_id, scope, spec }) => {
                    let Some(entry) = catalog.get(&spec.graph) else {
                        mesh.poison();
                        return Err(DfoError::Protocol(format!(
                            "coordinator fanned out unknown graph {:?}",
                            spec.graph
                        )));
                    };
                    let fail = &first_fail;
                    sc.spawn(move || {
                        // rank 0's token cancels everyone through the
                        // collective cancel agreement; this rank never
                        // flips its own
                        let token = Arc::new(AtomicBool::new(false));
                        match run_job_on_rank(mesh, &entry, &spec, job_id, &scope, token) {
                            Ok(_) | Err(DfoError::Cancelled(_)) => {}
                            Err(e) => {
                                // the mesh is dead; every rank must observe it
                                mesh.poison();
                                fail.lock().get_or_insert(e);
                            }
                        }
                    });
                }
            }
        }
    });
    match out {
        // workers are joined (scope exit); settle the coordinated shutdown
        Ok(()) => mesh.barrier(),
        Err(e) => Err(first_fail.into_inner().unwrap_or(e)),
    }
}

// ---------------------------------------------------------------------------
// rank 0: client listener, handlers, generation loop, mesh runner

fn run_rank0(core: Executor, mut mesh: ResidentMesh) -> Result<()> {
    let control_addr = core.cfg.control_addr.clone().ok_or_else(|| {
        DfoError::Config(
            "daemon rank 0 needs cfg.control_addr (or DFO_CONTROL_ADDR) for the client listener"
                .into(),
        )
    })?;
    let listener = TcpListener::bind(&control_addr)
        .map_err(|e| DfoError::io(format!("binding control listener on {control_addr}"), e))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| DfoError::io("setting control listener non-blocking", e))?;
    eprintln!(
        "[dfo-daemon] rank 0 serving {} graph(s) on {}",
        core.catalog.names().len(),
        listener.local_addr().map(|a| a.to_string()).unwrap_or(control_addr.clone()),
    );
    let shared =
        Arc::new(Shared { core, jobs: JobTable::default(), shutdown_sink: Mutex::new(None) });

    // accept loop: non-blocking poll so it can observe shutdown and release
    // the port even when Daemon::run is hosted in a long-lived process
    let accept_shared = shared.clone();
    let accept = std::thread::spawn(move || loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = accept_shared.clone();
                std::thread::spawn(move || handle_client(shared, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if accept_shared.core.is_shutdown() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(_) => return,
        }
    });

    // the generation loop: run the executor one mesh generation at a time,
    // relaunching the mesh in place until shutdown or the relaunch budget
    // runs out. On the fatal path everything still queued fails and
    // shutdown is flagged (so the accept loop releases the port).
    let core = &shared.core;
    let out = loop {
        match run_generation(core, &mesh) {
            Ok(()) => {
                // coordinated shutdown: stop the peers, settle the mesh
                let cmd = PeerCmd::Shutdown.encode();
                break (1..mesh.nodes())
                    .try_for_each(|peer| mesh.ctrl_send(peer, cmd.clone()))
                    .and_then(|()| mesh.barrier());
            }
            Err(cause) => match mesh.relaunch(cause) {
                Ok(rebuilt) => {
                    mesh = rebuilt;
                    core.registry
                        .counter("dfo_mesh_relaunches_total", "In-place mesh relaunches", &[])
                        .inc();
                }
                Err(e) => {
                    core.abort(&e);
                    break Err(e);
                }
            },
        }
    };
    if let Some(sink) = shared.shutdown_sink.lock().take() {
        sink.send(&DaemonMsg::ShutdownOk);
    }
    let _ = accept.join();
    out
}

/// One mesh generation: hand every job the executor admits to a worker
/// thread, until shutdown (`Ok`: queue drained, nothing running) or the
/// mesh dies (`Err`: workers drained, retryable jobs requeued). Worker
/// threads never outlive the generation — the scope joins them before this
/// returns.
fn run_generation(core: &Executor, mesh: &ResidentMesh) -> Result<()> {
    // serializes whole control fan-outs: a control message spans several
    // frames and the demux queue is FIFO per (peer, tag)
    let ctrl = Mutex::new(());
    std::thread::scope(|sc| loop {
        match core.next(true).expect("a blocking next always has an answer") {
            Next::Shutdown => break Ok(()),
            Next::MeshDead(e) => break Err(e),
            Next::Run(job) => {
                let ctrl = &ctrl;
                sc.spawn(move || {
                    let mut attempt =
                        core.attempt(&job, |job, scope| run_on_mesh(mesh, ctrl, job, scope));
                    // the mesh outlives the attempt, and any failure but a
                    // cooperative cancel poisoned it: make every rank (and
                    // every overlapping job) observe that, and tell the
                    // executor so it stops admitting until the relaunch
                    attempt.mesh_dead =
                        !matches!(attempt.result, Ok(_) | Err(DfoError::Cancelled(_)));
                    if attempt.mesh_dead {
                        mesh.poison();
                    }
                    core.finish(&job, attempt);
                });
            }
        }
    })
}

/// The mesh runner: one attempt of an admitted job on rank 0 — fan-out
/// (serialized whole-message), then this rank's share under the job's tag
/// namespace. The shared chunk-cache window is not observable across
/// processes, so it is reported empty.
fn run_on_mesh(mesh: &ResidentMesh, ctrl: &Mutex<()>, job: &Job, scope: &str) -> Result<RanksOut> {
    let cmd =
        PeerCmd::Run { job_id: job.id, scope: scope.to_string(), spec: job.spec.clone() }.encode();
    {
        let _fanout = ctrl.lock();
        for peer in 1..mesh.nodes() {
            mesh.ctrl_send(peer, cmd.clone())?;
        }
    }
    let ranks = run_job_on_rank(mesh, &job.entry, &job.spec, job.id, scope, job.cancel.clone())?
        .expect("rank 0 gathers results");
    Ok(RanksOut { ranks, cache_window: Vec::new() })
}

/// One client connection: handshake, then a request loop. Protocol
/// violations answer with a typed error and close the connection; a bad
/// job *spec* is a per-request [`DaemonMsg::Error`], not a disconnect.
fn handle_client(shared: Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    let sink = Arc::new(ClientSink { w: Mutex::new(write_half), dead: AtomicBool::new(false) });
    let mut reader = stream;

    // handshake: Hello must come first and the version must match
    let hello_client_id = match wire::recv_msg(&mut reader) {
        Ok(Some(bytes)) => match ClientMsg::decode(&bytes) {
            Ok(ClientMsg::Hello { version, client_id }) if version == PROTO_VERSION => client_id,
            Ok(ClientMsg::Hello { version, .. }) => {
                sink.send(&DaemonMsg::Error {
                    message: format!(
                        "unsupported protocol version {version} (daemon speaks {PROTO_VERSION})"
                    ),
                });
                return;
            }
            _ => {
                sink.send(&DaemonMsg::Error { message: "expected Hello first".into() });
                return;
            }
        },
        _ => return,
    };
    sink.send(&DaemonMsg::HelloOk { version: PROTO_VERSION, nodes: shared.core.cfg.nodes as u32 });

    loop {
        let bytes = match wire::recv_msg(&mut reader) {
            Ok(Some(b)) => b,
            Ok(None) | Err(_) => return, // client left (or spoke garbage)
        };
        let msg = match ClientMsg::decode(&bytes) {
            Ok(m) => m,
            Err(e) => {
                sink.send(&DaemonMsg::Error { message: e.to_string() });
                return;
            }
        };
        match msg {
            ClientMsg::Hello { .. } => {
                sink.send(&DaemonMsg::Error { message: "duplicate Hello".into() });
                return;
            }
            ClientMsg::Submit { mut spec } => {
                if spec.client_id.is_empty() {
                    spec.client_id = hello_client_id.clone();
                }
                let events = sink.clone();
                let submitted = shared.core.submit(
                    spec,
                    Box::new(move |job, ev| {
                        events.send(&match ev {
                            JobEvent::Status => DaemonMsg::Status { status: job.status() },
                            JobEvent::Finished(result) => match *result {
                                Ok(report) => DaemonMsg::Report { report },
                                Err(error) => DaemonMsg::JobError { job_id: job.id, error },
                            },
                        })
                    }),
                );
                match submitted {
                    Ok(job) => {
                        let job_id = job.id;
                        shared.jobs.insert(job);
                        sink.send(&DaemonMsg::Submitted { job_id });
                    }
                    Err(e) => sink.send(&DaemonMsg::Error { message: e.to_string() }),
                }
            }
            ClientMsg::Cancel { job_id } => {
                shared.jobs.cancel(job_id);
                shared.core.wake();
            }
            ClientMsg::ListJobs => {
                sink.send(&DaemonMsg::Jobs { jobs: shared.jobs.list() });
            }
            ClientMsg::Shutdown => {
                *shared.shutdown_sink.lock() = Some(sink.clone());
                shared.core.shutdown();
                // ShutdownOk arrives from the generation loop once the mesh is down
            }
        }
    }
}
