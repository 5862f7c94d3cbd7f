//! `DfoClient`: the remote counterpart of [`crate::Service`].
//!
//! One client connection speaks the [`crate::wire`] protocol to a
//! [`crate::Daemon`]'s rank-0 control listener: a `Hello`/`HelloOk`
//! handshake pins the protocol version, after which the connection is a
//! full-duplex job channel — requests flow up, and the daemon pushes
//! status transitions, [`JobReport`]s and typed errors down as they
//! happen, not on poll.
//!
//! A background reader thread demultiplexes the downstream: job events are
//! routed to their [`RemoteJobHandle`] by job id (tolerating any
//! interleaving with request replies — the daemon's executor races the
//! request handler, so a `Running` status may legally arrive before the
//! `Submitted` ack), while request replies are handed to the single
//! in-flight RPC. If the connection drops, every outstanding handle
//! resolves to [`DfoError::NetClosed`] — a remote wait never hangs.

use crate::job::{JobReport, ResultSlot};
use crate::wire::{self, ClientMsg, DaemonMsg, PROTO_VERSION};
use dfo_types::{DfoError, JobSpec, JobStatus, Result};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Client-side record of one submitted job: the latest pushed status and,
/// eventually, the terminal result.
struct JobEntry {
    id: u64,
    status: Mutex<Option<JobStatus>>,
    result: ResultSlot,
}

struct ClientInner {
    writer: Mutex<TcpStream>,
    /// Serializes request/reply exchanges: one RPC in flight per
    /// connection, so replies pair with requests without correlation ids.
    rpc: Mutex<mpsc::Receiver<DaemonMsg>>,
    jobs: Mutex<BTreeMap<u64, Arc<JobEntry>>>,
    dead: AtomicBool,
    nodes: u32,
}

impl ClientInner {
    fn entry(&self, id: u64) -> Arc<JobEntry> {
        self.jobs
            .lock()
            .entry(id)
            .or_insert_with(|| {
                Arc::new(JobEntry { id, status: Mutex::new(None), result: ResultSlot::default() })
            })
            .clone()
    }

    fn send(&self, msg: &ClientMsg) -> Result<()> {
        if self.dead.load(Ordering::Relaxed) {
            return Err(DfoError::NetClosed("daemon connection is closed".into()));
        }
        wire::send_msg(&mut *self.writer.lock(), msg.encode())
    }

    /// Sends one request and waits for its reply (the reader thread routes
    /// job events around this exchange).
    fn rpc(&self, msg: &ClientMsg) -> Result<DaemonMsg> {
        let rx = self.rpc.lock();
        self.send(msg)?;
        rx.recv().map_err(|_| DfoError::NetClosed("daemon connection dropped mid-request".into()))
    }
}

/// A connection to a resident [`crate::Daemon`] mesh: the single public
/// entry point for remote job submission.
///
/// ```no_run
/// # fn main() -> dfo_types::Result<()> {
/// use dfo_service::{DfoClient, JobSpec};
/// let client = DfoClient::connect("127.0.0.1:7070")?;
/// let job = client.submit(JobSpec::new("web", "pagerank").with_priority(5))?;
/// let report = job.wait()?;
/// println!("ran {} in {:?}", report.algorithm, report.elapsed);
/// # Ok(()) }
/// ```
///
/// The client is cheap to clone-share via the handles it returns; drop it
/// (or let the process exit) to close the connection — running jobs keep
/// running, their events simply have nowhere to go.
pub struct DfoClient {
    inner: Arc<ClientInner>,
}

impl DfoClient {
    /// Connects and handshakes with an empty client id (the daemon's
    /// fair-share scheduler lumps anonymous clients together).
    pub fn connect(addr: &str) -> Result<Self> {
        Self::connect_as(addr, "")
    }

    /// Connects with an explicit client id, the unit of the daemon's
    /// per-client fair-share quota. Submitted specs inherit it unless they
    /// carry their own [`JobSpec::with_client_id`].
    pub fn connect_as(addr: &str, client_id: &str) -> Result<Self> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| DfoError::io(format!("connecting to daemon at {addr}"), e))?;
        let _ = stream.set_nodelay(true);
        let mut reader =
            stream.try_clone().map_err(|e| DfoError::io("cloning daemon connection", e))?;
        wire::send_msg(
            &mut &stream,
            ClientMsg::Hello { version: PROTO_VERSION, client_id: client_id.to_string() }.encode(),
        )?;
        let nodes = match wire::recv_msg(&mut reader)? {
            Some(bytes) => match DaemonMsg::decode(&bytes)? {
                DaemonMsg::HelloOk { version, nodes } if version == PROTO_VERSION => nodes,
                DaemonMsg::HelloOk { version, .. } => {
                    return Err(DfoError::Handshake(format!(
                        "daemon speaks protocol {version}, this client speaks {PROTO_VERSION}"
                    )))
                }
                DaemonMsg::Error { message } => return Err(DfoError::Handshake(message)),
                other => {
                    return Err(DfoError::Protocol(format!("expected HelloOk, got {other:?}")))
                }
            },
            None => {
                return Err(DfoError::Handshake(
                    "daemon closed the connection during the handshake".into(),
                ))
            }
        };

        let (rpc_tx, rpc_rx) = mpsc::channel();
        let inner = Arc::new(ClientInner {
            writer: Mutex::new(stream),
            rpc: Mutex::new(rpc_rx),
            jobs: Mutex::new(BTreeMap::new()),
            dead: AtomicBool::new(false),
            nodes,
        });
        let reader_inner = inner.clone();
        std::thread::spawn(move || {
            reader_loop(reader_inner, reader, rpc_tx);
        });
        Ok(Self { inner })
    }

    /// Number of ranks in the daemon mesh (a [`JobReport`] carries one
    /// output slice per rank).
    pub fn nodes(&self) -> usize {
        self.inner.nodes as usize
    }

    /// Submits a job and returns its handle once the daemon has validated
    /// and queued it. A rejected spec (unknown graph or algorithm,
    /// incompatible edge payload) is an immediate `Err` here, not a failed
    /// handle.
    pub fn submit(&self, spec: JobSpec) -> Result<RemoteJobHandle> {
        match self.inner.rpc(&ClientMsg::Submit { spec })? {
            DaemonMsg::Submitted { job_id } => {
                Ok(RemoteJobHandle { entry: self.inner.entry(job_id), inner: self.inner.clone() })
            }
            DaemonMsg::Error { message } => Err(DfoError::Config(message)),
            other => Err(DfoError::Protocol(format!("expected Submitted, got {other:?}"))),
        }
    }

    /// Requests cancellation of a job by id (fire-and-forget, like
    /// [`crate::JobHandle::cancel`]; the job resolves as cancelled through
    /// its handle).
    pub fn cancel(&self, job_id: u64) -> Result<()> {
        self.inner.send(&ClientMsg::Cancel { job_id })
    }

    /// Lists every job the daemon currently tracks (all clients', queued
    /// and terminal alike), with the daemon's charged `mem_estimate` —
    /// which is how a remote caller observes learned admission estimates.
    pub fn list_jobs(&self) -> Result<Vec<JobStatus>> {
        match self.inner.rpc(&ClientMsg::ListJobs)? {
            DaemonMsg::Jobs { jobs } => Ok(jobs),
            DaemonMsg::Error { message } => Err(DfoError::Protocol(message)),
            other => Err(DfoError::Protocol(format!("expected Jobs, got {other:?}"))),
        }
    }

    /// Asks the daemon mesh to shut down cleanly: queued jobs drain first,
    /// then every rank settles on a barrier and exits. Returns once the
    /// daemon acknowledges.
    pub fn shutdown(self) -> Result<()> {
        match self.inner.rpc(&ClientMsg::Shutdown)? {
            DaemonMsg::ShutdownOk => Ok(()),
            DaemonMsg::Error { message } => Err(DfoError::Protocol(message)),
            other => Err(DfoError::Protocol(format!("expected ShutdownOk, got {other:?}"))),
        }
    }
}

/// Handle to a job submitted over a [`DfoClient`] — the remote analogue of
/// [`crate::JobHandle`], same consuming `wait` / `wait_timeout` shape.
pub struct RemoteJobHandle {
    entry: Arc<JobEntry>,
    inner: Arc<ClientInner>,
}

impl RemoteJobHandle {
    /// The daemon-assigned job id.
    pub fn id(&self) -> u64 {
        self.entry.id
    }

    /// The latest status the daemon pushed for this job, if any has
    /// arrived yet.
    pub fn status(&self) -> Option<JobStatus> {
        self.entry.status.lock().clone()
    }

    /// Requests cooperative cancellation (fire-and-forget).
    pub fn cancel(&self) -> Result<()> {
        self.inner.send(&ClientMsg::Cancel { job_id: self.entry.id })
    }

    /// Blocks until the job reaches a terminal state and returns its
    /// report or typed error. A dropped daemon connection resolves every
    /// waiter with [`DfoError::NetClosed`] — this never hangs forever.
    pub fn wait(self) -> Result<JobReport> {
        self.entry.result.take(None).expect("an unbounded wait ends with the result")
    }

    /// Like [`RemoteJobHandle::wait`] with a deadline: yields the terminal
    /// result, or hands the handle back if the job is still in flight.
    pub fn wait_timeout(self, timeout: Duration) -> std::result::Result<Result<JobReport>, Self> {
        self.entry.result.take(Some(Instant::now() + timeout)).ok_or(self)
    }
}

impl Drop for RemoteJobHandle {
    /// Forgets the job's record once its one handle is gone (waited for or
    /// dropped), so a client that submits without end holds only the jobs
    /// it still has handles to.
    fn drop(&mut self) {
        self.inner.jobs.lock().remove(&self.entry.id);
    }
}

/// Routes the daemon's downstream: job events to their entries, request
/// replies to the in-flight RPC. Exits when the connection closes, failing
/// everything outstanding.
fn reader_loop(inner: Arc<ClientInner>, mut reader: TcpStream, rpc_tx: mpsc::Sender<DaemonMsg>) {
    // clean EOF, a transport error and undecodable bytes all end the
    // session the same way: everything outstanding resolves NetClosed
    let mut next = || match wire::recv_msg(&mut reader) {
        Ok(Some(bytes)) => DaemonMsg::decode(&bytes).ok(),
        Ok(None) | Err(_) => None,
    };
    while let Some(msg) = next() {
        match msg {
            DaemonMsg::Status { status } => {
                let entry = inner.entry(status.id);
                *entry.status.lock() = Some(status);
            }
            DaemonMsg::Report { report } => inner.entry(report.id).result.put(Ok(report)),
            DaemonMsg::JobError { job_id, error } => inner.entry(job_id).result.put(Err(error)),
            reply => {
                // request reply; if no RPC is waiting the client is gone
                if rpc_tx.send(reply).is_err() {
                    break;
                }
            }
        }
    }
    inner.dead.store(true, Ordering::Relaxed);
    // dropping rpc_tx disconnects any in-flight rpc(); sweep the handles
    for entry in inner.jobs.lock().values() {
        entry.result.put(Err(DfoError::NetClosed(
            "daemon connection closed before the job finished".into(),
        )));
    }
}
