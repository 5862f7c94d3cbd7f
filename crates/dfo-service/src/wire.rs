//! The job-control wire protocol: client ⇄ daemon and rank-0 ⇄ peer ranks.
//!
//! Both directions reuse the [`dfo_net::Frame`] codec for framing — the
//! same 16-byte header and length-prefixed payload the engine transport
//! speaks — so there is exactly one framing layer in the system. A
//! job-control message is always a **single** last-flagged frame on the
//! reserved control tag ([`dfo_net::CTRL_TAG_BIT`]): on a client
//! connection the tag merely brands the traffic, on the resident mesh it
//! routes the message into its own demux queues so job control can never
//! contend with engine streams.
//!
//! Message payloads are `[type: u8][body…]` with length-prefixed fields.
//! Versioning happens at two levels: the connection handshake
//! ([`ClientMsg::Hello`] / [`DaemonMsg::HelloOk`]) carries
//! [`PROTO_VERSION`], and the [`JobSpec`] / [`JobStatus`] bodies are
//! independently versioned, unknown-field-tolerant codecs
//! ([`dfo_types::JOB_WIRE_VERSION`]) — a newer spec field degrades
//! gracefully instead of breaking the session.
//!
//! Anything malformed decodes to [`DfoError::Protocol`]: deterministic,
//! never retried, and fatal only to the offending connection.

use crate::job::JobReport;
use bytes::Bytes;
use dfo_algos::{AlgoOutput, OutputKind};
use dfo_net::{Frame, CTRL_TAG_BIT};
use dfo_types::codec::Cur;
use dfo_types::{DfoError, JobSpec, JobStatus, PhaseStats, Result};
use std::io::{Read, Write};
use std::time::Duration;

/// Version of the job-control message set (the framing and message bodies
/// below). Bumped only for incompatible changes; additive evolution happens
/// inside the versioned [`JobSpec`] / [`JobStatus`] codecs.
pub const PROTO_VERSION: u8 = 1;

fn proto_err(m: impl Into<String>) -> DfoError {
    DfoError::Protocol(m.into())
}

// ---------------------------------------------------------------------------
// primitives: length-prefixed fields (decoded with `dfo_types::codec::Cur`)

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    buf.extend((b.len() as u32).to_le_bytes());
    buf.extend_from_slice(b);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

// ---------------------------------------------------------------------------
// framing: one job-control message = one last-flagged frame on CTRL_TAG_BIT

/// Writes one job-control message to a client connection.
pub(crate) fn send_msg<W: Write>(w: &mut W, payload: Vec<u8>) -> Result<()> {
    let frame = Frame { src: 0, tag: CTRL_TAG_BIT, payload: Bytes::from(payload), last: true };
    frame.write_to(w).map_err(|e| DfoError::io("send job-control frame", e))?;
    w.flush().map_err(|e| DfoError::io("flush job-control frame", e))
}

/// Reads one job-control message from a client connection. `Ok(None)` is a
/// clean end-of-stream (the peer closed between messages); a truncation or
/// a frame that is not a single control-tagged message is a protocol error.
pub(crate) fn recv_msg<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>> {
    let Some(frame) = Frame::read_from(r)? else { return Ok(None) };
    if frame.tag != CTRL_TAG_BIT || !frame.last {
        return Err(proto_err(format!(
            "expected a single control-tagged frame, got tag {:#x} (last: {})",
            frame.tag, frame.last
        )));
    }
    Ok(Some(frame.payload.to_vec()))
}

// ---------------------------------------------------------------------------
// client → daemon

const C_HELLO: u8 = 1;
const C_SUBMIT: u8 = 2;
const C_CANCEL: u8 = 3;
const C_LIST_JOBS: u8 = 4;
const C_SHUTDOWN: u8 = 5;

/// A request on a client connection.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum ClientMsg {
    /// Connection handshake: the first message, once.
    Hello {
        version: u8,
        client_id: String,
    },
    Submit {
        spec: JobSpec,
    },
    Cancel {
        job_id: u64,
    },
    ListJobs,
    /// Coordinated daemon shutdown: drain nothing, fail queued jobs, stop.
    Shutdown,
}

impl ClientMsg {
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            ClientMsg::Hello { version, client_id } => {
                buf.push(C_HELLO);
                buf.push(*version);
                put_str(&mut buf, client_id);
            }
            ClientMsg::Submit { spec } => {
                buf.push(C_SUBMIT);
                put_bytes(&mut buf, &spec.encode());
            }
            ClientMsg::Cancel { job_id } => {
                buf.push(C_CANCEL);
                buf.extend(job_id.to_le_bytes());
            }
            ClientMsg::ListJobs => buf.push(C_LIST_JOBS),
            ClientMsg::Shutdown => buf.push(C_SHUTDOWN),
        }
        buf
    }

    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut c = Cur::new(bytes);
        let msg = match c.u8()? {
            C_HELLO => ClientMsg::Hello { version: c.u8()?, client_id: c.str()? },
            C_SUBMIT => ClientMsg::Submit { spec: JobSpec::decode(c.bytes()?)? },
            C_CANCEL => ClientMsg::Cancel { job_id: c.u64()? },
            C_LIST_JOBS => ClientMsg::ListJobs,
            C_SHUTDOWN => ClientMsg::Shutdown,
            t => return Err(proto_err(format!("unknown client message type {t}"))),
        };
        c.done()?;
        Ok(msg)
    }
}

// ---------------------------------------------------------------------------
// daemon → client

const D_HELLO_OK: u8 = 1;
const D_SUBMITTED: u8 = 2;
const D_STATUS: u8 = 3;
const D_REPORT: u8 = 4;
const D_JOB_ERROR: u8 = 5;
const D_JOBS: u8 = 6;
const D_ERROR: u8 = 7;
const D_SHUTDOWN_OK: u8 = 8;

/// A reply or event on a client connection. Replies answer the client's
/// last request; `Status` / `Report` / `JobError` are asynchronous events
/// about jobs this connection submitted.
//
// `Report` dwarfs the other variants, but every DaemonMsg is encoded (or
// decoded) and dropped within one call — none are stored in bulk, so
// boxing the report would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum DaemonMsg {
    HelloOk {
        version: u8,
        nodes: u32,
    },
    Submitted {
        job_id: u64,
    },
    /// A lifecycle transition of a job this connection submitted.
    Status {
        status: JobStatus,
    },
    /// Terminal success: the job's full report.
    Report {
        report: JobReport,
    },
    /// Terminal failure: the job's typed error.
    JobError {
        job_id: u64,
        error: DfoError,
    },
    Jobs {
        jobs: Vec<JobStatus>,
    },
    /// Protocol-level rejection of the last request.
    Error {
        message: String,
    },
    ShutdownOk,
}

impl DaemonMsg {
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            DaemonMsg::HelloOk { version, nodes } => {
                buf.push(D_HELLO_OK);
                buf.push(*version);
                buf.extend(nodes.to_le_bytes());
            }
            DaemonMsg::Submitted { job_id } => {
                buf.push(D_SUBMITTED);
                buf.extend(job_id.to_le_bytes());
            }
            DaemonMsg::Status { status } => {
                buf.push(D_STATUS);
                put_bytes(&mut buf, &status.encode());
            }
            DaemonMsg::Report { report } => {
                buf.push(D_REPORT);
                encode_report(&mut buf, report);
            }
            DaemonMsg::JobError { job_id, error } => {
                buf.push(D_JOB_ERROR);
                buf.extend(job_id.to_le_bytes());
                encode_error(&mut buf, error);
            }
            DaemonMsg::Jobs { jobs } => {
                buf.push(D_JOBS);
                buf.extend((jobs.len() as u32).to_le_bytes());
                for j in jobs {
                    put_bytes(&mut buf, &j.encode());
                }
            }
            DaemonMsg::Error { message } => {
                buf.push(D_ERROR);
                put_str(&mut buf, message);
            }
            DaemonMsg::ShutdownOk => buf.push(D_SHUTDOWN_OK),
        }
        buf
    }

    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut c = Cur::new(bytes);
        let msg = match c.u8()? {
            D_HELLO_OK => DaemonMsg::HelloOk { version: c.u8()?, nodes: c.u32()? },
            D_SUBMITTED => DaemonMsg::Submitted { job_id: c.u64()? },
            D_STATUS => DaemonMsg::Status { status: JobStatus::decode(c.bytes()?)? },
            D_REPORT => DaemonMsg::Report { report: decode_report(&mut c)? },
            D_JOB_ERROR => DaemonMsg::JobError { job_id: c.u64()?, error: decode_error(&mut c)? },
            D_JOBS => {
                let n = c.u32()? as usize;
                if n > 1 << 20 {
                    return Err(proto_err(format!("implausible job-list length {n}")));
                }
                let mut jobs = Vec::with_capacity(n);
                for _ in 0..n {
                    jobs.push(JobStatus::decode(c.bytes()?)?);
                }
                DaemonMsg::Jobs { jobs }
            }
            D_ERROR => DaemonMsg::Error { message: c.str()? },
            D_SHUTDOWN_OK => DaemonMsg::ShutdownOk,
            t => return Err(proto_err(format!("unknown daemon message type {t}"))),
        };
        c.done()?;
        Ok(msg)
    }
}

// ---------------------------------------------------------------------------
// rank 0 → peer ranks, over the resident mesh's control tag

const P_RUN: u8 = 1;
const P_SHUTDOWN: u8 = 2;

/// A command the coordinator rank fans out to its peer ranks.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum PeerCmd {
    /// Run one job, SPMD: every rank enters `run_job_as` with this spec under
    /// this scratch scope.
    Run { job_id: u64, scope: String, spec: JobSpec },
    /// Leave the follower loop and exit cleanly.
    Shutdown,
}

impl PeerCmd {
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            PeerCmd::Run { job_id, scope, spec } => {
                buf.push(P_RUN);
                buf.extend(job_id.to_le_bytes());
                put_str(&mut buf, scope);
                put_bytes(&mut buf, &spec.encode());
            }
            PeerCmd::Shutdown => buf.push(P_SHUTDOWN),
        }
        buf
    }

    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut c = Cur::new(bytes);
        let cmd = match c.u8()? {
            P_RUN => PeerCmd::Run {
                job_id: c.u64()?,
                scope: c.str()?,
                spec: JobSpec::decode(c.bytes()?)?,
            },
            P_SHUTDOWN => PeerCmd::Shutdown,
            t => return Err(proto_err(format!("unknown peer command type {t}"))),
        };
        c.done()?;
        Ok(cmd)
    }
}

// ---------------------------------------------------------------------------
// per-rank job results, gathered in-band over `NodeCtx::exchange`

/// One rank's contribution to a job report: its output slice, its
/// [`PhaseStats`], and its measured footprint in bytes.
pub(crate) struct RankResult {
    pub output: AlgoOutput,
    pub stats: PhaseStats,
    pub footprint: u64,
}

impl RankResult {
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_output(&mut buf, &self.output);
        put_bytes(&mut buf, &self.stats.encode_wire());
        buf.extend(self.footprint.to_le_bytes());
        buf
    }

    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut c = Cur::new(bytes);
        let output = decode_output(&mut c)?;
        let stats = PhaseStats::decode_wire(c.bytes()?)?;
        let footprint = c.u64()?;
        c.done()?;
        Ok(Self { output, stats, footprint })
    }
}

fn kind_to_wire(k: OutputKind) -> u8 {
    match k {
        OutputKind::F64 => 0,
        OutputKind::F32 => 1,
        OutputKind::U64 => 2,
        OutputKind::U32 => 3,
    }
}

fn kind_from_wire(b: u8) -> Result<OutputKind> {
    Ok(match b {
        0 => OutputKind::F64,
        1 => OutputKind::F32,
        2 => OutputKind::U64,
        3 => OutputKind::U32,
        other => return Err(proto_err(format!("unknown output kind {other}"))),
    })
}

fn encode_output(buf: &mut Vec<u8>, out: &AlgoOutput) {
    buf.push(kind_to_wire(out.kind));
    match out.iterations {
        Some(it) => {
            buf.push(1);
            buf.extend(it.to_le_bytes());
        }
        None => buf.push(0),
    }
    put_bytes(buf, &out.values);
}

fn decode_output(c: &mut Cur<'_>) -> Result<AlgoOutput> {
    let kind = kind_from_wire(c.u8()?)?;
    let iterations = match c.u8()? {
        0 => None,
        1 => Some(c.u64()?),
        other => return Err(proto_err(format!("bad iterations marker {other}"))),
    };
    let values = c.bytes()?.to_vec();
    Ok(AlgoOutput { kind, values, iterations })
}

// ---------------------------------------------------------------------------
// JobReport body

/// The `cache_window` field does **not** cross the wire: shared chunk-cache
/// deltas describe the daemon's device state, not the job, and are exposed
/// through the daemon's metrics endpoint instead. Remote reports carry an
/// empty window.
fn encode_report(buf: &mut Vec<u8>, r: &JobReport) {
    buf.extend(r.id.to_le_bytes());
    put_str(buf, &r.graph);
    put_str(buf, &r.algorithm);
    buf.extend(r.retries.to_le_bytes());
    buf.extend((r.elapsed.as_nanos() as u64).to_le_bytes());
    let n = r.outputs.len().min(r.rank_stats.len());
    buf.extend((n as u32).to_le_bytes());
    for i in 0..n {
        encode_output(buf, &r.outputs[i]);
        put_bytes(buf, &r.rank_stats[i].encode_wire());
    }
}

fn decode_report(c: &mut Cur<'_>) -> Result<JobReport> {
    let id = c.u64()?;
    let graph = c.str()?;
    let algorithm = c.str()?;
    let retries = c.u32()?;
    let elapsed = Duration::from_nanos(c.u64()?);
    let n = c.u32()? as usize;
    if n > 1 << 20 {
        return Err(proto_err(format!("implausible rank count {n}")));
    }
    let mut outputs = Vec::with_capacity(n);
    let mut rank_stats = Vec::with_capacity(n);
    let mut totals = PhaseStats::default();
    for _ in 0..n {
        outputs.push(decode_output(c)?);
        let stats = PhaseStats::decode_wire(c.bytes()?)?;
        totals.merge(&stats);
        rank_stats.push(stats);
    }
    Ok(JobReport {
        id,
        graph,
        algorithm,
        outputs,
        rank_stats,
        totals,
        cache_window: Vec::new(),
        retries,
        elapsed,
    })
}

// ---------------------------------------------------------------------------
// typed errors

const E_IO: u8 = 0;
const E_CORRUPT: u8 = 1;
const E_CONFIG: u8 = 2;
const E_NET_CLOSED: u8 = 3;
const E_HANDSHAKE: u8 = 4;
const E_NO_CHECKPOINT: u8 = 5;
const E_PANIC: u8 = 6;
const E_CANCELLED: u8 = 7;
const E_PROTOCOL: u8 = 8;
const E_RESTARTS: u8 = 9;

/// Encodes a [`DfoError`] preserving its variant (and thus cancelled-ness
/// and retryability) plus its rendered message. `Io` keeps only the
/// rendered text; `RestartsExhausted` keeps its attempt count and one level
/// of underlying error (enough for `is_retryable` to agree across the
/// wire).
fn encode_error(buf: &mut Vec<u8>, e: &DfoError) {
    match e {
        DfoError::Io { .. } => {
            buf.push(E_IO);
            put_str(buf, &e.to_string());
        }
        DfoError::Corrupt(m) => {
            buf.push(E_CORRUPT);
            put_str(buf, m);
        }
        DfoError::Config(m) => {
            buf.push(E_CONFIG);
            put_str(buf, m);
        }
        DfoError::NetClosed(m) => {
            buf.push(E_NET_CLOSED);
            put_str(buf, m);
        }
        DfoError::Handshake(m) => {
            buf.push(E_HANDSHAKE);
            put_str(buf, m);
        }
        DfoError::NoCheckpoint(m) => {
            buf.push(E_NO_CHECKPOINT);
            put_str(buf, m);
        }
        DfoError::Panic(m) => {
            buf.push(E_PANIC);
            put_str(buf, m);
        }
        DfoError::Cancelled(m) => {
            buf.push(E_CANCELLED);
            put_str(buf, m);
        }
        DfoError::Protocol(m) => {
            buf.push(E_PROTOCOL);
            put_str(buf, m);
        }
        DfoError::RestartsExhausted { attempts, last } => {
            buf.push(E_RESTARTS);
            buf.extend(attempts.to_le_bytes());
            let mut inner = Vec::new();
            encode_error(&mut inner, last);
            put_bytes(buf, &inner);
        }
    }
}

fn decode_error(c: &mut Cur<'_>) -> Result<DfoError> {
    Ok(match c.u8()? {
        E_IO => DfoError::io(c.str()?, std::io::Error::other("remote I/O failure")),
        E_CORRUPT => DfoError::Corrupt(c.str()?),
        E_CONFIG => DfoError::Config(c.str()?),
        E_NET_CLOSED => DfoError::NetClosed(c.str()?),
        E_HANDSHAKE => DfoError::Handshake(c.str()?),
        E_NO_CHECKPOINT => DfoError::NoCheckpoint(c.str()?),
        E_PANIC => DfoError::Panic(c.str()?),
        E_CANCELLED => DfoError::Cancelled(c.str()?),
        E_PROTOCOL => DfoError::Protocol(c.str()?),
        E_RESTARTS => {
            let attempts = c.u32()?;
            let inner = c.bytes()?;
            let mut ic = Cur::new(inner);
            let last = decode_error(&mut ic)?;
            ic.done()?;
            DfoError::RestartsExhausted { attempts, last: Box::new(last) }
        }
        t => return Err(proto_err(format!("unknown error kind {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfo_types::JobPhase;

    fn roundtrip_client(msg: ClientMsg) {
        let back = ClientMsg::decode(&msg.encode()).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn client_messages_roundtrip() {
        roundtrip_client(ClientMsg::Hello { version: PROTO_VERSION, client_id: "ci".into() });
        roundtrip_client(ClientMsg::Submit {
            spec: JobSpec::new("web", "pagerank")
                .with_param("iters", 10)
                .with_priority(7)
                .with_client_id("ci"),
        });
        roundtrip_client(ClientMsg::Cancel { job_id: 42 });
        roundtrip_client(ClientMsg::ListJobs);
        roundtrip_client(ClientMsg::Shutdown);
    }

    #[test]
    fn peer_commands_roundtrip() {
        let cmd =
            PeerCmd::Run { job_id: 3, scope: "job3".into(), spec: JobSpec::new("web", "wcc") };
        assert_eq!(PeerCmd::decode(&cmd.encode()).unwrap(), cmd);
        assert_eq!(PeerCmd::decode(&PeerCmd::Shutdown.encode()).unwrap(), PeerCmd::Shutdown);
    }

    #[test]
    fn report_roundtrips_bit_identically() {
        let stats =
            PhaseStats { messages_generated: 4, pass_net_sent: 123, ..PhaseStats::default() };
        let report = JobReport {
            id: 9,
            graph: "web".into(),
            algorithm: "pagerank".into(),
            outputs: vec![
                AlgoOutput {
                    kind: OutputKind::F64,
                    values: vec![1, 2, 3, 4, 5, 6, 7, 8],
                    iterations: None,
                },
                AlgoOutput { kind: OutputKind::U32, values: vec![9, 9, 9, 9], iterations: Some(6) },
            ],
            rank_stats: vec![stats.clone(), stats.clone()],
            totals: PhaseStats::default(),
            cache_window: Vec::new(),
            retries: 1,
            elapsed: Duration::from_millis(1234),
        };
        let msg = DaemonMsg::Report { report };
        let DaemonMsg::Report { report: back } = DaemonMsg::decode(&msg.encode()).unwrap() else {
            panic!("wrong message type");
        };
        assert_eq!(back.id, 9);
        assert_eq!(back.outputs[0].values, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(back.outputs[1].iterations, Some(6));
        assert_eq!(back.rank_stats.len(), 2);
        assert_eq!(back.rank_stats[1].pass_net_sent, 123);
        // totals are recomputed from the per-rank stats on decode
        assert_eq!(back.totals.messages_generated, 8);
        assert_eq!(back.elapsed, Duration::from_millis(1234));
    }

    #[test]
    fn errors_keep_their_type_across_the_wire() {
        for e in [
            DfoError::Cancelled("stop".into()),
            DfoError::NetClosed("mesh died".into()),
            DfoError::Protocol("bad frame".into()),
            DfoError::Panic("bug".into()),
        ] {
            let msg = DaemonMsg::JobError { job_id: 1, error: e };
            let DaemonMsg::JobError { error: back, .. } = DaemonMsg::decode(&msg.encode()).unwrap()
            else {
                panic!("wrong message type");
            };
            // variant (not just message) must survive: cancellation stays
            // typed and retryability agrees on both ends
            match DaemonMsg::decode(&msg.encode()).unwrap() {
                DaemonMsg::JobError { error, .. } => {
                    assert_eq!(std::mem::discriminant(&error), std::mem::discriminant(&back));
                }
                _ => unreachable!(),
            }
        }
        let nested = DfoError::RestartsExhausted {
            attempts: 3,
            last: Box::new(DfoError::NetClosed("gone".into())),
        };
        assert!(nested.is_retryable());
        let msg = DaemonMsg::JobError { job_id: 1, error: nested };
        let DaemonMsg::JobError { error: back, .. } = DaemonMsg::decode(&msg.encode()).unwrap()
        else {
            panic!("wrong message type");
        };
        assert!(back.is_retryable(), "retryability must survive the wire");
    }

    #[test]
    fn status_events_roundtrip() {
        let status = JobStatus {
            id: 5,
            phase: JobPhase::Running,
            graph: "g".into(),
            algorithm: "bfs".into(),
            mem_estimate: 4096,
            retries: 0,
            priority: -2,
            client_id: "ci".into(),
        };
        let msg = DaemonMsg::Status { status };
        match DaemonMsg::decode(&msg.encode()).unwrap() {
            DaemonMsg::Status { status } => {
                assert_eq!(status.id, 5);
                assert_eq!(status.phase, JobPhase::Running);
                assert_eq!(status.priority, -2);
            }
            _ => panic!("wrong message type"),
        }
    }

    #[test]
    fn rank_results_roundtrip() {
        let rr = RankResult {
            output: AlgoOutput { kind: OutputKind::U64, values: vec![0; 16], iterations: None },
            stats: PhaseStats::default(),
            footprint: 777,
        };
        let back = RankResult::decode(&rr.encode()).unwrap();
        assert_eq!(back.footprint, 777);
        assert_eq!(back.output.values.len(), 16);
    }

    #[test]
    fn framing_roundtrips_and_rejects_garbage() {
        let mut buf = Vec::new();
        send_msg(&mut buf, ClientMsg::ListJobs.encode()).unwrap();
        let mut r = &buf[..];
        let msg = recv_msg(&mut r).unwrap().unwrap();
        assert_eq!(ClientMsg::decode(&msg).unwrap(), ClientMsg::ListJobs);
        // clean EOF after the message
        assert!(recv_msg(&mut r).unwrap().is_none());
        // truncated frame mid-payload is an error, not a clean EOF
        let cut = &buf[..buf.len() - 1];
        let mut r = cut;
        assert!(recv_msg(&mut r).is_err(), "truncation must not look like clean EOF");
        // unknown message types are a typed protocol error
        assert!(matches!(ClientMsg::decode(&[250]), Err(DfoError::Protocol(_))));
    }
}
