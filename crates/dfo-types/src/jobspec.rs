//! The job vocabulary and its versioned wire codec.
//!
//! [`JobSpec`] / [`JobStatus`] are the messages a remote client exchanges
//! with a resident service daemon, so they live here in the foundation
//! crate — below both the algorithm registry and the service — as plain
//! data with an explicit binary encoding.
//!
//! ## Wire format
//!
//! Every encoded message starts with a version byte
//! ([`JOB_WIRE_VERSION`]), followed by tagged fields:
//!
//! ```text
//! [ version: u8 ] ( [ field_id: u8 ][ len: u32 LE ][ payload: len bytes ] )*
//! ```
//!
//! Decoders **skip fields with unknown ids**, so a newer sender can add
//! fields without breaking an older receiver; the version byte is only
//! rejected when it is `0` (corrupt) — a higher version than
//! [`JOB_WIRE_VERSION`] still decodes through the skip rule. Absent fields
//! take their `Default` value, which keeps old encodings of a message
//! decodable forever. Both properties are locked in by tests.

use crate::codec::{utf8, write_str, write_u32, write_u64, Cur};
use crate::error::{DfoError, Result};
use std::collections::BTreeMap;
use std::io::Write;

/// Current version byte stamped on every encoded job message.
pub const JOB_WIRE_VERSION: u8 = 1;

/// Integer parameters an algorithm reads by key (`iters`, `root`, …).
/// A sorted map so encodings are canonical and comparisons deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobParams {
    map: BTreeMap<String, u64>,
}

impl JobParams {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style insert: `JobParams::new().with("iters", 10)`.
    #[must_use]
    pub fn with(mut self, key: &str, value: u64) -> Self {
        self.map.insert(key.to_string(), value);
        self
    }

    pub fn set(&mut self, key: &str, value: u64) {
        self.map.insert(key.to_string(), value);
    }

    pub fn get(&self, key: &str) -> Option<u64> {
        self.map.get(key).copied()
    }

    /// The value of `key`, or `default` when absent.
    pub fn get_or(&self, key: &str, default: u64) -> u64 {
        self.get(key).unwrap_or(default)
    }

    /// Key/value pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.map.iter().map(|(k, v)| (k.as_str(), *v))
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        write_u32(&mut out, self.map.len() as u32).expect("vec write");
        for (k, v) in &self.map {
            write_str(&mut out, k).expect("vec write");
            write_u64(&mut out, *v).expect("vec write");
        }
        out
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        let mut c = Cur::new(bytes);
        let mut map = BTreeMap::new();
        for _ in 0..c.u32()? {
            map.insert(c.str64()?, c.u64()?);
        }
        Ok(Self { map })
    }
}

/// Writes one `[id][len][payload]` field.
fn write_field<W: Write>(w: &mut W, id: u8, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&[id])?;
    write_u32(w, payload.len() as u32)?;
    w.write_all(payload)
}

/// Iterates the tagged fields of `bytes` (everything after the version
/// byte), calling `f` with each `(id, payload)`. Unknown ids are simply
/// passed through to `f`, which ignores them — the forward-compatibility
/// rule of the format.
fn for_each_field(bytes: &[u8], mut f: impl FnMut(u8, &[u8]) -> Result<()>) -> Result<()> {
    let mut c = Cur::new(bytes);
    while !c.is_empty() {
        let id = c.u8()?;
        f(id, c.bytes()?)?;
    }
    Ok(())
}

/// Checks and strips the leading version byte.
fn split_version<'a>(what: &str, bytes: &'a [u8]) -> Result<&'a [u8]> {
    match bytes.first() {
        None => Err(DfoError::Protocol(format!("empty {what} message"))),
        Some(0) => Err(DfoError::Protocol(format!("{what} wire version 0"))),
        // any version >= 1 decodes: unknown fields are skipped below
        Some(_) => Ok(&bytes[1..]),
    }
}

/// What to run: a catalog graph by name, a registered algorithm by name,
/// and the algorithm's integer parameters. Deliberately plain data — no
/// process-local state — so a transport layer can ship it between
/// processes unchanged; [`JobSpec::encode`] / [`JobSpec::decode`] are that
/// transport's wire form.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Catalog name of the graph the service loaded.
    pub graph: String,
    /// Registry name of the algorithm.
    pub algorithm: String,
    /// Parameters the algorithm reads by key (`iters`, `root`, …).
    pub params: JobParams,
    /// Overrides the admission-control footprint estimate (bytes per node).
    /// `None` lets the service derive one — from its learned footprint
    /// history for this `(algorithm, graph)` when it has any, else from the
    /// algorithm's static per-vertex state hint.
    pub mem_estimate: Option<u64>,
    /// Bounded retry policy: how many times a *retryable* failure
    /// ([`DfoError::is_retryable`] — a mesh death or bootstrap handshake
    /// failure, the errors checkpoint-restart exists for) is re-executed
    /// before surfacing. Non-retryable errors (corruption, config, panics,
    /// cancellation) surface immediately. Defaults to 0.
    pub max_retries: u32,
    /// Scheduling priority: higher runs earlier. Equal priorities fall back
    /// to per-client fair share, then submission order; queued jobs age so
    /// a low priority is a preference, not starvation. Defaults to 0.
    pub priority: i32,
    /// Who submitted this job, for per-client fair-share scheduling. The
    /// remote client library stamps its connection's id here; empty (the
    /// default) means "anonymous", which is itself one fair-share bucket.
    pub client_id: String,
}

// field ids of the JobSpec encoding; never reuse a retired id
const F_GRAPH: u8 = 1;
const F_ALGORITHM: u8 = 2;
const F_PARAMS: u8 = 3;
const F_MEM_ESTIMATE: u8 = 4;
const F_MAX_RETRIES: u8 = 5;
const F_PRIORITY: u8 = 6;
const F_CLIENT_ID: u8 = 7;

impl JobSpec {
    pub fn new(graph: impl Into<String>, algorithm: impl Into<String>) -> Self {
        Self {
            graph: graph.into(),
            algorithm: algorithm.into(),
            params: JobParams::new(),
            mem_estimate: None,
            max_retries: 0,
            priority: 0,
            client_id: String::new(),
        }
    }

    #[must_use]
    pub fn with_param(mut self, key: &str, value: u64) -> Self {
        self.params.set(key, value);
        self
    }

    #[must_use]
    pub fn with_mem_estimate(mut self, bytes: u64) -> Self {
        self.mem_estimate = Some(bytes);
        self
    }

    #[must_use]
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Sets the scheduling priority (higher runs earlier; default 0).
    #[must_use]
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the fair-share client id (the remote client stamps its own).
    #[must_use]
    pub fn with_client_id(mut self, client_id: impl Into<String>) -> Self {
        self.client_id = client_id.into();
        self
    }

    /// Encodes the spec in the versioned tagged-field wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![JOB_WIRE_VERSION];
        write_field(&mut out, F_GRAPH, self.graph.as_bytes()).expect("vec write");
        write_field(&mut out, F_ALGORITHM, self.algorithm.as_bytes()).expect("vec write");
        write_field(&mut out, F_PARAMS, &self.params.encode()).expect("vec write");
        if let Some(est) = self.mem_estimate {
            write_field(&mut out, F_MEM_ESTIMATE, &est.to_le_bytes()).expect("vec write");
        }
        if self.max_retries != 0 {
            write_field(&mut out, F_MAX_RETRIES, &self.max_retries.to_le_bytes())
                .expect("vec write");
        }
        if self.priority != 0 {
            write_field(&mut out, F_PRIORITY, &self.priority.to_le_bytes()).expect("vec write");
        }
        if !self.client_id.is_empty() {
            write_field(&mut out, F_CLIENT_ID, self.client_id.as_bytes()).expect("vec write");
        }
        out
    }

    /// Decodes a spec encoded by any version of [`JobSpec::encode`]. Fields
    /// with unknown ids are skipped; `graph` and `algorithm` must be
    /// present.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let fields = split_version("JobSpec", bytes)?;
        let mut spec = JobSpec::new("", "");
        for_each_field(fields, |id, payload| {
            match id {
                F_GRAPH => spec.graph = utf8(payload)?,
                F_ALGORITHM => spec.algorithm = utf8(payload)?,
                F_PARAMS => spec.params = JobParams::decode(payload)?,
                F_MEM_ESTIMATE => spec.mem_estimate = Some(Cur::new(payload).u64()?),
                F_MAX_RETRIES => spec.max_retries = Cur::new(payload).u32()?,
                F_PRIORITY => spec.priority = Cur::new(payload).u32()? as i32,
                F_CLIENT_ID => spec.client_id = utf8(payload)?,
                _ => {} // unknown field from a newer sender: skip
            }
            Ok(())
        })?;
        if spec.graph.is_empty() || spec.algorithm.is_empty() {
            return Err(DfoError::Protocol(
                "JobSpec missing required graph/algorithm fields".into(),
            ));
        }
        Ok(spec)
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted to the queue; not yet running (waiting for budget or for
    /// the scheduler to pick it).
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobPhase {
    /// Whether the job can no longer change phase.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobPhase::Done | JobPhase::Failed | JobPhase::Cancelled)
    }

    fn to_wire(self) -> u8 {
        match self {
            JobPhase::Queued => 0,
            JobPhase::Running => 1,
            JobPhase::Done => 2,
            JobPhase::Failed => 3,
            JobPhase::Cancelled => 4,
        }
    }

    fn from_wire(v: u8) -> Result<Self> {
        Ok(match v {
            0 => JobPhase::Queued,
            1 => JobPhase::Running,
            2 => JobPhase::Done,
            3 => JobPhase::Failed,
            4 => JobPhase::Cancelled,
            other => return Err(DfoError::Protocol(format!("unknown job phase {other}"))),
        })
    }
}

/// A point-in-time snapshot of one job's lifecycle.
#[derive(Clone, Debug)]
pub struct JobStatus {
    pub id: u64,
    pub phase: JobPhase,
    pub graph: String,
    pub algorithm: String,
    /// The admission-control footprint this job charges against
    /// `mem_budget` while running (bytes per node).
    pub mem_estimate: u64,
    /// Retryable failures absorbed so far under the spec's `max_retries`
    /// budget (live — a running job being re-executed counts up here).
    pub retries: u32,
    /// Scheduling priority the job was submitted with.
    pub priority: i32,
    /// Fair-share client the job is accounted to.
    pub client_id: String,
}

// field ids of the JobStatus encoding
const S_ID: u8 = 1;
const S_PHASE: u8 = 2;
const S_GRAPH: u8 = 3;
const S_ALGORITHM: u8 = 4;
const S_MEM_ESTIMATE: u8 = 5;
const S_RETRIES: u8 = 6;
const S_PRIORITY: u8 = 7;
const S_CLIENT_ID: u8 = 8;

impl JobStatus {
    /// Encodes the status in the versioned tagged-field wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![JOB_WIRE_VERSION];
        write_field(&mut out, S_ID, &self.id.to_le_bytes()).expect("vec write");
        write_field(&mut out, S_PHASE, &[self.phase.to_wire()]).expect("vec write");
        write_field(&mut out, S_GRAPH, self.graph.as_bytes()).expect("vec write");
        write_field(&mut out, S_ALGORITHM, self.algorithm.as_bytes()).expect("vec write");
        write_field(&mut out, S_MEM_ESTIMATE, &self.mem_estimate.to_le_bytes()).expect("vec write");
        write_field(&mut out, S_RETRIES, &self.retries.to_le_bytes()).expect("vec write");
        write_field(&mut out, S_PRIORITY, &self.priority.to_le_bytes()).expect("vec write");
        write_field(&mut out, S_CLIENT_ID, self.client_id.as_bytes()).expect("vec write");
        out
    }

    /// Decodes a status; unknown fields are skipped.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let fields = split_version("JobStatus", bytes)?;
        let mut st = JobStatus {
            id: 0,
            phase: JobPhase::Queued,
            graph: String::new(),
            algorithm: String::new(),
            mem_estimate: 0,
            retries: 0,
            priority: 0,
            client_id: String::new(),
        };
        for_each_field(fields, |id, payload| {
            match id {
                S_ID => st.id = Cur::new(payload).u64()?,
                S_PHASE => st.phase = JobPhase::from_wire(Cur::new(payload).u8()?)?,
                S_GRAPH => st.graph = utf8(payload)?,
                S_ALGORITHM => st.algorithm = utf8(payload)?,
                S_MEM_ESTIMATE => st.mem_estimate = Cur::new(payload).u64()?,
                S_RETRIES => st.retries = Cur::new(payload).u32()?,
                S_PRIORITY => st.priority = Cur::new(payload).u32()? as i32,
                S_CLIENT_ID => st.client_id = utf8(payload)?,
                _ => {}
            }
            Ok(())
        })?;
        Ok(st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec::new("web", "pagerank")
            .with_param("iters", 10)
            .with_param("root", 3)
            .with_mem_estimate(1 << 20)
            .with_max_retries(2)
            .with_priority(-5)
            .with_client_id("analytics")
    }

    #[test]
    fn jobspec_roundtrip() {
        let s = spec();
        assert_eq!(JobSpec::decode(&s.encode()).unwrap(), s);
        // defaults encode compactly and still roundtrip
        let d = JobSpec::new("g", "wcc");
        assert_eq!(JobSpec::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn jobspec_negative_priority_survives() {
        let s = JobSpec::new("g", "bfs").with_priority(i32::MIN);
        assert_eq!(JobSpec::decode(&s.encode()).unwrap().priority, i32::MIN);
    }

    #[test]
    fn decode_skips_unknown_fields() {
        // a "future" sender appends a field id we do not know
        let mut bytes = spec().encode();
        write_field(&mut bytes, 200, b"from the future").unwrap();
        assert_eq!(JobSpec::decode(&bytes).unwrap(), spec());
    }

    #[test]
    fn decode_tolerates_newer_version_byte() {
        let mut bytes = spec().encode();
        bytes[0] = JOB_WIRE_VERSION + 7;
        assert_eq!(JobSpec::decode(&bytes).unwrap(), spec());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(JobSpec::decode(&[]).is_err());
        assert!(JobSpec::decode(&[0]).is_err()); // version 0
                                                 // truncated field payload
        let mut bytes = spec().encode();
        bytes.truncate(bytes.len() - 1);
        assert!(JobSpec::decode(&bytes).is_err());
        // missing required fields
        assert!(JobSpec::decode(&[JOB_WIRE_VERSION]).is_err());
    }

    /// A params key whose length prefix claims more than the message holds
    /// (here: far more than any machine holds) is a protocol error, not an
    /// allocation — this arrives on the client control socket.
    #[test]
    fn hostile_params_key_length_is_a_protocol_error() {
        for claimed in [u64::MAX, 1 << 40] {
            let mut params = Vec::new();
            write_u32(&mut params, 1).unwrap(); // one entry…
            write_u64(&mut params, claimed).unwrap(); // …whose key is "huge"
            params.extend_from_slice(b"k");
            let mut bytes = JobSpec::new("g", "wcc").encode();
            write_field(&mut bytes, F_PARAMS, &params).unwrap();
            assert!(
                matches!(JobSpec::decode(&bytes), Err(DfoError::Protocol(_))),
                "key length {claimed}"
            );
        }
    }

    #[test]
    fn jobstatus_roundtrip() {
        let st = JobStatus {
            id: 42,
            phase: JobPhase::Cancelled,
            graph: "web".into(),
            algorithm: "sssp".into(),
            mem_estimate: 12345,
            retries: 3,
            priority: 9,
            client_id: "c1".into(),
        };
        let back = JobStatus::decode(&st.encode()).unwrap();
        assert_eq!(back.id, 42);
        assert_eq!(back.phase, JobPhase::Cancelled);
        assert_eq!(back.graph, "web");
        assert_eq!(back.algorithm, "sssp");
        assert_eq!(back.mem_estimate, 12345);
        assert_eq!(back.retries, 3);
        assert_eq!(back.priority, 9);
        assert_eq!(back.client_id, "c1");
    }

    #[test]
    fn phase_terminality() {
        assert!(!JobPhase::Queued.is_terminal());
        assert!(!JobPhase::Running.is_terminal());
        assert!(JobPhase::Done.is_terminal());
        assert!(JobPhase::Failed.is_terminal());
        assert!(JobPhase::Cancelled.is_terminal());
    }
}
