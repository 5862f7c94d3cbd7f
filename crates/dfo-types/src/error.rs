//! Error type shared across the workspace.

use std::fmt;

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, DfoError>;

/// Errors surfaced by the DFOGraph substrates and engine.
#[derive(Debug)]
pub enum DfoError {
    /// Underlying I/O failure, annotated with the operation context.
    Io { context: String, source: std::io::Error },
    /// A persisted structure failed validation when read back.
    Corrupt(String),
    /// Invalid configuration detected at startup.
    Config(String),
    /// The cluster network was shut down while an operation was pending.
    NetClosed(String),
    /// Mesh bootstrap failed: a peer could not be dialed, timed out, or
    /// presented a bad handshake.
    Handshake(String),
    /// Recovery was requested but no committed checkpoint exists.
    NoCheckpoint(String),
    /// A node program panicked (a bug in user code, not a mesh failure):
    /// deterministic, so never retried by supervised recovery.
    Panic(String),
    /// The job was cancelled cooperatively: every rank observed the cancel
    /// token at the same `Process`-call boundary and unwound together, so
    /// on-disk array state is the consistent state of the last committed
    /// call. Never retried.
    Cancelled(String),
    /// A remote peer spoke the job-control protocol wrong: bad magic,
    /// unsupported wire version, an undecodable message, or a reply that
    /// does not fit the request. Deterministic (resending the same bytes
    /// replays it), so never retried.
    Protocol(String),
    /// A supervised run (or its supervisor) recovered from mesh failures
    /// until the restart budget ran out; `last` is the failure that broke
    /// the camel's back.
    RestartsExhausted {
        /// Recoveries attempted before giving up.
        attempts: u32,
        /// The final underlying failure.
        last: Box<DfoError>,
    },
}

impl DfoError {
    /// Wraps an I/O error with context.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        DfoError::Io { context: context.into(), source }
    }

    /// Whether a fresh attempt could plausibly succeed: mesh failures
    /// (`NetClosed`, `Handshake`) are environmental and transient, and an
    /// exhausted restart budget is retryable when its underlying failure
    /// is. Deterministic failures (panics, corruption, bad config,
    /// cooperative cancellation) are not — retrying replays the bug.
    pub fn is_retryable(&self) -> bool {
        match self {
            DfoError::NetClosed(_) | DfoError::Handshake(_) => true,
            DfoError::RestartsExhausted { last, .. } => last.is_retryable(),
            _ => false,
        }
    }

    /// The [`DfoError::NetClosed`] a rank gets *because a peer died*: a
    /// poisoned collective, a closed channel. [`gather_ranks`] tells it
    /// from a `NetClosed` a rank raised itself (an injected crash, a
    /// deliberate mesh failure), which is the cause.
    pub fn peer_died(what: impl fmt::Display) -> Self {
        DfoError::NetClosed(format!("{PEER_DIED}{what}"))
    }

    /// Whether this error was made by [`DfoError::peer_died`].
    fn is_peer_died(&self) -> bool {
        matches!(self, DfoError::NetClosed(m) if m.starts_with(PEER_DIED))
    }

    /// The error a caught panic stands for: always the non-retryable
    /// [`DfoError::Panic`], naming who panicked and the panic's message.
    /// Collectives and every other engine path return failure as a value,
    /// so whatever unwinds is a bug, never a mesh failure.
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>, who: &str) -> Self {
        let msg = payload.downcast_ref::<String>().map(String::as_str);
        let msg = msg.or_else(|| payload.downcast_ref::<&str>().copied());
        DfoError::Panic(format!("{who}: {}", msg.unwrap_or("<non-string panic>")))
    }
}

impl fmt::Display for DfoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfoError::Io { context, source } => write!(f, "I/O error during {context}: {source}"),
            DfoError::Corrupt(m) => write!(f, "corrupt on-disk structure: {m}"),
            DfoError::Config(m) => write!(f, "invalid configuration: {m}"),
            DfoError::NetClosed(m) => write!(f, "network closed: {m}"),
            DfoError::Handshake(m) => write!(f, "cluster bootstrap failed: {m}"),
            DfoError::NoCheckpoint(m) => write!(f, "no checkpoint available: {m}"),
            DfoError::Panic(m) => write!(f, "node program panicked: {m}"),
            DfoError::Cancelled(m) => write!(f, "job cancelled: {m}"),
            DfoError::Protocol(m) => write!(f, "job-control protocol violation: {m}"),
            DfoError::RestartsExhausted { attempts, last } => {
                write!(f, "restart budget exhausted after {attempts} recoveries: {last}")
            }
        }
    }
}

impl std::error::Error for DfoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DfoError::Io { source, .. } => Some(source),
            DfoError::RestartsExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DfoError {
    fn from(e: std::io::Error) -> Self {
        DfoError::Io { context: "<unspecified>".into(), source: e }
    }
}

/// What every [`DfoError::peer_died`] message starts with.
const PEER_DIED: &str = "a peer died: ";

/// Folds the per-rank results of one SPMD run into the run's result: every
/// value in rank order, or the error that caused the failure. That is the
/// first error that is not [`DfoError::NetClosed`] — a failing rank poisons
/// the mesh, so its peers' `NetClosed` is the effect, not the cause — else
/// the first `NetClosed` a rank raised itself rather than got from a dead
/// peer ([`DfoError::peer_died`]), else the first error.
pub fn gather_ranks<T>(results: impl IntoIterator<Item = Result<T>>) -> Result<Vec<T>> {
    let mut errors = Vec::new();
    let values = results.into_iter().filter_map(|r| r.map_err(|e| errors.push(e)).ok()).collect();
    // `false` orders first, and the first of equal keys wins
    let effect = |e: &DfoError| (matches!(e, DfoError::NetClosed(_)), e.is_peer_died());
    errors.into_iter().min_by_key(effect).map_or(Ok(values), Err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = DfoError::io("writing chunk p0_b3", std::io::Error::other("disk full"));
        let s = e.to_string();
        assert!(s.contains("p0_b3"));
        assert!(s.contains("disk full"));
    }

    #[test]
    fn restarts_exhausted_chains_source() {
        let e = DfoError::RestartsExhausted {
            attempts: 3,
            last: Box::new(DfoError::NetClosed("peer gone".into())),
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains("peer gone"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn retryability_follows_failure_class() {
        assert!(DfoError::NetClosed("peer gone".into()).is_retryable());
        assert!(DfoError::Handshake("timed out".into()).is_retryable());
        assert!(!DfoError::Panic("bug".into()).is_retryable());
        assert!(!DfoError::Corrupt("bad crc".into()).is_retryable());
        assert!(!DfoError::Cancelled("user".into()).is_retryable());
        let retryable = DfoError::RestartsExhausted {
            attempts: 2,
            last: Box::new(DfoError::NetClosed("peer gone".into())),
        };
        assert!(retryable.is_retryable());
        let deterministic = DfoError::RestartsExhausted {
            attempts: 2,
            last: Box::new(DfoError::Panic("bug".into())),
        };
        assert!(!deterministic.is_retryable());
    }

    #[test]
    fn every_caught_panic_is_a_non_retryable_panic() {
        // `panic!` throws a `&str` or a `String`; a typed payload is not unpacked
        let typed = DfoError::NetClosed("peer gone".into());
        let payloads: [Box<dyn std::any::Any + Send>; 3] =
            [Box::new("bug"), Box::new(format!("bug {}", 2)), Box::new(typed)];
        for (p, want) in payloads.into_iter().zip(["bug", "bug 2", "<non-string panic>"]) {
            let e = DfoError::from_panic(p, "rank 1");
            assert!(matches!(&e, DfoError::Panic(m) if *m == format!("rank 1: {want}")), "{e}");
        }
    }

    #[test]
    fn the_cause_wins_over_its_effects() {
        let died = || Err(DfoError::peer_died("cluster collective poisoned"));
        let own = || Err(DfoError::NetClosed("injected crash".into()));
        let corrupt = || Err(DfoError::Corrupt("bad block".into()));
        let run = |rs: Vec<Result<u8>>| format!("{:?}", gather_ranks(rs).unwrap_err());
        assert!(run(vec![died(), own(), corrupt()]).contains("bad block"));
        assert!(run(vec![died(), own(), Ok(1)]).contains("injected crash"));
        assert!(run(vec![died(), died()]).contains("a peer died: cluster"));
        assert_eq!(gather_ranks(vec![Ok(1), Ok(2)]).unwrap(), [1, 2]);
        assert!(DfoError::peer_died("x").is_retryable() && !own().unwrap_err().is_peer_died());
    }

    #[test]
    fn from_io_error() {
        let e: DfoError = std::io::Error::new(std::io::ErrorKind::NotFound, "x").into();
        assert!(matches!(e, DfoError::Io { .. }));
    }
}
