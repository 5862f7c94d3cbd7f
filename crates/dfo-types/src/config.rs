//! Engine and cluster configuration.
//!
//! Defaults follow the paper: seek-cost parameter γ = 1024 (§4.1), filter
//! skip threshold `|L|/|M| ≥ 2` (§4.3), inter-node balance weight
//! α = 2P − 1 (§2.2). A field exists only if a deployment, a test or a
//! paper-table bench sets it; values nobody turns are constants next to
//! the code that uses them.

use crate::ids::Rank;

/// How intra-node vertex batch sizes are chosen (paper §2.2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BatchPolicy {
    /// Fixed number of vertices per batch.
    FixedVertices(u64),
    /// Fully-out-of-core rule: pick the largest batch such that
    /// `batch_bytes × threads ≤ mem_budget / 2`, where `batch_bytes` is the
    /// per-batch footprint of the widest registered vertex array.
    FullyOutOfCore { widest_vertex_bytes: u64 },
    /// Semi-out-of-core rule of thumb: at least `1.5 × threads` batches per
    /// partition (the engine rounds to whole batches).
    SemiOutOfCore,
}

/// Where inside a `Process` call's commit sequence a [`CrashPoint`] fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CrashPos {
    /// Before any array of the call has committed (the historical
    /// `DFO_CRASH_AT` behaviour): the whole call is lost.
    #[default]
    Pre,
    /// After the first array of the call has committed but before the rest
    /// (and before the per-call commit record is written) — the torn-call
    /// window the commit record exists to close.
    Mid,
}

/// A deterministic fault-injection point: abort this process at a precise
/// position of the `call`-th `Process` call's commit sequence (counting
/// `ProcessVertices` and `ProcessEdges` commits on this rank from 0),
/// optionally only on one rank and only at one mesh epoch. Kill tests use
/// schedules of these to die at *precise commit boundaries* instead of
/// relying on timing; see [`EngineConfig::apply_env_overrides`] for the
/// `DFO_CRASH_AT` syntax.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPoint {
    /// Zero-based index of the `Process` call whose commit is interrupted.
    pub call: u64,
    /// Restrict the crash to one rank; `None` crashes every rank that
    /// reaches the call (useful only in single-rank setups).
    pub rank: Option<Rank>,
    /// Position within the call's commit sequence.
    pub pos: CrashPos,
    /// Restrict the crash to one mesh epoch; `None` fires in any epoch.
    /// Since relaunched ranks resume their call counter from zero, an
    /// epoch qualifier is how a schedule injects a *second* kill into an
    /// already-recovered run.
    pub epoch: Option<u64>,
}

impl CrashPoint {
    /// A plain pre-commit crash at `call` on every rank, any epoch — the
    /// historical single-point behaviour.
    pub fn at(call: u64) -> Self {
        CrashPoint { call, rank: None, pos: CrashPos::Pre, epoch: None }
    }

    /// Parses one `DFO_CRASH_AT` point: `<call>[.pre|.mid][:<rank>][@<epoch>]`.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.is_empty() {
            return None;
        }
        let (s, epoch) = match s.rsplit_once('@') {
            Some((rest, e)) => (rest, Some(e.trim().parse().ok()?)),
            None => (s, None),
        };
        let (s, rank) = match s.split_once(':') {
            Some((rest, r)) => (rest, Some(r.trim().parse().ok()?)),
            None => (s, None),
        };
        let (s, pos) = match s.split_once('.') {
            Some((rest, p)) => (
                rest,
                match p.trim() {
                    "pre" => CrashPos::Pre,
                    "mid" => CrashPos::Mid,
                    _ => return None,
                },
            ),
            None => (s, CrashPos::Pre),
        };
        Some(CrashPoint { call: s.trim().parse().ok()?, rank, pos, epoch })
    }

    /// Parses a comma-separated schedule of points; `None` if any point is
    /// malformed (an empty string parses to an empty schedule).
    pub fn parse_schedule(s: &str) -> Option<Vec<Self>> {
        s.split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(CrashPoint::parse)
            .collect::<Option<Vec<_>>>()
    }
}

/// Forces a particular intra-node message dispatching strategy (§4.2);
/// `None` in [`EngineConfig::dispatch_override`] keeps the adaptive choice.
/// The paper's third strategy, pull, is not implemented: its only advantage
/// over push is that the first batches can start before dispatching ends,
/// and this engine barriers between dispatching and processing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchKind {
    /// One scan of the incoming messages appends to every destination batch
    /// file (low CPU, high latency — batches start only after the scan).
    Push,
    /// Batches read the undispatched message buffer directly.
    None,
}

/// Forces a particular edge-chunk representation at access time (§4.1);
/// `None` keeps the adaptive cost-model choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReprKind {
    Csr,
    Dcsr,
}

/// Full configuration of a DFOGraph cluster run.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Number of (simulated) nodes `P`.
    pub nodes: usize,
    /// Worker threads per node (`T` in the paper; 12 on i3en.3xlarge).
    pub threads_per_node: usize,
    /// Memory budget per node in bytes; drives the fully-out-of-core batch
    /// sizing rule, and its other half is the one pool within which
    /// vertex-array blocks stay resident (with checkpointing off written
    /// back once per job, with it on written through), `ProcessEdges`
    /// messages stay in memory instead of scratch files, and filter lists
    /// are held for the job.
    pub mem_budget: u64,
    /// Intra-node batch size policy.
    pub batch_policy: BatchPolicy,
    /// Seek-vs-scan cost parameter γ: one CSR seek costs as much as scanning
    /// γ DCSR entries.
    pub gamma: u64,
    /// Skip filtering to node j when `|L_ij| / |M_i| ≥ filter_skip_ratio`.
    pub filter_skip_ratio: f64,
    /// Inter-node balance weight; `None` means the default `2P − 1`.
    pub alpha: Option<u64>,
    /// Simulated sequential disk bandwidth per node, bytes/s (`None` =
    /// unthrottled). The paper's testbed: 2 GB/s NVMe.
    pub disk_bw: Option<u64>,
    /// Simulated network bandwidth per node (each direction), bytes/s
    /// (`None` = unthrottled). The paper's testbed: 25 Gbps.
    pub net_bw: Option<u64>,
    /// Enables copy-on-write checkpointing of vertex arrays (§3.2); each
    /// array retains the committed epoch and the one before.
    pub checkpointing: bool,
    /// Disables intra-node batching (Table 6 ablation): one batch per
    /// partition, whose vertex arrays are 4 KiB pages in the block store,
    /// checked out one at a time within the same resident-block share of
    /// `mem_budget` (and checkpointed like any array).
    pub batching_enabled: bool,
    /// Disables inter-node message filtering (§4.3 ablation).
    pub filtering_enabled: bool,
    /// Forces a dispatch strategy instead of the adaptive choice.
    pub dispatch_override: Option<DispatchKind>,
    /// Forces an edge representation instead of the adaptive choice.
    pub repr_override: Option<ReprKind>,
    /// Records disk/network traffic time series (Figure 5); off by default
    /// because sampling adds a lock per transfer.
    pub record_traffic: bool,
    /// Memory budget in bytes for the cache of decoded edge chunks and
    /// dispatching graphs shared across `ProcessEdges` calls and concurrent
    /// jobs (bytes, not entries). A chunk is read and decoded when a worker
    /// first needs it, then reused until evicted. `0` — the default —
    /// allocates no cache: every call reads its chunks again, the
    /// fully-out-of-core behaviour.
    pub chunk_cache_bytes: u64,
    /// Write preprocessed edge chunks and dispatching graphs through the
    /// checksummed LZ4 block framing (GraphMP-style), shrinking cold reads
    /// and preprocessing output at a small decode cost. On by default;
    /// `false` reproduces the uncompressed on-disk layout byte-for-byte.
    /// Readers auto-detect the format, so flipping this only affects newly
    /// preprocessed data. The §4.1 CSR seek mode works either way: the
    /// container's block directory lets a positioned read fetch and decode
    /// just the blocks it needs.
    pub compress_chunks: bool,
    /// Peer socket addresses (`host:port`, one per rank, index = rank) for
    /// the multi-process TCP transport used by `run_distributed`; `None`
    /// keeps the in-process channel transport. See
    /// [`EngineConfig::apply_env_overrides`] for the `DFO_PEERS` override.
    pub peers: Option<Vec<String>>,
    /// Seconds each rank waits for the full TCP mesh at bootstrap.
    pub connect_timeout_secs: u64,
    /// Mesh epoch this rank asks to bootstrap at (§3.2 checkpoint-restart):
    /// the TCP handshake carries it and connections from a different epoch
    /// are rejected, so sockets of a dead incarnation can never join the
    /// rebuilt mesh. The mesh joins at the larger of this and the epoch
    /// published in `epoch_file`, and moves on by itself on every relaunch;
    /// relaunched processes receive theirs via the `DFO_EPOCH` override.
    pub epoch: u64,
    /// How many times a rank may relaunch its mesh after a mesh failure —
    /// a supervised batch run (`Cluster::run_supervised`) and the service
    /// daemon alike — before giving up (0 = fail on the first one, the
    /// fail-stop behaviour). `DFO_MAX_RESTARTS` overrides.
    pub max_restarts: u32,
    /// Deterministic fault injection: a schedule of points at which this
    /// process aborts inside a `Process`-call commit sequence. Empty (the
    /// default) injects nothing. `DFO_CRASH_AT` overrides with a
    /// comma-separated `<call>[.pre|.mid][:<rank>][@<epoch>]` list.
    pub crash_schedule: Vec<CrashPoint>,
    /// Path of the supervisor-published epoch file: an atomically-rewritten
    /// decimal mesh epoch that is the single authority under overlapping
    /// failures. A rank reads it when it connects its mesh and again on
    /// every relaunch, so every party converges on the same epoch
    /// regardless of how many ranks died in the window. `None` (the
    /// default, and the value for unsupervised runs) keeps the local
    /// bump-by-one scheme. `DFO_EPOCH_FILE` overrides (empty value
    /// disables).
    pub epoch_file: Option<String>,
    /// Span-trace output path. When set, every rank records pipeline-phase
    /// / collective / storage spans into a bounded flight recorder and the
    /// run ends by writing one merged timeline here — Chrome `trace_event`
    /// JSON (Perfetto-loadable) unless the path ends in `.jsonl`. `None`
    /// (the default) disables tracing entirely. `DFO_TRACE` overrides
    /// (empty value disables).
    pub trace_path: Option<String>,
    /// `host:port` bind address for the metrics scrape endpoint
    /// (`dfo-service`): Prometheus text at `GET /metrics`, a JSON snapshot
    /// at `GET /metrics.json`. Port `0` binds an ephemeral port (the
    /// service reports the actual one). `None` (the default) serves
    /// nothing. `DFO_METRICS_ADDR` overrides (empty value disables).
    pub metrics_addr: Option<String>,
    /// `host:port` bind address of the rank-0 **job-control listener** in
    /// daemon mode (`dfo-service`): remote `DfoClient`s connect here to
    /// submit [`crate::JobSpec`]s to the resident mesh. Port `0` binds an
    /// ephemeral port. `None` (the default) serves no remote clients.
    /// `DFO_CONTROL_ADDR` overrides (empty value disables). Only rank 0
    /// reads it.
    pub control_addr: Option<String>,
}

impl EngineConfig {
    /// A small-footprint configuration suitable for tests: `nodes` ranks,
    /// two worker threads each, unthrottled I/O, checkpointing off.
    pub fn for_test(nodes: usize) -> Self {
        Self {
            nodes,
            threads_per_node: 2,
            mem_budget: 64 << 20,
            batch_policy: BatchPolicy::FixedVertices(64),
            gamma: 1024,
            filter_skip_ratio: 2.0,
            alpha: None,
            disk_bw: None,
            net_bw: None,
            checkpointing: false,
            batching_enabled: true,
            filtering_enabled: true,
            dispatch_override: None,
            repr_override: None,
            record_traffic: false,
            chunk_cache_bytes: 0,
            compress_chunks: true,
            peers: None,
            connect_timeout_secs: 30,
            epoch: 0,
            max_restarts: 0,
            crash_schedule: Vec::new(),
            epoch_file: None,
            trace_path: None,
            metrics_addr: None,
            control_addr: None,
        }
    }

    /// Rank of this process from the `DFO_RANK` environment variable (the
    /// conventional way a launcher differentiates otherwise-identical
    /// worker processes).
    pub fn env_rank() -> Option<Rank> {
        env("DFO_RANK")?.trim().parse().ok()
    }

    /// Applies every `DFO_*` environment override in place — **the single
    /// place the workspace reads engine environment variables** (only
    /// [`EngineConfig::env_rank`] sits outside it, because a rank identifies
    /// a process, not a configuration).
    ///
    /// Recognized variables:
    ///
    /// * `DFO_PEERS` — comma-separated `host:port` list (one per rank, in
    ///   rank order); switches the config to the TCP transport and sets the
    ///   node count to match.
    /// * `DFO_EPOCH` — mesh bootstrap epoch (a supervisor passes it to
    ///   relaunched ranks).
    /// * `DFO_MAX_RESTARTS` — bounds supervised recoveries.
    /// * `DFO_CRASH_AT` — comma-separated crash schedule, each point
    ///   `<call>[.pre|.mid][:<rank>][@<epoch>]`: abort at that
    ///   `Process`-call commit, `pre` (default) before any array commits,
    ///   `mid` between the first and second array commit; optional rank and
    ///   mesh-epoch qualifiers (empty value disables).
    /// * `DFO_EPOCH_FILE=<path>` — supervisor-published epoch file re-read
    ///   between recovery attempts (empty value disables).
    /// * `DFO_TRACE=<path>` — span-trace output path (Chrome `trace_event`
    ///   JSON, or JSONL when the path ends in `.jsonl`); empty disables.
    /// * `DFO_METRICS_ADDR=<host:port>` — bind address of the service
    ///   metrics scrape endpoint; empty disables.
    /// * `DFO_CONTROL_ADDR=<host:port>` — bind address of the rank-0
    ///   job-control listener in daemon mode; empty disables.
    ///
    /// A value that fails to parse warns on stderr and keeps the configured
    /// value rather than silently changing behaviour.
    pub fn apply_env_overrides(&mut self) {
        if let Some(s) = env("DFO_PEERS") {
            let peers: Vec<String> =
                s.split(',').map(|x| x.trim().to_string()).filter(|x| !x.is_empty()).collect();
            if !peers.is_empty() {
                self.nodes = peers.len();
                self.peers = Some(peers);
            }
        }
        if let Some(s) = env("DFO_EPOCH") {
            match s.trim().parse::<u64>() {
                Ok(e) => self.epoch = e,
                Err(_) => {
                    eprintln!("DFO_EPOCH={s:?} is not an integer; keeping epoch = {}", self.epoch)
                }
            }
        }
        if let Some(s) = env("DFO_MAX_RESTARTS") {
            match s.trim().parse::<u32>() {
                Ok(n) => self.max_restarts = n,
                Err(_) => eprintln!(
                    "DFO_MAX_RESTARTS={s:?} is not an integer; keeping max_restarts = {}",
                    self.max_restarts
                ),
            }
        }
        if let Some(s) = env("DFO_CRASH_AT") {
            if s.trim().is_empty() {
                self.crash_schedule.clear(); // explicit disable (supervisor relaunch)
            } else {
                match CrashPoint::parse_schedule(&s) {
                    Some(sched) => self.crash_schedule = sched,
                    None => eprintln!(
                        "DFO_CRASH_AT={s:?} is not a comma-separated \
                         <call>[.pre|.mid][:<rank>][@<epoch>] list; keeping crash_schedule = {:?}",
                        self.crash_schedule
                    ),
                }
            }
        }
        for (name, field) in [
            ("DFO_EPOCH_FILE", &mut self.epoch_file),
            ("DFO_TRACE", &mut self.trace_path),
            ("DFO_METRICS_ADDR", &mut self.metrics_addr),
            ("DFO_CONTROL_ADDR", &mut self.control_addr),
        ] {
            if let Some(s) = env(name) {
                let s = s.trim();
                *field = (!s.is_empty()).then(|| s.to_string());
            }
        }
    }

    /// Effective α: configured value or the paper default `2P − 1`.
    pub fn effective_alpha(&self) -> u64 {
        self.alpha.unwrap_or(2 * self.nodes as u64 - 1)
    }

    /// Sanity-checks invariants and the shape of values that arrive from
    /// outside the program (environment, launcher); `Cluster::create`,
    /// `preprocess` and the service executor all call it before using a
    /// config.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("cluster must have at least one node".into());
        }
        if self.threads_per_node == 0 {
            return Err("threads_per_node must be positive".into());
        }
        if self.mem_budget == 0 {
            return Err("mem_budget must be positive (batch sizing and job admission \
                 control divide the budget)"
                .into());
        }
        if self.filter_skip_ratio <= 0.0 {
            return Err("filter_skip_ratio must be positive".into());
        }
        if let Some(peers) = &self.peers {
            if peers.len() != self.nodes {
                return Err(format!(
                    "peer list has {} addresses for {} nodes (need one per rank)",
                    peers.len(),
                    self.nodes
                ));
            }
        }
        let peers = self.peers.iter().flatten().map(|a| ("peer", a));
        let listeners = [("metrics", &self.metrics_addr), ("control", &self.control_addr)]
            .into_iter()
            .filter_map(|(what, a)| Some((what, a.as_ref()?)));
        for (what, addr) in peers.chain(listeners) {
            let ok = addr
                .rsplit_once(':')
                .is_some_and(|(host, port)| !host.is_empty() && port.parse::<u16>().is_ok());
            if !ok {
                return Err(format!(
                    "{what} address {addr:?} is not host:port with a numeric port"
                ));
            }
        }
        Ok(())
    }

    /// Round-robin send order for node `i`: `i+1, …, P−1, 0, …, i−1` (§4.4).
    pub fn send_order(&self, i: Rank) -> Vec<Rank> {
        (1..self.nodes).map(|d| (i + d) % self.nodes).collect()
    }

    /// Receive/process order for node `i`: `i−1, …, 0, P−1, …, i+1` (§4.5) —
    /// the mirror of [`EngineConfig::send_order`], so that every (sender,
    /// receiver) pair agrees on when their transfer happens.
    pub fn recv_order(&self, i: Rank) -> Vec<Rank> {
        (1..self.nodes).map(|d| (i + self.nodes - d) % self.nodes).collect()
    }
}

/// Every `DFO_*` variable the workspace reads: [`EngineConfig::env_rank`]
/// the first, [`EngineConfig::apply_env_overrides`] the rest. All reads go
/// through [`env`], which refuses names missing here, and a unit test checks
/// that the README documents each one.
const ENV_VARS: [&str; 9] = [
    "DFO_RANK",
    "DFO_PEERS",
    "DFO_EPOCH",
    "DFO_MAX_RESTARTS",
    "DFO_CRASH_AT",
    "DFO_EPOCH_FILE",
    "DFO_TRACE",
    "DFO_METRICS_ADDR",
    "DFO_CONTROL_ADDR",
];

fn env(name: &str) -> Option<String> {
    assert!(ENV_VARS.contains(&name), "{name} is not listed in ENV_VARS");
    std::env::var(name).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_cache_defaults_off_and_compression_on() {
        let c = EngineConfig::for_test(2);
        assert_eq!(c.chunk_cache_bytes, 0);
        assert!(c.compress_chunks);
    }

    #[test]
    fn alpha_default_is_2p_minus_1() {
        let mut c = EngineConfig::for_test(8);
        assert_eq!(c.effective_alpha(), 15);
        c.alpha = Some(3);
        assert_eq!(c.effective_alpha(), 3);
    }

    #[test]
    fn send_and_recv_orders_mirror() {
        let c = EngineConfig::for_test(4);
        assert_eq!(c.send_order(1), vec![2, 3, 0]);
        assert_eq!(c.recv_order(1), vec![0, 3, 2]);
        // pairing property: if i sends to j at step k, j receives from i at
        // step k (both sides use distance-k neighbours).
        for i in 0..4 {
            let s = c.send_order(i);
            for (k, &j) in s.iter().enumerate() {
                assert_eq!(c.recv_order(j)[k], i);
            }
        }
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = EngineConfig::for_test(2);
        c.nodes = 0;
        assert!(c.validate().is_err());
        let mut c = EngineConfig::for_test(2);
        c.threads_per_node = 0;
        assert!(c.validate().is_err());
        assert!(EngineConfig::for_test(2).validate().is_ok());
    }

    #[test]
    fn validation_rejects_zero_mem_budget() {
        let mut c = EngineConfig::for_test(1);
        c.mem_budget = 0;
        let err = c.validate().unwrap_err();
        assert!(err.contains("mem_budget"), "{err}");
    }

    #[test]
    fn validation_rejects_malformed_peers() {
        let mut c = EngineConfig::for_test(2);
        for bad in ["127.0.0.1", "127.0.0.1:port", ":7000", "host:", ""] {
            c.peers = Some(vec![bad.to_string(), "127.0.0.1:7001".into()]);
            let err = c.validate().unwrap_err();
            assert!(err.contains("host:port"), "{bad}: {err}");
        }
        c.peers = Some(vec!["127.0.0.1:7000".into()]);
        assert!(c.validate().is_err(), "one address for two ranks");
        c.peers = Some(vec!["127.0.0.1:7000".into(), "node1:7000".into()]);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_checks_listener_addr_shape() {
        let mut c = EngineConfig::for_test(1);
        c.metrics_addr = Some("nonsense".into());
        let err = c.validate().unwrap_err();
        assert!(err.contains("metrics") && err.contains("host:port"), "{err}");
        c.metrics_addr = Some("127.0.0.1:0".into());
        c.control_addr = Some("127.0.0.1:".into());
        let err = c.validate().unwrap_err();
        assert!(err.contains("control") && err.contains("host:port"), "{err}");
        c.control_addr = Some("127.0.0.1:0".into());
        assert!(c.validate().is_ok());
    }

    /// Every variable the engine reads is listed in `ENV_VARS` (`env`
    /// panics otherwise) and documented in the README, so the next env var
    /// cannot land undocumented.
    #[test]
    fn every_env_var_is_documented() {
        // exercises every `env` call: no DFO_* variable is set under
        // `cargo test`, so the config round-trips
        let mut c = EngineConfig::for_test(2);
        c.apply_env_overrides();
        assert_eq!((c.nodes, c.epoch, &c.peers), (2, 0, &None));
        assert_eq!(EngineConfig::env_rank(), None);

        let readme = include_str!("../../../README.md");
        for name in ENV_VARS {
            assert!(readme.contains(name), "{name} is not documented in README.md");
        }
    }

    #[test]
    fn crash_point_parsing() {
        assert_eq!(CrashPoint::parse("5"), Some(CrashPoint::at(5)));
        assert_eq!(
            CrashPoint::parse(" 9:1 "),
            Some(CrashPoint { rank: Some(1), ..CrashPoint::at(9) })
        );
        assert_eq!(
            CrashPoint::parse("7.mid:0@2"),
            Some(CrashPoint { call: 7, rank: Some(0), pos: CrashPos::Mid, epoch: Some(2) })
        );
        assert_eq!(
            CrashPoint::parse("3.pre@1"),
            Some(CrashPoint { epoch: Some(1), ..CrashPoint::at(3) })
        );
        assert_eq!(CrashPoint::parse("9:"), None);
        assert_eq!(CrashPoint::parse(":1"), None);
        assert_eq!(CrashPoint::parse("4.sideways"), None);
        assert_eq!(CrashPoint::parse("4@"), None);
        assert_eq!(CrashPoint::parse("x"), None);
        assert_eq!(CrashPoint::parse(""), None);
    }

    #[test]
    fn crash_schedule_parses_every_point() {
        let sched = vec![
            CrashPoint { call: 7, rank: Some(1), pos: CrashPos::Mid, epoch: None },
            CrashPoint { call: 2, rank: Some(0), pos: CrashPos::Pre, epoch: Some(1) },
            CrashPoint::at(14),
        ];
        assert_eq!(CrashPoint::parse_schedule("7.mid:1, 2:0@1,14"), Some(sched));
        assert_eq!(CrashPoint::parse_schedule(""), Some(vec![]));
        assert_eq!(CrashPoint::parse_schedule("1,bogus"), None);
    }

    #[test]
    fn telemetry_and_recovery_knobs_default_off() {
        let c = EngineConfig::for_test(2);
        assert_eq!(c.trace_path, None);
        assert_eq!(c.metrics_addr, None);
        assert_eq!(c.epoch, 0);
        assert_eq!(c.max_restarts, 0);
        assert!(c.crash_schedule.is_empty());
        assert_eq!(c.epoch_file, None);
    }
}
