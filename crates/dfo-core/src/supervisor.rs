//! Parent-side process supervision for distributed checkpoint-restart
//! (paper §3.2 layered over process relaunch).
//!
//! A [`Supervisor`] launches one OS process per rank and babysits them:
//! a rank that exits cleanly is done; a rank that dies (non-zero exit,
//! SIGKILL, SIGABRT from the fault-injection hook…) is **relaunched**
//! under the next mesh *epoch*. Inside each rank process the mesh
//! lifecycle of [`crate::ResidentMesh`] is the other half of the protocol
//! (see its module docs): survivors observe the failure as `NetClosed`,
//! relaunch their mesh at the next epoch, and meet the relaunched process
//! there, which received the same epoch via `DFO_EPOCH`.
//!
//! The supervisor is the **epoch authority** when
//! [`Supervisor::with_epoch_file`] names a file: it rewrites the file
//! atomically (temp + rename) each time it bumps, bumping **once per reap
//! pass** no matter how many ranks died in it; relaunched processes get the
//! published epoch via `DFO_EPOCH`, and survivors (told the file via
//! `DFO_EPOCH_FILE`) wait for the published value instead of guessing.
//!
//! Ranks that already *finished* are respawned alongside a relaunch: the
//! rebuilt mesh needs all ranks, and re-running a completed rank program
//! is idempotent — it recovers its final checkpoint, finds nothing left
//! to do, and rewrites identical output. Without this, a survivor that
//! finishes and exits while a peer is still relaunching would leave the
//! mesh forever one rank short.
//!
//! Child deaths are noticed by sweeping `try_wait` over the live children
//! every few milliseconds — no signal handler, nothing process-global, so
//! any number of supervisors can run in one process.

use dfo_types::{DfoError, Rank, Result};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus};
use std::time::{Duration, Instant};

/// Pause between reap passes (one `try_wait` per live child each).
const REAP_INTERVAL: Duration = Duration::from_millis(10);

/// What a rank process must be launched (or relaunched) as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankSpec {
    /// The rank to run.
    pub rank: Rank,
    /// Mesh epoch the process must bootstrap at (`DFO_EPOCH`).
    pub epoch: u64,
    /// 0 for the initial launch, incremented per relaunch of this rank.
    pub attempt: u32,
}

impl RankSpec {
    /// Applies the conventional environment to a [`Command`]: `DFO_RANK`,
    /// `DFO_PEERS`, `DFO_EPOCH`, `DFO_MAX_RESTARTS` and — when the
    /// supervisor publishes its epoch — `DFO_EPOCH_FILE` (all consumed by
    /// [`dfo_types::EngineConfig::apply_env_overrides`]). Relaunches also
    /// scrub any inherited `DFO_CRASH_AT` so a deterministic kill test
    /// crashes once, not on every incarnation (chaos harnesses that *want*
    /// repeated kills re-set the variable after this call and qualify
    /// their crash points with `@<epoch>`).
    pub fn configure(
        &self,
        cmd: &mut Command,
        peers: &[String],
        max_restarts: u32,
        epoch_file: Option<&str>,
    ) {
        cmd.env("DFO_RANK", self.rank.to_string())
            .env("DFO_PEERS", peers.join(","))
            .env("DFO_EPOCH", self.epoch.to_string())
            .env("DFO_MAX_RESTARTS", max_restarts.to_string());
        match epoch_file {
            Some(path) => cmd.env("DFO_EPOCH_FILE", path),
            None => cmd.env_remove("DFO_EPOCH_FILE"),
        };
        if self.attempt > 0 {
            cmd.env_remove("DFO_CRASH_AT");
        }
    }
}

/// What a completed supervision run looked like.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SuperviseReport {
    /// Total relaunches of *crashed* ranks across the run.
    pub restarts: u32,
    /// Every crash relaunch performed, as `(rank, epoch relaunched at)`.
    pub relaunches: Vec<(Rank, u64)>,
    /// Cleanly-finished ranks respawned so a recovering mesh could
    /// rebuild, as `(rank, epoch respawned at)`. These do not consume
    /// restart budget — the rank did not fail.
    pub respawns: Vec<(Rank, u64)>,
}

/// Relaunching process supervisor for a multi-process cluster; see the
/// module docs for the protocol it shares with the ranks'
/// [`crate::ResidentMesh`].
pub struct Supervisor {
    peers: Vec<String>,
    max_restarts: u32,
    deadline: Duration,
    epoch_file: Option<PathBuf>,
}

impl Supervisor {
    /// A supervisor for the mesh `peers` (one `host:port` per rank),
    /// allowing `max_restarts` relaunches in total before giving up.
    pub fn new(peers: Vec<String>, max_restarts: u32) -> Self {
        Self { peers, max_restarts, deadline: Duration::from_secs(300), epoch_file: None }
    }

    /// Caps the whole supervised job's wall-clock time (default 300 s); on
    /// expiry every child is killed and the run fails.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Publishes the mesh epoch to `path` (atomically rewritten decimal
    /// text), making this supervisor the epoch authority — required for
    /// recovery to converge when failures overlap. Pass the same path to
    /// the ranks via [`RankSpec::configure`] (it becomes `DFO_EPOCH_FILE`).
    pub fn with_epoch_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.epoch_file = Some(path.into());
        self
    }

    pub fn peers(&self) -> &[String] {
        &self.peers
    }

    pub fn max_restarts(&self) -> u32 {
        self.max_restarts
    }

    /// The published-epoch path as a string, in the shape
    /// [`RankSpec::configure`] wants.
    pub fn epoch_file(&self) -> Option<&str> {
        self.epoch_file.as_deref().and_then(|p| p.to_str())
    }

    /// Launches every rank via `spawn` and supervises until all exit
    /// cleanly, relaunching crashed ranks under incremented epochs.
    /// `spawn` builds and starts the process for a [`RankSpec`] — typically
    /// `Command::new(exe)` plus [`RankSpec::configure`] plus whatever
    /// job-specific environment the workers need.
    pub fn run(
        &self,
        mut spawn: impl FnMut(&RankSpec) -> std::io::Result<Child>,
    ) -> Result<SuperviseReport> {
        // a rank is in exactly one state: Some(child) running, or None —
        // not launched yet, or finished cleanly until a recovery respawns it
        let mut children: Vec<Option<Child>> = self.peers.iter().map(|_| None).collect();
        let out = self.supervise(&mut children, &mut spawn);
        // however the run ended, no child outlives it (all reaped on success)
        for mut c in children.iter_mut().filter_map(Option::take) {
            let _ = c.kill();
            let _ = c.wait();
        }
        out
    }

    fn supervise(
        &self,
        children: &mut [Option<Child>],
        spawn: &mut dyn FnMut(&RankSpec) -> std::io::Result<Child>,
    ) -> Result<SuperviseReport> {
        let p = children.len();
        let mut epoch = 0u64;
        self.publish_epoch(epoch)?;
        let mut report = SuperviseReport::default();
        let mut attempts = vec![0u32; p];
        let mut launch = |children: &mut [Option<Child>], rank: Rank, epoch: u64, what: &str| {
            let spec = RankSpec { rank, epoch, attempt: attempts[rank] };
            attempts[rank] += 1;
            children[rank] =
                Some(spawn(&spec).map_err(|e| DfoError::io(format!("{what} rank {rank}"), e))?);
            Ok::<(), DfoError>(())
        };
        for rank in 0..p {
            launch(children, rank, epoch, "launching")?;
        }
        let mut done = vec![false; p];
        let deadline = Instant::now() + self.deadline;
        let mut dead: Vec<(Rank, ExitStatus)> = Vec::new();
        loop {
            // one reap pass: sweep every child until a sweep finds no new
            // death, collecting them all before deciding anything, so
            // deaths at the same boundary (a few ms apart) share one epoch
            // bump and no rank is relaunched at an epoch already left behind
            let seen = dead.len();
            for rank in 0..p {
                let Some(child) = children[rank].as_mut() else { continue };
                let status = child
                    .try_wait()
                    .map_err(|e| DfoError::io(format!("waiting on rank {rank}"), e))?;
                let Some(st) = status else { continue };
                children[rank] = None;
                if st.success() {
                    done[rank] = true;
                } else {
                    dead.push((rank, st));
                }
            }
            if dead.len() > seen {
                std::thread::sleep(REAP_INTERVAL);
                continue;
            }
            if !dead.is_empty() {
                if report.restarts + dead.len() as u32 > self.max_restarts {
                    let names: Vec<String> =
                        dead.iter().map(|(r, st)| format!("rank {r} ({st})")).collect();
                    return Err(DfoError::RestartsExhausted {
                        attempts: report.restarts,
                        last: Box::new(DfoError::NetClosed(format!(
                            "{} died with no restart budget left",
                            names.join(", ")
                        ))),
                    });
                }
                // one bump per pass, however many ranks died in it; the
                // published file is what survivors re-bootstrap against
                epoch += 1;
                self.publish_epoch(epoch)?;
                for (rank, st) in dead.drain(..) {
                    report.restarts += 1;
                    report.relaunches.push((rank, epoch));
                    eprintln!(
                        "[dfo] supervisor: rank {rank} died ({st}); relaunching at epoch \
                         {epoch} (restart {}/{})",
                        report.restarts, self.max_restarts
                    );
                    launch(children, rank, epoch, "relaunching")?;
                }
                // liveness: the rebuilt mesh needs every rank, including
                // those that already finished and exited — re-running a
                // completed rank is idempotent (module docs)
                for (rank, finished) in done.iter_mut().enumerate() {
                    if !std::mem::take(finished) {
                        continue;
                    }
                    report.respawns.push((rank, epoch));
                    eprintln!(
                        "[dfo] supervisor: respawning finished rank {rank} at epoch {epoch} \
                         so the mesh can rebuild"
                    );
                    launch(children, rank, epoch, "respawning")?;
                }
            }
            if children.iter().all(Option::is_none) {
                return Ok(report);
            }
            if Instant::now() >= deadline {
                return Err(DfoError::NetClosed(format!(
                    "supervision deadline ({:?}) passed with ranks still running",
                    self.deadline
                )));
            }
            std::thread::sleep(REAP_INTERVAL);
        }
    }

    /// Atomically rewrites the published-epoch file (when configured):
    /// decimal text via temp + rename, so ranks never read a torn value.
    fn publish_epoch(&self, epoch: u64) -> Result<()> {
        let Some(path) = &self.epoch_file else { return Ok(()) };
        let tmp = path.with_extension("epoch-tmp");
        std::fs::write(&tmp, format!("{epoch}\n"))
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| DfoError::io(format!("publishing epoch {epoch} to {path:?}"), e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Command {
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg(script);
        cmd
    }

    #[test]
    fn all_ranks_exit_clean_no_restarts() {
        let sup = Supervisor::new(vec!["a:1".into(), "b:2".into()], 3)
            .with_deadline(Duration::from_secs(30));
        let report = sup.run(|_spec| sh("exit 0").spawn()).unwrap();
        assert_eq!(report, SuperviseReport::default());
    }

    #[test]
    fn crashed_rank_is_relaunched_under_next_epoch() {
        let sup = Supervisor::new(vec!["a:1".into(), "b:2".into()], 3)
            .with_deadline(Duration::from_secs(30));
        // rank 1's first attempt dies; its relaunch succeeds. Rank 0 runs
        // long enough to still be alive at the relaunch, so no respawn.
        let report = sup
            .run(|spec| {
                if spec.rank == 1 && spec.attempt == 0 {
                    sh("exit 7").spawn()
                } else if spec.rank == 0 {
                    sh("sleep 0.4; exit 0").spawn()
                } else {
                    sh("exit 0").spawn()
                }
            })
            .unwrap();
        assert_eq!(report.restarts, 1);
        assert_eq!(report.relaunches, vec![(1, 1)]);
        assert_eq!(report.respawns, vec![]);
    }

    #[test]
    fn restart_budget_exhaustion_is_fatal() {
        let sup = Supervisor::new(vec!["a:1".into()], 2).with_deadline(Duration::from_secs(30));
        let err = sup.run(|_spec| sh("exit 3").spawn()).unwrap_err();
        match err {
            DfoError::RestartsExhausted { attempts, .. } => assert_eq!(attempts, 2),
            other => panic!("want RestartsExhausted, got {other:?}"),
        }
    }

    #[test]
    fn finished_rank_is_respawned_when_a_peer_dies() {
        // rank 0 finishes immediately; rank 1 dies ~200 ms later. The
        // recovery must bring rank 0 back at the same published epoch or
        // a real mesh could never rebuild.
        let sup = Supervisor::new(vec!["a:1".into(), "b:2".into()], 3)
            .with_deadline(Duration::from_secs(30));
        let report = sup
            .run(|spec| {
                if spec.rank == 1 && spec.attempt == 0 {
                    sh("sleep 0.2; exit 7").spawn()
                } else {
                    sh("exit 0").spawn()
                }
            })
            .unwrap();
        assert_eq!(report.restarts, 1);
        assert_eq!(report.relaunches, vec![(1, 1)]);
        assert_eq!(report.respawns, vec![(0, 1)]);
    }

    #[test]
    fn epoch_file_tracks_the_published_epoch() {
        let dir = std::env::temp_dir().join(format!("dfo-sup-epoch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("EPOCH");
        let sup = Supervisor::new(vec!["a:1".into()], 3)
            .with_deadline(Duration::from_secs(30))
            .with_epoch_file(&path);
        // launch publishes 0 before any child runs
        let mut seen0 = None;
        let report = sup
            .run(|spec| {
                if spec.attempt == 0 {
                    seen0 = std::fs::read_to_string(&path).ok();
                    sh("exit 7").spawn()
                } else {
                    sh("exit 0").spawn()
                }
            })
            .unwrap();
        assert_eq!(seen0.as_deref().map(str::trim), Some("0"));
        assert_eq!(report.restarts, 1);
        let after = std::fs::read_to_string(&path).unwrap();
        assert_eq!(after.trim(), "1");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rank_spec_configures_the_conventional_env() {
        let spec = RankSpec { rank: 1, epoch: 4, attempt: 2 };
        let mut cmd = Command::new("true");
        spec.configure(&mut cmd, &["h:1".into(), "h:2".into()], 9, Some("/tmp/EPOCH"));
        let envs: Vec<(String, Option<String>)> = cmd
            .get_envs()
            .map(|(k, v)| {
                (k.to_string_lossy().into_owned(), v.map(|v| v.to_string_lossy().into_owned()))
            })
            .collect();
        assert!(envs.contains(&("DFO_RANK".into(), Some("1".into()))));
        assert!(envs.contains(&("DFO_PEERS".into(), Some("h:1,h:2".into()))));
        assert!(envs.contains(&("DFO_EPOCH".into(), Some("4".into()))));
        assert!(envs.contains(&("DFO_MAX_RESTARTS".into(), Some("9".into()))));
        assert!(envs.contains(&("DFO_EPOCH_FILE".into(), Some("/tmp/EPOCH".into()))));
        // relaunches scrub the crash hook
        assert!(envs.contains(&("DFO_CRASH_AT".into(), None)));
    }
}
