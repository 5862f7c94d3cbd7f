//! Shared-memory barrier and all-reduce — the collective fast path of the
//! in-process backend.
//!
//! DFOGraph needs exactly two collectives: phase barriers and summing the
//! per-node partial results of `ProcessEdges`/`ProcessVertices` UDFs. Both
//! are implemented over a shared slot array with two barrier rounds (write
//! slots → barrier → read all → barrier), which keeps consecutive
//! collectives from racing each other. The TCP backend reimplements the
//! same semantics over point-to-point messages relayed through rank 0
//! (see `tcp.rs`); values are folded in rank order in both so results are
//! bit-identical across backends.

use dfo_types::{DfoError, Result};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

struct BarrierState {
    waiting: usize,
    generation: u64,
    poisoned: bool,
}

/// Shared collective state for a `P`-node cluster.
///
/// The barrier is *poisonable*: when a node dies (panic or error), the
/// cluster runner poisons the collective so surviving nodes blocked in a
/// barrier fail with [`DfoError::NetClosed`] instead of hanging — the moral
/// equivalent of an MPI job abort, and what the §3.2 recovery tests rely
/// on.
pub struct Collective {
    p: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
    slots_u64: Mutex<Vec<u64>>,
    slots_f64: Mutex<Vec<f64>>,
}

impl Collective {
    pub fn new(p: usize) -> Arc<Self> {
        Arc::new(Self {
            p,
            state: Mutex::new(BarrierState { waiting: 0, generation: 0, poisoned: false }),
            cv: Condvar::new(),
            slots_u64: Mutex::new(vec![0; p]),
            slots_f64: Mutex::new(vec![0.0; p]),
        })
    }

    pub fn nodes(&self) -> usize {
        self.p
    }

    fn poisoned_err() -> DfoError {
        DfoError::peer_died("cluster collective poisoned")
    }

    /// Blocks until all `P` node threads arrive; fails if the collective
    /// was poisoned (a peer died) — surfacing the cluster failure instead
    /// of deadlocking.
    pub fn barrier(&self) -> Result<()> {
        let mut st = self.state.lock();
        if st.poisoned {
            return Err(Self::poisoned_err());
        }
        st.waiting += 1;
        if st.waiting == self.p {
            st.waiting = 0;
            st.generation += 1;
            self.cv.notify_all();
            return Ok(());
        }
        let gen = st.generation;
        while st.generation == gen && !st.poisoned {
            self.cv.wait(&mut st);
        }
        // generation first: a barrier that *completed* is `Ok` even if the
        // last arriver poisoned before this waiter re-took the lock
        if st.generation == gen {
            return Err(Self::poisoned_err());
        }
        Ok(())
    }

    /// Marks the collective dead and wakes all waiters.
    pub fn poison(&self) {
        let mut st = self.state.lock();
        st.poisoned = true;
        self.cv.notify_all();
    }

    /// All-reduce over `u64` with an arbitrary associative fold, applied in
    /// rank order.
    pub fn allreduce_u64(
        &self,
        rank: usize,
        v: u64,
        fold: &(dyn Fn(u64, u64) -> u64 + Sync),
    ) -> Result<u64> {
        self.slots_u64.lock()[rank] = v;
        self.barrier()?;
        let out = {
            let slots = self.slots_u64.lock();
            slots.iter().copied().reduce(fold).expect("p >= 1")
        };
        self.barrier()?;
        Ok(out)
    }

    /// All-reduce over `f64`, folded in rank order.
    pub fn allreduce_f64(
        &self,
        rank: usize,
        v: f64,
        fold: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> Result<f64> {
        self.slots_f64.lock()[rank] = v;
        self.barrier()?;
        let out = {
            let slots = self.slots_f64.lock();
            slots.iter().copied().reduce(fold).expect("p >= 1")
        };
        self.barrier()?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_u64(c: &Collective, rank: usize, v: u64) -> u64 {
        c.allreduce_u64(rank, v, &|a, b| a + b).unwrap()
    }

    #[test]
    fn sum_across_threads() {
        let c = Collective::new(4);
        let results: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|r| {
                    let c = c.clone();
                    s.spawn(move || sum_u64(&c, r, (r as u64 + 1) * 10))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.iter().all(|&x| x == 100));
    }

    #[test]
    fn consecutive_reduces_do_not_race() {
        let c = Collective::new(3);
        std::thread::scope(|s| {
            for r in 0..3 {
                let c = c.clone();
                s.spawn(move || {
                    for round in 0..50u64 {
                        let got = sum_u64(&c, r, round);
                        assert_eq!(got, round * 3, "round {round} on rank {r}");
                    }
                });
            }
        });
    }

    #[test]
    fn max_reduce() {
        let c = Collective::new(2);
        let res: Vec<u64> = std::thread::scope(|s| {
            let h: Vec<_> = (0..2)
                .map(|r| {
                    let c = c.clone();
                    s.spawn(move || {
                        c.allreduce_u64(r, if r == 0 { 7 } else { 3 }, &|a, b| a.max(b)).unwrap()
                    })
                })
                .collect();
            h.into_iter().map(|x| x.join().unwrap()).collect()
        });
        assert_eq!(res, vec![7, 7]);
    }

    #[test]
    fn f64_sum() {
        let c = Collective::new(2);
        let res: Vec<f64> = std::thread::scope(|s| {
            let h: Vec<_> = (0..2)
                .map(|r| {
                    let c = c.clone();
                    s.spawn(move || c.allreduce_f64(r, 0.5 + r as f64, &|a, b| a + b).unwrap())
                })
                .collect();
            h.into_iter().map(|x| x.join().unwrap()).collect()
        });
        assert!((res[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn poison_fails_waiters_and_later_arrivals() {
        let c = Collective::new(2);
        std::thread::scope(|s| {
            let c2 = c.clone();
            let h = s.spawn(move || c2.barrier());
            // give the waiter time to block, then poison instead of arriving
            std::thread::sleep(std::time::Duration::from_millis(20));
            c.poison();
            assert!(matches!(h.join().unwrap(), Err(DfoError::NetClosed(_))));
        });
        assert!(matches!(c.barrier(), Err(DfoError::NetClosed(_))));
    }

    /// A waiter whose barrier completed must get `Ok` even when the last
    /// arriver poisons the collective the instant it returns.
    #[test]
    fn completed_barrier_is_ok_even_if_the_last_arriver_poisons_at_once() {
        for round in 0..2000 {
            let c = Collective::new(2);
            std::thread::scope(|s| {
                let waiter = s.spawn(|| c.barrier());
                // arrive second, so the spawned thread is the blocked waiter
                while c.state.lock().waiting == 0 {
                    std::thread::yield_now();
                }
                c.barrier().unwrap();
                c.poison();
                assert!(waiter.join().unwrap().is_ok(), "round {round}: completed barrier failed");
            });
        }
    }
}
