//! Token-bucket bandwidth throttle.
//!
//! Models a fixed-bandwidth resource (an NVMe SSD, one direction of a NIC).
//! Every transfer reserves a slice of virtual time proportional to its size;
//! the caller sleeps until its reservation completes. Reservations are
//! serialized through a mutex, so concurrent callers share the bandwidth
//! fairly and the long-run throughput converges to the configured rate —
//! exactly the property the DFOGraph evaluation depends on (runtime ≈ bytes
//! / bandwidth on the bottleneck resource).

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone)]
pub struct Throttle {
    inner: Option<Arc<Inner>>,
}

struct Inner {
    bytes_per_sec: f64,
    state: Mutex<State>,
}

struct State {
    /// Virtual time at which the device becomes free again.
    next_free: Instant,
}

impl Throttle {
    /// A no-op throttle: `acquire` returns immediately.
    pub fn unlimited() -> Self {
        Self { inner: None }
    }

    /// A throttle pacing transfers to `bytes_per_sec`.
    pub fn new(bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        Self {
            inner: Some(Arc::new(Inner {
                bytes_per_sec: bytes_per_sec as f64,
                state: Mutex::new(State { next_free: Instant::now() }),
            })),
        }
    }

    /// Builds from an optional bandwidth (`None` = unlimited).
    pub fn from_option(bw: Option<u64>) -> Self {
        match bw {
            Some(b) => Self::new(b),
            None => Self::unlimited(),
        }
    }

    /// Blocks until a transfer of `bytes` would have completed on the
    /// modeled device. Unused idle time is *not* banked: the device never
    /// bursts above its configured rate.
    ///
    /// Sub-millisecond debts are accumulated instead of slept — OS sleep
    /// granularity (~50–100 µs minimum) would otherwise tax every small
    /// operation far beyond its modeled cost. The long-run rate is exact
    /// either way because `next_free` advances by the full duration.
    pub fn acquire(&self, bytes: u64) {
        let Some(inner) = &self.inner else { return };
        if bytes == 0 {
            return;
        }
        let dur = Duration::from_secs_f64(bytes as f64 / inner.bytes_per_sec);
        let completes_at = {
            let mut st = inner.state.lock();
            let now = Instant::now();
            let start = if st.next_free > now { st.next_free } else { now };
            st.next_free = start + dur;
            st.next_free
        };
        let now = Instant::now();
        if completes_at > now {
            let debt = completes_at - now;
            if debt >= Duration::from_millis(1) {
                std::thread::sleep(debt);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_is_instant() {
        let t = Throttle::unlimited();
        let start = Instant::now();
        t.acquire(1 << 30);
        assert!(start.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn rate_is_enforced() {
        // 10 MB/s, transfer 2 MB => ~200 ms.
        let t = Throttle::new(10 << 20);
        let start = Instant::now();
        t.acquire(2 << 20);
        let e = start.elapsed();
        assert!(e >= Duration::from_millis(180), "too fast: {e:?}");
        assert!(e < Duration::from_millis(600), "too slow: {e:?}");
    }

    #[test]
    fn concurrent_callers_share_bandwidth() {
        // 20 MB/s total, 4 threads × 1 MB = 4 MB => ~200 ms wall.
        let t = Throttle::new(20 << 20);
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || t.acquire(1 << 20));
            }
        });
        let e = start.elapsed();
        assert!(e >= Duration::from_millis(150), "too fast: {e:?}");
        assert!(e < Duration::from_millis(800), "too slow: {e:?}");
    }

    #[test]
    fn no_burst_credit_accumulates() {
        let t = Throttle::new(100 << 20);
        std::thread::sleep(Duration::from_millis(50)); // idle; no credit
        let start = Instant::now();
        t.acquire(10 << 20); // 10 MB at 100 MB/s => 100 ms
        assert!(start.elapsed() >= Duration::from_millis(80));
    }

    #[test]
    fn zero_bytes_is_free() {
        let t = Throttle::new(1); // 1 byte/s: any real acquire would hang
        let start = Instant::now();
        t.acquire(0);
        assert!(start.elapsed() < Duration::from_millis(10));
    }
}
