//! The barrier and the all-reduce, written once over frames for both
//! backends.
//!
//! DFOGraph needs exactly two collectives: phase barriers and summing the
//! per-node partial results of `ProcessEdges`/`ProcessVertices` UDFs. Both
//! are one relay through rank 0 over [`Transport::send_frame`] and
//! [`Transport::recv_frame`]: every rank sends its value to rank 0, rank 0
//! folds the values in rank order (so float reductions give the same bits
//! on every backend and every run) and broadcasts the result. A barrier is
//! the relay of empty values.
//!
//! Collective frames use tags with [`crate::tag::COLL_TAG_BIT`] set, a
//! namespace the engine's call-sequence tags never reach; the caller
//! supplies the full tag (namespace base + per-namespace sequence number),
//! so collectives of concurrent job namespaces relay through rank 0
//! without ever matching each other's frames. They bypass the endpoint's
//! throttles and byte accounting.
//!
//! A dead peer (EOF, reset, or an explicit `poison`) fails the collective
//! with `NetClosed` on every survivor instead of hanging, and a failed
//! collective poisons the mesh so the error cascades. A release frame that
//! reached a rank's queue before the poison still drains, so a barrier that
//! completed stays completed.

use crate::frame::Frame;
use crate::transport::Transport;
use bytes::Bytes;
use dfo_types::{DfoError, Rank, Result};

/// Why a poisoned mesh fails what a rank does on it.
pub(crate) const POISONED: &str = "cluster collective poisoned";

/// Relays `mine` of rank `rank` of `p` through rank 0 under collective tag
/// `tag`: rank 0 folds every rank's value into its own in rank order and
/// sends the result back to each. Fails at once on a poisoned mesh, and
/// poisons it on any failure.
pub(crate) fn relay<const N: usize>(
    t: &dyn Transport,
    rank: Rank,
    p: usize,
    tag: u64,
    mine: [u8; N],
    fold: impl Fn([u8; N], [u8; N]) -> [u8; N],
) -> Result<[u8; N]> {
    if t.poisoned() {
        return Err(DfoError::peer_died(POISONED));
    }
    let send = |dst: Rank, v: [u8; N]| {
        t.send_frame(dst, Frame { src: rank, tag, payload: Bytes::copy_from_slice(&v), last: true })
    };
    let recv = |src: Rank| -> Result<[u8; N]> {
        let f = t.recv_frame(src, tag)?;
        f.payload.as_ref().try_into().map_err(|_| {
            DfoError::Corrupt(format!(
                "collective payload from {src} is {} bytes, want {N}",
                f.payload.len()
            ))
        })
    };
    let res = if rank == 0 {
        (1..p).try_fold(mine, |acc, src| Ok(fold(acc, recv(src)?))).and_then(|acc| {
            (1..p).try_for_each(|dst| send(dst, acc))?;
            Ok(acc)
        })
    } else {
        send(0, mine).and_then(|()| recv(0))
    };
    if res.is_err() {
        t.poison();
    }
    res
}
