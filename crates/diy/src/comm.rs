//! Rank runtime: a simulated distributed-memory machine.
//!
//! [`Runtime::run`] spawns one OS thread per rank. Each rank owns its data
//! privately; ranks communicate only by sending serialized messages through
//! unbounded channels (so sends never block and no send/recv deadlock is
//! possible). The API mirrors the MPI subset DIY uses: tagged point-to-point
//! messages, barrier, gather/broadcast, all-gather, all-reduce, and
//! exclusive scan.
//!
//! ## Determinism
//!
//! Message arrival order between different senders is nondeterministic, but
//! every collective and the [`crate::exchange`] layer sort received data by
//! source rank, so algorithm results are reproducible run to run.

use std::sync::{Arc, Barrier};

use crossbeam_channel::{unbounded, Receiver, Sender};

use crate::codec::{Decode, Encode};
use crate::metrics::MetricsHandle;

struct Envelope {
    from: usize,
    tag: u64,
    bytes: Vec<u8>,
}

/// Entry point for SPMD execution.
pub struct Runtime;

impl Runtime {
    /// Run `f` on `nranks` ranks (one OS thread each) and collect each
    /// rank's return value, indexed by rank.
    ///
    /// ```
    /// use diy::comm::Runtime;
    ///
    /// let sums = Runtime::run(4, |world| {
    ///     // every rank contributes its rank id; all receive the total
    ///     world.all_reduce(world.rank() as u64, |a, b| a + b)
    /// });
    /// assert_eq!(sums, vec![6, 6, 6, 6]);
    /// ```
    pub fn run<R, F>(nranks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut World) -> R + Sync,
    {
        assert!(nranks > 0, "need at least one rank");
        let mut txs: Vec<Sender<Envelope>> = Vec::with_capacity(nranks);
        let mut rxs: Vec<Option<Receiver<Envelope>>> = Vec::with_capacity(nranks);
        for _ in 0..nranks {
            let (tx, rx) = unbounded();
            txs.push(tx);
            rxs.push(Some(rx));
        }
        let barrier = Arc::new(Barrier::new(nranks));

        let mut results: Vec<Option<R>> = (0..nranks).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(nranks);
            for (rank, rx) in rxs.iter_mut().enumerate() {
                let rx = rx.take().expect("receiver taken once");
                let txs = txs.clone();
                let barrier = Arc::clone(&barrier);
                let f = &f;
                handles.push(scope.spawn(move || {
                    crate::log::set_thread_rank(Some(rank));
                    let metrics = MetricsHandle::new();
                    metrics.set_rank(rank as u64);
                    let mut world = World {
                        rank,
                        nranks,
                        txs,
                        rx,
                        pending: Vec::new(),
                        barrier,
                        coll_seq: 0,
                        metrics,
                    };
                    f(&mut world)
                }));
            }
            for (rank, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(r) => results[rank] = Some(r),
                    Err(p) => std::panic::resume_unwind(p),
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("rank completed"))
            .collect()
    }
}

/// A job shipped to every resident rank thread for collective execution.
type ResidentJob = Box<dyn FnOnce(&mut World) + Send>;

/// A persistent SPMD machine: like [`Runtime::run`], but the rank threads —
/// and therefore their `World`s, channel state, and metrics — stay alive
/// between jobs. A long-lived owner (e.g. a resident analysis service) can
/// submit many collective jobs without paying thread spawn/teardown or
/// losing per-rank state accumulated by earlier jobs.
///
/// Every job runs on *all* ranks (SPMD); [`ResidentRuntime::run`] blocks
/// until each rank returns and yields the results indexed by rank, exactly
/// like `Runtime::run`. Jobs submitted from different threads are serialized
/// per rank in submission order (the per-rank job queue is FIFO), but
/// callers that need a consistent cross-rank order must serialize
/// submissions themselves (e.g. behind a mutex).
///
/// Jobs must not panic: a panicking job kills its rank thread and poisons
/// the machine (subsequent collective jobs would deadlock waiting for the
/// dead rank).
pub struct ResidentRuntime {
    nranks: usize,
    /// Guarded so concurrent `run` callers submit their job to *all* ranks
    /// atomically: per-rank queues are FIFO, so holding the lock across
    /// the broadcast keeps every rank executing jobs in the same order
    /// (interleaved submissions would scramble collectives).
    job_txs: std::sync::Mutex<Vec<Sender<ResidentJob>>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ResidentRuntime {
    /// Spawn `nranks` resident rank threads, each owning its `World`.
    pub fn spawn(nranks: usize) -> Self {
        assert!(nranks > 0, "need at least one rank");
        let mut txs: Vec<Sender<Envelope>> = Vec::with_capacity(nranks);
        let mut rxs: Vec<Option<Receiver<Envelope>>> = Vec::with_capacity(nranks);
        for _ in 0..nranks {
            let (tx, rx) = unbounded();
            txs.push(tx);
            rxs.push(Some(rx));
        }
        let barrier = Arc::new(Barrier::new(nranks));
        let mut job_txs = Vec::with_capacity(nranks);
        let mut handles = Vec::with_capacity(nranks);
        for (rank, rx) in rxs.iter_mut().enumerate() {
            let rx = rx.take().expect("receiver taken once");
            let (job_tx, job_rx) = unbounded::<ResidentJob>();
            job_txs.push(job_tx);
            let txs = txs.clone();
            let barrier = Arc::clone(&barrier);
            let handle = std::thread::Builder::new()
                .name(format!("resident-rank-{rank}"))
                .spawn(move || {
                    crate::log::set_thread_rank(Some(rank));
                    let metrics = MetricsHandle::new();
                    metrics.set_rank(rank as u64);
                    let mut world = World {
                        rank,
                        nranks,
                        txs,
                        rx,
                        pending: Vec::new(),
                        barrier,
                        coll_seq: 0,
                        metrics,
                    };
                    while let Ok(job) = job_rx.recv() {
                        job(&mut world);
                    }
                })
                .expect("spawn resident rank thread");
            handles.push(handle);
        }
        ResidentRuntime {
            nranks,
            job_txs: std::sync::Mutex::new(job_txs),
            handles,
        }
    }

    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Run `f` collectively on every resident rank and collect the results
    /// indexed by rank. Blocks until all ranks have returned.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(&mut World) -> R + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let (res_tx, res_rx) = unbounded::<(usize, R)>();
        {
            let job_txs = self.job_txs.lock().expect("job submission lock");
            for job_tx in job_txs.iter() {
                let f = Arc::clone(&f);
                let res_tx = res_tx.clone();
                let job: ResidentJob = Box::new(move |world| {
                    let r = f(world);
                    let _ = res_tx.send((world.rank(), r));
                });
                job_tx.send(job).expect("resident rank thread alive");
            }
        }
        drop(res_tx);
        let mut out: Vec<Option<R>> = (0..self.nranks).map(|_| None).collect();
        for _ in 0..self.nranks {
            let (rank, r) = res_rx.recv().expect("resident rank returned a result");
            out[rank] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("exactly one result per rank"))
            .collect()
    }
}

impl Drop for ResidentRuntime {
    fn drop(&mut self) {
        // Closing the job channels ends each rank's job loop.
        self.job_txs.lock().expect("job submission lock").clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One rank's view of the machine: its identity plus communication handles.
pub struct World {
    rank: usize,
    nranks: usize,
    txs: Vec<Sender<Envelope>>,
    rx: Receiver<Envelope>,
    /// Messages received while waiting for a different (from, tag).
    pending: Vec<Envelope>,
    barrier: Arc<Barrier>,
    /// Collective sequence number; identical across ranks because all ranks
    /// execute collectives in the same (SPMD) order.
    coll_seq: u64,
    /// Per-rank observability (phase spans + transport counters).
    metrics: MetricsHandle,
}

/// Tag bit reserved for internal collective traffic.
const COLLECTIVE_BIT: u64 = 1 << 63;

impl World {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// This rank's metrics handle. The returned clone shares state with the
    /// `World`, so a span can stay open across `&mut self` collective calls:
    ///
    /// ```
    /// use diy::comm::Runtime;
    ///
    /// Runtime::run(2, |world| {
    ///     let _span = world.metrics().phase("reduce");
    ///     world.all_reduce(1u64, |a, b| a + b)
    /// });
    /// ```
    pub fn metrics(&self) -> MetricsHandle {
        self.metrics.clone()
    }

    /// Send raw bytes to `to` with a user `tag` (must not set the top bit).
    pub fn send_bytes(&self, to: usize, tag: u64, bytes: Vec<u8>) {
        debug_assert!(tag & COLLECTIVE_BIT == 0, "top tag bit is reserved");
        self.send_raw(to, tag, bytes);
    }

    fn send_raw(&self, to: usize, tag: u64, bytes: Vec<u8>) {
        self.metrics.on_send(tag, bytes.len());
        self.txs[to]
            .send(Envelope {
                from: self.rank,
                tag,
                bytes,
            })
            .expect("receiver alive for the duration of the run");
    }

    /// Blocking receive of the next message from `from` with tag `tag`.
    /// Out-of-order messages are buffered, so interleavings cannot drop
    /// data. Metrics count the message when it is consumed here, so it is
    /// charged to the phase that waited for it.
    pub fn recv_bytes(&mut self, from: usize, tag: u64) -> Vec<u8> {
        if let Some(i) = self
            .pending
            .iter()
            .position(|e| e.from == from && e.tag == tag)
        {
            let bytes = self.pending.remove(i).bytes;
            self.metrics.on_recv(tag, bytes.len());
            return bytes;
        }
        loop {
            let env = self
                .rx
                .recv()
                .expect("senders alive for the duration of the run");
            if env.from == from && env.tag == tag {
                self.metrics.on_recv(tag, env.bytes.len());
                return env.bytes;
            }
            self.pending.push(env);
        }
    }

    /// Typed send.
    pub fn send<T: Encode>(&self, to: usize, tag: u64, value: &T) {
        self.send_bytes(to, tag, value.to_bytes());
    }

    /// Typed receive (panics on decode failure — a protocol bug, not an
    /// input error).
    pub fn recv<T: Decode>(&mut self, from: usize, tag: u64) -> T {
        let bytes = self.recv_bytes(from, tag);
        T::from_bytes(&bytes).expect("peer encoded the agreed type")
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        self.metrics.on_collective();
        self.barrier.wait();
    }

    fn next_coll_tag(&mut self) -> u64 {
        self.metrics.on_collective();
        let tag = COLLECTIVE_BIT | self.coll_seq;
        self.coll_seq += 1;
        tag
    }

    /// Gather one value per rank at `root`; returns `Some(values)` (indexed
    /// by rank) only at the root.
    pub fn gather<T: Encode + Decode>(&mut self, root: usize, value: &T) -> Option<Vec<T>> {
        let tag = self.next_coll_tag();
        if self.rank == root {
            let mut out: Vec<Option<T>> = (0..self.nranks).map(|_| None).collect();
            out[root] = Some(T::from_bytes(&value.to_bytes()).expect("self roundtrip"));
            for (from, slot) in out.iter_mut().enumerate() {
                if from != root {
                    *slot = Some(self.recv(from, tag));
                }
            }
            Some(out.into_iter().map(|v| v.expect("gathered")).collect())
        } else {
            self.send_raw(root, tag, value.to_bytes());
            None
        }
    }

    /// Broadcast `value` (significant at `root`) to all ranks.
    pub fn broadcast<T: Encode + Decode>(&mut self, root: usize, value: Option<&T>) -> T {
        let tag = self.next_coll_tag();
        if self.rank == root {
            let v = value.expect("root provides the value");
            let bytes = v.to_bytes();
            for to in 0..self.nranks {
                if to != root {
                    self.send_raw(to, tag, bytes.clone());
                }
            }
            T::from_bytes(&bytes).expect("self roundtrip")
        } else {
            self.recv(root, tag)
        }
    }

    /// Gather one value per rank on every rank.
    pub fn all_gather<T: Encode + Decode>(&mut self, value: &T) -> Vec<T> {
        let gathered = self.gather(0, value);
        self.broadcast(0, gathered.as_ref())
    }

    /// Reduce with a binary operator, result on every rank. The fold is
    /// performed in rank order, so non-commutative reductions are
    /// deterministic.
    pub fn all_reduce<T, F>(&mut self, value: T, op: F) -> T
    where
        T: Encode + Decode,
        F: Fn(T, T) -> T,
    {
        let mut all = self.all_gather(&value);
        let first = all.remove(0);
        all.into_iter().fold(first, op)
    }

    /// Exclusive prefix sum of `value` over ranks (rank 0 receives 0);
    /// also returns the global total. Used to compute file offsets for
    /// collective writes.
    pub fn exclusive_scan_u64(&mut self, value: u64) -> (u64, u64) {
        let all = self.all_gather(&value);
        let prefix: u64 = all[..self.rank].iter().sum();
        let total: u64 = all.iter().sum();
        (prefix, total)
    }

    /// Personalized all-to-all: send `outgoing[r]` to rank `r`, receive one
    /// buffer from every rank (indexed by source). Empty buffers are
    /// exchanged too, which doubles as a synchronization point.
    pub fn all_to_all(&mut self, outgoing: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        let tag = self.next_coll_tag();
        self.all_to_all_with(outgoing, tag)
    }

    /// Personalized all-to-all under a caller-chosen user tag (top bit must
    /// be clear), so the traffic is attributed to a stable, rank-count-
    /// independent tag in the per-tag counters (e.g. one tag per ghost
    /// exchange round). Collective: every rank must call it in the same
    /// order with the same tag. Reusing a tag across calls is safe because
    /// delivery is FIFO per sender.
    pub fn all_to_all_tagged(&mut self, outgoing: Vec<Vec<u8>>, tag: u64) -> Vec<Vec<u8>> {
        debug_assert!(tag & COLLECTIVE_BIT == 0, "top tag bit is reserved");
        self.metrics.on_collective();
        self.all_to_all_with(outgoing, tag)
    }

    fn all_to_all_with(&mut self, outgoing: Vec<Vec<u8>>, tag: u64) -> Vec<Vec<u8>> {
        assert_eq!(outgoing.len(), self.nranks);
        for (to, bytes) in outgoing.into_iter().enumerate() {
            if to == self.rank {
                // Deliver locally below. Count the send here (the matching
                // receive is counted when `recv_bytes` consumes it) so the
                // global sent == received invariant holds.
                self.metrics.on_send(tag, bytes.len());
                self.pending.push(Envelope {
                    from: self.rank,
                    tag,
                    bytes,
                });
            } else {
                self.send_raw(to, tag, bytes);
            }
        }
        (0..self.nranks)
            .map(|from| self.recv_bytes(from, tag))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_runs() {
        let r = Runtime::run(1, |w| {
            assert_eq!(w.rank(), 0);
            assert_eq!(w.nranks(), 1);
            w.barrier();
            w.rank() * 10
        });
        assert_eq!(r, vec![0]);
    }

    #[test]
    fn results_indexed_by_rank() {
        let r = Runtime::run(8, |w| w.rank() * w.rank());
        assert_eq!(r, (0..8).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn resident_runtime_runs_collective_jobs() {
        let rt = ResidentRuntime::spawn(4);
        let sums = rt.run(|w| w.all_reduce(w.rank() as u64, |a, b| a + b));
        assert_eq!(sums, vec![6, 6, 6, 6]);
        let ranks = rt.run(|w| w.rank() * 10);
        assert_eq!(ranks, vec![0, 10, 20, 30]);
    }

    #[test]
    fn resident_runtime_worlds_persist_across_jobs() {
        // A message sent in job 1 is received in job 2: the rank threads and
        // their channel state stay alive between jobs.
        let rt = ResidentRuntime::spawn(3);
        rt.run(|w| {
            let next = (w.rank() + 1) % w.nranks();
            w.send(next, 9, &(w.rank() as u64));
        });
        let got = rt.run(|w| {
            let prev = (w.rank() + w.nranks() - 1) % w.nranks();
            w.recv::<u64>(prev, 9)
        });
        assert_eq!(got, vec![2, 0, 1]);
    }

    #[test]
    fn resident_runtime_single_rank() {
        let rt = ResidentRuntime::spawn(1);
        let r = rt.run(|w| {
            w.barrier();
            w.nranks()
        });
        assert_eq!(r, vec![1]);
    }

    #[test]
    fn point_to_point_ring() {
        let r = Runtime::run(4, |w| {
            let next = (w.rank() + 1) % w.nranks();
            let prev = (w.rank() + w.nranks() - 1) % w.nranks();
            w.send(next, 7, &(w.rank() as u64));
            w.recv::<u64>(prev, 7)
        });
        assert_eq!(r, vec![3, 0, 1, 2]);
    }

    #[test]
    fn tagged_messages_do_not_cross() {
        let r = Runtime::run(2, |w| {
            if w.rank() == 0 {
                // send tag 2 first, then tag 1: receiver asks for 1 first
                w.send(1, 2, &22u32);
                w.send(1, 1, &11u32);
                0
            } else {
                let a: u32 = w.recv(0, 1);
                let b: u32 = w.recv(0, 2);
                assert_eq!((a, b), (11, 22));
                1
            }
        });
        assert_eq!(r, vec![0, 1]);
    }

    #[test]
    fn gather_and_broadcast() {
        Runtime::run(5, |w| {
            let g = w.gather(2, &(w.rank() as u64 + 100));
            if w.rank() == 2 {
                assert_eq!(g.unwrap(), vec![100, 101, 102, 103, 104]);
            } else {
                assert!(g.is_none());
            }
            let b = w.broadcast(3, if w.rank() == 3 { Some(&999u64) } else { None });
            assert_eq!(b, 999);
        });
    }

    #[test]
    fn all_gather_and_all_reduce() {
        Runtime::run(6, |w| {
            let all = w.all_gather(&(w.rank() as u32));
            assert_eq!(all, (0..6u32).collect::<Vec<_>>());
            let sum = w.all_reduce(w.rank() as u64, |a, b| a + b);
            assert_eq!(sum, 15);
            let max = w.all_reduce(w.rank() as u64, |a, b| a.max(b));
            assert_eq!(max, 5);
        });
    }

    #[test]
    fn exclusive_scan() {
        Runtime::run(4, |w| {
            let v = (w.rank() as u64 + 1) * 10; // 10,20,30,40
            let (prefix, total) = w.exclusive_scan_u64(v);
            let expect = [0u64, 10, 30, 60][w.rank()];
            assert_eq!(prefix, expect);
            assert_eq!(total, 100);
        });
    }

    #[test]
    fn all_to_all_delivers_per_source() {
        Runtime::run(3, |w| {
            let outgoing: Vec<Vec<u8>> =
                (0..3).map(|to| vec![(w.rank() * 10 + to) as u8]).collect();
            let incoming = w.all_to_all(outgoing);
            for (from, buf) in incoming.iter().enumerate() {
                assert_eq!(buf, &vec![(from * 10 + w.rank()) as u8]);
            }
        });
    }

    #[test]
    fn tagged_all_to_all_uses_the_user_tag() {
        let snaps = Runtime::run(3, |w| {
            // two rounds under the same tag: FIFO per sender keeps them apart
            for round in 0..2u8 {
                let outgoing: Vec<Vec<u8>> = (0..3)
                    .map(|to| vec![w.rank() as u8, to as u8, round])
                    .collect();
                let incoming = w.all_to_all_tagged(outgoing, 42);
                for (from, buf) in incoming.iter().enumerate() {
                    assert_eq!(buf, &vec![from as u8, w.rank() as u8, round]);
                }
            }
            w.metrics().snapshot()
        });
        for s in &snaps {
            // all traffic charged to tag 42, none to a collective tag
            assert_eq!(s.tags.iter().map(|t| t.tag).collect::<Vec<_>>(), vec![42]);
            assert_eq!(s.tags[0].msgs_sent, 6, "3 dests × 2 rounds");
        }
    }

    #[test]
    fn repeated_collectives_do_not_cross_talk() {
        Runtime::run(4, |w| {
            for i in 0..50u64 {
                let s = w.all_reduce(i + w.rank() as u64, |a, b| a + b);
                assert_eq!(s, 4 * i + 6);
            }
        });
    }

    #[test]
    fn metrics_count_messages() {
        let snaps = Runtime::run(2, |w| {
            if w.rank() == 0 {
                w.send(1, 1, &vec![0u8; 100]);
            } else {
                let _: Vec<u8> = w.recv(0, 1);
            }
            w.metrics().snapshot()
        });
        // (messages sent, bytes sent, messages received, bytes received);
        // 108 bytes = 8-byte length prefix + 100 payload
        assert_eq!(snaps[0].traffic_totals(), (1, 108, 0, 0));
        assert_eq!(snaps[1].traffic_totals(), (0, 0, 1, 108));
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        Runtime::run(8, |w| {
            counter.fetch_add(1, Ordering::SeqCst);
            w.barrier();
            // all ranks incremented before any proceeds
            assert_eq!(counter.load(Ordering::SeqCst), 8);
        });
    }
}
