//! The persistent worker pool: spawn-once threads with a per-step
//! rendezvous.
//!
//! PR 1 ran the parallel local-step phase with `std::thread::scope`, which
//! spawns and joins `K` OS threads **every step** — ~K·50 µs of kernel work
//! that dwarfs a ~2 ms LeNet step and contributes nothing. A [`WorkerPool`]
//! spawns its lanes once (when the `Cluster` is built) and thereafter each
//! phase is a rendezvous: the dispatching thread publishes a job, every
//! lane runs it with its lane index, and the dispatcher blocks until all
//! lanes have finished. The pool serves every phase of the FDA step —
//! local training, drift/monitor-state construction, the chunked state
//! reduction, and the full-model AllReduce — as well as the baselines,
//! which drive the same cluster primitives.
//!
//! ## Rendezvous protocol
//!
//! A generation counter under one mutex plays the barrier:
//!
//! 1. [`WorkerPool::run`] stores the job pointer, bumps the generation and
//!    wakes all lanes;
//! 2. the calling thread itself executes lane 0 (no wakeup latency for the
//!    first lane, and `K`-way parallelism from `K − 1` spawned threads);
//! 3. each spawned lane runs the job with its fixed lane id, decrements the
//!    outstanding count, and goes back to waiting for the next generation;
//! 4. `run` returns once the count reaches zero — only then may the job's
//!    borrows expire, which is what makes the lifetime erasure below sound.
//!
//! Lanes never hold the lock while running a job, so lanes execute
//! concurrently; the mutex only sequences the (tiny) rendezvous edges.
//!
//! ## Shutdown
//!
//! Dropping the pool flips a shutdown flag, wakes every lane and joins the
//! threads — the spawn-once lifecycle is tied to the owning `Cluster`, so
//! no thread outlives the workers it manipulates.
//!
//! ## Determinism
//!
//! The pool itself imposes no ordering on job execution; determinism is the
//! *callers'* obligation: every job writes only lane-private slots (worker
//! models, per-lane result cells, disjoint chunks of a shared buffer), and
//! reductions happen afterwards in a fixed order on the dispatching thread.
//! See `Cluster::local_step` and `Fda::step` for the bit-identical-to-
//! sequential argument.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A lane job: called once per lane with the lane index in `0..lanes`.
/// The lifetime parameter lets jobs borrow from the dispatcher's stack —
/// the rendezvous guarantees those borrows outlive every lane's call.
type Job<'a> = dyn Fn(usize) + Sync + 'a;

/// The type-erased job pointer parked in the shared slot. Lifetime-erased;
/// validity is guaranteed by the rendezvous (the dispatcher outlives the
/// round).
struct JobPtr(*const Job<'static>);
// SAFETY: the pointer is only dereferenced between the generation bump and
// the outstanding-count reaching zero, an interval during which `run`
// keeps the referent alive (it blocks before returning or unwinding).
unsafe impl Send for JobPtr {}

struct State {
    job: Option<JobPtr>,
    generation: u64,
    /// Spawned lanes still running the current generation's job.
    outstanding: usize,
    /// A lane's job panicked this generation; re-raised by `run`.
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Lanes wait here for a new generation.
    work_cv: Condvar,
    /// The dispatcher waits here for `outstanding == 0`.
    done_cv: Condvar,
}

/// A persistent pool of `lanes` rendezvous workers (see module docs).
pub struct WorkerPool {
    lanes: usize,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    rounds: std::sync::atomic::AtomicU64,
}

impl WorkerPool {
    /// Creates a pool with `lanes` lanes, spawning `lanes − 1` OS threads
    /// (the dispatching thread runs lane 0 itself during [`WorkerPool::run`]).
    ///
    /// # Panics
    /// Panics if `lanes == 0`.
    pub fn new(lanes: usize) -> WorkerPool {
        assert!(lanes >= 1, "worker pool: need at least one lane");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                generation: 0,
                outstanding: 0,
                panicked: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..lanes)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fda-pool-{lane}"))
                    .spawn(move || lane_loop(&shared, lane))
                    .expect("worker pool: spawn failed")
            })
            .collect();
        WorkerPool {
            lanes,
            shared,
            handles,
            rounds: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Number of lanes (one per cluster worker).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Rendezvous rounds dispatched so far (telemetry/tests).
    pub fn rounds(&self) -> u64 {
        self.rounds.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Runs `job` once per lane — lane 0 on the calling thread, the rest on
    /// the pool threads — and returns when **all** lanes have finished.
    ///
    /// The job must confine each lane to lane-private data (its own worker,
    /// its own result slot, its own chunk of a shared buffer); the pool
    /// provides the synchronization, the caller provides the disjointness.
    ///
    /// Takes `&mut self` so overlapping dispatches are unrepresentable in
    /// safe code: the job pointer is lifetime-erased, and a second dispatch
    /// racing the first could otherwise let a lane run a job whose borrows
    /// had already expired.
    ///
    /// # Panics
    /// Re-raises a panic from any lane after the rendezvous completes (the
    /// pool stays usable afterwards).
    pub fn run(&mut self, job: &Job<'_>) {
        self.rounds
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if self.handles.is_empty() {
            for lane in 0..self.lanes {
                job(lane);
            }
            return;
        }
        // SAFETY: lifetime erasure only — `run` blocks until every lane
        // has finished the job and the slot is cleared, so no lane touches
        // the pointer after `job`'s real lifetime ends.
        let erased: &Job<'static> = unsafe { std::mem::transmute::<&Job<'_>, &Job<'static>>(job) };
        {
            let mut s = self.shared.state.lock().expect("pool lock poisoned");
            debug_assert_eq!(s.outstanding, 0, "pool: overlapping dispatch");
            s.job = Some(JobPtr(erased as *const Job<'static>));
            s.generation = s.generation.wrapping_add(1);
            s.outstanding = self.handles.len();
            self.shared.work_cv.notify_all();
        }
        // Lane 0 runs on the dispatching thread. Catch its panic so the
        // rendezvous below always completes before the stack (and with it
        // the job's borrows) unwinds away — the spawned lanes may still be
        // executing the job at this point.
        let lane0 = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(0)));
        let mut s = self.shared.state.lock().expect("pool lock poisoned");
        while s.outstanding > 0 {
            s = self.shared.done_cv.wait(s).expect("pool lock poisoned");
        }
        s.job = None;
        let lane_panicked = std::mem::replace(&mut s.panicked, false);
        drop(s);
        if let Err(payload) = lane0 {
            std::panic::resume_unwind(payload);
        }
        if lane_panicked {
            panic!("worker pool: a lane's job panicked");
        }
    }
}

impl WorkerPool {
    /// Chunk-parallel element-wise mean: lane `i` computes chunk `i` of
    /// `out` as the **input-order** (copy-first) mean of the corresponding
    /// chunk of every `srcs` slice — one rendezvous, bit-identical to the
    /// sequential `vector::mean_range_into(srcs, 0, n, out)` because the
    /// per-element accumulation order never depends on the chunking.
    ///
    /// This is the one shared home for the unsafe disjoint-chunk dance, so
    /// the worker-order-association argument is audited in a single place
    /// (every pooled state and model mean of `crate::round` runs through
    /// it).
    ///
    /// # Panics
    /// Panics if `srcs` is empty or any length disagrees with `out`.
    pub fn chunked_mean(&mut self, srcs: &[&[f32]], out: &mut [f32]) {
        assert!(!srcs.is_empty(), "chunked_mean: need at least one input");
        let n = out.len();
        assert!(
            srcs.iter().all(|s| s.len() == n),
            "chunked_mean: ragged inputs"
        );
        let lanes = self.lanes;
        let base = SendPtr(out.as_mut_ptr());
        self.run(&|lane| {
            let (lo, hi) = fda_tensor::vector::chunk_range(n, lanes, lane);
            // SAFETY: chunks are disjoint per lane and cover 0..n; `srcs`
            // is read-only for the duration of the rendezvous.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo) };
            fda_tensor::vector::mean_range_into(srcs, lo, hi, chunk);
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut s = self.shared.state.lock().expect("pool lock poisoned");
            s.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn lane_loop(shared: &Shared, lane: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut s = shared.state.lock().expect("pool lock poisoned");
            loop {
                if s.shutdown {
                    return;
                }
                if s.generation != seen {
                    seen = s.generation;
                    break s.job.as_ref().expect("job set with generation").0;
                }
                s = shared.work_cv.wait(s).expect("pool lock poisoned");
            }
        };
        // SAFETY: see `JobPtr` — the dispatcher keeps the job alive until
        // `outstanding` returns to zero, which happens strictly after this
        // call returns (or unwinds into the catch below).
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe { (*job)(lane) }));
        let mut s = shared.state.lock().expect("pool lock poisoned");
        if result.is_err() {
            s.panicked = true;
        }
        s.outstanding -= 1;
        if s.outstanding == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// A raw pointer that asserts cross-thread usability. Used by pool jobs to
/// hand each lane its own disjoint slot of a caller-owned buffer; the
/// caller is responsible for the disjointness (lane `i` touches index `i`,
/// or chunk `i`, only).
pub(crate) struct SendPtr<T>(pub *mut T);

// Manual impls: `derive` would demand `T: Copy`, but the pointer itself is
// always freely copyable.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: asserted by the constructor sites — every pool job indexes the
// pointer by lane id into non-overlapping elements/chunks, and the
// rendezvous orders all accesses before the dispatcher's next use.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: as for `Send`: lanes share the pointer but never an element.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    pub(crate) fn get(self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_lane_runs_exactly_once() {
        let mut pool = WorkerPool::new(4);
        let mut hits = vec![0u32; 4];
        let ptr = SendPtr(hits.as_mut_ptr());
        pool.run(&|lane| {
            // SAFETY: lane-private slot.
            unsafe { *ptr.get().add(lane) += 1 };
        });
        assert_eq!(hits, vec![1, 1, 1, 1]);
    }

    #[test]
    fn pool_is_reusable_across_many_rounds() {
        let mut pool = WorkerPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.run(&|lane| {
                total.fetch_add(lane + 1, Ordering::Relaxed);
            });
        }
        // 100 rounds × (1 + 2 + 3).
        assert_eq!(total.load(Ordering::Relaxed), 600);
        assert_eq!(pool.rounds(), 100);
    }

    #[test]
    fn single_lane_pool_runs_inline() {
        let mut pool = WorkerPool::new(1);
        let ran = AtomicUsize::new(0);
        pool.run(&|lane| {
            assert_eq!(lane, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn lanes_see_distinct_ids() {
        let mut pool = WorkerPool::new(7);
        let mut ids = vec![usize::MAX; 7];
        let ptr = SendPtr(ids.as_mut_ptr());
        pool.run(&|lane| {
            // SAFETY: lane-private slot.
            unsafe { *ptr.get().add(lane) = lane };
        });
        assert_eq!(ids, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn chunked_mean_matches_sequential_bitwise() {
        let mut pool = WorkerPool::new(3);
        let srcs: Vec<Vec<f32>> = (0..4)
            .map(|i| (0..101).map(|j| ((i * 37 + j) as f32).sin()).collect())
            .collect();
        let refs: Vec<&[f32]> = srcs.iter().map(|s| s.as_slice()).collect();
        let mut pooled = vec![0.0f32; 101];
        pool.chunked_mean(&refs, &mut pooled);
        let mut seq = vec![0.0f32; 101];
        fda_tensor::vector::mean_range_into(&refs, 0, 101, &mut seq);
        for (a, b) in pooled.iter().zip(&seq) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn lane_panic_propagates_and_pool_survives() {
        let mut pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(&|lane| {
                if lane == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err(), "panic must propagate to the dispatcher");
        // The pool must still work after a failed round.
        let ok = AtomicUsize::new(0);
        pool.run(&|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 2);
    }
}
