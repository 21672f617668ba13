//! Persistent evaluation worker pool.
//!
//! The engine's prefetch used to spawn and join a fresh
//! `std::thread::scope` every generation, which dominated the
//! `batch_dispatch` phase (thread creation, stack setup and teardown per
//! generation). [`EvalPool`] keeps the helper threads alive for the whole
//! run, parked on a condvar between generations; dispatching a batch is
//! one mutex acquire plus a wake, independent of batch size.
//!
//! ## Execution model
//!
//! A *job* is a `Fn(usize)` taking a worker slot. The merge thread calls
//! [`EvalPool::dispatch`] (publishes the job and wakes `participants`
//! helpers, slots `1..=participants`), then runs `job(0)` itself so every
//! configured worker — including the submitting thread — drains work, and
//! finally blocks in [`BatchTicket::wait`] until all helpers finished.
//! Work distribution (an atomic miss-index cursor) lives inside the job
//! closure; the pool only coordinates lifecycle.
//!
//! ## Safety
//!
//! The job is handed to the helper threads as a lifetime-erased raw
//! pointer (the same trick rayon's scoped pools use). This is sound
//! because the pointer is only dereferenced between `dispatch` and the
//! matching `wait`, and [`BatchTicket`] both borrows the job for its
//! lifetime and waits in `drop`, so the closure (and everything it
//! borrows) strictly outlives every use — even if the merge thread
//! panics mid-batch.
//!
//! A helper that panics inside the job records the fact and survives (the
//! panic is caught so the pool stays usable and `wait` cannot deadlock);
//! `wait` re-raises it on the merge thread as `"evaluation worker
//! panicked"`, matching the old scoped-thread behavior.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Lifetime-erased shared job pointer. Only valid between a dispatch and
/// its wait; see the module-level safety notes.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (so `&job` may be shared across threads)
// and the pointer is only dereferenced while the submitter keeps the
// closure alive (enforced by `BatchTicket`'s borrow + blocking drop).
unsafe impl Send for JobPtr {}

struct PoolState {
    /// Currently published job, if a batch is in flight.
    job: Option<JobPtr>,
    /// Bumped once per dispatch; helpers run each epoch at most once.
    epoch: u64,
    /// Helpers participating in the current epoch (slots `1..=n`).
    participants: usize,
    /// Participating helpers that have not finished the current job yet.
    active: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Helpers park here between batches.
    work_ready: Condvar,
    /// The submitter parks here until `active` drains to zero.
    work_done: Condvar,
    /// Set by a helper whose job invocation panicked.
    panicked: AtomicBool,
}

/// A persistent pool of parked evaluation helper threads.
///
/// `EvalPool::new(0)` is valid and threadless: `dispatch` publishes
/// nothing and `wait` returns immediately, so a single-worker engine pays
/// no synchronization at all while sharing the same code path.
pub struct EvalPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl EvalPool {
    /// Spawns `helpers` parked worker threads (slots `1..=helpers`).
    #[must_use]
    pub fn new(helpers: usize) -> EvalPool {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                participants: 0,
                active: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        let handles = (1..=helpers)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("eval-pool-{slot}"))
                    .spawn(move || helper_loop(&shared, slot))
                    .expect("spawn evaluation pool worker")
            })
            .collect();
        EvalPool { shared, handles }
    }

    /// Helper threads owned by the pool.
    #[must_use]
    pub fn helpers(&self) -> usize {
        self.handles.len()
    }

    /// Publishes `job` to `participants` helpers (clamped to the pool
    /// size) and wakes them. Returns a ticket whose
    /// [`wait`](BatchTicket::wait) must be called (or dropped) before the
    /// job's borrows end; the submitting thread should run `job(0)` in
    /// between so it drains work instead of idling.
    ///
    /// Equivalent to [`publish`](EvalPool::publish) followed by
    /// [`BatchTicket::wake`].
    ///
    /// # Panics
    ///
    /// Panics if a batch is already in flight (the engine's merge thread
    /// is the only submitter, so this indicates a bug).
    pub fn dispatch<'p, 'j>(
        &'p self,
        job: &'j (dyn Fn(usize) + Sync),
        participants: usize,
    ) -> BatchTicket<'p, 'j> {
        let ticket = self.publish(job, participants);
        ticket.wake();
        ticket
    }

    /// Publishes `job` without waking the helpers: one mutex acquire plus
    /// a few stores, O(1) in batch size. The caller must follow up with
    /// [`BatchTicket::wake`] — until then the helpers stay parked (they
    /// only observe the new epoch on a wake).
    ///
    /// Split from [`dispatch`](EvalPool::dispatch) so callers that
    /// attribute time to phases can bill the publish separately from the
    /// wake: on a single-core host, `notify_all` typically preempts the
    /// submitter in favor of the woken helpers, so the wake call blocks
    /// for helper *compute* time, which is wait, not dispatch work.
    ///
    /// # Panics
    ///
    /// Panics if a batch is already in flight.
    pub fn publish<'p, 'j>(
        &'p self,
        job: &'j (dyn Fn(usize) + Sync),
        participants: usize,
    ) -> BatchTicket<'p, 'j> {
        let participants = participants.min(self.handles.len());
        if participants > 0 {
            // SAFETY: erases `'j` so the pointer can live in PoolState.
            // The returned ticket borrows the job for `'j` and drains all
            // helpers in drop, so no helper dereferences it after `'j`.
            let erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(job) };
            let mut st = self.shared.state.lock().expect("pool lock");
            assert!(st.job.is_none() && st.active == 0, "batch already in flight");
            st.job = Some(JobPtr(erased as *const _));
            st.epoch += 1;
            st.participants = participants;
            st.active = participants;
        }
        BatchTicket { pool: self, dispatched: participants > 0, _job: std::marker::PhantomData }
    }
}

impl Drop for EvalPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            st.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for EvalPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalPool").field("helpers", &self.handles.len()).finish()
    }
}

/// Receipt for one dispatched batch; completing it (via [`wait`] or drop)
/// is what makes the lifetime-erased job pointer sound.
///
/// [`wait`]: BatchTicket::wait
#[must_use = "a dispatched batch must be waited on"]
pub struct BatchTicket<'p, 'j> {
    pool: &'p EvalPool,
    dispatched: bool,
    /// Borrows the job so it cannot be dropped before the batch drains.
    _job: std::marker::PhantomData<&'j (dyn Fn(usize) + Sync)>,
}

impl BatchTicket<'_, '_> {
    /// Wakes the helpers parked on the batch published by
    /// [`EvalPool::publish`]. Idempotent; a no-op for a threadless batch.
    pub fn wake(&self) {
        if self.dispatched {
            self.pool.shared.work_ready.notify_all();
        }
    }

    /// Blocks until every participating helper finished the job, then
    /// propagates any helper panic.
    ///
    /// # Panics
    ///
    /// Panics with `"evaluation worker panicked"` if a helper's job
    /// invocation panicked.
    pub fn wait(mut self) {
        self.finish();
        if self.pool.shared.panicked.swap(false, Ordering::Relaxed) {
            panic!("evaluation worker panicked");
        }
    }

    fn finish(&mut self) {
        if !self.dispatched {
            return;
        }
        self.dispatched = false;
        let shared = &self.pool.shared;
        let mut st = shared.state.lock().expect("pool lock");
        while st.active > 0 {
            st = shared.work_done.wait(st).expect("pool lock");
        }
        st.job = None;
    }
}

impl Drop for BatchTicket<'_, '_> {
    fn drop(&mut self) {
        // Unwinding through the merge thread must still drain helpers
        // before the job's borrows die; panics here stay recorded for the
        // next wait() rather than double-panicking.
        self.finish();
    }
}

impl std::fmt::Debug for BatchTicket<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchTicket").field("dispatched", &self.dispatched).finish()
    }
}

fn helper_loop(shared: &Shared, slot: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool lock");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    if slot <= st.participants {
                        break st.job.expect("published epoch carries a job");
                    }
                    // Not participating in this batch: keep waiting.
                }
                st = shared.work_ready.wait(st).expect("pool lock");
            }
        };
        // SAFETY: the submitter blocks in BatchTicket::finish until this
        // helper decrements `active` below, so the closure outlives this
        // call; see the module-level notes.
        let run = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(slot) }));
        if run.is_err() {
            shared.panicked.store(true, Ordering::Relaxed);
        }
        let mut st = shared.state.lock().expect("pool lock");
        st.active -= 1;
        if st.active == 0 {
            shared.work_done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn threadless_pool_is_a_no_op() {
        let pool = EvalPool::new(0);
        assert_eq!(pool.helpers(), 0);
        let hits = AtomicUsize::new(0);
        let job = |_slot: usize| {
            hits.fetch_add(1, Ordering::Relaxed);
        };
        let ticket = pool.dispatch(&job, 4);
        job(0); // the submitter still drains work itself
        ticket.wait();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn publish_then_wake_runs_each_helper_exactly_once() {
        let pool = EvalPool::new(2);
        let hits = AtomicUsize::new(0);
        let job = |_slot: usize| {
            hits.fetch_add(1, Ordering::Relaxed);
        };
        let ticket = pool.publish(&job, 2);
        ticket.wake();
        ticket.wake(); // idempotent: helpers run each epoch at most once
        job(0);
        ticket.wait();
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn helpers_drain_a_shared_cursor_across_many_batches() {
        let pool = EvalPool::new(3);
        for round in 0..50usize {
            let n = 1 + (round * 7) % 23;
            let cursor = AtomicUsize::new(0);
            let done = AtomicUsize::new(0);
            let job = |_slot: usize| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                done.fetch_add(1, Ordering::Relaxed);
            };
            let ticket = pool.dispatch(&job, usize::MAX);
            job(0);
            ticket.wait();
            assert_eq!(done.load(Ordering::Relaxed), n, "round {round}");
        }
    }

    #[test]
    fn participant_clamp_excludes_idle_helpers() {
        let pool = EvalPool::new(4);
        let max_slot = AtomicUsize::new(0);
        let job = |slot: usize| {
            max_slot.fetch_max(slot, Ordering::Relaxed);
        };
        let ticket = pool.dispatch(&job, 2);
        job(0);
        ticket.wait();
        assert!(max_slot.load(Ordering::Relaxed) <= 2);
        // The excluded helpers must still accept the next epoch.
        let all = AtomicUsize::new(0);
        let job = |_slot: usize| {
            all.fetch_add(1, Ordering::Relaxed);
        };
        let ticket = pool.dispatch(&job, 4);
        job(0);
        ticket.wait();
        assert_eq!(all.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn helper_panic_is_reraised_on_wait_and_pool_survives() {
        let pool = EvalPool::new(2);
        let job = |slot: usize| {
            if slot == 1 {
                panic!("boom");
            }
        };
        let ticket = pool.dispatch(&job, 2);
        let caught = catch_unwind(AssertUnwindSafe(|| ticket.wait()));
        assert!(caught.is_err(), "helper panic must propagate to wait()");
        // The pool remains fully usable afterwards.
        let ok = AtomicUsize::new(0);
        let job = |_slot: usize| {
            ok.fetch_add(1, Ordering::Relaxed);
        };
        let ticket = pool.dispatch(&job, 2);
        job(0);
        ticket.wait();
        assert_eq!(ok.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn dropping_a_ticket_still_drains_the_batch() {
        let pool = EvalPool::new(2);
        let done = AtomicUsize::new(0);
        let job = |_slot: usize| {
            done.fetch_add(1, Ordering::Relaxed);
        };
        let ticket = pool.dispatch(&job, 2);
        drop(ticket); // e.g. merge thread unwinding
        assert_eq!(done.load(Ordering::Relaxed), 2, "drop must block until helpers finish");
        // And the next batch proceeds normally.
        let ticket = pool.dispatch(&job, 2);
        ticket.wait();
        assert_eq!(done.load(Ordering::Relaxed), 4);
    }
}
