//! Task-parallel machinery for the blockwise Schur pipelines: budget-aware
//! block admission and deterministic ordered commits.
//!
//! The paper's blockwise algorithms (multi-solve §IV-A, multi-factorization
//! §IV-B) produce a stream of independent block contributions that are folded
//! into the Schur accumulator one after another. Running the block
//! computations concurrently multiplies the transient working memory by the
//! number of in-flight blocks, and — with the H-matrix backend — makes the
//! result depend on the (non-associative) order of compressed AXPYs. The two
//! primitives here address exactly those two problems:
//!
//! * [`BudgetScheduler`] — admission control. A worker may only start
//!   computing its block after reserving the block's worst-case working-set
//!   bytes against the run's [`MemTracker`]. Admission is granted in block
//!   order; when the budget cannot accommodate another in-flight block, the
//!   worker simply waits for earlier blocks to release memory, so concurrency
//!   degrades gracefully (down to one block at a time) instead of failing
//!   with a spurious out-of-memory error. Only when a reservation cannot be
//!   satisfied with *no* other block in flight — i.e. when the sequential
//!   algorithm would also die — does admission fail.
//! * [`OrderedCommit`] — deterministic reduction. Computed blocks are folded
//!   into the shared accumulator strictly in block index order, under one
//!   lock. This serializes the compressed AXPYs (thread-safety) *and* pins
//!   their order (bitwise-identical results for any thread count: the
//!   commit order equals the sequential algorithm's loop order).
//! * [`TaskDag`] — lookahead dispatch. The per-block compute and commit
//!   steps become explicit dependency-DAG nodes pulled by a small worker
//!   pool in deterministic lowest-id-first order, so the next block's
//!   compute overlaps the previous block's commit instead of the pipeline
//!   fork-joining per phase. Scheduling-only: every fold still flows
//!   through [`OrderedCommit`], so results stay bitwise-identical.
//!
//! # Why ordered admission?
//!
//! Admitting blocks out of order can deadlock the ordered commit: if block
//! `k` is admitted while block `k-1` still waits for memory, every admitted
//! block ≥ `k` parks in [`OrderedCommit::commit`] holding its reservation,
//! and block `k-1` waits forever for bytes that will never be released.
//! Granting admission in block order makes the lowest uncommitted block
//! always runnable: the only memory it can wait for belongs to *earlier*
//! blocks, which can complete without it.
//!
//! # Failure propagation
//!
//! The first error poisons both primitives: blocked admissions return the
//! error instead of waiting, and parked commits drain without applying their
//! panels. The pipeline therefore ends promptly with the original error and
//! every reservation released.

use std::sync::Arc;

use csolve_common::{Error, MemCharge, MemTracker, Result, SpanKind, TraceEventKind, Tracer};
use parking_lot::{Condvar, Mutex};

/// How long a blocked worker sleeps between re-checks of the scheduler
/// state. All state transitions `notify_all`, so this is purely a defensive
/// backstop turning any missed-wakeup bug into slow polling instead of a
/// hang.
const WAIT_SLICE: std::time::Duration = std::time::Duration::from_millis(50);

#[derive(Debug)]
struct SchedState {
    /// Next block index to be admitted (admission is granted in order).
    next_ticket: usize,
    /// Admissions currently held (reserved and not yet dropped).
    inflight: usize,
    /// Admitted workers still computing (not yet parked in a commit wait).
    computing: usize,
    /// Maximum concurrently admitted blocks; shrinks under budget pressure.
    cap: usize,
    /// Bumped whenever memory is released or a worker stops computing, so
    /// retrying workers can tell progress from a stall.
    epoch: u64,
    /// First error; set once, then every admission request fails fast.
    poisoned: Option<Error>,
}

/// Budget-aware admission control for a run of pipeline blocks.
///
/// See the [module documentation](self) for the design rationale.
#[derive(Debug)]
pub struct BudgetScheduler {
    tracker: Arc<MemTracker>,
    state: Mutex<SchedState>,
    cv: Condvar,
    tracer: Tracer,
}

impl BudgetScheduler {
    /// Scheduler admitting at most `cap` blocks concurrently (clamped to at
    /// least one), charging reservations against `tracker`.
    pub fn new(tracker: Arc<MemTracker>, cap: usize) -> Self {
        Self {
            tracker,
            state: Mutex::new(SchedState {
                next_ticket: 0,
                inflight: 0,
                computing: 0,
                cap: cap.max(1),
                epoch: 0,
                poisoned: None,
            }),
            cv: Condvar::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Record admission waits (`admit_wait` spans), cap degradations
    /// (`budget_degrade`) and poisonings into `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Reserve `bytes` for block `seq` and enter the in-flight set.
    ///
    /// Blocks until every block `< seq` has been admitted, a concurrency slot
    /// is free, and the reservation fits the budget. Fails only when the
    /// reservation cannot fit with no other block in flight (the sequential
    /// algorithm would fail too) or after the scheduler was poisoned.
    pub fn admit(&self, seq: usize, bytes: usize, what: &'static str) -> Result<Admission<'_>> {
        #[cfg(feature = "fault-inject")]
        if crate::fault::take_admit_oom(seq) {
            return Err(Error::OutOfMemory {
                requested: bytes,
                live: 0,
                budget: 0,
                what,
            });
        }
        // The span covers the whole admission (including the wait for the
        // block's ticket/slot/bytes) and is recorded by this worker before
        // any other record of block `seq`, keeping per-block record order
        // deterministic.
        let _wait = self.tracer.block(seq).span(SpanKind::AdmitWait);
        let mut st = self.state.lock();
        loop {
            if let Some(e) = &st.poisoned {
                return Err(e.clone());
            }
            if st.next_ticket == seq && st.inflight < st.cap {
                match self.tracker.charge(bytes, what) {
                    Ok(charge) => {
                        st.next_ticket += 1;
                        st.inflight += 1;
                        st.computing += 1;
                        self.cv.notify_all();
                        return Ok(Admission {
                            sched: self,
                            charge: Some(charge),
                            committing: false,
                        });
                    }
                    Err(e) => {
                        if st.inflight == 0 {
                            return Err(e);
                        }
                        // Budget pressure: stop admitting beyond the level
                        // that currently fits, then wait for releases.
                        st.cap = st.inflight;
                        self.tracer
                            .block(seq)
                            .event(TraceEventKind::BudgetDegrade { cap: st.cap });
                    }
                }
            }
            self.cv.wait_for(&mut st, WAIT_SLICE);
        }
    }

    /// Re-reserve `bytes` for a block whose first attempt hit an
    /// out-of-memory error mid-compute (its ticket is already consumed).
    ///
    /// Blocks while other workers are still computing (their releases may
    /// free the needed bytes); fails once no computing worker remains and
    /// the reservation still does not fit.
    pub fn readmit(&self, bytes: usize, what: &'static str) -> Result<Admission<'_>> {
        let mut st = self.state.lock();
        loop {
            if let Some(e) = &st.poisoned {
                return Err(e.clone());
            }
            match self.tracker.charge(bytes, what) {
                Ok(charge) => {
                    st.inflight += 1;
                    st.computing += 1;
                    self.cv.notify_all();
                    return Ok(Admission {
                        sched: self,
                        charge: Some(charge),
                        committing: false,
                    });
                }
                Err(e) => {
                    if st.computing == 0 {
                        return Err(e);
                    }
                }
            }
            self.cv.wait_for(&mut st, WAIT_SLICE);
        }
    }

    /// Wait for the scheduler state to advance past `epoch0`. Returns `true`
    /// if the pipeline is stalled instead — no worker is computing anymore,
    /// so no further memory release is coming.
    pub fn wait_for_progress(&self, epoch0: u64) -> bool {
        let mut st = self.state.lock();
        while st.epoch == epoch0 && st.computing > 0 {
            self.cv.wait_for(&mut st, WAIT_SLICE);
        }
        st.computing == 0
    }

    /// Current epoch (see [`BudgetScheduler::wait_for_progress`]).
    pub fn epoch(&self) -> u64 {
        self.state.lock().epoch
    }

    /// Record the first error; every subsequent or blocked admission fails
    /// with a clone of it. Idempotent: later errors are ignored.
    pub fn poison(&self, e: &Error) {
        let mut st = self.state.lock();
        if st.poisoned.is_none() {
            st.poisoned = Some(e.clone());
            // Failure-only diagnostic: not part of the deterministic-order
            // contract (healthy runs never emit it).
            self.tracer.run().event(TraceEventKind::Poisoned);
        }
        self.cv.notify_all();
    }

    fn bump(&self) {
        let mut st = self.state.lock();
        st.epoch += 1;
        self.cv.notify_all();
    }

    fn leave_computing(&self) {
        let mut st = self.state.lock();
        st.computing -= 1;
        st.epoch += 1;
        self.cv.notify_all();
    }

    fn release(&self, was_computing: bool) {
        let mut st = self.state.lock();
        st.inflight -= 1;
        if was_computing {
            st.computing -= 1;
        }
        st.epoch += 1;
        self.cv.notify_all();
    }
}

/// RAII token for one admitted block: holds the block's byte reservation and
/// its slot in the scheduler's in-flight set, releasing both on drop.
#[derive(Debug)]
pub struct Admission<'a> {
    sched: &'a BudgetScheduler,
    charge: Option<MemCharge>,
    committing: bool,
}

impl Admission<'_> {
    /// Shrink (or budget-checked grow) the reservation to `bytes` — e.g.
    /// down to the computed block's actual size once the working set is
    /// freed, so commit-parked blocks hold as little as possible.
    pub fn resize(&mut self, bytes: usize, what: &'static str) -> Result<()> {
        let Some(charge) = self.charge.as_mut() else {
            // Unreachable by construction (the charge is only cleared on
            // drop), but a worker thread must never panic: the pipeline
            // drains on a structured error instead.
            return Err(Error::Internal {
                context: "admission charge missing in resize",
            });
        };
        charge.resize(bytes, what)?;
        self.sched.bump();
        Ok(())
    }

    /// Mark this block as done computing, about to park in an ordered
    /// commit. Lets [`BudgetScheduler::wait_for_progress`] distinguish
    /// workers that can still release memory from workers waiting their
    /// commit turn.
    pub fn begin_commit(&mut self) {
        if !self.committing {
            self.committing = true;
            self.sched.leave_computing();
        }
    }
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        // Release the bytes before leaving the in-flight set, so a worker
        // woken by the release immediately sees the freed budget.
        self.charge = None;
        self.sched.release(!self.committing);
    }
}

#[derive(Debug)]
struct CommitState<S> {
    next: usize,
    value: Option<S>,
    error: Option<Error>,
}

/// Deterministic ordered reduction of block results into a shared
/// accumulator: block `seq` is applied only after blocks `0..seq`, under one
/// lock, reproducing the sequential algorithm's fold order exactly.
#[derive(Debug)]
pub struct OrderedCommit<S> {
    state: Mutex<CommitState<S>>,
    cv: Condvar,
    tracer: Tracer,
}

impl<S> OrderedCommit<S> {
    /// Wrap the accumulator `value`; commits start at block 0.
    pub fn new(value: S) -> Self {
        Self {
            state: Mutex::new(CommitState {
                next: 0,
                value: Some(value),
                error: None,
            }),
            cv: Condvar::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Record each block's commit stall (the `commit_wait` span: time spent
    /// parked behind earlier blocks) into `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Apply `f` to the accumulator as the `seq`-th commit.
    ///
    /// Blocks until commits `0..seq` have completed. After any recorded
    /// error the call drains immediately with a clone of that error and `f`
    /// is not run; an error returned by `f` itself is recorded and unblocks
    /// every later commit the same way.
    pub fn commit<R>(&self, seq: usize, f: impl FnOnce(&mut S) -> Result<R>) -> Result<R> {
        let mut st = self.state.lock();
        {
            // Only the ordered-commit stall; `f` itself is the caller's span.
            let _wait = self.tracer.block(seq).span(SpanKind::CommitWait);
            while st.next != seq && st.error.is_none() {
                self.cv.wait_for(&mut st, WAIT_SLICE);
            }
        }
        if let Some(e) = &st.error {
            return Err(e.clone());
        }
        let Some(value) = st.value.as_mut() else {
            // Unreachable by construction (`into_result` consumes `self`),
            // but commit runs on worker threads: poison instead of panic.
            let e = Error::Internal {
                context: "ordered-commit accumulator missing",
            };
            st.error = Some(e.clone());
            self.cv.notify_all();
            return Err(e);
        };
        let out = f(value);
        st.next += 1;
        if let Err(e) = &out {
            if st.error.is_none() {
                st.error = Some(e.clone());
            }
        }
        self.cv.notify_all();
        out
    }

    /// Record `e` as the pipeline's error (first error wins) and unblock
    /// every parked commit.
    pub fn abort(&self, e: &Error) {
        let mut st = self.state.lock();
        if st.error.is_none() {
            st.error = Some(e.clone());
        }
        self.cv.notify_all();
    }

    /// Finish the reduction: the accumulator on success, the first recorded
    /// error otherwise.
    pub fn into_result(self) -> Result<S> {
        let mut st = self.state.into_inner();
        match (st.error.take(), st.value.take()) {
            (Some(e), _) => Err(e),
            (None, Some(v)) => Ok(v),
            (None, None) => Err(Error::Internal {
                context: "ordered-commit accumulator missing",
            }),
        }
    }
}

/// Lookahead task-DAG executor for the blockwise pipelines.
///
/// Each pipeline step `i` contributes two DAG nodes — `compute(i)` (node id
/// `2i`: admit + block computation, runs concurrently) and `commit(i)` (node
/// id `2i + 1`: the ordered fold into the accumulator). The dependency edges
/// are:
///
/// * `commit(i)` ← `compute(i)` — a block folds only after it is computed;
/// * `commit(i)` ← `commit(i − 1)` — commits form a chain, reproducing the
///   sequential fold order (the [`OrderedCommit`] below it enforces the same
///   order, so the DAG edge is what makes commit tasks *dispatchable* in
///   order rather than parked);
/// * `compute(i)` ← `commit(i − L)` — the lookahead bound `L`: at most `L`
///   computes may run ahead of the commit frontier, bounding transient
///   memory exactly like the admission cap it mirrors.
///
/// Workers pull the lowest-id ready node (a deterministic priority), so
/// `compute(i + 1)` is dispatched while `commit(i)` is still folding — the
/// panel-factor/Schur-commit overlap the paper's lookahead pipelining
/// targets — yet a lone worker degenerates to the exact sequential order
/// `compute(0), commit(0), compute(1), …` because a ready commit always has
/// a smaller id than any later compute.
///
/// # Determinism
///
/// Dispatch order affects only *where* and *when* tasks run. Every numeric
/// fold still flows through the [`OrderedCommit`] chain in block order, so
/// results are bitwise-identical for any thread count. The tracer records —
/// one [`TraceEventKind::TaskReady`] event and one [`SpanKind::TaskRun`]
/// span per node, in the node's block scope — are emitted in a fixed
/// per-block order (compute's ready/run, then commit's ready/run), keeping
/// the canonical drained trace thread-count-invariant.
#[derive(Debug)]
pub struct TaskDag {
    state: Mutex<DagState>,
    cv: Condvar,
    tracer: Tracer,
    steps: usize,
    lookahead: usize,
}

#[derive(Debug)]
struct DagState {
    /// Unmet dependency count per node (`compute(i)` = `2i`,
    /// `commit(i)` = `2i + 1`).
    deps: Vec<u8>,
    /// Ready nodes, pulled lowest-id first.
    ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>>,
    /// Completed node count; the executor exits when it reaches `2 · steps`.
    completed: usize,
}

impl TaskDag {
    /// DAG for a `steps`-block pipeline with lookahead `L` (clamped to at
    /// least 1): `compute(i)` waits for `commit(i − L)`.
    pub fn pipeline(steps: usize, lookahead: usize) -> Self {
        let lookahead = lookahead.max(1);
        let mut deps = vec![0u8; 2 * steps];
        let mut ready = std::collections::BinaryHeap::new();
        for i in 0..steps {
            deps[2 * i] = u8::from(i >= lookahead);
            deps[2 * i + 1] = 1 + u8::from(i > 0);
            if i < lookahead {
                ready.push(std::cmp::Reverse(2 * i));
            }
        }
        Self {
            state: Mutex::new(DagState {
                deps,
                ready,
                completed: 0,
            }),
            cv: Condvar::new(),
            tracer: Tracer::disabled(),
            steps,
            lookahead,
        }
    }

    /// Record `task_ready` events and `task_run` spans into `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Pull the lowest-id ready node; `None` once every node has completed.
    fn next_task(&self) -> Option<usize> {
        let mut st = self.state.lock();
        loop {
            if let Some(std::cmp::Reverse(id)) = st.ready.pop() {
                return Some(id);
            }
            if st.completed == 2 * self.steps {
                return None;
            }
            self.cv.wait_for(&mut st, WAIT_SLICE);
        }
    }

    /// Mark node `id` complete; newly-unblocked dependents enter the ready
    /// queue (each with its `task_ready` event, emitted in id order).
    fn complete(&self, id: usize) {
        let step = id / 2;
        // Dependents in ascending id order: a compute unblocks its own
        // commit; a commit unblocks the next commit and the compute
        // `lookahead` steps ahead.
        let dependents: [Option<usize>; 2] = if id.is_multiple_of(2) {
            [Some(2 * step + 1), None]
        } else {
            [
                (step + 1 < self.steps).then_some(2 * step + 3),
                (step + self.lookahead < self.steps).then_some(2 * (step + self.lookahead)),
            ]
        };
        let mut st = self.state.lock();
        st.completed += 1;
        for dep in dependents.into_iter().flatten() {
            st.deps[dep] -= 1;
            if st.deps[dep] == 0 {
                self.tracer
                    .block(dep / 2)
                    .event(TraceEventKind::TaskReady { node: dep });
                st.ready.push(std::cmp::Reverse(dep));
            }
        }
        self.cv.notify_all();
    }

    /// Run the pipeline on up to `workers` workers.
    ///
    /// The worker count is clamped to `min(workers, lookahead, steps)`: at
    /// most `lookahead` nodes are ever runnable at once, so a further
    /// worker could only park. A parked worker is not free under the
    /// vendored runtime: it holds one of the `threads − 1` helper permits
    /// for the whole run, and every `join` inside the running tasks would
    /// then execute inline.
    ///
    /// `compute(i)` produces block `i`'s payload (or `None` after recording
    /// its error with the scheduler/commit primitives — the DAG keeps
    /// draining, and downstream commits of missing payloads are skipped);
    /// `commit(i, payload)` folds it. Both closures' tracer records land in
    /// block scopes; this executor wraps each in the block's `task_run`
    /// span. Blocks until every node has run.
    pub fn execute<P: Send>(
        &self,
        workers: usize,
        compute: impl Fn(usize) -> Option<P> + Sync,
        commit: impl Fn(usize, P) + Sync,
    ) {
        if self.steps == 0 {
            return;
        }
        // Initially-ready computes announce themselves in id order before
        // any worker starts, so `task_ready` is each block's first record.
        {
            let st = self.state.lock();
            let mut initial: Vec<usize> = st.ready.iter().map(|r| r.0).collect();
            initial.sort_unstable();
            for id in initial {
                self.tracer
                    .block(id / 2)
                    .event(TraceEventKind::TaskReady { node: id });
            }
        }
        // Hand-off slots from each compute task to its commit task.
        let slots: Vec<Mutex<Option<P>>> = (0..self.steps).map(|_| Mutex::new(None)).collect();
        let worker = || {
            while let Some(id) = self.next_task() {
                let step = id / 2;
                if id % 2 == 0 {
                    let payload = {
                        let _run = self.tracer.block(step).span(SpanKind::TaskRun);
                        compute(step)
                    };
                    if let Some(p) = payload {
                        *slots[step].lock() = Some(p);
                    }
                } else if let Some(p) = slots[step].lock().take() {
                    let _run = self.tracer.block(step).span(SpanKind::TaskRun);
                    commit(step, p);
                }
                self.complete(id);
            }
        };
        rayon::scope(|s| {
            // One worker runs inline on this thread (the scope'd spawns may
            // all degrade to inline execution under permit pressure; any
            // single worker can drain the whole DAG alone).
            for _ in 1..workers.min(self.lookahead).min(self.steps).max(1) {
                s.spawn(|_| worker());
            }
            worker();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csolve_common::MemTracker;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn sequential_admission_and_commit() {
        let tracker = MemTracker::with_budget(1000);
        let sched = BudgetScheduler::new(Arc::clone(&tracker), 1);
        let commit = OrderedCommit::new(Vec::new());
        for seq in 0..4 {
            let mut adm = sched.admit(seq, 100, "block").unwrap();
            adm.begin_commit();
            commit
                .commit(seq, |v: &mut Vec<usize>| {
                    v.push(seq);
                    Ok(())
                })
                .unwrap();
        }
        assert_eq!(commit.into_result().unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(tracker.live(), 0);
    }

    #[test]
    fn commits_are_applied_in_block_order_despite_racing_workers() {
        let tracker = MemTracker::unbounded();
        let sched = BudgetScheduler::new(Arc::clone(&tracker), 8);
        let commit = OrderedCommit::new(Vec::new());
        std::thread::scope(|s| {
            // Spawn in reverse so late blocks race ahead of early ones.
            for seq in (0..8usize).rev() {
                let (sched, commit) = (&sched, &commit);
                s.spawn(move || {
                    let mut adm = sched.admit(seq, 10, "block").unwrap();
                    std::thread::sleep(std::time::Duration::from_millis((7 - seq as u64) * 3));
                    adm.begin_commit();
                    commit
                        .commit(seq, |v: &mut Vec<usize>| {
                            v.push(seq);
                            Ok(())
                        })
                        .unwrap();
                });
            }
        });
        assert_eq!(commit.into_result().unwrap(), (0..8).collect::<Vec<_>>());
        assert_eq!(tracker.live(), 0);
    }

    #[test]
    fn budget_limits_inflight_blocks() {
        // Budget fits exactly two 100-byte reservations; with 4 workers the
        // tracker peak must never exceed the budget.
        let tracker = MemTracker::with_budget(250);
        let sched = BudgetScheduler::new(Arc::clone(&tracker), 4);
        let commit = OrderedCommit::new(());
        std::thread::scope(|s| {
            for seq in 0..6usize {
                let (sched, commit, tracker) = (&sched, &commit, &tracker);
                s.spawn(move || {
                    let mut adm = sched.admit(seq, 100, "block").unwrap();
                    assert!(tracker.live() <= 250);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    adm.begin_commit();
                    commit.commit(seq, |_| Ok(())).unwrap();
                });
            }
        });
        assert!(tracker.peak() <= 250);
        assert_eq!(tracker.live(), 0);
        commit.into_result().unwrap();
    }

    #[test]
    fn impossible_reservation_fails_only_when_alone() {
        let tracker = MemTracker::with_budget(100);
        let sched = BudgetScheduler::new(Arc::clone(&tracker), 2);
        // Nothing in flight and the reservation exceeds the whole budget:
        // fail immediately, as the sequential algorithm would.
        let err = sched.admit(0, 200, "huge").unwrap_err();
        assert!(err.is_oom());
        assert_eq!(tracker.live(), 0);
    }

    #[test]
    fn degraded_admission_waits_for_release() {
        let tracker = MemTracker::with_budget(150);
        let sched = BudgetScheduler::new(Arc::clone(&tracker), 4);
        let order = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let (sched, order) = (&sched, &order);
            s.spawn(move || {
                let adm = sched.admit(0, 100, "a").unwrap();
                std::thread::sleep(std::time::Duration::from_millis(30));
                order.fetch_add(1, Ordering::SeqCst);
                drop(adm);
            });
            s.spawn(move || {
                // 100 + 100 exceeds the budget: must wait for block 0 to
                // release, i.e. admission degrades to one block at a time.
                let _adm = sched.admit(1, 100, "b").unwrap();
                assert_eq!(order.load(Ordering::SeqCst), 1);
            });
        });
        assert_eq!(tracker.live(), 0);
        assert!(tracker.peak() <= 150);
    }

    #[test]
    fn poison_drains_blocked_admissions_and_commits() {
        let tracker = MemTracker::with_budget(100);
        let sched = BudgetScheduler::new(Arc::clone(&tracker), 2);
        let commit = OrderedCommit::new(());
        let e = Error::InvalidConfig("boom".into());
        std::thread::scope(|s| {
            let (sched, commit, e) = (&sched, &commit, &e);
            s.spawn(move || {
                // Ticket 1 can never be admitted (ticket 0 is never used);
                // the poison must unblock it.
                let err = sched.admit(1, 10, "b").unwrap_err();
                assert_eq!(&err, e);
            });
            s.spawn(move || {
                // A commit parked behind seq 0 drains on abort.
                let err = commit.commit(1, |_| Ok(())).unwrap_err();
                assert_eq!(&err, e);
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            sched.poison(e);
            commit.abort(e);
        });
        assert!(commit.into_result().is_err());
    }

    #[test]
    fn commit_error_propagates_to_later_commits() {
        let commit = OrderedCommit::new(0u32);
        let e = Error::InvalidConfig("bad block".into());
        let got = commit.commit(0, |_| -> Result<()> { Err(e.clone()) });
        assert_eq!(got.unwrap_err(), e);
        let err = commit
            .commit(1, |v| {
                *v += 1;
                Ok(())
            })
            .unwrap_err();
        assert_eq!(err, e);
        assert_eq!(commit.into_result().unwrap_err(), e);
    }

    #[test]
    fn readmit_waits_for_computing_workers() {
        let tracker = MemTracker::with_budget(150);
        let sched = BudgetScheduler::new(Arc::clone(&tracker), 4);
        std::thread::scope(|s| {
            let sched = &sched;
            s.spawn(move || {
                let adm = sched.admit(0, 100, "a").unwrap();
                std::thread::sleep(std::time::Duration::from_millis(30));
                drop(adm); // release while the retrier waits
            });
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                let _t1 = sched.admit(1, 40, "b").unwrap();
                // Simulate a mid-compute OOM retry needing 100 bytes: must
                // succeed once block 0 releases.
                let _r = sched.readmit(100, "retry").unwrap();
            });
        });
        assert_eq!(tracker.live(), 0);
    }

    #[test]
    fn wait_for_progress_detects_stall() {
        let tracker = MemTracker::unbounded();
        let sched = BudgetScheduler::new(tracker, 2);
        // No worker computing: stalled immediately.
        assert!(sched.wait_for_progress(sched.epoch()));
    }

    #[test]
    fn task_dag_lone_worker_degenerates_to_sequential_order() {
        let order = Mutex::new(Vec::new());
        let dag = TaskDag::pipeline(4, 2);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        pool.install(|| {
            dag.execute(
                1,
                |i| {
                    order.lock().push(format!("c{i}"));
                    Some(i)
                },
                |i, _| order.lock().push(format!("m{i}")),
            );
        });
        // A ready commit always outranks any later compute (smaller node id),
        // so one worker reproduces the sequential loop exactly.
        assert_eq!(
            *order.lock(),
            vec!["c0", "m0", "c1", "m1", "c2", "m2", "c3", "m3"]
        );
    }

    #[test]
    fn task_dag_respects_lookahead_and_commit_order() {
        let committed = Mutex::new(Vec::new());
        let frontier = AtomicUsize::new(0);
        let dag = TaskDag::pipeline(6, 2);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        pool.install(|| {
            dag.execute(
                4,
                |i| {
                    // compute(i) may only start once commit(i - 2) is done.
                    assert!(
                        frontier.load(Ordering::SeqCst) + 2 > i,
                        "lookahead violated at {i}"
                    );
                    Some(i)
                },
                |i, _| {
                    committed.lock().push(i);
                    frontier.store(i + 1, Ordering::SeqCst);
                },
            );
        });
        assert_eq!(*committed.lock(), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn task_dag_runs_no_more_workers_than_lookahead() {
        // Lookahead 1 makes the pipeline a strict chain: at 2 threads the
        // executor must run one worker, leaving the runtime's only helper
        // permit to the joins inside the running task.
        let running = AtomicUsize::new(0);
        let high_water = AtomicUsize::new(0);
        let helper_seen = std::sync::atomic::AtomicBool::new(false);
        let task = |body: &dyn Fn()| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            high_water.fetch_max(now, Ordering::SeqCst);
            body();
            running.fetch_sub(1, Ordering::SeqCst);
        };
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let dag = TaskDag::pipeline(4, 1);
        pool.install(|| {
            dag.execute(
                2,
                |i| {
                    task(&|| {
                        // Concurrently running tests may hold the permit
                        // for a moment; retry before giving up.
                        let here = std::thread::current().id();
                        for _ in 0..200 {
                            if helper_seen.load(Ordering::SeqCst) {
                                break;
                            }
                            let (_, there) = rayon::join(|| (), || std::thread::current().id());
                            if there != here {
                                helper_seen.store(true, Ordering::SeqCst);
                            } else {
                                std::thread::sleep(std::time::Duration::from_millis(1));
                            }
                        }
                    });
                    Some(i)
                },
                |_, _| task(&|| std::thread::sleep(std::time::Duration::from_millis(2))),
            );
        });
        assert_eq!(high_water.load(Ordering::SeqCst), 1, "tasks overlapped");
        assert!(
            helper_seen.load(Ordering::SeqCst),
            "a join inside compute never reached a helper thread"
        );
    }

    #[test]
    fn task_dag_drains_after_compute_failure() {
        let committed = Mutex::new(Vec::new());
        let dag = TaskDag::pipeline(4, 2);
        dag.execute(
            2,
            |i| if i == 1 { None } else { Some(i) },
            |i, _| committed.lock().push(i),
        );
        // Block 1's commit is skipped (no payload); the executor still
        // drains every node and returns instead of hanging.
        assert_eq!(*committed.lock(), vec![0, 2, 3]);
    }

    #[test]
    fn task_dag_overlaps_next_compute_with_previous_commit() {
        use csolve_common::{TracePayload, TraceScope};
        // With two workers and lookahead 2, compute(1) is dispatched at
        // start while commit(0) runs later — its task_run span must open
        // before commit(0)'s closes. Permit contention from concurrently
        // running tests can serialize a round; retry a few times.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        for attempt in 0..10 {
            let tracer = Tracer::enabled();
            let dag = TaskDag::pipeline(3, 2).with_tracer(tracer.clone());
            pool.install(|| {
                dag.execute(
                    2,
                    |i| {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Some(i)
                    },
                    |_, _| std::thread::sleep(std::time::Duration::from_millis(20)),
                );
            });
            let records = tracer.drain();
            // Per block: task_run spans in order (compute, commit).
            let runs = |b: usize| -> Vec<(u64, u64)> {
                records
                    .iter()
                    .filter(|r| r.scope == TraceScope::Block(b))
                    .filter_map(|r| match &r.payload {
                        TracePayload::Span {
                            kind,
                            start_ns,
                            dur_ns,
                            ..
                        } if *kind == SpanKind::TaskRun => Some((*start_ns, *start_ns + *dur_ns)),
                        _ => None,
                    })
                    .collect()
            };
            let (b0, b1) = (runs(0), runs(1));
            assert_eq!(b0.len(), 2, "block 0 must run compute + commit");
            assert_eq!(b1.len(), 2, "block 1 must run compute + commit");
            let compute1_open = b1[0].0;
            let commit0_close = b0[1].1;
            if compute1_open < commit0_close {
                return; // overlap observed
            }
            assert!(attempt < 9, "no compute/commit overlap in 10 attempts");
        }
    }
}
