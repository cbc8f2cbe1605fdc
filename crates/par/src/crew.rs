//! The helper crew of a top-level [`map_chunks`](crate::map_chunks) scope.
//!
//! A worker whose chunks run out does not leave the scope: it stays as a
//! *helper* until the scope's last chunk finishes. A worker still running
//! a chunk may then [`share`] a loop with those helpers: it publishes a
//! borrowed `help` closure, which idle helpers call over and over while
//! the worker runs the loop itself, and withdraws it before returning.
//! What `help` computes, and how the owner merges it, is the caller's
//! business — `map_chunks` shares its chunks this way when nested, the
//! FPRAS union loops share their sample indices.

use pqe_obs::span::{self, SpanContext};
use std::any::Any;
use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// A shared loop's per-helper entry point, borrowing for `'h`.
type Help<'h> = dyn Fn() + Sync + 'h;

/// A panic payload caught on a helper.
type Payload = Box<dyn Any + Send + 'static>;

thread_local! {
    /// The crew of the scope whose chunk this thread is running; `None`
    /// on every other thread, on a helper, and on an owner while it
    /// shares (a shared loop's nested loops run inline).
    static CREW: RefCell<Option<Arc<Crew>>> = const { RefCell::new(None) };
}

/// The workers of one top-level `map_chunks` scope.
pub(crate) struct Crew {
    workers: usize,
    /// Workers still running chunks; helpers leave when it reaches 0.
    /// A worker lowers it (`Release`) after its last chunk's results are
    /// stored; the `Acquire` loads that see 0 let helpers go.
    running: AtomicUsize,
    jobs: Mutex<Jobs>,
    /// Signalled when a job opens, a helper leaves a job, or a worker
    /// runs out of chunks.
    changed: Condvar,
}

#[derive(Default)]
struct Jobs {
    next_id: u64,
    open: Vec<Job>,
}

/// A published loop. It stays listed until its owner has withdrawn it
/// and every helper inside it has left.
struct Job {
    id: u64,
    help: &'static Help<'static>,
    /// The owner's span context, adopted by helpers inside the job.
    span: SpanContext,
    /// Cleared (`Release`) when the owner withdraws the job; helpers
    /// read it (`Acquire`) between calls of `help`.
    open: Arc<AtomicBool>,
    /// Helpers currently inside `help`.
    inside: usize,
    /// The first panic a helper caught inside `help`.
    panic: Option<Payload>,
}

impl Crew {
    pub(crate) fn new(workers: usize) -> Crew {
        Crew {
            workers,
            running: AtomicUsize::new(workers),
            jobs: Mutex::new(Jobs::default()),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Jobs> {
        // Nothing panics while holding the lock; a poisoned lock still
        // guards consistent state.
        self.jobs.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs a worker's share of the scope: `chunks` as a crew member
    /// (so nested loops may [`share`]), then helps with other workers'
    /// loops until no worker runs a chunk. `base` is the span context
    /// the worker started in.
    pub(crate) fn work(self: &Arc<Self>, base: SpanContext, chunks: impl FnOnce()) {
        {
            let _member = Member::enter(self);
            chunks();
        }
        self.help(base);
    }

    /// The helper loop: joins open jobs until the scope's last chunk
    /// finishes. A helper that catches a panic hands it to the job's
    /// owner and leaves the crew.
    fn help(&self, base: SpanContext) {
        let mut jobs = self.lock();
        loop {
            if self.running.load(Ordering::Acquire) == 0 {
                return;
            }
            let Some(job) = jobs
                .open
                .iter_mut()
                .find(|j| j.open.load(Ordering::Acquire))
            else {
                jobs = self.changed.wait(jobs).unwrap_or_else(|e| e.into_inner());
                continue;
            };
            job.inside += 1;
            let (id, help, ctx, open) = (job.id, job.help, job.span, Arc::clone(&job.open));
            drop(jobs);
            let caught = {
                let _span = span::join_context(ctx, base);
                panic::catch_unwind(AssertUnwindSafe(|| {
                    while open.load(Ordering::Acquire) {
                        help();
                        std::thread::yield_now();
                    }
                }))
            };
            jobs = self.lock();
            let job = jobs
                .open
                .iter_mut()
                .find(|j| j.id == id)
                .expect("a job stays listed while a helper is inside it");
            job.inside -= 1;
            let failed = caught.is_err();
            if let Err(payload) = caught {
                job.panic.get_or_insert(payload);
            }
            self.changed.notify_all();
            if failed {
                return;
            }
        }
    }

    /// Publishes `help` to this crew's helpers, runs `owner`, then
    /// withdraws `help` and waits until no helper is inside it. A panic a
    /// helper caught inside `help` is resumed here once `owner` returns.
    fn with_job<'h, R>(&self, help: &'h Help<'h>, owner: impl FnOnce() -> R) -> R {
        // SAFETY: `help` is made `'static` only to be stored in this
        // job's list entry. A helper calls it only while it is counted in
        // the entry's `inside` (raised and lowered under the lock), and
        // enters only while `open` is set. `Withdraw` runs on every exit
        // from this function, by return or by unwinding out of `owner`:
        // it clears `open`, so no helper enters anew, blocks until
        // `inside` is 0, and removes the entry. So every call of `help`
        // happens while the borrow it was made from is live.
        let help = unsafe { std::mem::transmute::<&'h Help<'h>, &'static Help<'static>>(help) };
        let open = Arc::new(AtomicBool::new(true));
        let id = {
            let mut jobs = self.lock();
            let id = jobs.next_id;
            jobs.next_id += 1;
            jobs.open.push(Job {
                id,
                help,
                span: span::current_context(),
                open: Arc::clone(&open),
                inside: 0,
                panic: None,
            });
            self.changed.notify_all();
            id
        };
        let mut withdraw = Withdraw {
            crew: self,
            id,
            open,
            done: false,
        };
        let out = owner();
        if let Some(payload) = withdraw.finish() {
            panic::resume_unwind(payload);
        }
        out
    }
}

/// Withdraws a job on every exit from [`Crew::with_job`].
struct Withdraw<'c> {
    crew: &'c Crew,
    id: u64,
    open: Arc<AtomicBool>,
    done: bool,
}

impl Withdraw<'_> {
    /// Closes the job, waits for its helpers to leave and unlists it;
    /// returns the panic a helper caught inside it, if any.
    fn finish(&mut self) -> Option<Payload> {
        self.done = true;
        self.open.store(false, Ordering::Release);
        let mut jobs = self.crew.lock();
        // The entry is listed until this loop removes it.
        while let Some(at) = jobs.open.iter().position(|j| j.id == self.id) {
            if jobs.open[at].inside == 0 {
                return jobs.open.remove(at).panic;
            }
            jobs = self
                .crew
                .changed
                .wait(jobs)
                .unwrap_or_else(|e| e.into_inner());
        }
        None
    }
}

impl Drop for Withdraw<'_> {
    fn drop(&mut self) {
        if !self.done {
            // Unwinding out of the owner: its own panic wins.
            let _ = self.finish();
        }
    }
}

/// Crew membership of a worker running chunks: on leaving, even by
/// unwinding, the worker counts as out of chunks.
struct Member<'c> {
    crew: &'c Crew,
}

impl<'c> Member<'c> {
    fn enter(crew: &'c Arc<Crew>) -> Member<'c> {
        CREW.with(|c| *c.borrow_mut() = Some(Arc::clone(crew)));
        Member { crew }
    }
}

impl Drop for Member<'_> {
    fn drop(&mut self) {
        CREW.with(|c| c.borrow_mut().take());
        self.crew.running.fetch_sub(1, Ordering::Release);
        // Taking the lock orders this wake-up after any helper's check.
        let _jobs = self.crew.lock();
        self.crew.changed.notify_all();
    }
}

/// `true` iff a [`share`] call made here would be offered to helpers: the
/// calling thread runs a chunk of a top-level [`map_chunks`](crate::map_chunks)
/// scope, is not sharing already, and another worker of that scope has
/// run out of chunks.
pub fn has_helpers() -> bool {
    CREW.with(|c| {
        c.borrow()
            .as_ref()
            .is_some_and(|crew| crew.running.load(Ordering::Acquire) < crew.workers)
    })
}

/// Runs `owner` on the calling thread while the idle helpers of its crew,
/// if it has any (see [`has_helpers`]), call `help` over and over, then
/// waits until every helper has returned from `help`.
///
/// `help` must return soon once there is nothing left to do: a helper
/// calls it again until `owner` has returned. It runs with the owner's
/// span context, and a helper's time inside it is charged to the owner's
/// open spans (see `pqe_obs::span::join_context`). Loops nested in
/// `owner` or `help` run inline. A panic inside `help` on a helper is
/// resumed on the calling thread once `owner` returns; the owner must
/// not wait forever on work such a helper abandoned.
pub fn share<R>(help: &(dyn Fn() + Sync), owner: impl FnOnce() -> R) -> R {
    let Some(crew) = CREW.with(|c| c.borrow_mut().take()) else {
        return owner();
    };
    let _restore = Restore(Some(Arc::clone(&crew)));
    crew.with_job(help, owner)
}

/// Puts a crew back into [`CREW`] when a [`share`] call ends.
struct Restore(Option<Arc<Crew>>);

impl Drop for Restore {
    fn drop(&mut self) {
        let crew = self.0.take();
        CREW.with(|c| *c.borrow_mut() = crew);
    }
}
