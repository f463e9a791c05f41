//! Worker-pool execution context for the compute kernels, backed by one
//! resident worker team.
//!
//! Every parallel kernel in the workspace takes an explicit [`Pool`] (the
//! `*_with` entry points) instead of spawning ambient threads; the plain
//! entry points delegate to a process-wide [`Pool::global`] sized from
//! `NP_THREADS` or the machine's available parallelism. A `Pool` is just a
//! thread *count*: the threads themselves belong to one process-wide team
//! that every pool shares, and the team is the only place the workspace
//! creates threads.
//!
//! # The resident team
//!
//! Workers are created lazily, once, up to the widest region requested
//! (at most [`MAX_TEAM_WIDTH`] − 1 of them), and then live for the rest of
//! the process. Every region method ([`Pool::run`], [`Pool::for_each_chunk`],
//! [`Pool::for_each_mut`], [`Pool::for_each_chunk_pair`] and [`Pool::map`])
//! is one dispatch of the same primitive:
//!
//! 1. The calling thread takes the team, publishes the region's job — a
//!    type-erased `&(dyn Fn() + Sync)` borrowed from its own stack — and
//!    opens the region with one store of the team's state word
//!    (`epoch << 16 | width << 1 | open`).
//! 2. Workers `0..width - 1` that are still spinning see the new epoch and
//!    join by themselves. Only workers that have already parked are
//!    unparked, so a region whose workers are hot costs no futex syscall.
//! 3. The caller and the joined workers claim work items from one atomic
//!    index until none are left.
//! 4. The caller clears the open bit, then waits only for the workers that
//!    actually joined. A worker that wakes late finds the region closed and
//!    never touches the job; that is what makes the borrowed job sound and
//!    dispatch free of heap allocation.
//!
//! An idle worker spins for a few microseconds, so back-to-back regions of
//! one frame find it hot, and then parks; the caller's wait for its joined
//! workers spins and parks the same way.
//!
//! A region opened while the team is taken — from inside a task (on a
//! worker or on the caller's own share), or from a second thread while the
//! first holds the team — runs inline on the calling thread. Nesting can
//! therefore never deadlock, and the thread count stays bounded by the team.
//!
//! A panic in a task is caught on the worker and re-raised on the caller
//! once the region is closed. If the caller's own share panics, the region
//! is still closed and joined before the panic unwinds further. The team
//! stays usable either way.
//!
//! # Determinism
//!
//! Parallel float kernels in this workspace are bitwise-deterministic
//! across pool sizes. Two rules make that hold and `Pool` is designed
//! around them:
//!
//! 1. **Independent outputs, shared kernel.** Work items own disjoint
//!    output slices, and the per-item arithmetic is the *same code path*
//!    regardless of which worker runs it or how items are partitioned.
//!    [`Pool::run`] and [`Pool::for_each_chunk`] only decide *who* computes
//!    an item, never *how*.
//! 2. **Fixed-shape reductions.** When results must be summed (e.g. weight
//!    gradients across a batch), callers reduce over fixed-size chunks
//!    whose boundaries depend only on the problem size — never on the
//!    thread count — and the final accumulation happens on the calling
//!    thread in chunk order.
//!
//! Integer kernels (the quantized path) are exact, so their parallel
//! parity is unconditional.

use std::any::Any;
use std::hint;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// Widest parallel region the team runs: the calling thread plus
/// `MAX_TEAM_WIDTH - 1` resident workers. Wider pools keep their thread
/// count (and so their chunking) but are served at this width, so
/// `Pool::new(huge)` never creates more than `MAX_TEAM_WIDTH - 1` threads.
pub const MAX_TEAM_WIDTH: usize = 16;

/// How long an idle worker, or a caller waiting for its joined workers,
/// spins before parking. Kept short: on a 2-vCPU host, 20–50 µs spins
/// cost more CPU per streamed frame than the futex wakes they saved.
const SPIN: Duration = Duration::from_micros(2);

/// An explicit execution context: how many threads parallel regions may use.
///
/// Cheap to copy; holds no OS resources. `threads == 1` means every
/// operation runs inline on the calling thread with zero overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool that fans out to at most `threads` workers (minimum 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// The single-threaded pool: all work runs on the calling thread.
    pub fn serial() -> Self {
        Pool { threads: 1 }
    }

    /// The process-wide default pool.
    ///
    /// Sized from the `NP_THREADS` environment variable when set to a
    /// positive integer, otherwise from `std::thread::available_parallelism`
    /// capped at 8 (the kernels here saturate memory bandwidth quickly;
    /// more workers than that just adds scheduling noise).
    pub fn global() -> Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        *GLOBAL.get_or_init(|| {
            let raw = std::env::var("NP_THREADS").ok();
            let threads = match parse_np_threads(raw.as_deref()) {
                Ok(Some(n)) => n,
                Ok(None) => default_threads(),
                Err(raw) => {
                    np_trace::warn!(
                        "ignoring NP_THREADS={raw:?}: expected a positive integer, \
                         using {} threads",
                        default_threads()
                    );
                    default_threads()
                }
            };
            Pool::new(threads)
        })
    }

    /// The worker count this pool fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Scalar operations (e.g. multiply-adds) each worker must have
    /// before fanning out pays for the region's dispatch and join.
    ///
    /// Measured on the kernel bench: below roughly this many MACs per
    /// worker, dispatch dominates and threads=2/4 run *slower* than serial
    /// (see `BENCH_kernels.json`). Raising it to `1 << 18` once the team
    /// became resident made d1/d2 frame tails worse, so it stays here.
    pub const MIN_WORK_PER_THREAD: usize = 1 << 15;

    /// Clamps the pool for a kernel invocation totalling `work` scalar
    /// operations: runs serial when the machine only has one CPU (fanning
    /// out can never win — the workers time-slice one core) and otherwise
    /// caps the worker count so each has at least
    /// [`Pool::MIN_WORK_PER_THREAD`] operations.
    ///
    /// Determinism is unaffected: the clamp is a pure function of the
    /// problem size and the machine, never of the thread count, and the
    /// kernels' chunk partitions don't depend on pool width anyway.
    pub fn for_work(self, work: usize) -> Pool {
        if self.threads == 1 {
            return self;
        }
        if cpus_available() == 1 {
            return Pool::serial();
        }
        let max_useful = (work / Self::MIN_WORK_PER_THREAD).max(1);
        Pool::new(self.threads.min(max_useful))
    }

    /// Chunk length (in elements) for [`Pool::for_each_chunk`] over
    /// `n_items` work items of `item_len` elements each: always a whole
    /// number of items, aiming for about two chunks per worker so the
    /// shared queue can balance uneven chunk costs without paying a lock
    /// round-trip per item.
    ///
    /// Grouping items into chunks never changes results here: every
    /// kernel using this helper computes each item with the same code
    /// path regardless of which chunk it lands in, so outputs stay
    /// bitwise-identical across pool widths.
    pub fn chunk_len_for(&self, n_items: usize, item_len: usize) -> usize {
        let target_chunks = (2 * self.threads).clamp(1, n_items.max(1));
        item_len.max(1) * n_items.div_ceil(target_chunks).max(1)
    }
}

/// Bumps the pool-utilization counters for one parallel region: `inline`
/// when it ran on the calling thread alone, `wakes` parked workers it
/// unparked.
///
/// A no-op unless the `trace` feature is compiled in *and* a recorder is
/// enabled; the hot path then pays one relaxed atomic load plus a few
/// relaxed adds — no locks, no allocation.
#[inline]
fn record_region(inline: bool, wakes: usize, items: usize) {
    use np_trace::Counter;
    np_trace::counter_add(Counter::PoolRegions, 1);
    if inline {
        np_trace::counter_add(Counter::PoolInlineRegions, 1);
    }
    np_trace::counter_add(Counter::PoolWorkerWakes, wakes as u64);
    np_trace::counter_add(Counter::PoolItems, items as u64);
}

/// Default worker count when `NP_THREADS` is absent: available
/// parallelism capped at 8 (the kernels here saturate memory bandwidth
/// quickly; more workers than that just adds scheduling noise).
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// Parses an `NP_THREADS` environment value.
///
/// `Ok(None)` — variable unset; `Ok(Some(n))` — a positive integer
/// (surrounding whitespace tolerated); `Err(raw)` — set but not a
/// positive integer (`0`, `abc`, `-2`, empty, …), which [`Pool::global`]
/// reports once through the log facade instead of silently ignoring.
fn parse_np_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else { return Ok(None) };
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(raw.to_string()),
    }
}

/// CPUs actually available to the process, cached once.
///
/// Distinct from [`Pool::global`]'s size: `NP_THREADS` can request more
/// workers than cores, and kernels still want to know when the machine
/// is genuinely single-core so they can skip fan-out entirely.
pub fn cpus_available() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

impl Pool {
    /// The one dispatch primitive under every region method: runs
    /// `task(i)` for every `i in 0..n_items`, each index claimed exactly
    /// once from an atomic counter by the calling thread and up to
    /// `threads - 1` team workers. A 1-thread pool, a single item, or a
    /// team already taken runs everything inline in index order. Returns
    /// after every task has completed.
    fn dispatch(&self, n_items: usize, task: impl Fn(usize) + Sync) {
        let width = self.threads.min(n_items).min(MAX_TEAM_WIDTH);
        let next = AtomicUsize::new(0);
        let job = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_items {
                break;
            }
            task(i);
        };
        let wakes = if width > 1 {
            TEAM.fork(width, &job)
        } else {
            None
        };
        if wakes.is_none() {
            job();
        }
        record_region(wakes.is_none(), wakes.unwrap_or(0), n_items);
    }

    /// Runs `task(i)` for every `i in 0..n_tasks`, distributing indices
    /// across the pool with an atomic work-stealing counter. The calling
    /// thread participates, so a 1-thread pool (or `n_tasks <= 1`) runs
    /// everything inline. Returns after all tasks complete.
    pub fn run(&self, n_tasks: usize, task: impl Fn(usize) + Sync) {
        self.dispatch(n_tasks, task);
    }

    /// Splits `data` into consecutive chunks of `chunk_len` elements (the
    /// last may be shorter) and runs `body(chunk_index, chunk)` for each,
    /// distributed across the pool. Chunk boundaries depend only on
    /// `data.len()` and `chunk_len`, never on the thread count.
    pub fn for_each_chunk<T: Send>(
        &self,
        data: &mut [T],
        chunk_len: usize,
        body: impl Fn(usize, &mut [T]) + Sync,
    ) {
        let chunk_len = chunk_len.max(1);
        let len = data.len();
        let data = SharedMut::new(data);
        self.dispatch(len.div_ceil(chunk_len), |idx| {
            let start = idx * chunk_len;
            // SAFETY: `start < len`, and each chunk index is dispatched
            // once, so the chunks handed out are disjoint.
            let chunk = unsafe { data.slice(start, chunk_len.min(len - start)) };
            body(idx, chunk);
        });
    }

    /// Runs `body(i, &mut data[i])` for every element, distributing
    /// indices across the pool with the same atomic work-stealing counter
    /// as [`Pool::run`] — the shape a serving tick wants when per-session
    /// slots each carry an unpredictable amount of work (empty,
    /// little-only, or escalated).
    ///
    /// Element boundaries are fixed by the slice itself, so which worker
    /// runs an element can never change results; a 1-thread pool runs
    /// everything inline in index order.
    pub fn for_each_mut<T: Send>(&self, data: &mut [T], body: impl Fn(usize, &mut T) + Sync) {
        let n = data.len();
        let data = SharedMut::new(data);
        self.dispatch(n, |i| {
            // SAFETY: `i < n`, and each index is dispatched once.
            let item = unsafe { &mut data.slice(i, 1)[0] };
            body(i, item);
        });
    }

    /// Splits two buffers into the same number of paired consecutive
    /// chunks (`a` by `a_chunk_len`, `b` by `b_chunk_len`; the last pair
    /// may be shorter) and runs `body(chunk_index, a_chunk, b_chunk)` for
    /// each pair, distributed across the pool. Used by fused kernels that
    /// stage into a scratch chunk and finish into an output chunk while
    /// both are cache-hot. Chunk boundaries depend only on buffer lengths,
    /// never on the thread count.
    ///
    /// # Panics
    ///
    /// Panics if the two buffers do not split into the same number of
    /// chunks.
    pub fn for_each_chunk_pair<A: Send, B: Send>(
        &self,
        a: &mut [A],
        a_chunk_len: usize,
        b: &mut [B],
        b_chunk_len: usize,
        body: impl Fn(usize, &mut [A], &mut [B]) + Sync,
    ) {
        let a_chunk_len = a_chunk_len.max(1);
        let b_chunk_len = b_chunk_len.max(1);
        let (a_len, b_len) = (a.len(), b.len());
        let n_chunks = a_len.div_ceil(a_chunk_len);
        assert_eq!(
            n_chunks,
            b_len.div_ceil(b_chunk_len),
            "paired buffers must split into the same number of chunks"
        );
        let (a, b) = (SharedMut::new(a), SharedMut::new(b));
        self.dispatch(n_chunks, |idx| {
            let (sa, sb) = (idx * a_chunk_len, idx * b_chunk_len);
            // SAFETY: both starts are in bounds (same chunk count), and
            // each chunk index is dispatched once.
            let (ca, cb) = unsafe {
                (
                    a.slice(sa, a_chunk_len.min(a_len - sa)),
                    b.slice(sb, b_chunk_len.min(b_len - sb)),
                )
            };
            body(idx, ca, cb);
        });
    }

    /// Maps `f` over `0..n` in parallel, returning results in index order.
    pub fn map<T: Send>(&self, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        self.for_each_mut(&mut slots, |idx, slot| *slot = Some(f(idx)));
        slots
            .into_iter()
            .map(|slot| slot.expect("map task did not run"))
            .collect()
    }
}

/// A mutable slice shared by a region's participants, each of which
/// carves out the disjoint sub-slices of the work items it claims.
struct SharedMut<'a, T> {
    base: *mut T,
    len: usize,
    _borrow: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: participants only ever touch disjoint elements (see `slice`), so
// sharing the base pointer is sharing `&mut` access to `T: Send` data.
unsafe impl<T: Send> Sync for SharedMut<'_, T> {}

impl<'a, T> SharedMut<'a, T> {
    fn new(data: &'a mut [T]) -> Self {
        SharedMut {
            base: data.as_mut_ptr(),
            len: data.len(),
            _borrow: std::marker::PhantomData,
        }
    }

    /// `data[start..start + len]`.
    ///
    /// # Safety
    ///
    /// No other live reference may overlap the returned range.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice(&self, start: usize, len: usize) -> &'a mut [T] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.base.add(start), len)
    }
}

/// The process-wide resident team every [`Pool`] dispatches to.
static TEAM: Team = Team::new();

/// Resident worker threads created so far by the process-wide team (never
/// more than [`MAX_TEAM_WIDTH`] − 1, whatever width pools ask for).
pub fn team_size() -> usize {
    TEAM.spawned.load(Ordering::Relaxed)
}

/// The open bit of a team state word.
const OPEN: u64 = 1;

/// Region width packed into an open state word.
fn state_width(state: u64) -> usize {
    ((state >> 1) & 0x7fff) as usize
}

/// A team of resident workers and the region currently running on it.
///
/// The state word `epoch << 16 | width << 1 | open` names the current
/// region; only the thread holding `busy` (the region's caller) writes it,
/// and every new region gets a fresh epoch, so a state value never repeats.
struct Team {
    /// Held by the caller of the region currently on the team.
    busy: AtomicBool,
    /// `epoch << 16 | width << 1 | open`.
    state: AtomicU64,
    /// While a region is open: points at the caller's
    /// `&(dyn Fn() + Sync)` job.
    job: AtomicPtr<()>,
    /// Workers inside [`Team::join`] (joined, or checking whether to).
    active: AtomicUsize,
    /// Set by a caller about to park until `active` drains.
    waiting: AtomicBool,
    /// The parked caller, for the last worker out to unpark.
    waiter: Mutex<Option<Thread>>,
    /// A worker's task panicked; its payload is in `panic`.
    panicked: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Workers created so far; only the caller holding `busy` grows it.
    spawned: AtomicUsize,
    workers: [Worker; MAX_TEAM_WIDTH - 1],
}

struct Worker {
    /// Set by the worker before it parks; cleared by whoever wakes it.
    parked: AtomicBool,
    thread: OnceLock<Thread>,
}

/// Locks a team mutex. Nothing panics while holding one, so poisoning can
/// only come from outside the protocol and is ignored.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Team {
    const fn new() -> Self {
        Team {
            busy: AtomicBool::new(false),
            state: AtomicU64::new(0),
            job: AtomicPtr::new(ptr::null_mut()),
            active: AtomicUsize::new(0),
            waiting: AtomicBool::new(false),
            waiter: Mutex::new(None),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
            spawned: AtomicUsize::new(0),
            workers: [const {
                Worker {
                    parked: AtomicBool::new(false),
                    thread: OnceLock::new(),
                }
            }; MAX_TEAM_WIDTH - 1],
        }
    }

    /// Runs `job` on the calling thread and on workers `0..width - 1`,
    /// returning once every participant has left it, with the number of
    /// parked workers it unparked. Returns `None` without running `job`
    /// when the team is taken (a nested or concurrent region) or has no
    /// worker to offer. Re-raises a worker's panic.
    fn fork(&'static self, width: usize, job: &(dyn Fn() + Sync)) -> Option<usize> {
        if self
            .busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        let width = self.ensure_workers(width - 1) + 1;
        if width == 1 {
            self.busy.store(false, Ordering::Release);
            return None;
        }
        self.job.store(
            &job as *const &(dyn Fn() + Sync) as *mut (),
            Ordering::Relaxed,
        );
        let epoch = (self.state.load(Ordering::Relaxed) >> 16) + 1;
        let open = epoch << 16 | (width as u64) << 1 | OPEN;
        self.state.store(open, Ordering::SeqCst);
        let mut wakes = 0;
        for worker in &self.workers[..width - 1] {
            // Pairs with the worker's store-then-recheck in `work`: either
            // it sees the new state, or this sees it parked.
            if worker.parked.load(Ordering::SeqCst) && worker.parked.swap(false, Ordering::SeqCst) {
                worker.thread.get().expect("spawned worker").unpark();
                wakes += 1;
            }
        }
        let region = Close { team: self, open };
        job();
        if let Some(payload) = region.finish() {
            panic::resume_unwind(payload);
        }
        Some(wakes)
    }

    /// Makes sure workers `0..want` exist, spawning the missing ones;
    /// returns how many of them do.
    fn ensure_workers(&'static self, want: usize) -> usize {
        let mut have = self.spawned.load(Ordering::Relaxed);
        while have < want {
            let idx = have;
            // Workers are resident: the handle is dropped (detaching the
            // thread), and task panics never escape `join`.
            let spawned = thread::Builder::new()
                .name(format!("np-pool-{idx}"))
                .spawn(move || self.work(idx));
            match spawned {
                Ok(handle) => {
                    let _ = self.workers[idx].thread.set(handle.thread().clone());
                }
                Err(err) => {
                    np_trace::warn_once!(
                        "pool team could not create worker {idx} ({err}); \
                         parallel regions run {} wide",
                        idx + 1
                    );
                    break;
                }
            }
            have += 1;
            self.spawned.store(have, Ordering::Relaxed);
        }
        have.min(want)
    }

    /// A worker's life: spin briefly after each region, then park; join
    /// every region whose width includes it.
    fn work(&self, idx: usize) {
        let me = &self.workers[idx];
        let mut seen = 0;
        let mut idle_since = Instant::now();
        loop {
            let state = self.state.load(Ordering::Acquire);
            if state != seen {
                seen = state;
                if state & OPEN != 0 && idx + 1 < state_width(state) {
                    self.join(state);
                    idle_since = Instant::now();
                    continue;
                }
            }
            if idle_since.elapsed() < SPIN {
                hint::spin_loop();
                continue;
            }
            me.parked.store(true, Ordering::SeqCst);
            if self.state.load(Ordering::SeqCst) != seen {
                me.parked.store(false, Ordering::SeqCst);
                continue;
            }
            while me.parked.load(Ordering::Acquire) {
                thread::park();
            }
            idle_since = Instant::now();
        }
    }

    /// Runs the job of region `open` unless it has closed since the worker
    /// saw it open.
    fn join(&self, open: u64) {
        self.active.fetch_add(1, Ordering::SeqCst);
        // Counted in `active` before this check, so if the region is still
        // open here its caller cannot finish closing (and drop the job)
        // until this worker leaves.
        if self.state.load(Ordering::SeqCst) == open {
            // SAFETY: the pointer was stored before `open` was published and
            // stays valid until the caller has seen `active` drain.
            let job = unsafe {
                *self
                    .job
                    .load(Ordering::Relaxed)
                    .cast::<&(dyn Fn() + Sync)>()
            };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(job)) {
                let mut slot = lock(&self.panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
                self.panicked.store(true, Ordering::Relaxed);
            }
        }
        if self.active.fetch_sub(1, Ordering::SeqCst) == 1
            && self.waiting.swap(false, Ordering::SeqCst)
        {
            if let Some(caller) = &*lock(&self.waiter) {
                caller.unpark();
            }
        }
    }

    /// Closes region `open`, waits for the workers that joined it, and
    /// releases the team; returns a worker's panic payload, if any.
    fn close(&self, open: u64) -> Option<Box<dyn Any + Send>> {
        self.state.store(open & !OPEN, Ordering::SeqCst);
        self.wait_for_joined();
        self.job.store(ptr::null_mut(), Ordering::Relaxed);
        // `panicked` was set before the panicking worker left `active`,
        // which the wait above has seen drain.
        let payload = if self.panicked.swap(false, Ordering::Relaxed) {
            lock(&self.panic).take()
        } else {
            None
        };
        self.busy.store(false, Ordering::Release);
        payload
    }

    /// The caller's wait for the workers that joined the closed region:
    /// spin briefly, then park until the last one out unparks it.
    fn wait_for_joined(&self) {
        let start = Instant::now();
        while self.active.load(Ordering::SeqCst) != 0 {
            if start.elapsed() >= SPIN {
                *lock(&self.waiter) = Some(thread::current());
                // Pairs with the last worker's decrement-then-swap in
                // `join`: either it sees `waiting`, or this sees 0.
                self.waiting.store(true, Ordering::SeqCst);
                while self.active.load(Ordering::SeqCst) != 0 {
                    thread::park();
                    self.waiting.store(true, Ordering::SeqCst);
                }
                self.waiting.store(false, Ordering::SeqCst);
                return;
            }
            hint::spin_loop();
        }
    }
}

/// The open region of a [`Team::fork`]; closing it joins the workers and
/// releases the team, also when the caller's own share unwinds.
struct Close {
    team: &'static Team,
    open: u64,
}

impl Close {
    /// Closes the region after the caller's share returned normally;
    /// returns the panic payload of a worker's task, if one panicked.
    fn finish(self) -> Option<Box<dyn Any + Send>> {
        let payload = self.team.close(self.open);
        std::mem::forget(self);
        payload
    }
}

impl Drop for Close {
    /// Reached only while the caller's own share unwinds: its panic is the
    /// one that propagates, so a worker's payload is dropped.
    fn drop(&mut self) {
        drop(self.team.close(self.open));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_covers_every_index_exactly_once() {
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            for n in [0usize, 1, 7, 64] {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                pool.run(n, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            }
        }
    }

    #[test]
    fn for_each_chunk_boundaries_are_thread_independent() {
        for threads in [1, 2, 5] {
            let pool = Pool::new(threads);
            let mut data = vec![0u32; 23];
            pool.for_each_chunk(&mut data, 5, |idx, chunk| {
                for v in chunk.iter_mut() {
                    *v = idx as u32 + 1;
                }
            });
            let expect: Vec<u32> = (0..23).map(|i| i / 5 + 1).collect();
            assert_eq!(data, expect);
        }
    }

    #[test]
    fn for_each_mut_visits_every_element_exactly_once() {
        for threads in [1, 2, 5, 8] {
            let pool = Pool::new(threads);
            for n in [0usize, 1, 7, 129] {
                let mut data = vec![0u32; n];
                pool.for_each_mut(&mut data, |i, v| {
                    *v += i as u32 + 1;
                });
                let expect: Vec<u32> = (0..n).map(|i| i as u32 + 1).collect();
                assert_eq!(data, expect, "threads {threads}, n {n}");
            }
        }
    }

    #[test]
    fn for_each_mut_allows_uneven_per_item_work() {
        // Items deliberately carry wildly different costs; the stealing
        // counter must still hand out each exactly once.
        let pool = Pool::new(4);
        let mut data: Vec<u64> = (0..64).collect();
        pool.for_each_mut(&mut data, |i, v| {
            let spin = if i % 7 == 0 { 1000 } else { 1 };
            for _ in 0..spin {
                *v = std::hint::black_box(*v);
            }
            *v *= 2;
        });
        let expect: Vec<u64> = (0..64).map(|i| i * 2).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn for_each_chunk_pair_pairs_corresponding_chunks() {
        for threads in [1, 2, 5] {
            let pool = Pool::new(threads);
            // 3 chunks on both sides: 11 by 4 and 5 by 2.
            let mut a = vec![0u32; 11];
            let mut b = vec![0u8; 5];
            pool.for_each_chunk_pair(&mut a, 4, &mut b, 2, |idx, ca, cb| {
                for v in ca.iter_mut() {
                    *v = idx as u32 + 1;
                }
                for v in cb.iter_mut() {
                    *v = ca.len() as u8;
                }
            });
            let expect_a: Vec<u32> = (0..11).map(|i| i as u32 / 4 + 1).collect();
            assert_eq!(a, expect_a);
            // Chunks of a have lengths 4, 4, 3; b pairs see those lengths.
            assert_eq!(b, vec![4, 4, 4, 4, 3]);
        }
    }

    #[test]
    #[should_panic(expected = "same number of chunks")]
    fn for_each_chunk_pair_rejects_mismatched_counts() {
        let mut a = vec![0u32; 8];
        let mut b = vec![0u32; 3];
        Pool::serial().for_each_chunk_pair(&mut a, 4, &mut b, 1, |_, _, _| {});
    }

    #[test]
    fn map_preserves_index_order() {
        for threads in [1, 4] {
            let out = Pool::new(threads).map(17, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_sums_match_serial() {
        let total = AtomicU64::new(0);
        Pool::new(4).run(100, |i| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 4950);
    }

    /// True on a resident team worker (they are the only `np-pool-*`
    /// threads).
    fn on_team_worker() -> bool {
        thread::current()
            .name()
            .is_some_and(|n| n.starts_with("np-pool-"))
    }

    fn sum_of_squares(pool: Pool, n: usize) -> u64 {
        let mut data: Vec<u64> = (0..n as u64).collect();
        pool.for_each_chunk(&mut data, 7, |_, chunk| {
            for v in chunk.iter_mut() {
                *v *= *v;
            }
        });
        data.iter().sum()
    }

    /// Forks a 2-wide region on `team` whose worker and caller shares
    /// run `on_worker` and `on_caller`; the caller's share first waits
    /// until the worker has joined, so both always run. Returns the
    /// region's panic payload.
    fn forced_panic(
        team: &'static Team,
        on_worker: impl Fn() + Sync,
        on_caller: impl Fn() + Sync,
    ) -> Box<dyn Any + Send> {
        let joined = AtomicBool::new(false);
        let job = || {
            if on_team_worker() {
                joined.store(true, Ordering::SeqCst);
                on_worker();
            } else {
                while !joined.load(Ordering::SeqCst) {
                    hint::spin_loop();
                }
                on_caller();
            }
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| team.fork(2, &job)));
        result.expect_err("the region panicked")
    }

    #[test]
    fn worker_panic_reaches_caller_and_team_stays_usable() {
        static LOCAL: Team = Team::new();
        let payload = forced_panic(&LOCAL, || panic!("worker task failed"), || {});
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker task failed"));
        // The team was released and serves the next region exactly.
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let next = AtomicUsize::new(0);
        let job = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= hits.len() {
                break;
            }
            hits[i].fetch_add(1, Ordering::Relaxed);
        };
        assert!(LOCAL.fork(2, &job).is_some());
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn caller_panic_closes_region_before_unwinding() {
        static LOCAL: Team = Team::new();
        let worker_done = AtomicBool::new(false);
        let payload = forced_panic(
            &LOCAL,
            || {
                thread::sleep(Duration::from_millis(20));
                worker_done.store(true, Ordering::SeqCst);
            },
            || panic!("caller task failed"),
        );
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller task failed"));
        // The unwind waited for the joined worker and closed the region.
        assert!(worker_done.load(Ordering::SeqCst));
        assert_eq!(LOCAL.state.load(Ordering::SeqCst) & OPEN, 0);
        assert!(LOCAL.job.load(Ordering::SeqCst).is_null());
        assert!(LOCAL.fork(2, &|| {}).is_some());
    }

    #[test]
    fn nested_regions_run_inline_with_exact_results() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicUsize> = (0..8 * 16).map(|_| AtomicUsize::new(0)).collect();
        pool.run(8, |i| {
            pool.run(16, |j| {
                hits[i * 16 + j].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));

        let mut rows = vec![vec![0u64; 33]; 6];
        pool.for_each_mut(&mut rows, |r, row| {
            pool.for_each_chunk(row, 4, |c, chunk| {
                for v in chunk.iter_mut() {
                    *v = (r * 100 + c) as u64;
                }
            });
        });
        for (r, row) in rows.iter().enumerate() {
            let expect: Vec<u64> = (0..33).map(|k| (r * 100 + k / 4) as u64).collect();
            assert_eq!(row, &expect);
        }
    }

    #[test]
    fn concurrent_callers_both_complete_exactly() {
        let n = 777;
        let expect = (0..n as u64).map(|i| i * i).sum::<u64>();
        let start = std::sync::Barrier::new(2);
        thread::scope(|scope| {
            let callers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        for _ in 0..200 {
                            assert_eq!(sum_of_squares(Pool::new(2), n), expect);
                        }
                    })
                })
                .collect();
            for caller in callers {
                caller.join().expect("caller thread panicked");
            }
        });
    }

    #[test]
    fn late_worker_cannot_run_a_closed_region() {
        static LOCAL: Team = Team::new();
        let ran = AtomicUsize::new(0);
        let job = || {
            ran.fetch_add(1, Ordering::Relaxed);
        };
        let wakes = LOCAL.fork(2, &job).expect("a fresh team is free");
        assert!(wakes <= 1);
        let ran_in_region = ran.load(Ordering::Relaxed);
        assert!((1..=2).contains(&ran_in_region));
        // A worker that saw the region open but only now gets to join it:
        // the region is closed and its job gone, so it must leave at once.
        let closed = LOCAL.state.load(Ordering::SeqCst);
        assert_eq!(closed & OPEN, 0);
        LOCAL.join(closed | OPEN);
        assert_eq!(ran.load(Ordering::Relaxed), ran_in_region);
        assert!(LOCAL.job.load(Ordering::SeqCst).is_null());
        // The team is free again and serves the next region.
        assert!(LOCAL.fork(2, &job).is_some());
    }

    #[test]
    fn huge_pools_never_exceed_the_team_cap() {
        let pool = Pool::new(10_000);
        assert_eq!(pool.threads(), 10_000);
        let total = AtomicU64::new(0);
        pool.run(4 * MAX_TEAM_WIDTH, |i| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
        let n = 4 * MAX_TEAM_WIDTH as u64;
        assert_eq!(total.load(Ordering::Relaxed), n * (n - 1) / 2);
        assert!(team_size() < MAX_TEAM_WIDTH);
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(Pool::serial().threads(), 1);
    }

    #[test]
    fn for_work_keeps_serial_serial() {
        assert_eq!(Pool::serial().for_work(usize::MAX).threads(), 1);
    }

    #[test]
    fn for_work_clamps_by_machine_and_size() {
        let wide = Pool::new(8);
        if cpus_available() == 1 {
            // Single-CPU machine: every clamp lands on serial.
            assert_eq!(wide.for_work(usize::MAX).threads(), 1);
        } else {
            // Tiny problems run inline, huge ones keep the full pool.
            assert_eq!(wide.for_work(Pool::MIN_WORK_PER_THREAD - 1).threads(), 1);
            assert_eq!(wide.for_work(usize::MAX).threads(), 8);
            // Mid-size problems get proportionally fewer workers.
            let two = wide.for_work(2 * Pool::MIN_WORK_PER_THREAD).threads();
            assert_eq!(two, 2);
        }
    }

    #[test]
    fn chunk_len_is_whole_items_and_covers_all() {
        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::new(threads);
            for n_items in [1usize, 3, 7, 16, 33] {
                for item_len in [1usize, 5, 240] {
                    let len = pool.chunk_len_for(n_items, item_len);
                    assert_eq!(len % item_len, 0, "chunks must hold whole items");
                    assert!(len >= item_len);
                    // At most ~2 chunks per worker.
                    let n_chunks = (n_items * item_len).div_ceil(len);
                    assert!(n_chunks <= 2 * threads.max(1));
                }
            }
        }
        // Degenerate inputs stay positive.
        assert!(Pool::serial().chunk_len_for(0, 0) >= 1);
    }

    #[test]
    fn global_pool_is_stable() {
        assert_eq!(Pool::global(), Pool::global());
        assert!(Pool::global().threads() >= 1);
    }

    #[test]
    fn np_threads_parse_accepts_positive_integers() {
        assert_eq!(parse_np_threads(None), Ok(None));
        assert_eq!(parse_np_threads(Some("1")), Ok(Some(1)));
        assert_eq!(parse_np_threads(Some("8")), Ok(Some(8)));
        assert_eq!(parse_np_threads(Some("  4\n")), Ok(Some(4)));
    }

    #[test]
    fn np_threads_parse_rejects_garbage_with_original_value() {
        // These all used to fall through *silently* to the default; the
        // parser now surfaces the rejected value so global() can warn.
        for bad in ["abc", "", "0", "-2", "4.5", "2 cores"] {
            assert_eq!(parse_np_threads(Some(bad)), Err(bad.to_string()));
        }
    }
}
