//! Work-stealing task pool — the analogue of TBB's task scheduler.
//!
//! Each worker owns a lock-free [Chase–Lev deque](crate::deque): tasks a
//! worker spawns from inside another task go straight onto its own deque
//! (LIFO end — cache-warm, TBB's depth-first bias), while tasks spawned
//! from outside the pool land in a bounded lock-free MPMC injector (a
//! Vyukov per-slot-sequence ring). Idle workers search: own deque, then a
//! batch from the injector, then steal the oldest task from a peer's deque
//! (FIFO end). No mutex is ever taken on the task hot path — the only
//! locks left are the sleep/wake condvar (taken when a worker has found
//! nothing and is about to park), the deques' retired-buffer lists (taken
//! only on buffer growth), and the injector's overflow spill list (touched
//! only when the bounded ring was observed full, and by workers only when
//! an atomic counter says it is non-empty — never while spawns fit the
//! ring). Tasks are plain boxed closures — the
//! [`pipeline`](crate::pipeline) is layered on top.

use std::cell::{RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::deque::{deque, Steal, Stealer, Worker};

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Bound of the external-spawn injector; external spawners yield-retry a
/// few times when it is momentarily full, then spill to the unbounded
/// overflow list so `spawn` can never wedge — even if every worker is
/// blocked inside a task that waits on work this very spawn would provide.
const INJECTOR_CAP: usize = 8192;

/// Yield-retries against a full injector before spilling to the overflow
/// list. Enough to ride out a momentary burst while workers drain, small
/// enough that a spawner stuck behind blocked workers escapes quickly.
const INJECTOR_FULL_RETRIES: usize = 64;

/// How many extra injector tasks a worker moves onto its own deque per
/// injector hit — amortizes the shared ring's CAS traffic the same way the
/// old pool grabbed half the `VecDeque`.
const INJECTOR_GRAB: usize = 16;

#[repr(align(128))]
struct CachePadded<T>(T);

struct InjSlot {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<Task>>,
}

/// Bounded lock-free MPMC queue (Vyukov): each slot carries a sequence
/// number that encodes whether it is ready to write (`seq == pos`) or ready
/// to read (`seq == pos + 1`); producers and consumers claim positions with
/// a CAS on their respective cursors and publish via the slot sequence.
struct Injector {
    mask: usize,
    slots: Box<[InjSlot]>,
    enqueue_pos: CachePadded<AtomicUsize>,
    dequeue_pos: CachePadded<AtomicUsize>,
}

unsafe impl Send for Injector {}
unsafe impl Sync for Injector {}

impl Injector {
    fn new(cap: usize) -> Self {
        assert!(cap.is_power_of_two());
        let slots = (0..cap)
            .map(|i| InjSlot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Injector {
            mask: cap - 1,
            slots,
            enqueue_pos: CachePadded(AtomicUsize::new(0)),
            dequeue_pos: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// Enqueue; hands the task back if the ring is full.
    fn push(&self, task: Task) -> Result<(), Task> {
        let mut pos = self.enqueue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.enqueue_pos.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        unsafe { (*slot.value.get()).write(task) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(p) => pos = p,
                }
            } else if diff < 0 {
                return Err(task); // full (a lap behind)
            } else {
                pos = self.enqueue_pos.0.load(Ordering::Relaxed);
            }
        }
    }

    fn pop(&self) -> Option<Task> {
        let mut pos = self.dequeue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - (pos + 1) as isize;
            if diff == 0 {
                match self.dequeue_pos.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let task = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.seq.store(pos + self.mask + 1, Ordering::Release);
                        return Some(task);
                    }
                    Err(p) => pos = p,
                }
            } else if diff < 0 {
                return None; // empty
            } else {
                pos = self.dequeue_pos.0.load(Ordering::Relaxed);
            }
        }
    }
}

impl Drop for Injector {
    fn drop(&mut self) {
        while let Some(task) = self.pop() {
            drop(task);
        }
    }
}

/// Monotonic pool identity so thread-local worker registration can tell
/// "spawn from one of *my* workers" apart from nested foreign pools.
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set while a thread runs a pool's worker loop: (pool id, own deque).
    static CURRENT_WORKER: RefCell<Option<(u64, Rc<Worker<Task>>)>> =
        const { RefCell::new(None) };
}

struct Shared {
    injector: Injector,
    /// Unbounded spill for spawns that found the injector full. `overflow_len`
    /// gates the lock: workers skip it entirely (a Relaxed load) while empty,
    /// so the mutex is only ever contended in the rare ring-full regime.
    overflow: Mutex<VecDeque<Task>>,
    overflow_len: AtomicUsize,
    stealers: Vec<Stealer<Task>>,
    shutdown: AtomicBool,
    /// Count of tasks announced but not yet taken; used with the condvar to
    /// avoid missed wakeups when all workers are parked.
    sleep_lock: Mutex<()>,
    wake: Condvar,
    pending: AtomicUsize,
    pool_id: u64,
}

impl Shared {
    fn announce(&self) {
        self.pending.fetch_add(1, Ordering::Release);
        drop(crate::lock_unpoisoned(&self.sleep_lock));
        self.wake.notify_one();
    }

    fn announce_all(&self) {
        drop(crate::lock_unpoisoned(&self.sleep_lock));
        self.wake.notify_all();
    }
}

/// A fixed-size work-stealing thread pool.
pub struct TaskPool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl TaskPool {
    /// Spawn a pool with `n_workers` worker threads.
    ///
    /// # Panics
    /// Panics if `n_workers == 0`.
    pub fn new(n_workers: usize) -> Self {
        assert!(n_workers > 0, "pool needs at least one worker");
        let mut workers = Vec::with_capacity(n_workers);
        let mut stealers = Vec::with_capacity(n_workers);
        for _ in 0..n_workers {
            let (w, s) = deque::<Task>();
            workers.push(w);
            stealers.push(s);
        }
        let shared = Arc::new(Shared {
            injector: Injector::new(INJECTOR_CAP),
            overflow: Mutex::new(VecDeque::new()),
            overflow_len: AtomicUsize::new(0),
            stealers,
            shutdown: AtomicBool::new(false),
            sleep_lock: Mutex::new(()),
            wake: Condvar::new(),
            pending: AtomicUsize::new(0),
            pool_id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
        });
        let threads = workers
            .into_iter()
            .enumerate()
            .map(|(idx, worker)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tbbx-worker-{idx}"))
                    .spawn(move || worker_loop(idx, worker, shared))
                    .expect("spawn tbbx worker")
            })
            .collect();
        TaskPool { shared, threads }
    }

    /// Submit a task for execution. From inside one of this pool's own
    /// worker threads the task goes straight onto that worker's deque
    /// (LIFO, no shared-cursor traffic); from any other thread it goes
    /// through the lock-free injector.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, task: F) {
        let mut task: Option<Task> = Some(Box::new(task));
        CURRENT_WORKER.with(|cw| {
            if let Some((id, worker)) = cw.borrow().as_ref() {
                if *id == self.shared.pool_id {
                    worker.push(task.take().expect("task present"));
                }
            }
        });
        if let Some(mut t) = task {
            let mut attempts = 0;
            loop {
                match self.shared.injector.push(t) {
                    Ok(()) => break,
                    Err(back) if attempts < INJECTOR_FULL_RETRIES => {
                        // Ring momentarily full: give workers a beat to
                        // drain it before trying again.
                        t = back;
                        attempts += 1;
                        std::thread::yield_now();
                    }
                    Err(back) => {
                        // Still full — the workers may all be blocked inside
                        // tasks waiting on exactly this spawn. Spill to the
                        // unbounded overflow so `spawn` never deadlocks.
                        crate::lock_unpoisoned(&self.shared.overflow).push_back(back);
                        self.shared.overflow_len.fetch_add(1, Ordering::Release);
                        break;
                    }
                }
            }
        }
        self.shared.announce();
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.announce_all();
        // The last `Arc<TaskPool>` can be dropped from inside a worker's own
        // task (e.g. a generator task that captured the pool). Joining that
        // worker from itself would deadlock, so detach it: it observes the
        // shutdown flag and exits on its own, holding only `Arc<Shared>`.
        let me = std::thread::current().id();
        for t in self.threads.drain(..) {
            if t.thread().id() != me {
                let _ = t.join();
            }
        }
    }
}

fn worker_loop(idx: usize, worker: Worker<Task>, shared: Arc<Shared>) {
    let worker = Rc::new(worker);
    CURRENT_WORKER.with(|cw| {
        *cw.borrow_mut() = Some((shared.pool_id, Rc::clone(&worker)));
    });
    loop {
        if let Some(task) = find_task(idx, &worker, &shared) {
            shared.pending.fetch_sub(1, Ordering::AcqRel);
            task();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        // Park until work is announced or shutdown.
        let guard = crate::lock_unpoisoned(&shared.sleep_lock);
        if shared.pending.load(Ordering::Acquire) == 0 && !shared.shutdown.load(Ordering::Acquire) {
            let _unused = shared
                .wake
                .wait_timeout(guard, std::time::Duration::from_millis(10))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
    CURRENT_WORKER.with(|cw| *cw.borrow_mut() = None);
}

fn find_task(self_idx: usize, worker: &Worker<Task>, shared: &Shared) -> Option<Task> {
    // Own deque first, LIFO end (cache-warm work).
    if let Some(t) = worker.pop() {
        return Some(t);
    }
    // Then the injector: take one to run and move a bounded batch onto the
    // own deque so the next few hits are contention-free.
    if let Some(t) = shared.injector.pop() {
        let mut grabbed = 0;
        while grabbed < INJECTOR_GRAB {
            match shared.injector.pop() {
                Some(extra) => {
                    worker.push(extra);
                    grabbed += 1;
                }
                None => break,
            }
        }
        return Some(t);
    }
    // Then the overflow spill. The atomic gate keeps this lock-free (one
    // Relaxed load) in the common case where no spawn ever overflowed.
    if shared.overflow_len.load(Ordering::Relaxed) > 0 {
        let mut overflow = crate::lock_unpoisoned(&shared.overflow);
        let grab = (INJECTOR_GRAB + 1).min(overflow.len());
        if grab > 0 {
            shared.overflow_len.fetch_sub(grab, Ordering::Relaxed);
            let t = overflow.pop_front().expect("grab > 0");
            for extra in overflow.drain(..grab - 1) {
                worker.push(extra);
            }
            return Some(t);
        }
    }
    // Then steal the oldest task from a peer, starting past self so the
    // thieves spread instead of all hammering worker 0.
    let n = shared.stealers.len();
    for off in 1..n {
        let i = (self_idx + off) % n;
        loop {
            match shared.stealers[i].steal() {
                Steal::Success(t) => return Some(t),
                // Lost a race — someone is making progress; try again.
                Steal::Retry => continue,
                Steal::Empty => break,
            }
        }
    }
    None
}

/// A countdown latch: blocks [`Latch::wait`] until `count` completions.
pub struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    /// Latch expecting `count` completions.
    pub fn new(count: usize) -> Arc<Self> {
        Arc::new(Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
        })
    }

    /// Record one completion.
    pub fn count_down(&self) {
        let mut rem = crate::lock_unpoisoned(&self.remaining);
        assert!(*rem > 0, "latch over-released");
        *rem -= 1;
        if *rem == 0 {
            self.done.notify_all();
        }
    }

    /// Block until the count reaches zero.
    pub fn wait(&self) {
        let mut rem = crate::lock_unpoisoned(&self.remaining);
        while *rem > 0 {
            rem = self
                .done
                .wait(rem)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn tasks_all_run() {
        let pool = TaskPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        let latch = Latch::new(100);
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            let latch = Arc::clone(&latch);
            pool.spawn(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                latch.count_down();
            });
        }
        latch.wait();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn nested_spawns_complete() {
        let pool = Arc::new(TaskPool::new(2));
        let counter = Arc::new(AtomicU64::new(0));
        let latch = Latch::new(10 * 10);
        for _ in 0..10 {
            let pool2 = Arc::clone(&pool);
            let counter = Arc::clone(&counter);
            let latch = Arc::clone(&latch);
            pool.spawn(move || {
                for _ in 0..10 {
                    let counter = Arc::clone(&counter);
                    let latch = Arc::clone(&latch);
                    pool2.spawn(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                        latch.count_down();
                    });
                }
            });
        }
        latch.wait();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn pool_shuts_down_cleanly_with_idle_workers() {
        let pool = TaskPool::new(3);
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(pool); // must not hang on parked workers
    }

    #[test]
    fn injector_overflow_spawns_still_run() {
        // More external spawns than INJECTOR_CAP: the producer yield-waits
        // for space and every task must still run exactly once.
        let pool = TaskPool::new(2);
        let n = INJECTOR_CAP + 1000;
        let counter = Arc::new(AtomicU64::new(0));
        let latch = Latch::new(n);
        for _ in 0..n {
            let counter = Arc::clone(&counter);
            let latch = Arc::clone(&latch);
            pool.spawn(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                latch.count_down();
            });
        }
        latch.wait();
        assert_eq!(counter.load(Ordering::Relaxed), n as u64);
    }

    #[test]
    fn spawn_does_not_wedge_when_workers_are_blocked() {
        // Regression: with every worker blocked inside a task (so nobody
        // drains the injector), external spawns past INJECTOR_CAP used to
        // yield-spin forever. They must now spill to the overflow list,
        // return, and every task must still run once workers free up.
        let pool = TaskPool::new(1);
        let gate = Arc::new(AtomicBool::new(false));
        let n = INJECTOR_CAP + 100;
        let latch = Latch::new(n + 1);
        {
            let gate = Arc::clone(&gate);
            let latch = Arc::clone(&latch);
            pool.spawn(move || {
                while !gate.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                latch.count_down();
            });
        }
        // Give the lone worker a beat to pick up the blocking task.
        std::thread::sleep(std::time::Duration::from_millis(10));
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..n {
            let counter = Arc::clone(&counter);
            let latch = Arc::clone(&latch);
            pool.spawn(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                latch.count_down();
            });
        }
        // All spawns returned despite the wedged worker; release it.
        gate.store(true, Ordering::Release);
        latch.wait();
        assert_eq!(counter.load(Ordering::Relaxed), n as u64);
    }

    #[test]
    fn latch_zero_is_immediately_open() {
        let latch = Latch::new(0);
        latch.wait();
    }

    #[test]
    #[should_panic(expected = "over-released")]
    fn latch_over_release_panics() {
        let latch = Latch::new(1);
        latch.count_down();
        latch.count_down();
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = TaskPool::new(0);
    }
}
