//! TBB-style pipeline: a chain of filters executed by the task pool with a
//! bounded number of in-flight tokens.
//!
//! Reproduces the `tbb::parallel_pipeline` semantics the paper relies on:
//!
//! * a **serial** source produces tokens (stream items);
//! * each filter is `parallel`, `serial_in_order`, or `serial_out_of_order`;
//! * at most `max_number_of_live_tokens` items are in flight — the paper
//!   tunes this knob (38 tokens for CPU runs, 50 for GPU runs) and we expose
//!   it identically in [`Pipeline::run`].
//!
//! Tokens are type-erased internally (`Box<dyn Any + Send>`, the moral
//! equivalent of TBB's `void*`), while the public builder is fully typed.

use std::any::Any;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use telemetry::sync::Signal;
use telemetry::{Recorder, StageHandle};

use crate::pool::TaskPool;

type Payload = Box<dyn Any + Send>;

/// A filter plus its telemetry handle (replica 0: TBB filters are logical
/// stages executed by arbitrary pool workers, not replicated nodes).
struct Filter {
    stage: StageHandle,
    imp: FilterImpl,
}

enum FilterImpl {
    Parallel(Box<dyn Fn(Payload) -> Payload + Send + Sync>),
    Serial {
        in_order: bool,
        state: Mutex<SerialState>,
    },
}

struct SerialState {
    f: Box<dyn FnMut(Payload) -> Payload + Send>,
    busy: bool,
    next_seq: u64,
    // Parked tokens carry their emit stamp alongside the payload so
    // end-to-end latency survives the wait behind a serial filter.
    in_order_pending: BTreeMap<u64, (u64, Payload)>,
    any_order_pending: VecDeque<(u64, u64, Payload)>,
}

struct SourceState {
    f: Box<dyn FnMut() -> Option<Payload> + Send>,
    next_seq: u64,
    exhausted: bool,
}

struct Exec {
    source: Mutex<SourceState>,
    src_stage: StageHandle,
    rec: Recorder,
    filters: Vec<Filter>,
    live: AtomicUsize,
    max_live: usize,
    completed: AtomicU64,
    /// Set once the source is exhausted and the last token retired;
    /// `finished` wakes [`Pipeline::run`].
    done: AtomicBool,
    finished: Signal,
    pool: Arc<TaskPool>,
}

/// Typed builder for a [`Pipeline`]. `T` is the current token type.
pub struct PipelineBuilder<T> {
    source: SourceState,
    filters: Vec<FilterImpl>,
    rec: Recorder,
    _marker: PhantomData<fn() -> T>,
}

/// A fully built pipeline, ready to [`run`](Pipeline::run).
pub struct Pipeline {
    source: SourceState,
    src_stage: StageHandle,
    rec: Recorder,
    filters: Vec<Filter>,
}

impl Pipeline {
    /// Start a pipeline from a serial source closure; `None` ends the stream.
    pub fn source<T, F>(f: F) -> PipelineBuilder<T>
    where
        T: Send + 'static,
        F: FnMut() -> Option<T> + Send + 'static,
    {
        let mut f = f;
        PipelineBuilder {
            source: SourceState {
                f: Box::new(move || f().map(|v| Box::new(v) as Payload)),
                next_seq: 0,
                exhausted: false,
            },
            filters: Vec::new(),
            rec: Recorder::default(),
            _marker: PhantomData,
        }
    }

    /// Start a pipeline from an iterator.
    #[allow(clippy::should_implement_trait)] // Pipeline is not a collection
    pub fn from_iter<I>(iter: I) -> PipelineBuilder<I::Item>
    where
        I: IntoIterator + Send + 'static,
        I::Item: Send + 'static,
        I::IntoIter: Send + 'static,
    {
        let mut it = iter.into_iter();
        Pipeline::source(move || it.next())
    }

    /// Execute on `pool` with at most `max_live_tokens` items in flight.
    /// Blocks until the stream is exhausted and every token has left the
    /// last filter.
    ///
    /// # Panics
    /// Panics if `max_live_tokens == 0`.
    pub fn run(self, pool: &Arc<TaskPool>, max_live_tokens: usize) {
        assert!(max_live_tokens > 0, "need at least one live token");
        let exec = Arc::new(Exec {
            source: Mutex::new(self.source),
            src_stage: self.src_stage,
            rec: self.rec,
            filters: self.filters,
            live: AtomicUsize::new(0),
            max_live: max_live_tokens,
            completed: AtomicU64::new(0),
            done: AtomicBool::new(false),
            finished: Signal::new(),
            pool: Arc::clone(pool),
        });
        {
            let exec2 = Arc::clone(&exec);
            pool.spawn(move || pump_source(&exec2));
        }
        exec.finished
            .wait_until(|| exec.done.load(Ordering::Acquire));
    }
}

impl<T: Send + 'static> PipelineBuilder<T> {
    /// Append a parallel filter: replicas may run concurrently, so the
    /// closure is `Fn + Sync` (shared state must be synchronized by the
    /// caller, exactly as in TBB).
    pub fn parallel<U, F>(mut self, f: F) -> PipelineBuilder<U>
    where
        U: Send + 'static,
        F: Fn(T) -> U + Send + Sync + 'static,
    {
        self.filters.push(FilterImpl::Parallel(Box::new(move |p| {
            let v = *p.downcast::<T>().expect("pipeline token type mismatch");
            Box::new(f(v)) as Payload
        })));
        self.retype()
    }

    /// Append a serial filter that processes tokens in stream order.
    pub fn serial_in_order<U, F>(self, f: F) -> PipelineBuilder<U>
    where
        U: Send + 'static,
        F: FnMut(T) -> U + Send + 'static,
    {
        self.serial(true, f)
    }

    /// Append a serial filter with no ordering guarantee (still at most one
    /// invocation at a time).
    pub fn serial_out_of_order<U, F>(self, f: F) -> PipelineBuilder<U>
    where
        U: Send + 'static,
        F: FnMut(T) -> U + Send + 'static,
    {
        self.serial(false, f)
    }

    fn serial<U, F>(mut self, in_order: bool, mut f: F) -> PipelineBuilder<U>
    where
        U: Send + 'static,
        F: FnMut(T) -> U + Send + 'static,
    {
        self.filters.push(FilterImpl::Serial {
            in_order,
            state: Mutex::new(SerialState {
                f: Box::new(move |p| {
                    let v = *p.downcast::<T>().expect("pipeline token type mismatch");
                    Box::new(f(v)) as Payload
                }),
                busy: false,
                next_seq: 0,
                in_order_pending: BTreeMap::new(),
                any_order_pending: VecDeque::new(),
            }),
        });
        self.retype()
    }

    /// Attach a telemetry recorder: the source and every filter register a
    /// [`telemetry::Stage`] counter block when the pipeline is built. A disabled
    /// recorder (the default) makes every probe a no-op branch.
    pub fn recorder(mut self, rec: Recorder) -> Self {
        self.rec = rec;
        self
    }

    /// Finish building (the final token type is discarded when tokens leave
    /// the last filter; make the last filter the sink).
    pub fn build(self) -> Pipeline {
        let rec = self.rec;
        Pipeline {
            source: self.source,
            src_stage: rec.stage("source", 0),
            filters: self
                .filters
                .into_iter()
                .enumerate()
                .map(|(i, imp)| Filter {
                    stage: rec.stage(format!("filter{}", i + 1), 0),
                    imp,
                })
                .collect(),
            rec,
        }
    }

    fn retype<U>(self) -> PipelineBuilder<U> {
        PipelineBuilder {
            source: self.source,
            filters: self.filters,
            rec: self.rec,
            _marker: PhantomData,
        }
    }
}

/// Produce tokens while slots are available; re-invoked whenever a token
/// retires.
fn pump_source(exec: &Arc<Exec>) {
    loop {
        // Reserve a live-token slot.
        let mut cur = exec.live.load(Ordering::Acquire);
        loop {
            if cur >= exec.max_live {
                // Token window full: source throttled (TBB's live-token cap).
                exec.src_stage.push_stall();
                return; // finish_token will pump again
            }
            match exec
                .live
                .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
        // Produce one item under the source lock (serial source).
        let produced = {
            let mut src = crate::lock_unpoisoned(&exec.source);
            if src.exhausted {
                None
            } else {
                let span = exec.src_stage.begin();
                let item = (src.f)();
                exec.src_stage.end(span);
                match item {
                    Some(p) => {
                        let seq = src.next_seq;
                        src.next_seq += 1;
                        exec.src_stage.items_out(1);
                        // Stamp the token at emission (0 when disabled).
                        Some((seq, exec.rec.stamp_ns(), p))
                    }
                    None => {
                        src.exhausted = true;
                        None
                    }
                }
            }
        };
        match produced {
            Some((seq, emit_ns, payload)) => {
                let exec2 = Arc::clone(exec);
                exec.pool
                    .spawn(move || advance(&exec2, 0, seq, emit_ns, payload));
            }
            None => {
                // Give back the reserved slot and check for completion.
                exec.live.fetch_sub(1, Ordering::AcqRel);
                maybe_finish(exec);
                return;
            }
        }
    }
}

/// Carry `payload` (token `seq`, stamped at `emit_ns`) from filter `idx`
/// to the end, parking at busy/out-of-turn serial filters.
fn advance(exec: &Arc<Exec>, mut idx: usize, seq: u64, emit_ns: u64, mut payload: Payload) {
    loop {
        let Some(filter) = exec.filters.get(idx) else {
            finish_token(exec, emit_ns);
            return;
        };
        match &filter.imp {
            FilterImpl::Parallel(f) => {
                filter.stage.item_in(0);
                let span = filter.stage.begin();
                payload = f(payload);
                filter.stage.end(span);
                filter.stage.items_out(1);
                idx += 1;
            }
            FilterImpl::Serial { in_order, state } => {
                let mut st = crate::lock_unpoisoned(state);
                if st.busy || (*in_order && seq != st.next_seq) {
                    if *in_order {
                        st.in_order_pending.insert(seq, (emit_ns, payload));
                    } else {
                        st.any_order_pending.push_back((seq, emit_ns, payload));
                    }
                    // Parked behind the serial filter: the queue of pending
                    // tokens is this stage's input queue.
                    filter.stage.pop_wait();
                    return; // the running token will dispatch us later
                }
                filter
                    .stage
                    .item_in(st.in_order_pending.len() + st.any_order_pending.len());
                st.busy = true;
                // Run the user closure while holding the state lock: the
                // filter is serial by definition, and holding the lock keeps
                // busy/next_seq updates atomic with the call.
                let span = filter.stage.begin();
                let out = (st.f)(payload);
                filter.stage.end(span);
                filter.stage.items_out(1);
                st.busy = false;
                if *in_order {
                    st.next_seq += 1;
                }
                let next = if *in_order {
                    let ns = st.next_seq;
                    st.in_order_pending.remove(&ns).map(|(e, p)| (ns, e, p))
                } else {
                    st.any_order_pending.pop_front()
                };
                drop(st);
                if let Some((nseq, nemit, npayload)) = next {
                    let exec2 = Arc::clone(exec);
                    exec.pool
                        .spawn(move || advance(&exec2, idx, nseq, nemit, npayload));
                }
                payload = out;
                idx += 1;
            }
        }
    }
}

fn finish_token(exec: &Arc<Exec>, emit_ns: u64) {
    // The token retires here: close its end-to-end latency measurement.
    exec.rec.record_e2e(emit_ns);
    exec.completed.fetch_add(1, Ordering::Relaxed);
    exec.live.fetch_sub(1, Ordering::AcqRel);
    let exhausted = crate::lock_unpoisoned(&exec.source).exhausted;
    if exhausted {
        maybe_finish(exec);
    } else {
        // A token slot freed: keep the source busy.
        let exec2 = Arc::clone(exec);
        exec.pool.spawn(move || pump_source(&exec2));
    }
}

fn maybe_finish(exec: &Arc<Exec>) {
    if exec.live.load(Ordering::Acquire) == 0 && crate::lock_unpoisoned(&exec.source).exhausted {
        exec.done.store(true, Ordering::Release);
        exec.finished.notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::within_deadline;

    fn pool() -> Arc<TaskPool> {
        Arc::new(TaskPool::new(4))
    }

    #[test]
    fn serial_in_order_sink_sees_stream_order() {
        within_deadline(|| {
            let pool = pool();
            let out = Arc::new(Mutex::new(Vec::new()));
            let out2 = Arc::clone(&out);
            Pipeline::from_iter(0..200u64)
                .parallel(|x| x * 2)
                .serial_in_order(move |x| out2.lock().unwrap().push(x))
                .build()
                .run(&pool, 8);
            assert_eq!(
                *out.lock().unwrap(),
                (0..200).map(|x| x * 2).collect::<Vec<u64>>()
            );
        });
    }

    #[test]
    fn all_tokens_processed_out_of_order_sink() {
        within_deadline(|| {
            let pool = pool();
            let out = Arc::new(Mutex::new(Vec::new()));
            let out2 = Arc::clone(&out);
            Pipeline::from_iter(0..500u32)
                .parallel(|x| x + 1)
                .serial_out_of_order(move |x| out2.lock().unwrap().push(x))
                .build()
                .run(&pool, 16);
            let mut got = out.lock().unwrap().clone();
            got.sort_unstable();
            assert_eq!(got, (1..=500).collect::<Vec<u32>>());
        });
    }

    #[test]
    fn live_tokens_never_exceed_limit() {
        within_deadline(|| {
            let pool = pool();
            let live = Arc::new(AtomicUsize::new(0));
            let peak = Arc::new(AtomicUsize::new(0));
            let (live_in, peak_in) = (Arc::clone(&live), Arc::clone(&peak));
            let live_out = Arc::clone(&live);
            const LIMIT: usize = 5;
            Pipeline::from_iter(0..300u32)
                .parallel(move |x| {
                    let l = live_in.fetch_add(1, Ordering::SeqCst) + 1;
                    peak_in.fetch_max(l, Ordering::SeqCst);
                    std::thread::yield_now();
                    x
                })
                .parallel(move |x| {
                    live_out.fetch_sub(1, Ordering::SeqCst);
                    x
                })
                .serial_in_order(|_x| {})
                .build()
                .run(&pool, LIMIT);
            assert!(
                peak.load(Ordering::SeqCst) <= LIMIT,
                "peak {} > limit {LIMIT}",
                peak.load(Ordering::SeqCst)
            );
        });
    }

    #[test]
    fn multi_stage_typed_pipeline() {
        within_deadline(|| {
            let pool = pool();
            let sum = Arc::new(AtomicU64::new(0));
            let sum2 = Arc::clone(&sum);
            Pipeline::from_iter(1..=100u32)
                .parallel(|x| x as u64)
                .parallel(|x| x * x)
                .serial_in_order(move |x: u64| {
                    sum2.fetch_add(x, Ordering::Relaxed);
                })
                .build()
                .run(&pool, 10);
            assert_eq!(sum.load(Ordering::Relaxed), 338_350);
        });
    }

    #[test]
    fn serial_stage_is_never_reentered() {
        within_deadline(|| {
            let pool = pool();
            let inside = Arc::new(AtomicUsize::new(0));
            let violations = Arc::new(AtomicUsize::new(0));
            let (i2, v2) = (Arc::clone(&inside), Arc::clone(&violations));
            Pipeline::from_iter(0..200u32)
                .serial_out_of_order(move |x| {
                    if i2.fetch_add(1, Ordering::SeqCst) != 0 {
                        v2.fetch_add(1, Ordering::SeqCst);
                    }
                    std::thread::yield_now();
                    i2.fetch_sub(1, Ordering::SeqCst);
                    x
                })
                .serial_in_order(|_x| {})
                .build()
                .run(&pool, 12);
            assert_eq!(violations.load(Ordering::SeqCst), 0);
        });
    }

    #[test]
    fn empty_source_completes() {
        within_deadline(|| {
            let pool = pool();
            Pipeline::source(|| None::<u32>)
                .serial_in_order(|_x| {})
                .build()
                .run(&pool, 4);
        });
    }

    #[test]
    fn single_token_degenerates_to_sequential() {
        within_deadline(|| {
            let pool = pool();
            let out = Arc::new(Mutex::new(Vec::new()));
            let out2 = Arc::clone(&out);
            Pipeline::from_iter(0..50u32)
                .parallel(|x| x * 3)
                .serial_in_order(move |x| out2.lock().unwrap().push(x))
                .build()
                .run(&pool, 1);
            assert_eq!(
                *out.lock().unwrap(),
                (0..50).map(|x| x * 3).collect::<Vec<u32>>()
            );
        });
    }

    #[test]
    #[should_panic(expected = "at least one live token")]
    fn zero_tokens_panics() {
        within_deadline(|| {
            let pool = pool();
            Pipeline::from_iter(0..1u32)
                .serial_in_order(|_x| {})
                .build()
                .run(&pool, 0);
        });
    }
}
