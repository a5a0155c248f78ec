//! The pipeline skeleton: a typed, thread-per-stage stream graph builder.
//!
//! `Pipeline::builder().source(..).node(..).farm(..).for_each(..)` spawns one
//! thread per sequential stage, SPSC-connected, exactly like a FastFlow
//! `ff_pipeline`; `farm(..)` nests a [farm](crate::farm) as a stage, fed
//! and merged by its neighbours. Every stage sees EOS when its upstream
//! channel closes and propagates it by dropping its own sender.

use std::thread::{self, JoinHandle};

use telemetry::{Recorder, StageHandle};

use crate::channel::{channel, Receiver, Sender};
use crate::farm::{spawn_workers, FanIn, FanOut, FarmConfig, Router};
use crate::node::{map, Emitter, Node};
use crate::stamp::Stamped;
use crate::wait::WaitStrategy;

/// Where a stage's outputs go — decided by whatever is appended after it.
/// Two flush points keep the pipe live and the memory bounded: an outlet
/// flushes itself when it holds `burst` items, and every stage loop
/// flushes explicitly before blocking for more input, so no item sits
/// buffered while the stage sleeps.
pub(crate) enum Outlet<T: Send> {
    /// One ring to the next sequential stage or terminal op; a run leaves
    /// with one index publication and one wakeup ([`Sender::send_batch`]).
    Next {
        tx: Sender<Stamped<T>>,
        buf: Vec<Stamped<T>>,
        burst: usize,
    },
    /// Straight into the worker rings of the farm that follows.
    Workers(FanOut<T>),
}

impl<T: Send> Outlet<T> {
    /// Buffer one output carrying `emit_ns`; auto-flushes at the burst
    /// size. Returns false once downstream is gone.
    #[inline]
    fn push(&mut self, item: T, emit_ns: u64, stage: &StageHandle) -> bool {
        let item = Stamped::at(item, emit_ns);
        match self {
            Outlet::Next { tx, buf, burst } => {
                buf.push(item);
                buf.len() < *burst || send_batch_accounted(tx, buf, stage, |_| 1)
            }
            Outlet::Workers(fan) => fan.push(item, stage),
        }
    }

    /// Deliver everything buffered; false once downstream is gone.
    fn flush(&mut self, stage: &StageHandle) -> bool {
        match self {
            Outlet::Next { tx, buf, .. } => send_batch_accounted(tx, buf, stage, |_| 1),
            Outlet::Workers(fan) => fan.flush(stage),
        }
    }
}

/// Deliver `buf` downstream, recording `items_out` only as messages are
/// actually handed off — never at service time, so the stall watchdog (which
/// blames a stage by comparing its progress against its upstream's) can
/// neither see phantom undelivered items during a long `svc` call nor lose
/// sight of progress while a full ring blocks the rest of the run: delivery
/// happens in sub-runs, each accounted as it lands. `count` maps a message
/// to the stream items it carries (1, or a farm worker's whole `svc` output
/// set). A run that cannot be placed without waiting counts one push stall.
/// Returns false once the consumer is gone (the remainder is discarded).
pub(crate) fn send_batch_accounted<T: Send>(
    tx: &Sender<T>,
    buf: &mut Vec<T>,
    stage: &StageHandle,
    count: impl Fn(&T) -> u64,
) -> bool {
    if buf.is_empty() {
        return true;
    }
    if !stage.enabled() {
        return tx.send_batch(buf.drain(..)).is_ok();
    }
    if tx.free_slots() < buf.len() {
        stage.push_stall();
    }
    let mut iter = buf.drain(..);
    loop {
        // The ring pulls only the messages it has room for: the tally is
        // exactly what was handed off.
        let mut carried = 0;
        let sent = tx.try_send_batch(&mut iter.by_ref().inspect(|m| carried += count(m)));
        stage.items_out(carried);
        if sent.is_err() {
            return false;
        }
        // Ring full or run complete: block on one message, then burst again.
        let Some(msg) = iter.next() else {
            return true;
        };
        let carried = count(&msg);
        if tx.send(msg).is_err() {
            return false;
        }
        stage.items_out(carried);
    }
}

/// Burst-drain up to `max` items into `out`, counting a pop wait when the
/// queue is empty on arrival. Returns the number appended; 0 = EOS. A
/// stage that finds `k` items queued takes all of them with one
/// acquire/release pair instead of `k`.
pub(crate) fn traced_recv_batch<T: Send>(
    rx: &Receiver<T>,
    handle: &StageHandle,
    out: &mut Vec<T>,
    max: usize,
) -> usize {
    if !handle.enabled() {
        return rx.recv_batch(out, max);
    }
    let n = rx.try_recv_batch(out, max);
    if n > 0 {
        return n;
    }
    if rx.is_eos() {
        return 0;
    }
    handle.pop_wait();
    rx.recv_batch(out, max)
}

/// Queue configuration shared by all stages of one pipeline.
#[derive(Clone, Copy, Debug)]
pub struct PipeConfig {
    /// Capacity of every inter-stage queue. The default is the one ring
    /// depth of this crate ([`FarmConfig`] and SPar's `ToStream` read it):
    /// deep enough that a stage runs many bursts ahead of its neighbour
    /// instead of trading the core with it every few bursts.
    pub capacity: usize,
    /// Maximum run length of the batched queue operations: a stage drains
    /// up to this many queued items per acquire/release pair and buffers at
    /// most this many outputs before publishing them in one go. `1`
    /// reproduces the pre-batching item-at-a-time data path.
    pub burst: usize,
}

impl Default for PipeConfig {
    fn default() -> Self {
        PipeConfig {
            capacity: 512,
            burst: 32,
        }
    }
}

/// Entry point for building pipelines.
pub struct Pipeline;

impl Pipeline {
    /// Start building with default configuration.
    pub fn builder() -> PipelineStart {
        PipelineStart(Graph {
            cfg: PipeConfig::default(),
            rec: Recorder::default(),
            stage_no: 0,
            handles: Vec::new(),
        })
    }
}

/// Builder state before the source is attached.
pub struct PipelineStart(Graph);

impl PipelineStart {
    /// Set the inter-stage queue capacity.
    pub fn capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be >= 1");
        self.0.cfg.capacity = capacity;
        self
    }

    /// Set the maximum batched-transfer run length (see
    /// [`PipeConfig::burst`]). `1` disables batching.
    pub fn burst(mut self, burst: usize) -> Self {
        assert!(burst > 0, "burst must be >= 1");
        self.0.cfg.burst = burst;
        self
    }

    /// Attach a telemetry recorder: every stage and farm replica of this
    /// pipeline registers a [`telemetry::Stage`] counter block under it. A
    /// disabled recorder (the default) makes every probe a no-op branch.
    pub fn recorder(mut self, rec: Recorder) -> Self {
        self.0.rec = rec;
        self
    }

    /// Attach a source closure run on its own thread; it pushes items via
    /// the [`Emitter`] and the stream ends when it returns.
    pub fn source<T, F>(self, f: F) -> PipelineBuilder<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut Emitter<'_, T>) + Send + 'static,
    {
        let stage = self.0.rec.stage("source", 0);
        let body: Body<T> = Box::new(move |mut out| {
            // Fresh items are stamped as they leave the source.
            let mut push = |item: T| out.push(item, stage.stamp_ns(), &stage);
            f(&mut Emitter::new(&mut push));
            out.flush(&stage);
        });
        PipelineBuilder {
            graph: self.0,
            tail: Tail::Pending("ff-source", body),
        }
    }

    /// Attach an iterator as the source.
    pub fn from_iter<I>(self, iter: I) -> PipelineBuilder<I::Item>
    where
        I: IntoIterator + Send + 'static,
        I::Item: Send + 'static,
    {
        self.source(move |em| {
            for item in iter {
                if !em.send(item) {
                    break;
                }
            }
        })
    }
}

/// The body of a sequential stage's thread, run once its outlet is known.
type Body<T> = Box<dyn FnOnce(Outlet<T>) + Send>;

/// The output end of the graph built so far.
enum Tail<T: Send> {
    /// The last sequential stage (thread name, body), un-spawned until
    /// whatever is appended next picks its outlet: a plain ring, or the
    /// worker rings of a farm it then feeds directly.
    Pending(&'static str, Body<T>),
    /// Producers already running (farm workers) behind their receive
    /// endpoint.
    Running(FanIn<T>),
}

/// The thread body of a sequential stage running `node` on `inlet`.
fn stage_body<N: Node>(
    mut node: N,
    mut inlet: FanIn<N::In>,
    stage: StageHandle,
    burst: usize,
) -> Body<N::Out> {
    Box::new(move |mut out| {
        node.on_init();
        let mut in_buf: Vec<Stamped<N::In>> = Vec::with_capacity(burst);
        while inlet.recv_batch(&stage, &mut in_buf, burst) > 0 {
            // Outputs inherit the emit stamp of the input being
            // serviced; `on_eos` flushes are untimed.
            for Stamped { item, emit_ns } in in_buf.drain(..) {
                if stage.enabled() {
                    stage.item_in(inlet.depth());
                }
                let mut push = |o: N::Out| out.push(o, emit_ns, &stage);
                let mut em = Emitter::new(&mut push);
                let span = stage.begin();
                node.svc(item, &mut em);
                stage.end(span);
                if !em.is_open() {
                    return;
                }
            }
            // Flush before the recv above can block again.
            if !out.flush(&stage) {
                return;
            }
        }
        let mut push = |o: N::Out| out.push(o, 0, &stage);
        node.on_eos(&mut Emitter::new(&mut push));
        out.flush(&stage);
    })
}

/// What every builder state carries besides its tail.
struct Graph {
    cfg: PipeConfig,
    rec: Recorder,
    /// Stages appended so far (for auto-generated stage names).
    stage_no: usize,
    handles: Vec<JoinHandle<()>>,
}

impl Graph {
    fn next_stage_name(&mut self) -> String {
        self.stage_no += 1;
        format!("stage{}", self.stage_no)
    }

    /// Start the pending tail stage with `to` as its outlet. Two running
    /// endpoints back to back (farm → farm) get one relay thread, an
    /// uninstrumented identity stage, in between.
    fn connect<T: Send + 'static>(&mut self, tail: Tail<T>, to: Outlet<T>) {
        let (name, body) = match tail {
            Tail::Pending(name, body) => (name, body),
            Tail::Running(inlet) => {
                let relay = stage_body(map(|x| x), inlet, StageHandle::noop(), self.cfg.burst);
                ("ff-stage", relay)
            }
        };
        let thread = thread::Builder::new().name(name.into());
        self.handles
            .push(thread.spawn(move || body(to)).expect("spawn stage"));
    }

    /// The graph's output as the next stage's (or terminal op's) input
    /// side: running producers as they are, a pending stage behind one ring.
    fn inlet<T: Send + 'static>(&mut self, tail: Tail<T>) -> FanIn<T> {
        if let Tail::Running(inlet) = tail {
            return inlet;
        }
        let (tx, rx) = channel(self.cfg.capacity, WaitStrategy::Block);
        let burst = self.cfg.burst;
        let buf = Vec::with_capacity(burst);
        self.connect(tail, Outlet::Next { tx, buf, burst });
        FanIn::single(rx)
    }
}

/// Builder state carrying the output end of the graph built so far.
///
/// Internally every inter-stage channel transports [`Stamped<T>`] so the
/// emit instant travels with each item; the public stage closures only
/// ever see the bare `T`.
pub struct PipelineBuilder<T: Send + 'static> {
    graph: Graph,
    tail: Tail<T>,
}

impl<T: Send + 'static> PipelineBuilder<T> {
    /// Append a sequential stage running `node` on its own thread.
    pub fn node<N>(self, node: N) -> PipelineBuilder<N::Out>
    where
        N: Node<In = T>,
    {
        let PipelineBuilder { mut graph, tail } = self;
        let inlet = graph.inlet(tail);
        let name = graph.next_stage_name();
        let stage = graph.rec.stage(name, 0);
        let tail = Tail::Pending("ff-stage", stage_body(node, inlet, stage, graph.cfg.burst));
        PipelineBuilder { graph, tail }
    }

    /// Append a sequential 1:1 mapping stage.
    pub fn map<U, F>(self, f: F) -> PipelineBuilder<U>
    where
        U: Send + 'static,
        F: FnMut(T) -> U + Send + 'static,
    {
        self.node(map(f))
    }

    /// Append an unordered farm stage with `replicas` copies of the node
    /// built by `factory` (round-robin scheduling).
    pub fn farm<N, F>(self, replicas: usize, factory: F) -> PipelineBuilder<N::Out>
    where
        N: Node<In = T>,
        F: FnMut(usize) -> N,
    {
        self.farm_stage(replicas, factory, false, None)
    }

    /// Append an order-preserving farm stage (FastFlow's `ff_ofarm`).
    pub fn farm_ordered<N, F>(self, replicas: usize, factory: F) -> PipelineBuilder<N::Out>
    where
        N: Node<In = T>,
        F: FnMut(usize) -> N,
    {
        self.farm_stage(replicas, factory, true, None)
    }

    /// Append an order-preserving farm whose worker selection is driven
    /// by `router` instead of the round-robin deal (see [`Router`]). The
    /// router runs serially in stream order on the thread of the stage
    /// feeding the farm — the hook a placement scheduler uses to pin each
    /// item to a device-owning replica deterministically. Each item is
    /// delivered before the next is routed: a policy may block a decision
    /// on feedback from items it already routed (a scheduler's lookahead
    /// window), which an item still buffered unsent would never produce.
    pub fn farm_routed<N, F>(
        self,
        replicas: usize,
        factory: F,
        router: Router<T>,
    ) -> PipelineBuilder<N::Out>
    where
        N: Node<In = T>,
        F: FnMut(usize) -> N,
    {
        self.farm_stage(replicas, factory, true, Some(router))
    }

    /// The tail stage gets the workers' rings as its outlet, the next
    /// stage their merge as its inlet.
    fn farm_stage<N, F>(
        self,
        replicas: usize,
        factory: F,
        ordered: bool,
        route: Option<Router<T>>,
    ) -> PipelineBuilder<N::Out>
    where
        N: Node<In = T>,
        F: FnMut(usize) -> N,
    {
        let PipelineBuilder { mut graph, tail } = self;
        let cfg = FarmConfig {
            capacity: graph.cfg.capacity,
            ordered,
            // Routed: deliver each item before routing the next.
            burst: if route.is_some() { 1 } else { graph.cfg.burst },
        };
        let name = graph.next_stage_name();
        let (rec, handles) = (&graph.rec, &mut graph.handles);
        let (fan_out, fan_in) = spawn_workers(replicas, factory, cfg, route, rec, &name, handles);
        graph.connect(tail, Outlet::Workers(fan_out));
        let tail = Tail::Running(fan_in);
        PipelineBuilder { graph, tail }
    }

    /// Run the sink loop on the calling thread, then join every stage.
    #[inline(always)] // item loop in the caller; see EXPERIMENTS.md, "reference loop"
    fn sink(self, mut each: impl FnMut(&StageHandle, T)) {
        let PipelineBuilder { mut graph, tail } = self;
        let mut inlet = graph.inlet(tail);
        let stage = graph.rec.stage("sink", 0);
        let mut buf: Vec<Stamped<T>> = Vec::with_capacity(graph.cfg.burst);
        while inlet.recv_batch(&stage, &mut buf, graph.cfg.burst) > 0 {
            for Stamped { item, emit_ns } in buf.drain(..) {
                if stage.enabled() {
                    stage.item_in(inlet.depth());
                }
                each(&stage, item);
                graph.rec.record_e2e(emit_ns);
            }
        }
        join_all(graph.handles);
    }

    /// Terminate with a sink run on the *calling* thread; returns when the
    /// stream ends and all stage threads have been joined.
    ///
    /// # Panics
    /// Re-raises any panic that occurred on a stage thread.
    pub fn for_each<F>(self, mut f: F)
    where
        F: FnMut(T),
    {
        self.sink(|stage, item| {
            let span = stage.begin();
            f(item);
            stage.end(span);
        });
    }

    /// Terminate by collecting all items into a `Vec` (joins all threads).
    pub fn collect(self) -> Vec<T> {
        let mut out = Vec::new();
        self.sink(|_, item| out.push(item));
        out
    }

    /// Hand the output stream to the caller; the returned guard joins the
    /// stage threads when dropped (after the endpoint is drained). Items
    /// arrive wrapped in [`Stamped`] — the caller owns the sink, so it
    /// also owns end-to-end accounting (`Recorder::record_e2e`).
    pub fn into_receiver(self) -> (FanIn<T>, PipelineThreads) {
        let PipelineBuilder { mut graph, tail } = self;
        let inlet = graph.inlet(tail);
        (inlet, PipelineThreads(graph.handles))
    }
}

/// Guard owning the stage threads of a running pipeline.
pub struct PipelineThreads(Vec<JoinHandle<()>>);

impl PipelineThreads {
    /// Join all stage threads, propagating panics.
    pub fn join(mut self) {
        join_all(std::mem::take(&mut self.0));
    }
}

impl Drop for PipelineThreads {
    fn drop(&mut self) {
        for h in std::mem::take(&mut self.0) {
            // Don't double-panic while unwinding.
            let res = h.join();
            if !thread::panicking() {
                if let Err(e) = res {
                    std::panic::resume_unwind(e);
                }
            }
        }
    }
}

fn join_all(handles: Vec<JoinHandle<()>>) {
    for h in handles {
        if let Err(e) = h.join() {
            std::panic::resume_unwind(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::within_deadline;
    use crate::node;

    #[test]
    fn three_stage_pipeline_preserves_order() {
        within_deadline(|| {
            let out = Pipeline::builder()
                .from_iter(0..100u64)
                .map(|x| x + 1)
                .map(|x| x * 2)
                .collect();
            assert_eq!(out, (0..100).map(|x| (x + 1) * 2).collect::<Vec<u64>>());
        });
    }

    #[test]
    fn source_closure_and_for_each() {
        within_deadline(|| {
            let mut sum = 0u64;
            Pipeline::builder()
                .source(|em| {
                    for i in 1..=10u64 {
                        em.send(i);
                    }
                })
                .map(|x| x * x)
                .for_each(|x| sum += x);
            assert_eq!(sum, 385);
        });
    }

    #[test]
    fn farm_stage_unordered_is_complete() {
        within_deadline(|| {
            let mut out = Pipeline::builder()
                .from_iter(0..200u32)
                .farm(4, |_| node::map(|x: u32| x ^ 1))
                .collect();
            out.sort_unstable();
            let mut expected: Vec<u32> = (0..200).map(|x| x ^ 1).collect();
            expected.sort_unstable();
            assert_eq!(out, expected);
        });
    }

    #[test]
    fn farm_stage_ordered_matches_sequential() {
        within_deadline(|| {
            let out = Pipeline::builder()
                .capacity(8)
                .from_iter(0..200u32)
                .farm_ordered(5, |_| node::map(|x: u32| x * 3))
                .collect();
            assert_eq!(out, (0..200).map(|x| x * 3).collect::<Vec<u32>>());
        });
    }

    #[test]
    fn pipeline_with_farm_then_stage() {
        within_deadline(|| {
            let out = Pipeline::builder()
                .from_iter(1..=50u64)
                .farm_ordered(3, |_| node::map(|x: u64| x * 2))
                .map(|x| x + 1)
                .collect();
            assert_eq!(out, (1..=50).map(|x| x * 2 + 1).collect::<Vec<u64>>());
        });
    }

    #[test]
    fn stateful_filter_stage() {
        within_deadline(|| {
            // Deduplicate consecutive equal items — a stateful sequential stage.
            struct Dedup {
                last: Option<u32>,
            }
            impl Node for Dedup {
                type In = u32;
                type Out = u32;
                fn svc(&mut self, input: u32, out: &mut Emitter<'_, u32>) {
                    if self.last != Some(input) {
                        self.last = Some(input);
                        out.send(input);
                    }
                }
            }
            let out = Pipeline::builder()
                .from_iter(vec![1u32, 1, 2, 2, 2, 3, 1])
                .node(Dedup { last: None })
                .collect();
            assert_eq!(out, vec![1, 2, 3, 1]);
        });
    }

    #[test]
    fn early_sink_drop_stops_the_stream() {
        within_deadline(|| {
            // Receiver dropped after 5 items; upstream must terminate cleanly.
            let (mut rx, threads) = Pipeline::builder()
                .capacity(2)
                .from_iter(0..1_000_000u64)
                .map(|x| x)
                .into_receiver();
            let mut got = Vec::new();
            for _ in 0..5 {
                got.push(rx.recv().unwrap().item);
            }
            drop(rx);
            threads.join(); // must not hang
            assert_eq!(got, vec![0, 1, 2, 3, 4]);
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn stage_panic_propagates() {
        within_deadline(|| {
            Pipeline::builder()
                .from_iter(0..10u32)
                .map(|x| {
                    if x == 5 {
                        panic!("boom");
                    }
                    x
                })
                .for_each(|_| {});
        });
    }
}
