//! The farm skeleton: N worker replicas and nothing else.
//!
//! FastFlow's `ff_farm`/`ff_ofarm` without emitter or collector threads:
//! the stage *upstream* distributes its own outputs straight into the
//! worker rings (`FanOut`: round-robin or routed), each worker
//! runs its own [`Node`] instance, and the stage *downstream* merges the
//! worker rings itself ([`FanIn`]), optionally restoring the input order
//! (the *ordered farm* behind Mandelbrot lines and Dedup batches). DESIGN.md
//! (`fastflow`, farm) has the liveness argument.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

use telemetry::sync::Signal;
use telemetry::{Recorder, StageHandle};

use crate::channel::{channel_with_recv_signal, channel_with_send_signal, Receiver, Sender};
use crate::node::{Emitter, Node};
use crate::pipeline::{send_batch_accounted, traced_recv_batch, Hold, PipeConfig};
use crate::stamp::Stamped;

/// Shared queue configuration for farm internals. An unrouted farm deals
/// items to its workers round-robin (FastFlow's default policy).
#[derive(Clone, Copy, Debug)]
pub struct FarmConfig {
    /// Capacity of every internal SPSC queue.
    pub capacity: usize,
    /// Restore input order at the fan-in.
    pub ordered: bool,
    /// Maximum batched-transfer run length on every internal queue (see
    /// [`crate::PipeConfig::burst`]). `1` disables batching.
    pub burst: usize,
}

impl Default for FarmConfig {
    /// A pipeline's queue shape ([`PipeConfig::default`]), unordered.
    fn default() -> Self {
        let pipe = PipeConfig::default();
        FarmConfig {
            capacity: pipe.capacity,
            ordered: false,
            burst: pipe.burst,
        }
    }
}

/// A worker-selection function for a routed farm: given an item's farm
/// sequence number (assigned serially by the feeder, 0, 1, 2, …) and the
/// item itself, returns the worker replica that must run it (modulo the
/// replica count). With one replica pinned per device, routing an item
/// *is* placing its batch; the single upstream thread calls the router
/// serially in stream order, so the decisions form a deterministic log.
pub type Router<I> = Box<dyn FnMut(u64, &I) -> usize + Send>;

/// What one `svc` call emitted — inline for 0 and 1 outputs, so a 1:1 or
/// filtering worker allocates nothing per item.
enum Outs<O> {
    None,
    One(O),
    Many(Vec<O>),
}

impl<O> Outs<O> {
    fn push(&mut self, v: O) {
        *self = match std::mem::replace(self, Outs::None) {
            Outs::None => Outs::One(v),
            Outs::One(first) => Outs::Many(vec![first, v]),
            Outs::Many(mut all) => {
                all.push(v);
                Outs::Many(all)
            }
        };
    }

    fn len(&self) -> u64 {
        match self {
            Outs::None => 0,
            Outs::One(_) => 1,
            Outs::Many(all) => all.len() as u64,
        }
    }
}

enum WorkerMsg<O> {
    /// Sequence number, emit stamp (forwarded to the outputs) and outputs
    /// of one input; sent even when empty — the ordered merge advances on it.
    Item(u64, u64, Outs<O>),
    /// Outputs flushed by `on_eos` (untimed).
    Final(Vec<O>),
}

/// Spawn the worker replicas of one farm (thread handles go to `handles`)
/// and hand back the [`FanOut`] the upstream stage pushes into and the
/// [`FanIn`] the downstream stage (or terminal op) pulls from. `route`
/// replaces the round-robin deal.
pub(crate) fn spawn_workers<N, F>(
    replicas: usize,
    mut factory: F,
    cfg: FarmConfig,
    route: Option<Router<N::In>>,
    rec: &Recorder,
    stage_name: &str,
    handles: &mut Vec<JoinHandle<()>>,
) -> (FanOut<N::In>, FanIn<N::Out>)
where
    N: Node,
    F: FnMut(usize) -> N,
{
    assert!(replicas > 0, "farm needs at least one worker replica");
    // The input rings share a space signal, the output rings an item signal:
    // the feeder parks on "any worker has room", the merge on "any produced".
    let space = Arc::new(Signal::new());
    let items = Arc::new(Signal::new());
    let mut to_workers = Vec::with_capacity(replicas);
    let mut lanes = Vec::with_capacity(replicas);
    for idx in 0..replicas {
        let (in_tx, in_rx) = channel_with_send_signal(cfg.capacity, Arc::clone(&space));
        let (out_tx, out_rx) = channel_with_recv_signal(cfg.capacity, Arc::clone(&items));
        to_workers.push(in_tx);
        lanes.push(Lane {
            rx: out_rx,
            staged: Vec::with_capacity(cfg.burst),
            pos: 0,
            done: false,
        });
        let mut node = factory(idx);
        let stage = rec.stage(stage_name, idx);
        handles.push(
            thread::Builder::new()
                .name(format!("ff-worker-{idx}"))
                .spawn(move || run_worker(&mut node, in_rx, out_tx, stage, cfg.burst))
                .expect("spawn worker"),
        );
    }
    let scratch = (0..replicas).map(|_| VecDeque::with_capacity(cfg.burst));
    let fan_out = FanOut {
        scratch: scratch.collect(),
        to_workers,
        route,
        seq: 0,
        buffered: 0,
        hold: Hold::new(cfg.burst),
        space,
    };
    let fan_in = FanIn(Inlet::Farm(Merge {
        lanes,
        signal: items,
        cfg,
        next_seq: 0,
        finals: Vec::new(),
        spill: VecDeque::new(),
    }));
    (fan_out, fan_in)
}

/// The output side of the stage feeding a farm: numbers items in stream
/// order, partitions each burst by destination and delivers it straight
/// into the worker rings. Delivery never blocks on one ring while holding
/// items for another (the ordered merge's liveness rests on that): a flush
/// offers every pending run without waiting, and waits only when no ring
/// took anything, on the space signal all the worker rings share.
pub(crate) struct FanOut<T: Send> {
    to_workers: Vec<Sender<(u64, Stamped<T>)>>,
    /// Per-worker runs awaiting delivery, in sequence order.
    scratch: Vec<VecDeque<(u64, Stamped<T>)>>,
    route: Option<Router<T>>,
    seq: u64,
    /// Items across all of `scratch`.
    buffered: usize,
    hold: Hold,
    space: Arc<Signal>,
}

impl<T: Send> FanOut<T> {
    /// Queue one item for its worker; flushes when [`Hold::hands_on`]
    /// says so (with a routed farm's burst of 1: every item). Returns
    /// false once a worker is gone. A router runs here, on the upstream
    /// stage's thread, serially and in sequence order.
    #[inline]
    pub(crate) fn push(&mut self, item: Stamped<T>, stage: &StageHandle) -> bool {
        let n = self.to_workers.len();
        let w = match &mut self.route {
            Some(router) => router(self.seq, &item.item) % n,
            None => self.seq as usize % n,
        };
        self.scratch[w].push_back((self.seq, item));
        self.seq += 1;
        self.buffered += 1;
        !self.hold.hands_on(self.buffered, Instant::now) || self.flush(stage)
    }

    /// Deliver everything queued, recording `items_out` as runs are handed
    /// off; a flush that has to wait for room counts one push stall.
    /// Returns false once a worker is gone: the stream stops.
    pub(crate) fn flush(&mut self, stage: &StageHandle) -> bool {
        if self.buffered == 0 {
            return true;
        }
        let mut stalled = false;
        while self.buffered > 0 {
            let mut placed = 0;
            for (tx, run) in self.to_workers.iter().zip(&mut self.scratch) {
                if run.is_empty() {
                    continue;
                }
                // The ring pulls only as many items as it has room for.
                match tx.try_send_batch(&mut std::iter::from_fn(|| run.pop_front())) {
                    Ok(n) => placed += n,
                    Err(_) => return false,
                }
            }
            stage.items_out(placed as u64);
            self.buffered -= placed;
            if placed == 0 {
                if !stalled {
                    stage.push_stall();
                    stalled = true;
                }
                let (txs, scratch) = (&self.to_workers, &self.scratch);
                self.space.wait_until(|| {
                    txs.iter().zip(scratch).any(|(tx, run)| {
                        !run.is_empty() && (tx.free_slots() > 0 || tx.is_disconnected())
                    })
                });
            }
        }
        self.hold.handed_on(Instant::now);
        true
    }
}

fn run_worker<N: Node>(
    node: &mut N,
    rx: Receiver<(u64, Stamped<N::In>)>,
    tx: Sender<WorkerMsg<N::Out>>,
    stage: StageHandle,
    burst: usize,
) {
    node.on_init();
    let mut in_buf: Vec<(u64, Stamped<N::In>)> = Vec::with_capacity(burst);
    let mut msg_buf: Vec<WorkerMsg<N::Out>> = Vec::with_capacity(burst);
    while traced_recv_batch(&rx, &stage, &mut in_buf, burst) > 0 {
        for (seq, Stamped { item, emit_ns }) in in_buf.drain(..) {
            if stage.enabled() {
                stage.item_in(rx.len());
            }
            let mut outs = Outs::None;
            {
                let mut sink = |v: N::Out| {
                    outs.push(v);
                    true
                };
                let mut em = Emitter::new(&mut sink);
                let span = stage.begin();
                node.svc(item, &mut em);
                stage.end(span);
            }
            msg_buf.push(WorkerMsg::Item(seq, emit_ns, outs));
        }
        // One batched hand-off per input burst, before the recv above can
        // block again; `items_out` is recorded at hand-off, not at svc time.
        let delivered = send_batch_accounted(&tx, &mut msg_buf, &stage, |m| match m {
            WorkerMsg::Item(_, _, outs) => outs.len(),
            WorkerMsg::Final(_) => 0,
        });
        if !delivered {
            return; // consumer gone
        }
    }
    let mut finals = Vec::new();
    {
        let mut sink = |v: N::Out| {
            finals.push(v);
            true
        };
        let mut em = Emitter::new(&mut sink);
        node.on_eos(&mut em);
    }
    if !finals.is_empty() {
        let _ = tx.send(WorkerMsg::Final(finals));
    }
}

/// One worker's output ring as the merge sees it.
struct Lane<O> {
    rx: Receiver<WorkerMsg<O>>,
    /// One run drained from `rx`; the message at `pos` is this lane's head.
    staged: Vec<WorkerMsg<O>>,
    pos: usize,
    /// Ring closed and drained (the staged tail may still hold messages).
    done: bool,
}

impl<O: Send> Lane<O> {
    fn exhausted(&self) -> bool {
        self.pos == self.staged.len()
    }

    /// Could a refill make progress right now?
    fn ready(&self) -> bool {
        !self.done && self.exhausted() && (!self.rx.is_empty() || self.rx.is_closed())
    }
}

/// The merge over a farm's worker output rings.
struct Merge<O> {
    lanes: Vec<Lane<O>>,
    signal: Arc<Signal>,
    cfg: FarmConfig,
    /// Ordered mode: the sequence number due next.
    next_seq: u64,
    /// `on_eos` outputs, released after everything else.
    finals: Vec<O>,
    /// Items [`FanIn::recv`] merged but has not handed out yet.
    spill: VecDeque<Stamped<O>>,
}

impl<O: Send> Merge<O> {
    /// Merge what is available now into `out`, in passes over the lanes until
    /// `max` items were appended (a pass is never cut short: the count may
    /// overshoot) or a pass finds nothing. `None` is EOS, `Some(0)` "not yet".
    fn try_merge<E: Extend<Stamped<O>>>(&mut self, out: &mut E, max: usize) -> Option<usize> {
        let mut got = 0;
        let mut progressed = true;
        while progressed && got < max {
            progressed = false;
            for lane in &mut self.lanes {
                if lane.exhausted() && !lane.done {
                    lane.staged.clear();
                    lane.pos = 0;
                    let n = lane.rx.try_recv_batch(&mut lane.staged, self.cfg.burst);
                    lane.done = n == 0 && lane.rx.is_eos();
                }
                while !lane.exhausted() {
                    if let WorkerMsg::Item(seq, ..) = lane.staged[lane.pos] {
                        if self.cfg.ordered && seq != self.next_seq {
                            break;
                        }
                    }
                    // Moving the head out leaves an empty (unallocated) `Final`.
                    let taken = WorkerMsg::Final(Vec::new());
                    match std::mem::replace(&mut lane.staged[lane.pos], taken) {
                        WorkerMsg::Item(_, emit_ns, outs) => {
                            self.next_seq += 1;
                            got += outs.len() as usize;
                            let stamp = |v| Stamped::at(v, emit_ns);
                            match outs {
                                Outs::None => {}
                                Outs::One(v) => out.extend(Some(stamp(v))),
                                Outs::Many(all) => out.extend(all.into_iter().map(stamp)),
                            }
                        }
                        WorkerMsg::Final(outs) => self.finals.extend(outs),
                    }
                    lane.pos += 1;
                    progressed = true;
                }
            }
            // Every live lane shows a later head and a lane's numbers only
            // grow: the one due died with its worker. Skip to the smallest
            // head so the survivors drain and the panic surfaces at the join.
            if !progressed && self.lanes.iter().all(|l| l.done || !l.exhausted()) {
                let heads = self.lanes.iter().filter(|l| !l.exhausted());
                let seqs = heads.filter_map(|l| match l.staged[l.pos] {
                    WorkerMsg::Item(seq, ..) => Some(seq),
                    WorkerMsg::Final(_) => None,
                });
                if let Some(seq) = seqs.min() {
                    self.next_seq = seq;
                    progressed = true;
                }
            }
        }
        if got == 0 && self.lanes.iter().all(|l| l.done && l.exhausted()) {
            // Everything ordered is out; the `on_eos` flushes follow.
            got = self.finals.len();
            out.extend(self.finals.drain(..).map(Stamped::bare));
            return (got > 0).then_some(got);
        }
        Some(got)
    }

    /// Blocking [`Merge::try_merge`]: at least one item, or 0 at EOS.
    fn recv_batch<E: Extend<Stamped<O>>>(
        &mut self,
        stage: &StageHandle,
        out: &mut E,
        max: usize,
    ) -> usize {
        let mut waited = false;
        loop {
            match self.try_merge(out, max) {
                None => return 0,
                Some(0) => {}
                Some(n) => return n,
            }
            if !waited {
                stage.pop_wait();
                waited = true;
            }
            let lanes = &self.lanes;
            let ready = || lanes.iter().any(Lane::ready);
            self.signal.wait_until(ready);
        }
    }
}

enum Inlet<T> {
    /// One ring from a sequential stage.
    Single(Receiver<Stamped<T>>),
    /// A farm's worker rings, merged on the consuming thread.
    Farm(Merge<T>),
}

/// The receive endpoint of a running graph: the input side of every
/// sequential stage and terminal op, and what
/// [`PipelineBuilder::into_receiver`](crate::PipelineBuilder::into_receiver)
/// hands back. Behind it is one ring, or a farm's worker rings drained and
/// merged on the calling thread. An ordered farm restores stream order
/// here as a k-way merge on the ring heads: each worker emits in increasing
/// sequence number over a FIFO ring, so the item due next is always some
/// ring's head, and nothing is buffered beyond the rings and one staged
/// burst per worker. `on_eos` outputs follow all ordered items.
pub struct FanIn<T>(Inlet<T>);

impl<T: Send> FanIn<T> {
    pub(crate) fn single(rx: Receiver<Stamped<T>>) -> Self {
        FanIn(Inlet::Single(rx))
    }

    /// Dequeue the next item, blocking while none is available. `None`
    /// once every producer is done and drained.
    pub fn recv(&mut self) -> Option<Stamped<T>> {
        match &mut self.0 {
            Inlet::Single(rx) => rx.recv(),
            Inlet::Farm(merge) => {
                if merge.spill.is_empty() {
                    let mut spill = std::mem::take(&mut merge.spill);
                    merge.recv_batch(&StageHandle::noop(), &mut spill, merge.cfg.burst);
                    merge.spill = spill;
                }
                merge.spill.pop_front()
            }
        }
    }

    /// The stage loops' batched dequeue (never mixed with [`FanIn::recv`]):
    /// wait for at least one item, append about `max` and return how many;
    /// `0` is end-of-stream. An empty first look counts a pop wait on `stage`.
    pub(crate) fn recv_batch(
        &mut self,
        stage: &StageHandle,
        out: &mut Vec<Stamped<T>>,
        max: usize,
    ) -> usize {
        match &mut self.0 {
            Inlet::Single(rx) => traced_recv_batch(rx, stage, out, max),
            Inlet::Farm(merge) => merge.recv_batch(stage, out, max),
        }
    }

    /// Advisory count of items queued behind this endpoint.
    pub(crate) fn depth(&self) -> usize {
        match &self.0 {
            Inlet::Single(rx) => rx.len(),
            Inlet::Farm(merge) => {
                let staged = |l: &Lane<T>| l.rx.len() + l.staged.len() - l.pos;
                merge.lanes.iter().map(staged).sum()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::within_deadline;
    use crate::node;

    /// Drive a farm's two endpoints by hand: a feeder thread pushes
    /// `values` into the fan-out, the caller drains the fan-in.
    fn run<N, F>(
        values: Vec<N::In>,
        replicas: usize,
        factory: F,
        cfg: FarmConfig,
        route: Option<Router<N::In>>,
    ) -> Vec<N::Out>
    where
        N: Node,
        F: FnMut(usize) -> N,
    {
        let mut handles = Vec::new();
        let rec = Recorder::default();
        let (mut fan_out, fan_in) =
            spawn_workers(replicas, factory, cfg, route, &rec, "farm", &mut handles);
        let feeder = thread::spawn(move || {
            let stage = StageHandle::noop();
            for v in values {
                assert!(fan_out.push(Stamped::bare(v), &stage));
            }
            assert!(fan_out.flush(&stage));
        });
        let mut fan_in = fan_in;
        let collected: Vec<N::Out> = std::iter::from_fn(|| fan_in.recv().map(|s| s.item)).collect();
        feeder.join().unwrap();
        for h in handles {
            h.join().unwrap();
        }
        collected
    }

    fn feed(values: Vec<u64>, cfg: FarmConfig, replicas: usize) -> Vec<u64> {
        run(values, replicas, |_| node::map(|x: u64| x * 10), cfg, None)
    }

    fn ordered() -> FarmConfig {
        FarmConfig {
            ordered: true,
            ..FarmConfig::default()
        }
    }

    #[test]
    fn unordered_farm_processes_everything() {
        within_deadline(|| {
            let cfg = FarmConfig::default();
            let mut got = feed((0..500).collect(), cfg, 4);
            got.sort_unstable();
            let expected: Vec<u64> = (0..500).map(|x| x * 10).collect();
            assert_eq!(got, expected);
        });
    }

    #[test]
    fn ordered_farm_preserves_input_order() {
        within_deadline(|| {
            let got = feed((0..500).collect(), ordered(), 4);
            let expected: Vec<u64> = (0..500).map(|x| x * 10).collect();
            assert_eq!(got, expected);
        });
    }

    #[test]
    fn single_replica_farm_is_a_pipeline_stage() {
        within_deadline(|| {
            let got = feed(vec![5, 6, 7], ordered(), 1);
            assert_eq!(got, vec![50, 60, 70]);
        });
    }

    #[test]
    fn eos_flush_outputs_arrive_after_stream() {
        within_deadline(|| {
            struct Counting {
                seen: u64,
            }
            impl Node for Counting {
                type In = u64;
                type Out = u64;
                fn svc(&mut self, input: u64, out: &mut Emitter<'_, u64>) {
                    self.seen += 1;
                    out.send(input);
                }
                fn on_eos(&mut self, out: &mut Emitter<'_, u64>) {
                    out.send(1_000_000 + self.seen);
                }
            }
            let got = run(
                (0..10).collect(),
                2,
                |_| Counting { seen: 0 },
                ordered(),
                None,
            );
            // First 10 items in order, then 2 per-worker flush totals (5 each).
            assert_eq!(&got[..10], &(0..10).collect::<Vec<u64>>()[..]);
            let mut tails: Vec<u64> = got[10..].to_vec();
            tails.sort_unstable();
            assert_eq!(tails, vec![1_000_005, 1_000_005]);
        });
    }

    #[test]
    fn multi_output_nodes_keep_group_order_when_ordered() {
        within_deadline(|| {
            let factory = |_| node::flat_map(|x: u64| vec![x * 2, x * 2 + 1]);
            let got = run((0..20).collect(), 3, factory, ordered(), None);
            assert_eq!(got, (0..40).collect::<Vec<u64>>());
        });
    }

    #[test]
    fn routed_farm_honors_the_router_and_keeps_order() {
        within_deadline(|| {
            struct Tagged {
                replica: u64,
            }
            impl Node for Tagged {
                type In = u64;
                type Out = (u64, u64);
                fn svc(&mut self, input: u64, out: &mut Emitter<'_, (u64, u64)>) {
                    out.send((self.replica, input));
                }
            }
            let factory = |idx| Tagged {
                replica: idx as u64,
            };
            let router: Router<u64> = Box::new(|_seq, item: &u64| (*item % 3) as usize);
            let got = run((0..200).collect(), 3, factory, ordered(), Some(router));
            // Every item ran on the replica the router named, and the
            // ordered merge restored stream order.
            assert_eq!(got.len(), 200);
            for (i, (replica, item)) in got.iter().enumerate() {
                assert_eq!(*item, i as u64);
                assert_eq!(*replica, item % 3, "item {item} ran on replica {replica}");
            }
        });
    }

    #[test]
    fn single_item_recv_hands_out_multi_output_messages_one_by_one() {
        within_deadline(|| {
            let factory = |_| node::flat_map(|x: u64| vec![x; x as usize]);
            let mut handles = Vec::new();
            let rec = Recorder::default();
            let (mut fan_out, mut fan_in) =
                spawn_workers(2, factory, ordered(), None, &rec, "farm", &mut handles);
            let stage = StageHandle::noop();
            for v in 0..4 {
                assert!(fan_out.push(Stamped::bare(v), &stage));
            }
            assert!(fan_out.flush(&stage));
            drop(fan_out);
            let got: Vec<u64> = std::iter::from_fn(|| fan_in.recv())
                .map(|s| s.item)
                .collect();
            assert_eq!(got, vec![1, 2, 2, 3, 3, 3]);
            assert!(fan_in.recv().is_none());
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_replicas_panics() {
        let _ = feed(vec![], FarmConfig::default(), 0);
    }
}
