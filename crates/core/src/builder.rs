//! The `ToStream` builder: SPar's annotation semantics as a fluent API.
//!
//! This is the *target* of the [`to_stream!`](crate::to_stream) macro, in the
//! same way FastFlow calls are the target of the SPar source-to-source
//! compiler; it can also be used directly.
//!
//! Attribute mapping (paper §III-C → this API):
//!
//! | SPar attribute | Here |
//! |---|---|
//! | `[[spar::ToStream]]`  | [`ToStream::new`] |
//! | `[[spar::Stage]]`     | [`StreamStage::stage`] (and variants) |
//! | `[[spar::Replicate(n)]]` | the `replicate` argument |
//! | `[[spar::Input(...)]]` / `[[spar::Output(...)]]` | closure captures and argument/return types — Rust's ownership rules make the data-flow declaration implicit and compiler-checked |
//! | `-spar_ordered` flag  | [`ToStream::ordered`] |

use fastflow::node::{self, Node};
use fastflow::pipeline::{Pipeline, PipelineBuilder};
use fastflow::Emitter;
use telemetry::Recorder;

/// A stream region being annotated — SPar's `[[spar::ToStream]]`. Its
/// runtime queues are FastFlow's blocking queues at a pipeline's default
/// depth.
pub struct ToStream {
    ordered: bool,
    rec: Recorder,
}

impl Default for ToStream {
    /// Ordered, unobserved.
    fn default() -> Self {
        ToStream {
            ordered: true,
            rec: Recorder::default(),
        }
    }
}

impl ToStream {
    /// Open a stream region: ordered, unobserved.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a telemetry recorder: the generated runtime registers a
    /// [`telemetry::Stage`] counter block per stage and farm replica (named
    /// `source`, `stage1`, `stage2`, ..., `sink`). A disabled recorder (the
    /// default) makes every probe a no-op branch — the annotated region is
    /// unchanged.
    pub fn recorder(mut self, rec: Recorder) -> Self {
        self.rec = rec;
        self
    }

    /// Toggle order preservation across replicated stages (SPar's
    /// `-spar_ordered` compiler flag).
    pub fn ordered(mut self, ordered: bool) -> Self {
        self.ordered = ordered;
        self
    }

    /// The stream-generation loop (the code between `ToStream` and the first
    /// `Stage` in the paper's Listing 1): runs on its own thread and emits
    /// stream items.
    pub fn source<T, F>(self, f: F) -> StreamStage<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut Emitter<'_, T>) + Send + 'static,
    {
        let inner = Pipeline::builder().recorder(self.rec).source(f);
        StreamStage {
            ordered: self.ordered,
            inner,
        }
    }

    /// Convenience: generate the stream from an iterator.
    pub fn source_iter<I>(self, iter: I) -> StreamStage<I::Item>
    where
        I: IntoIterator + Send + 'static,
        I::Item: Send + 'static,
    {
        StreamStage {
            ordered: self.ordered,
            inner: Pipeline::builder().recorder(self.rec).from_iter(iter),
        }
    }
}

/// A stream region with at least the source attached; append `Stage`s.
pub struct StreamStage<T: Send + 'static> {
    ordered: bool,
    inner: PipelineBuilder<T>,
}

impl<T: Send + 'static> StreamStage<T> {
    /// `[[spar::Stage, spar::Replicate(replicate)]]` over a pure function.
    ///
    /// `replicate == 1` produces a plain sequential stage; `replicate > 1`
    /// produces a farm (ordered if the region is ordered). The closure is
    /// cloned once per replica, which is what makes the stage *stateless*
    /// in SPar's sense — per-replica mutable state needs
    /// [`stage_factory`](Self::stage_factory).
    pub fn stage<U, F>(self, replicate: usize, f: F) -> StreamStage<U>
    where
        U: Send + 'static,
        F: FnMut(T) -> U + Send + Clone + 'static,
    {
        self.stage_factory(replicate, move |_replica| f.clone())
    }

    /// A replicated stage whose per-replica worker function is built by
    /// `factory(replica_id)` on the worker's own thread context.
    ///
    /// This is the hook the paper's GPU integrations need: each replica can
    /// own non-thread-safe handles (an OpenCL `cl_kernel` analogue) and run
    /// per-thread initialization (`cudaSetDevice`).
    pub fn stage_factory<U, F, G>(self, replicate: usize, mut factory: G) -> StreamStage<U>
    where
        U: Send + 'static,
        F: FnMut(T) -> U + Send + 'static,
        G: FnMut(usize) -> F,
    {
        self.stage_node(replicate, move |replica| node::map(factory(replica)))
    }

    /// A replicated stage over a full [`Node`] (multi-output, EOS hooks).
    pub fn stage_node<N, G>(self, replicate: usize, mut factory: G) -> StreamStage<N::Out>
    where
        N: Node<In = T>,
        G: FnMut(usize) -> N,
    {
        assert!(replicate >= 1, "Replicate(n) requires n >= 1");
        let StreamStage { ordered, inner } = self;
        let inner = match (replicate, ordered) {
            (1, _) => inner.node(factory(0)),
            (_, true) => inner.farm_ordered(replicate, factory),
            (_, false) => inner.farm(replicate, factory),
        };
        StreamStage { ordered, inner }
    }

    /// The final `Stage` (the collector): runs on the calling thread and
    /// returns when the stream region completes, like exiting the annotated
    /// loop in SPar.
    pub fn last_stage<F>(self, f: F)
    where
        F: FnMut(T),
    {
        self.inner.for_each(f)
    }

    /// Terminal convenience: collect the stream into a `Vec`.
    pub fn collect(self) -> Vec<T> {
        self.inner.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_region_matches_loop() {
        let out = ToStream::new()
            .source_iter(0..50u64)
            .stage(1, |x| x * 2)
            .collect();
        assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn replicated_ordered_stage_preserves_order() {
        let out = ToStream::new()
            .source_iter(0..300u64)
            .stage(4, |x| x + 1000)
            .collect();
        assert_eq!(out, (0..300).map(|x| x + 1000).collect::<Vec<u64>>());
    }

    #[test]
    fn unordered_region_still_processes_everything() {
        let mut out = ToStream::new()
            .ordered(false)
            .source_iter(0..300u64)
            .stage(4, |x| x + 1)
            .collect();
        out.sort_unstable();
        assert_eq!(out, (1..=300).collect::<Vec<u64>>());
    }

    #[test]
    fn multi_stage_region() {
        let out = ToStream::new()
            .source_iter(1..=20u64)
            .stage(3, |x| x * x)
            .stage(1, |x| x + 1)
            .collect();
        assert_eq!(out, (1..=20).map(|x| x * x + 1).collect::<Vec<u64>>());
    }

    #[test]
    fn last_stage_runs_in_order() {
        let mut seen = Vec::new();
        ToStream::new()
            .source_iter(0..100u32)
            .stage(5, |x| x)
            .last_stage(|x| seen.push(x));
        assert_eq!(seen, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn stage_factory_gives_each_replica_its_own_state() {
        // Each replica stamps items with its own id; with round-robin over
        // 3 replicas, ids must cycle 0,1,2,0,1,2,...
        let out = ToStream::new()
            .source_iter(0..9u64)
            .stage_factory(3, |replica| move |x: u64| (x, replica))
            .collect();
        for (i, &(x, rep)) in out.iter().enumerate() {
            assert_eq!(x, i as u64);
            assert_eq!(rep, i % 3);
        }
    }

    #[test]
    #[should_panic(expected = "Replicate(n) requires n >= 1")]
    fn replicate_zero_panics() {
        let _ = ToStream::new().source_iter(0..1u32).stage(0, |x| x);
    }
}
