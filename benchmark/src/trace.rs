//! In-memory spans recorded by the benchmark's own code around its calls
//! into the layers, assembled into one tree per item after the run.
//!
//! During a traced repetition the source, the work wrapper and the sink
//! each log a raw `[start, end)` interval tagged with the item's index.
//! [`assemble`] then derives, per item,
//!
//! ```text
//! item ─┬─ queue_wait    emit            → first work start
//!       ├─ work          first work start → last work end
//!       │    └─ make_batch / try_gpu_batch / try_gpu_split / cpu_batch
//!       ├─ reorder_wait  last work end   → sink start
//!       └─ sink          sink start      → sink end
//! ```
//!
//! so the four children tile the item's interval exactly: their sum *is*
//! the item's latency, and a layer's self time is its span minus what its
//! children cover.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json::Json;
use crate::pace::now_ns;

/// What a raw interval measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// The source producing the item (`next()`, or a producer's `send`).
    Source,
    /// The ingress pump handing the decoded record to the pipeline.
    Decode,
    /// `Workload::make_batch`.
    MakeBatch,
    /// `Workload::try_gpu_batch`.
    GpuBatch,
    /// `Workload::try_gpu_split`.
    GpuSplit,
    /// `Workload::cpu_batch`.
    CpuBatch,
    /// A plain worker closure (no `Workload` ladder underneath).
    Work,
    /// The sink closure.
    Sink,
    /// A whole call the benchmark only sees from outside (it owns its own
    /// source and sink): a root span, counted in no busy ratio.
    Job,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Source => "source",
            Kind::Decode => "decode",
            Kind::MakeBatch => "make_batch",
            Kind::GpuBatch => "try_gpu_batch",
            Kind::GpuSplit => "try_gpu_split",
            Kind::CpuBatch => "cpu_batch",
            Kind::Work => "work",
            Kind::Sink => "sink",
            Kind::Job => "job",
        }
    }

    /// Whether the interval is worker time (a ladder rung or a bare closure).
    pub fn is_work(self) -> bool {
        matches!(
            self,
            Kind::MakeBatch | Kind::GpuBatch | Kind::GpuSplit | Kind::CpuBatch | Kind::Work
        )
    }
}

/// One logged interval.
#[derive(Clone, Copy, Debug)]
pub struct Raw {
    /// What it measured.
    pub kind: Kind,
    /// Index of the item within the repetition.
    pub item: u64,
    /// Start, ns on the benchmark clock.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// The in-memory log one traced repetition writes into.
#[derive(Default)]
pub struct Tracer {
    raw: Mutex<Vec<Raw>>,
}

impl Tracer {
    /// Time `f` and log it as `kind` for `item`.
    pub fn span<R>(&self, kind: Kind, item: u64, f: impl FnOnce() -> R) -> R {
        let start_ns = now_ns();
        let r = f();
        self.log(kind, item, start_ns, now_ns());
        r
    }

    /// Log an interval measured by the caller.
    pub fn log(&self, kind: Kind, item: u64, start_ns: u64, end_ns: u64) {
        self.raw.lock().expect("trace log poisoned").push(Raw {
            kind,
            item,
            start_ns,
            end_ns,
        });
    }

    /// Take everything logged so far.
    pub fn take(&self) -> Vec<Raw> {
        std::mem::take(&mut *self.raw.lock().expect("trace log poisoned"))
    }
}

/// No parent: the span is a root.
pub const ROOT: u32 = u32::MAX;

/// One assembled span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Span name (`item`, `queue_wait`, `work`, `try_gpu_batch`, …).
    pub name: &'static str,
    /// Index of the item it belongs to.
    pub item: u64,
    /// Index of the parent span in the assembled vector, or [`ROOT`].
    pub parent: u32,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Build the per-item trees. Where the benchmark saw no emit or no sink
/// (a job that owns its own source and sink), the intervals it did log
/// become root spans as they are.
pub fn assemble(raw: &[Raw]) -> Vec<Span> {
    let mut by_item: BTreeMap<u64, Vec<Raw>> = BTreeMap::new();
    for r in raw {
        by_item.entry(r.item).or_default().push(*r);
    }
    let mut out = Vec::new();
    for (item, mut rs) in by_item {
        rs.sort_by_key(|r| (r.start_ns, r.kind));
        let find = |k: Kind| rs.iter().find(|r| r.kind == k);
        // The pipeline owns the item from the moment the last stage the
        // benchmark can see upstream of it let go: the pump's decode when
        // there is one, else the source.
        let (Some(emit), Some(sink)) =
            (find(Kind::Decode).or(find(Kind::Source)), find(Kind::Sink))
        else {
            out.extend(rs.iter().map(|r| Span {
                name: r.kind.name(),
                item,
                parent: ROOT,
                start_ns: r.start_ns,
                end_ns: r.end_ns,
            }));
            continue;
        };
        for r in rs
            .iter()
            .filter(|r| matches!(r.kind, Kind::Source | Kind::Decode))
        {
            out.push(Span {
                name: r.kind.name(),
                item,
                parent: ROOT,
                start_ns: r.start_ns,
                end_ns: r.end_ns,
            });
        }
        let root = out.len() as u32;
        let mut push = |name, parent, start_ns, end_ns| {
            out.push(Span {
                name,
                item,
                parent,
                start_ns,
                end_ns,
            });
            out.len() as u32 - 1
        };
        push("item", ROOT, emit.end_ns, sink.end_ns);
        let work: Vec<&Raw> = rs.iter().filter(|r| r.kind.is_work()).collect();
        let mut handed_over = emit.end_ns;
        if let (Some(first), Some(last)) = (work.first(), work.iter().map(|r| r.end_ns).max()) {
            push("queue_wait", root, emit.end_ns, first.start_ns);
            let w = push("work", root, first.start_ns, last);
            // A bare worker closure *is* the work span; ladder rungs nest.
            for r in work.iter().filter(|r| r.kind != Kind::Work) {
                push(r.kind.name(), w, r.start_ns, r.end_ns);
            }
            handed_over = last;
        }
        // With no worker stage the whole wait is one queue.
        let wait = if work.is_empty() {
            "queue_wait"
        } else {
            "reorder_wait"
        };
        push(wait, root, handed_over, sink.start_ns);
        push("sink", root, sink.start_ns, sink.end_ns);
    }
    out
}

/// Self time of every span, ns: its duration minus the part of its
/// interval its direct children cover (overlapping children are not
/// double-counted).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].parent != ROOT)
        .collect();
    kids.sort_by_key(|&i| (spans[i].parent, spans[i].start_ns));
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    let mut upto = 0;
    for (k, &i) in kids.iter().enumerate() {
        let me = &spans[spans[i].parent as usize];
        if k == 0 || spans[kids[k - 1]].parent != spans[i].parent {
            upto = me.start_ns;
        }
        let start = spans[i].start_ns.clamp(me.start_ns, me.end_ns).max(upto);
        let end = spans[i].end_ns.clamp(me.start_ns, me.end_ns);
        if end > start {
            out[spans[i].parent as usize] -= end - start;
            upto = end;
        }
    }
    out
}

/// Largest |item − (queue_wait + work + reorder_wait + sink)| over all
/// items, ns. Zero by construction; printed so a reader can see it.
pub fn tiling_residual_ns(spans: &[Span]) -> u64 {
    let mut parts = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        parts[s.parent as usize] += s.dur_ns();
    }
    spans
        .iter()
        .zip(&parts)
        .filter(|(s, _)| s.name == "item")
        .map(|(s, parts)| s.dur_ns().abs_diff(*parts))
        .max()
        .unwrap_or(0)
}

/// Durations (ms) of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Total duration (ns) of every raw interval of `kind`.
pub fn total_ns(raw: &[Raw], pick: impl Fn(Kind) -> bool) -> u64 {
    raw.iter()
        .filter(|r| pick(r.kind))
        .map(|r| r.end_ns.saturating_sub(r.start_ns))
        .sum()
}

/// The span file: a name table plus one compact row per span,
/// `[name, item, parent, start_ns, end_ns]`.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let mut names: Vec<&'static str> = Vec::new();
    let rows = spans
        .iter()
        .map(|s| {
            let n = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                names.push(s.name);
                names.len() - 1
            });
            let parent = if s.parent == ROOT {
                -1.0
            } else {
                f64::from(s.parent)
            };
            Json::Arr(vec![
                Json::Num(n as f64),
                Json::Num(s.item as f64),
                Json::Num(parent),
                Json::Num(s.start_ns as f64),
                Json::Num(s.end_ns as f64),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        (
            "columns".into(),
            Json::Arr(
                ["name", "item", "parent", "start_ns", "end_ns"]
                    .map(|c| Json::Str(c.into()))
                    .to_vec(),
            ),
        ),
        (
            "names".into(),
            Json::Arr(names.iter().map(|n| Json::Str((*n).into())).collect()),
        ),
        ("spans".into(), Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(kind: Kind, item: u64, start_ns: u64, end_ns: u64) -> Raw {
        Raw {
            kind,
            item,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn the_four_children_tile_the_item_exactly() {
        let spans = assemble(&[
            raw(Kind::Source, 0, 0, 10),
            raw(Kind::MakeBatch, 0, 25, 30),
            raw(Kind::GpuBatch, 0, 30, 70),
            raw(Kind::Sink, 0, 90, 100),
        ]);
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "source",
                "item",
                "queue_wait",
                "work",
                "make_batch",
                "try_gpu_batch",
                "reorder_wait",
                "sink"
            ]
        );
        let item = &spans[1];
        assert_eq!((item.start_ns, item.end_ns), (10, 100));
        assert_eq!(spans[2].dur_ns(), 15, "queue wait: emit 10 -> work 25");
        assert_eq!(spans[3].dur_ns(), 45, "work: 25 -> 70");
        assert_eq!(spans[6].dur_ns(), 20, "reorder wait: 70 -> sink 90");
        assert_eq!(tiling_residual_ns(&spans), 0);
        assert_eq!(spans[4].parent, 3, "ladder rungs hang under work");
    }

    #[test]
    fn self_time_subtracts_children_without_double_counting_overlap() {
        let spans = vec![
            Span {
                name: "work",
                item: 0,
                parent: ROOT,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "a",
                item: 0,
                parent: 0,
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "b",
                item: 0,
                parent: 0,
                start_ns: 30,
                end_ns: 60,
            },
            // A grandchild must not be subtracted from the grandparent.
            Span {
                name: "c",
                item: 0,
                parent: 1,
                start_ns: 70,
                end_ns: 90,
            },
        ];
        assert_eq!(
            self_times(&spans),
            [50, 30, 30, 20],
            "100 - union([10,40],[30,60]); c lies outside a and clips to nothing"
        );
    }

    #[test]
    fn a_job_seen_only_from_outside_keeps_its_interval_as_a_root() {
        let spans = assemble(&[raw(Kind::Job, 0, 5, 50)]);
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].name, spans[0].parent), ("job", ROOT));
        assert_eq!(tiling_residual_ns(&spans), 0, "no item, nothing to tile");
    }

    #[test]
    fn a_pipeline_without_workers_has_one_queue_wait() {
        let spans = assemble(&[raw(Kind::Decode, 3, 5, 8), raw(Kind::Sink, 3, 20, 22)]);
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["decode", "item", "queue_wait", "sink"]);
        assert_eq!(spans[2].dur_ns(), 12);
        assert_eq!(tiling_residual_ns(&spans), 0);
    }

    #[test]
    fn retried_batches_keep_every_attempt_under_one_work_span() {
        let spans = assemble(&[
            raw(Kind::Source, 1, 0, 1),
            raw(Kind::MakeBatch, 1, 2, 3),
            raw(Kind::GpuBatch, 1, 3, 5),
            raw(Kind::GpuBatch, 1, 6, 9),
            raw(Kind::Sink, 1, 10, 11),
        ]);
        let work = spans.iter().position(|s| s.name == "work").unwrap();
        assert_eq!((spans[work].start_ns, spans[work].end_ns), (2, 9));
        assert_eq!(
            self_times(&spans)[work],
            1,
            "only the 5..6 gap is the driver's own"
        );
        assert_eq!(durations_ms(&spans, "try_gpu_batch").len(), 2);
    }
}
