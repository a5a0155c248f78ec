//! Live metrics exposition — Prometheus text format over a tiny
//! dependency-free TCP endpoint.
//!
//! The render path reads the same wait-free atomics the runtimes bump on
//! their hot paths (the registered [`Counters`](crate::Counters) blocks,
//! stage replicas' included, and the latency histograms), so scraping
//! adds zero cost to the stream itself: a scrape is a walk over relaxed
//! loads plus string formatting on the scraper's thread.
//!
//! The endpoint speaks just enough HTTP/1.1 for `curl`, Prometheus and a
//! bash `/dev/tcp` scrape: it answers `GET /metrics` with the text
//! exposition (version 0.0.4 content type), `GET /health` with the
//! [`HealthSnapshot`](crate::HealthSnapshot) JSON, and `GET /flight`
//! with a live flight-recorder dump. Anything else is a 404. One
//! request per connection, `Connection: close` — deliberately boring.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::monitor::Background;
use crate::{counters, FaultKind, Inner, LatencySnapshot, Recorder};

/// Escape a Prometheus label value (`\`, `"`, newline).
pub(crate) fn esc_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Append one `# HELP` + `# TYPE` header pair.
pub(crate) fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Append one summary's quantile samples and its `_count`, under the
/// already-rendered `label` (`stage="x"`, or empty).
fn summary(out: &mut String, name: &str, label: &str, snap: &LatencySnapshot) {
    let sep = if label.is_empty() { "" } else { "," };
    for (q, v) in [
        ("0.5", snap.p50_ns),
        ("0.9", snap.p90_ns),
        ("0.95", snap.p95_ns),
        ("0.99", snap.p99_ns),
    ] {
        out.push_str(&format!("{name}{{{label}{sep}quantile=\"{q}\"}} {v}\n"));
    }
    let braced = if label.is_empty() {
        String::new()
    } else {
        format!("{{{label}}}")
    };
    out.push_str(&format!("{name}_count{braced} {}\n", snap.count));
}

/// Render the full exposition document from a live recorder's state.
///
/// Counters are cumulative relaxed-atomic reads, so successive scrapes
/// observe monotonically non-decreasing values — the property the
/// `live_plane` test checks between two scrapes of the same run.
pub(crate) fn render_prometheus(inner: &Inner) -> String {
    let mut out = String::with_capacity(4096);
    family(
        &mut out,
        "hetstream_up",
        "gauge",
        "1 while the recorder is live.",
    );
    out.push_str("hetstream_up 1\n");
    family(
        &mut out,
        "hetstream_uptime_seconds",
        "gauge",
        "Seconds since the recorder epoch.",
    );
    out.push_str(&format!(
        "hetstream_uptime_seconds {:.3}\n",
        inner.epoch.elapsed().as_secs_f64()
    ));

    // Service latency quantiles, replicas merged per stage name at the
    // bucket level (percentiles over percentiles would be wrong).
    family(
        &mut out,
        "hetstream_stage_service_latency_ns",
        "summary",
        "Service-latency quantiles per stage (replica histograms merged).",
    );
    for (name, snap) in inner.stage_latency() {
        let stage = format!("stage=\"{}\"", esc_label(&name));
        summary(
            &mut out,
            "hetstream_stage_service_latency_ns",
            &stage,
            &snap,
        );
    }
    family(
        &mut out,
        "hetstream_e2e_latency_ns",
        "summary",
        "End-to-end (source emit to collector) latency quantiles.",
    );
    summary(
        &mut out,
        "hetstream_e2e_latency_ns",
        "",
        &inner.e2e.snapshot(),
    );

    // Fault-path events, every kind always present so scrapers can rely
    // on the family existing (and on monotone per-kind counters).
    family(
        &mut out,
        "hetstream_faults_total",
        "counter",
        "Fault-path events by kind (causes and recovery actions).",
    );
    let faults = inner.faults.lock().unwrap();
    for kind in [
        FaultKind::DeviceOom,
        FaultKind::KernelFault,
        FaultKind::StageError,
        FaultKind::Retry,
        FaultKind::CpuFallback,
    ] {
        let n = faults.iter().filter(|e| e.kind == kind).count();
        out.push_str(&format!(
            "hetstream_faults_total{{kind=\"{}\"}} {n}\n",
            kind.label()
        ));
    }
    drop(faults);

    family(
        &mut out,
        "hetstream_stalls_total",
        "counter",
        "Stall episodes the watchdog reported.",
    );
    out.push_str(&format!(
        "hetstream_stalls_total {}\n",
        inner.stalls.lock().unwrap().len()
    ));

    // Pools, the copy ledger, schedulers, ingress shards and stage
    // replicas: whatever is registered, as its family's descriptor names
    // it.
    counters::render_prometheus(&mut out, &inner.counter_rows());

    // GPU engine busy time (modeled ns), one series per device × engine,
    // plus the derived utilization ratio the auto-tuner scrapes: busy
    // time over the modeled makespan (max span end across all devices),
    // so an engine that never idles reads 1.0.
    family(
        &mut out,
        "hetstream_gpu_engine_busy_ns_total",
        "counter",
        "Accumulated GPU engine busy time, modeled ns.",
    );
    let gpu = inner.gpu.lock().unwrap();
    let mut keys: Vec<(usize, &'static str)> = gpu.iter().map(|s| (s.device, s.engine)).collect();
    keys.sort_unstable();
    keys.dedup();
    let makespan = gpu.iter().map(|s| s.end_ns).max().unwrap_or(0);
    let mut ratios = String::new();
    for (device, engine) in keys {
        let busy: u64 = gpu
            .iter()
            .filter(|s| s.device == device && s.engine == engine)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        out.push_str(&format!(
            "hetstream_gpu_engine_busy_ns_total{{device=\"{device}\",engine=\"{engine}\"}} {busy}\n"
        ));
        let ratio = if makespan == 0 {
            0.0
        } else {
            busy as f64 / makespan as f64
        };
        ratios.push_str(&format!(
            "hetstream_gpu_engine_busy_ratio{{device=\"{device}\",engine=\"{engine}\"}} {ratio:.4}\n"
        ));
    }
    drop(gpu);
    family(
        &mut out,
        "hetstream_gpu_engine_busy_ratio",
        "gauge",
        "GPU engine utilization: busy time over the modeled run makespan.",
    );
    out.push_str(&ratios);

    // Flight-recorder throughput.
    family(
        &mut out,
        "hetstream_flight_events_total",
        "counter",
        "Events emitted into the flight-recorder ring.",
    );
    out.push_str(&format!(
        "hetstream_flight_events_total {}\n",
        inner.flight.emitted()
    ));
    family(
        &mut out,
        "hetstream_flight_lap_dropped_total",
        "counter",
        "Flight events abandoned because the emitter was lapped.",
    );
    out.push_str(&format!(
        "hetstream_flight_lap_dropped_total {}\n",
        inner.flight.lap_dropped()
    ));
    out
}

/// The exposition document a *disabled* recorder serves or writes: the
/// plane stays shaped, it just reports itself down.
pub(crate) fn render_disabled() -> String {
    let mut out = String::new();
    family(
        &mut out,
        "hetstream_up",
        "gauge",
        "1 while the recorder is live.",
    );
    out.push_str("hetstream_up 0\n");
    out
}

/// A live metrics endpoint serving one [`Recorder`] over blocking TCP.
///
/// Started with [`Recorder::serve_metrics`]; the background thread polls
/// a nonblocking accept loop so [`stop`](MetricsServer::stop) (or drop)
/// terminates promptly without a self-connect trick.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    thread: Background,
}

impl MetricsServer {
    pub(crate) fn start(rec: Recorder, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let thread = Background::spawn("hetstream-metrics", move |stop| {
            // Connections are serviced on detached helper threads so a
            // wedged client burning its head-read deadline cannot stall
            // other scrapers; the count is bounded so a connection flood
            // degrades to inline (serial) service, not thread exhaustion.
            let in_flight = Arc::new(AtomicUsize::new(0));
            while !stop.raised() {
                // Drain *every* queued connection before sleeping — the
                // old one-accept-per-5ms-wake loop let a backlog build
                // behind a single slow client. The drain itself re-checks
                // stop: under a sustained connection stream the accept
                // loop never goes dry, and shutdown (stop/Drop joins this
                // thread) must stay bounded anyway.
                while let Ok((stream, _)) = listener.accept() {
                    if stop.raised() {
                        return; // drop the stream unserved; we're closing
                    }
                    serve_conn(&rec, stream, &in_flight);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        Ok(MetricsServer { addr, thread })
    }

    /// The bound address (useful when the caller asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop serving and join the background thread.
    pub fn stop(mut self) {
        self.thread.halt();
    }
}

/// Most connections a single endpoint will service concurrently. Beyond
/// this, new connections are handled inline on the accept thread — the
/// pre-fix serial behavior, acceptable as flood degradation.
const MAX_CONN_THREADS: usize = 64;

/// Dispatch one accepted connection to a detached service thread (or
/// inline past the thread cap / on spawn failure).
fn serve_conn(rec: &Recorder, stream: TcpStream, in_flight: &Arc<AtomicUsize>) {
    if in_flight.fetch_add(1, Ordering::AcqRel) < MAX_CONN_THREADS {
        let rec = rec.clone();
        let gauge = Arc::clone(in_flight);
        let spawned = std::thread::Builder::new()
            .name("hetstream-metrics-conn".into())
            .spawn(move || {
                let _ = handle_conn(&rec, stream);
                gauge.fetch_sub(1, Ordering::AcqRel);
            });
        if spawned.is_err() {
            // The closure (and the stream with it) was dropped unrun:
            // the client sees a closed connection, nobody else blocks.
            in_flight.fetch_sub(1, Ordering::AcqRel);
        }
    } else {
        in_flight.fetch_sub(1, Ordering::AcqRel);
        let _ = handle_conn(rec, stream);
    }
}

fn handle_conn(rec: &Recorder, mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    // Read up to the end of the request head (or 1 KiB, whichever first);
    // only the request line matters. The wall-clock deadline bounds total
    // service even against a client trickling one byte per read-timeout.
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut buf = [0u8; 1024];
    let mut used = 0;
    loop {
        match stream.read(&mut buf[used..]) {
            Ok(0) => break,
            Ok(n) => {
                used += n;
                if buf[..used].windows(4).any(|w| w == b"\r\n\r\n")
                    || used == buf.len()
                    || Instant::now() >= deadline
                {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf[..used]);
    let path = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, ctype, body) = match path {
        "/" | "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            rec.prometheus(),
        ),
        "/health" => ("200 OK", "application/json", rec.health().to_json()),
        "/flight" => ("200 OK", "application/json", rec.flight_json("live scrape")),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            String::from("not found\n"),
        ),
    };
    let resp = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(resp.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counters, Recorder};
    use std::sync::atomic::AtomicBool;

    /// The `# TYPE` lines and the sample lines of an exposition, each
    /// sorted. Values that are not a function of the scenario are masked:
    /// uptime and service time are wall-clock, and the copy ledger is
    /// process-wide, so the other tests of this binary charge it too.
    fn golden_view(text: &str) -> (Vec<String>, Vec<String>) {
        const MASKED: [&str; 4] = [
            "hetstream_uptime_seconds",
            "hetstream_stage_service_ns_total",
            "hetstream_stage_service_latency_ns{",
            "hetstream_copy_",
        ];
        let mut types = Vec::new();
        let mut samples = Vec::new();
        for line in text.lines() {
            if line.starts_with("# TYPE") {
                types.push(line.to_string());
            } else if !line.starts_with('#') {
                let (series, value) = line.rsplit_once(' ').expect("name value");
                assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
                if MASKED.iter().any(|m| series.starts_with(m)) {
                    samples.push(format!("{series} *"));
                } else {
                    samples.push(line.to_string());
                }
            }
        }
        types.sort();
        samples.sort();
        (types, samples)
    }

    #[test]
    fn exposition_matches_the_golden() {
        let rec = Recorder::enabled();
        let h = rec.stage("work", 0);
        h.item_in(3);
        h.end(h.begin());
        h.items_out(1);
        rec.fault_in_batch("work", FaultKind::Retry, crate::NO_BATCH, "attempt 2");
        let pool = Arc::new(Counters::<crate::Pool>::new());
        pool.hit();
        rec.register(&["test.pool"], &pool);
        let ing = Arc::new(Counters::<crate::Ingress>::new());
        ing.add_records(3, 300);
        ing.delivered_to(5);
        rec.register(&["test.stream", "1"], &ing);
        let sched = Arc::new(Counters::<crate::Sched>::new());
        sched.decision(250);
        sched.residency_hit();
        rec.register(&["test.graph"], &sched);
        rec.gpu_span(crate::EngineSpan {
            device: 0,
            engine: "compute",
            name: "k".into(),
            stream: 0,
            start_ns: 0,
            end_ns: 100,
        });
        let (types, samples) = golden_view(&rec.prometheus());
        assert_eq!(types, GOLDEN_TYPES, "# TYPE lines moved");
        assert_eq!(samples, GOLDEN_SAMPLES, "sample lines moved");
    }

    const GOLDEN_TYPES: &[&str] = &[
        "# TYPE hetstream_copy_batches_total counter",
        "# TYPE hetstream_copy_bytes_total counter",
        "# TYPE hetstream_copy_ops_total counter",
        "# TYPE hetstream_e2e_latency_ns summary",
        "# TYPE hetstream_faults_total counter",
        "# TYPE hetstream_flight_events_total counter",
        "# TYPE hetstream_flight_lap_dropped_total counter",
        "# TYPE hetstream_gpu_engine_busy_ns_total counter",
        "# TYPE hetstream_gpu_engine_busy_ratio gauge",
        "# TYPE hetstream_ingress_bytes_total counter",
        "# TYPE hetstream_ingress_records_total counter",
        "# TYPE hetstream_pool_hit_rate gauge",
        "# TYPE hetstream_pool_hits_total counter",
        "# TYPE hetstream_pool_misses_total counter",
        "# TYPE hetstream_pool_outstanding gauge",
        "# TYPE hetstream_pool_shed_total counter",
        "# TYPE hetstream_sched_decisions_total counter",
        "# TYPE hetstream_sched_migrations_total counter",
        "# TYPE hetstream_sched_overhead_ns_total counter",
        "# TYPE hetstream_sched_residency_hits_total counter",
        "# TYPE hetstream_stage_items_in_total counter",
        "# TYPE hetstream_stage_items_out_total counter",
        "# TYPE hetstream_stage_pop_waits_total counter",
        "# TYPE hetstream_stage_push_stalls_total counter",
        "# TYPE hetstream_stage_queue_depth gauge",
        "# TYPE hetstream_stage_queue_hwm gauge",
        "# TYPE hetstream_stage_service_latency_ns summary",
        "# TYPE hetstream_stage_service_ns_total counter",
        "# TYPE hetstream_stalls_total counter",
        "# TYPE hetstream_up gauge",
        "# TYPE hetstream_uptime_seconds gauge",
    ];

    const GOLDEN_SAMPLES: &[&str] = &[
        "hetstream_copy_batches_total *",
        "hetstream_copy_bytes_total{path=\"bounce\"} *",
        "hetstream_copy_bytes_total{path=\"staging\"} *",
        "hetstream_copy_ops_total{path=\"bounce\"} *",
        "hetstream_copy_ops_total{path=\"staging\"} *",
        "hetstream_e2e_latency_ns_count 0",
        "hetstream_e2e_latency_ns{quantile=\"0.5\"} 0",
        "hetstream_e2e_latency_ns{quantile=\"0.9\"} 0",
        "hetstream_e2e_latency_ns{quantile=\"0.95\"} 0",
        "hetstream_e2e_latency_ns{quantile=\"0.99\"} 0",
        "hetstream_faults_total{kind=\"cpu_fallback\"} 0",
        "hetstream_faults_total{kind=\"device_oom\"} 0",
        "hetstream_faults_total{kind=\"kernel_fault\"} 0",
        "hetstream_faults_total{kind=\"retry\"} 1",
        "hetstream_faults_total{kind=\"stage_error\"} 0",
        "hetstream_flight_events_total 3",
        "hetstream_flight_lap_dropped_total 0",
        "hetstream_gpu_engine_busy_ns_total{device=\"0\",engine=\"compute\"} 100",
        "hetstream_gpu_engine_busy_ratio{device=\"0\",engine=\"compute\"} 1.0000",
        "hetstream_ingress_bytes_total{stream=\"test.stream\",shard=\"1\"} 300",
        "hetstream_ingress_records_total{stream=\"test.stream\",shard=\"1\"} 3",
        "hetstream_pool_hit_rate{pool=\"test.pool\"} 1.0000",
        "hetstream_pool_hits_total{pool=\"test.pool\"} 1",
        "hetstream_pool_misses_total{pool=\"test.pool\"} 0",
        "hetstream_pool_outstanding{pool=\"test.pool\"} 0",
        "hetstream_pool_shed_total{pool=\"test.pool\"} 0",
        "hetstream_sched_decisions_total{sched=\"test.graph\"} 1",
        "hetstream_sched_migrations_total{sched=\"test.graph\"} 0",
        "hetstream_sched_overhead_ns_total{sched=\"test.graph\"} 250",
        "hetstream_sched_residency_hits_total{sched=\"test.graph\"} 1",
        "hetstream_stage_items_in_total{stage=\"work\",replica=\"0\"} 1",
        "hetstream_stage_items_out_total{stage=\"work\",replica=\"0\"} 1",
        "hetstream_stage_pop_waits_total{stage=\"work\",replica=\"0\"} 0",
        "hetstream_stage_push_stalls_total{stage=\"work\",replica=\"0\"} 0",
        "hetstream_stage_queue_depth{stage=\"work\",replica=\"0\"} 3",
        "hetstream_stage_queue_hwm{stage=\"work\",replica=\"0\"} 3",
        "hetstream_stage_service_latency_ns_count{stage=\"work\"} 1",
        "hetstream_stage_service_latency_ns{stage=\"work\",quantile=\"0.5\"} *",
        "hetstream_stage_service_latency_ns{stage=\"work\",quantile=\"0.9\"} *",
        "hetstream_stage_service_latency_ns{stage=\"work\",quantile=\"0.95\"} *",
        "hetstream_stage_service_latency_ns{stage=\"work\",quantile=\"0.99\"} *",
        "hetstream_stage_service_ns_total{stage=\"work\",replica=\"0\"} *",
        "hetstream_stalls_total 0",
        "hetstream_up 1",
        "hetstream_uptime_seconds *",
    ];

    #[test]
    fn registering_the_same_labels_again_replaces_the_series() {
        let rec = Recorder::enabled();
        let first = Arc::new(Counters::<crate::Pool>::new());
        let second = Arc::new(Counters::<crate::Pool>::new());
        first.hit();
        second.miss();
        rec.register(&["test.pool"], &first);
        rec.register(&["test.pool"], &second);
        let text = rec.prometheus();
        assert_eq!(text.matches("hetstream_pool_hits_total{").count(), 1);
        assert!(text.contains("hetstream_pool_hits_total{pool=\"test.pool\"} 0"));
        assert!(text.contains("hetstream_pool_misses_total{pool=\"test.pool\"} 1"));
    }

    #[test]
    fn a_stage_asked_for_twice_is_one_series() {
        // Two pipelines with the same stage names on one recorder: one
        // block per (stage, replica), so one series whose counts add up.
        let rec = Recorder::enabled();
        let (first, second) = (rec.stage("work", 0), rec.stage("work", 0));
        first.item_in(0);
        second.item_in(0);
        second.item_in(0);
        let text = rec.prometheus();
        assert_eq!(text.matches("hetstream_stage_items_in_total{").count(), 1);
        let series = "hetstream_stage_items_in_total{stage=\"work\",replica=\"0\"} 3";
        assert!(text.contains(series), "{text}");
    }

    #[test]
    fn disabled_recorder_reports_down() {
        assert_eq!(
            Recorder::default().prometheus(),
            "# HELP hetstream_up 1 while the recorder is live.\n\
             # TYPE hetstream_up gauge\nhetstream_up 0\n"
        );
    }

    #[test]
    fn server_serves_metrics_health_and_flight() {
        let rec = Recorder::enabled();
        let h = rec.stage("serve", 0);
        h.item_in(1);
        h.items_out(1);
        let srv = rec.serve_metrics("127.0.0.1:0").expect("bind");
        let addr = srv.addr();
        let get = |path: &str| {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
                .unwrap();
            let mut resp = String::new();
            s.read_to_string(&mut resp).unwrap();
            resp
        };
        let metrics = get("/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(metrics.contains("hetstream_up 1"));
        assert!(metrics.contains("stage=\"serve\""));
        let health = get("/health");
        assert!(health.contains("application/json"));
        assert!(health.contains("\"status\""));
        let flight = get("/flight");
        assert!(flight.contains("hetstream.flight.v1"));
        let missing = get("/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));
        srv.stop();
    }

    #[test]
    fn stalled_client_does_not_block_other_scrapers() {
        // Regression: the accept loop used to service one connection at a
        // time on the accept thread, so a client that connected and then
        // sent nothing held the 500 ms head-read timeout while every
        // other scraper queued behind it. With per-connection service
        // threads, a healthy scrape must complete while several wedged
        // clients are still mid-stall.
        let rec = Recorder::enabled();
        let srv = rec.serve_metrics("127.0.0.1:0").expect("bind");
        let addr = srv.addr();
        // Four wedged clients: connected, no bytes sent. Serially these
        // cost >= 4 * 500 ms before anyone else is served.
        let wedged: Vec<TcpStream> = (0..4)
            .map(|_| TcpStream::connect(addr).expect("connect wedged"))
            .collect();
        // Give the accept loop a moment to take them all.
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        let mut s = TcpStream::connect(addr).expect("connect scraper");
        s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        let elapsed = start.elapsed();
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("hetstream_up 1"));
        assert!(
            elapsed < Duration::from_millis(1500),
            "scrape stalled behind wedged clients: {elapsed:?}"
        );
        drop(wedged);
        srv.stop();
    }

    #[test]
    fn stop_is_bounded_under_a_sustained_connection_flood() {
        // Regression: the accept-drain loop only noticed the stop flag
        // when accept returned Err, so a steady stream of incoming
        // connections kept stop()/Drop (which joins the accept thread)
        // hanging indefinitely. The drain must re-check stop per accept.
        let rec = Recorder::enabled();
        let srv = rec.serve_metrics("127.0.0.1:0").expect("bind");
        let addr = srv.addr();
        let done = Arc::new(AtomicBool::new(false));
        let done2 = Arc::clone(&done);
        let flooder = std::thread::spawn(move || {
            while !done2.load(Ordering::Relaxed) {
                // Keep the accept queue non-empty; failures after the
                // listener closes are expected and ignored.
                let _ = TcpStream::connect(addr);
            }
        });
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        srv.stop();
        let elapsed = start.elapsed();
        done.store(true, Ordering::Relaxed);
        flooder.join().expect("flooder");
        assert!(
            elapsed < Duration::from_secs(5),
            "stop hung under connection flood: {elapsed:?}"
        );
    }
}
