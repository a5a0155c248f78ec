//! The live observability plane on a degraded run, scraped the way an
//! outside Prometheus would: over a plain `TcpStream`, at an ephemeral
//! port, once while the render runs and once after.
//!
//! The run is a small SPar+CUDA Mandelbrot render on one worker and one
//! GPU with `FaultSpec::demo(42)` armed, so the recovery ladder walks to
//! a CPU fallback. `/metrics` must carry the core families with counters
//! that never go back between scrapes, `/health` must name every pool `/metrics`
//! does (both render the one counter registry), and the fallback must
//! leave the armed flight dump behind.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use hetstream::gpusim::{CudaOffload, DeviceProps, FaultSpec, GpuSystem};
use hetstream::mandel::hybrid::run_spar_gpu;
use hetstream::mandel::{cpu::run_sequential, FractalParams};
use hetstream::telemetry::Recorder;

/// One HTTP/1.0 GET; the whole response, headers included.
fn get(addr: SocketAddr, route: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect to the metrics endpoint");
    write!(conn, "GET {route} HTTP/1.0\r\n\r\n").expect("send request");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    response
}

/// Every sample of a `counter`-typed family: series (name and labels)
/// to value.
fn counter_series(exposition: &str) -> BTreeMap<&str, f64> {
    let counters: BTreeSet<&str> = exposition
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.strip_suffix(" counter"))
        .collect();
    exposition
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(series, _)| counters.contains(series.split('{').next().unwrap_or(series)))
        .map(|(series, value)| (series, value.parse().expect("a numeric sample")))
        .collect()
}

#[test]
fn metrics_health_and_flight_dump_agree_on_a_faulty_run() {
    let dir = std::env::temp_dir().join(format!("hetstream_live_plane_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let dump = dir.join("fig1.flight.json");

    let rec = Recorder::enabled();
    rec.arm_flight_dump(&dump, 6);
    let server = rec
        .serve_metrics("127.0.0.1:0")
        .expect("bind an ephemeral port");
    let addr = server.addr();
    let params = FractalParams::view(128, 300);
    let sys = GpuSystem::new(2, DeviceProps::titan_xp());
    sys.inject_faults(&FaultSpec::demo(42));
    let render = {
        let rec = rec.clone();
        std::thread::spawn(move || run_spar_gpu::<CudaOffload>(&sys, &params, 1, 32, 1, rec))
    };
    // The first scrape waits for the stages to register, so that it
    // catches their counters mid-run rather than an empty registry.
    let first = loop {
        let scrape = get(addr, "/metrics");
        if scrape.contains("hetstream_stage_items_out_total{") || render.is_finished() {
            break scrape;
        }
    };
    let img = render.join().expect("render thread");
    let second = get(addr, "/metrics");
    let health = get(addr, "/health");
    server.stop();

    assert_eq!(img.digest(), run_sequential(&params).0.digest());
    for family in [
        "hetstream_up",
        "hetstream_stage_items_out_total",
        "hetstream_faults_total",
        "hetstream_flight_events_total",
        "hetstream_copy_bytes_total",
    ] {
        let head = format!("# TYPE {family} ");
        assert!(first.contains(&head), "no {family} in:\n{first}");
    }
    let (before, after) = (counter_series(&first), counter_series(&second));
    assert!(before.contains_key("hetstream_flight_events_total"));
    for (series, value) in &before {
        let later = after.get(series).copied();
        assert!(
            later.is_some_and(|v| v >= *value),
            "counter {series} went from {value} to {later:?} across scrapes"
        );
    }

    assert!(health.contains("\"hetstream.health.v1\""), "{health}");
    assert!(health.contains("\"status\""), "{health}");
    let pools: BTreeSet<&str> = second
        .split("pool=\"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("closing quote")])
        .collect();
    assert!(!pools.is_empty(), "the exposition names no pool");
    for pool in pools {
        let entry = format!("\"pool\": \"{pool}\"");
        assert!(health.contains(&entry), "/health has no {entry}:\n{health}");
    }

    let dumped = std::fs::read_to_string(&dump).expect("the CPU fallback wrote the flight dump");
    for want in [
        "\"hetstream.flight.v1\"",
        "\"cpu_fallback\"",
        "\"batch_id\": 1",
    ] {
        assert!(dumped.contains(want), "flight dump lacks {want}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
