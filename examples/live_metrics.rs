//! Live observability on a toy pipeline: serve Prometheus metrics and a
//! health/flight endpoint from a running stream region, then scrape it.
//!
//! The example binds an ephemeral port, runs a small replicated pipeline
//! under an enabled [`Recorder`], and scrapes its own `/metrics` and
//! `/health` routes over a plain `TcpStream`, as `tests/live_plane.rs`
//! does on a fault-injected Mandelbrot run. Run with:
//!
//! ```text
//! cargo run --release --example live_metrics
//! ```
//!
//! While it runs you can also point a browser or `curl` at the printed
//! address; the endpoint speaks Prometheus text exposition 0.0.4.

use std::io::{Read, Write};
use std::net::TcpStream;

use hetstream::prelude::*;

/// One HTTP/1.0 GET against the metrics server; returns the whole
/// response (headers + body).
fn scrape(addr: std::net::SocketAddr, route: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect to metrics endpoint");
    write!(conn, "GET {route} HTTP/1.0\r\n\r\n").expect("send request");
    let mut body = String::new();
    conn.read_to_string(&mut body).expect("read response");
    body
}

fn main() {
    let rec = Recorder::enabled();
    // Port 0: let the OS pick, so the example never collides with a real
    // deployment.
    let server = rec
        .serve_metrics("127.0.0.1:0")
        .expect("bind metrics endpoint");
    println!("serving live metrics at http://{}/metrics", server.addr());

    // A flight-recorder handle for app-level breadcrumbs: the same ring
    // the stage probes and the recovery ladder write into.
    let flight = rec.flight_handle("live_metrics");
    flight.emit(FlightKind::BatchFormed, 1, 64, 0);

    // The instrumented toy pipeline: 4 replicas of a checksum stage.
    let mut n = 0u64;
    Pipeline::builder()
        .recorder(rec.clone())
        .from_iter(0..256u64)
        .map(|x: u64| (0..500).fold(x, |acc, k| acc.wrapping_mul(31).wrapping_add(k)))
        .for_each(|_| n += 1);
    assert_eq!(n, 256);

    // Scrape ourselves, exactly as an external Prometheus would.
    let metrics = scrape(server.addr(), "/metrics");
    assert!(metrics.contains("# TYPE hetstream_up gauge"));
    assert!(metrics.contains("hetstream_stage_items_out_total"));
    let shown: Vec<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("hetstream_up") || l.contains("items_out_total"))
        .collect();
    println!(
        "\nscraped /metrics ({} lines); highlights:",
        metrics.lines().count()
    );
    for l in &shown {
        println!("  {l}");
    }

    let health = scrape(server.addr(), "/health");
    assert!(health.contains("hetstream.health.v1"));
    println!("\n/health says: {}", rec.health().describe());

    server.stop();
    println!("\nendpoint stopped; done");
}
