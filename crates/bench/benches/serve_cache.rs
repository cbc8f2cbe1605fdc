//! E11 — the served-query path: the compiled-plan cache's hot/cold
//! latency ratio, as one assertion.
//!
//! Starts an in-process `pqe-serve` server (default config) on an
//! ephemeral port and drives it with 4 connections × 25 requests over a
//! bounded-width non-safe query (the triangle `R1(x,y), R2(y,z),
//! R3(z,x)` — width 2, #P-hard exactly). Four in five requests repeat the
//! hot query at a fixed `(ε, seed)`, so after the first they hit a
//! worker's plan cache and per-plan result memo; every fifth is a cold
//! variable renaming that forces the full compile + count path. Round
//! trips are bucketed by the response's `"cache"` tag, and the bench
//! asserts zero errors and `hit_speedup` (mean miss latency over mean hit
//! latency) ≥ 5×.
//!
//! Serve throughput and tail latency under load are measured by
//! `perf_ledger` (`serve_read`, `serve_update`), which also checks every
//! answer against an oracle.

use pqe_rand::rngs::StdRng;
use pqe_rand::{RngCore, SeedableRng};
use pqe_serve::{Json, ServeConfig, Server};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

const CONNECTIONS: usize = 4;
const REQUESTS: usize = 25;
const SEED: u64 = 0xE8;

/// A seeded random graph over the triangle query's three edge relations.
fn synthetic_triangle_db(nodes: usize, density_pct: u64, seed: u64) -> pqe_db::ProbDatabase {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut src = String::new();
    for rel in ["R1", "R2", "R3"] {
        for a in 0..nodes {
            for b in 0..nodes {
                if a != b && rng.next_u64() % 100 < density_pct {
                    let num = 1 + rng.next_u64() % 3;
                    src.push_str(&format!("{num}/4 {rel}(n{a},n{b})\n"));
                }
            }
        }
    }
    pqe_db::io::load_str(&src).expect("generated db parses")
}

/// One connection's `(round trip µs, cache tag)` per request; the tag is
/// `None` for any response that is not `"ok":true`.
fn drive(addr: SocketAddr, conn: usize) -> Vec<(f64, Option<String>)> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut resp = String::new();
    (0..REQUESTS)
        .map(|i| {
            // Same shape, distinct text: a guaranteed plan-cache miss.
            let query = if i % 5 == 4 {
                let v = |n: &str| format!("{n}_c{conn}_{i}");
                format!(
                    "R1({x},{y}), R2({y},{z}), R3({z},{x})",
                    x = v("x"),
                    y = v("y"),
                    z = v("z")
                )
            } else {
                "R1(x,y), R2(y,z), R3(z,x)".to_owned()
            };
            let line = Json::obj([
                ("op", Json::str("estimate")),
                ("query", Json::str(query)),
                ("epsilon", Json::from(0.3)),
                ("seed", Json::from(SEED)),
                ("method", Json::str("fpras")),
            ]);
            let start = Instant::now();
            writeln!(writer, "{line}").expect("send");
            resp.clear();
            reader.read_line(&mut resp).expect("receive");
            let us = start.elapsed().as_secs_f64() * 1e6;
            let v = Json::parse(resp.trim()).ok();
            let tag = v
                .filter(|v| v.get("ok").and_then(Json::as_bool) == Some(true))
                .map(|v| {
                    v.get("cache")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_owned()
                });
            (us, tag)
        })
        .collect()
}

fn main() {
    println!("== bench suite: serve_cache ==");
    let h = synthetic_triangle_db(6, 35, SEED);
    let server = Server::bind(ServeConfig::default(), h).expect("bind ephemeral");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());

    let samples: Vec<_> = std::thread::scope(|s| {
        let conns: Vec<_> = (0..CONNECTIONS)
            .map(|c| s.spawn(move || drive(addr, c)))
            .collect();
        conns
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });

    let mean = |tag: &str| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|(_, t)| t.as_deref() == Some(tag))
            .map(|(us, _)| *us)
            .collect();
        (v.len(), v.iter().sum::<f64>() / v.len().max(1) as f64)
    };
    let errors = samples.iter().filter(|(_, t)| t.is_none()).count();
    let (hits, hit_mean_us) = mean("hit");
    let (misses, miss_mean_us) = mean("miss");
    let hit_speedup = if hit_mean_us > 0.0 {
        miss_mean_us / hit_mean_us
    } else {
        0.0
    };
    println!(
        "  requests {}  errors {errors}  hits {hits}  misses {misses}",
        samples.len()
    );
    println!("  hit_mean_us {hit_mean_us:.1}  cold_compile_mean_us {miss_mean_us:.1}");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("  hit_speedup {hit_speedup:.1}x  (nproc {nproc})");

    // Clean shutdown over the wire.
    let mut c = TcpStream::connect(addr).expect("connect");
    c.write_all(b"{\"op\":\"shutdown\"}\n")
        .expect("send shutdown");
    let mut line = String::new();
    BufReader::new(c).read_line(&mut line).ok();
    handle.join().expect("server thread").expect("server exit");

    assert_eq!(errors, 0, "load run had failing requests");
    assert!(
        hit_speedup >= 5.0,
        "cache-hit speedup {hit_speedup:.1}x below the E11 bar"
    );
}
