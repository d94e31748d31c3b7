//! Emit `BENCH_server.json`: daemon throughput in studies per second with
//! several NSGA-II studies multiplexed over one connection, versus the
//! same studies answered strictly one at a time — so the cost (or gain)
//! of the concurrency layer is measured, not assumed.
//!
//! ```text
//! cargo run --release -p mgopt-bench --bin server_bench
//! ```
//!
//! The workload is 8 studies over the shared two-site paper fleet with a
//! `max_concurrent = 4` daemon, so the recorded `in_flight_peak` proves
//! at least 4 studies genuinely overlapped. Every daemon front is
//! checked bit-identical against a standalone `FleetProblem` + NSGA-II
//! run with the same seed (`agreement`), and the Accepted frames surface
//! the prepared-cache hit rate (one fleet → 2 misses, then hits only).
//!
//! A second, `multi_conn` record drives one shared daemon from 8
//! concurrent connections (2 studies each, 16 total) past the
//! process-wide `max_concurrent = 4` admission cap, plus one long
//! streamed study that is cancelled after its first `Front` — recording
//! queue depth, overlap, and that the cancelled study never produced a
//! `Done` frame. The three phases are the interleaved variants of one
//! [`measure`]; each times only its own window, not daemon start-up and
//! teardown, and reports a median with its MAD; both speedups are ratios
//! of medians. `MGOPT_FAST=1` shrinks budgets for smoke runs;
//! `bench_guard` enforces the committed floors on both `speedup` numbers
//! plus the peak/queue/agreement/cancel invariants of [`ServerBench`].

use std::io::{BufRead, BufReader};
use std::sync::Arc;
use std::thread;

use mgopt_bench::{
    measure, send_frame, standalone_front, study, MultiConnBench, ServerBench, Window,
};
use mgopt_core::wire::{PlanPoint, Request, Response, ResponseFrame, StudyRequest};
use mgopt_server::{pipe, Server, ServerConfig};

/// Samples per phase: a multiple of 3, so each of the three phases leads
/// equally often.
const SAMPLES: usize = 3;

/// Stats of one timed batch through the daemon.
struct BatchRun {
    fronts: Vec<Vec<PlanPoint>>,
    hits: u64,
    misses: u64,
    peak: usize,
    plan_space: u64,
    sites: usize,
}

/// Drive `studies` through a fresh daemon over the in-process pipe,
/// timing from the first request to the last `Done` in `window`.
/// `sequential` awaits each `Done` before the next request.
fn run_batch(
    studies: &[StudyRequest],
    max_concurrent: usize,
    sequential: bool,
    window: &mut Window,
) -> BatchRun {
    let server = Arc::new(Server::new(ServerConfig {
        max_concurrent,
        ..ServerConfig::default()
    }));
    let (client, server_end) = pipe::duplex();
    let join = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.serve_connection(server_end.reader, server_end.writer))
    };
    let mut writer = client.writer;
    let mut reader = BufReader::new(client.reader);

    let mut fronts: Vec<Option<Vec<PlanPoint>>> = vec![None; studies.len()];
    let (mut hits, mut misses) = (0u64, 0u64);
    let (mut plan_space, mut sites) = (0u64, 0usize);
    window.open();
    let mut pump = |want_done: usize| {
        let mut done = 0usize;
        while done < want_done {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "daemon hung up");
            let frame: ResponseFrame = serde_json::from_str(line.trim_end()).unwrap();
            let k: usize = frame.id[1..].parse().unwrap();
            match frame.resp {
                Response::Accepted(a) => {
                    hits += u64::from(a.prep_cache_hits);
                    misses += u64::from(a.prep_cache_misses);
                    plan_space = a.plan_space;
                    sites = a.sites.len();
                }
                Response::Done(d) => {
                    fronts[k] = Some(d.front);
                    done += 1;
                }
                // Past the process-wide cap the daemon reports queueing;
                // harmless for throughput accounting.
                Response::Queued(_) => {}
                other => panic!("unexpected frame for {}: {other:?}", frame.id),
            }
        }
    };
    for (k, s) in studies.iter().enumerate() {
        send_frame(&mut writer, &format!("s{k}"), Request::Study(s.clone()));
        if sequential {
            pump(1);
        }
    }
    if !sequential {
        pump(studies.len());
    }
    window.close();
    let peak = server.peak_in_flight();
    drop(writer);
    drop(reader);
    join.join().unwrap().unwrap();
    BatchRun {
        fronts: fronts.into_iter().map(Option::unwrap).collect(),
        hits,
        misses,
        peak,
        plan_space,
        sites,
    }
}

/// Stats of one multi-connection batch through a shared daemon.
struct MultiRun {
    in_flight_peak: usize,
    queue_depth_peak: usize,
    cancelled_done_frames: usize,
    agreement: bool,
}

/// Drive a fresh shared daemon from `studies.len()` concurrent
/// connections, each submitting its study twice. Connection 0
/// additionally submits a long streamed `victim` study and cancels it
/// after its first `Front` frame; both of connection 0's real studies
/// are submitted *behind* the victim, so the cancellation must free a
/// permit for them to finish.
fn run_multi(
    studies: &[StudyRequest],
    expected: &[Vec<PlanPoint>],
    max_concurrent: usize,
    victim: &StudyRequest,
    window: &mut Window,
) -> MultiRun {
    let server = Arc::new(Server::new(ServerConfig {
        max_concurrent,
        ..ServerConfig::default()
    }));
    window.open();
    let clients: Vec<_> = studies
        .iter()
        .enumerate()
        .map(|(i, study)| {
            let server = Arc::clone(&server);
            let study = study.clone();
            let expect = expected[i].clone();
            let victim = (i == 0).then(|| victim.clone());
            thread::spawn(move || {
                let (client, server_end) = pipe::duplex();
                let serve = {
                    let server = Arc::clone(&server);
                    thread::spawn(move || {
                        server.serve_connection(server_end.reader, server_end.writer)
                    })
                };
                let mut writer = client.writer;
                let mut reader = BufReader::new(client.reader);
                let has_victim = victim.is_some();
                if let Some(v) = victim {
                    send_frame(&mut writer, "victim", Request::Study(v));
                }
                send_frame(&mut writer, "a", Request::Study(study.clone()));
                send_frame(&mut writer, "b", Request::Study(study));

                let mut agreement = true;
                let mut cancelled_done = 0usize;
                let mut done_needed = 2usize;
                let mut victim_open = has_victim;
                let mut sent_cancel = false;
                while done_needed > 0 || victim_open {
                    let mut line = String::new();
                    assert!(reader.read_line(&mut line).unwrap() > 0, "daemon hung up");
                    let frame: ResponseFrame = serde_json::from_str(line.trim_end()).unwrap();
                    match frame.resp {
                        Response::Accepted(_) | Response::Queued(_) => {}
                        Response::Front(_) => {
                            if frame.id == "victim" && !sent_cancel {
                                send_frame(
                                    &mut writer,
                                    "cancel-1",
                                    Request::Cancel("victim".into()),
                                );
                                sent_cancel = true;
                            }
                        }
                        Response::Done(d) => {
                            if frame.id == "victim" {
                                cancelled_done += 1;
                                victim_open = false;
                            } else {
                                agreement &= d.front == expect;
                                done_needed -= 1;
                            }
                        }
                        Response::Cancelled(_) => {
                            assert_eq!(frame.id, "victim", "Cancelled for an uncancelled study");
                            victim_open = false;
                        }
                        other => panic!("unexpected frame for {}: {other:?}", frame.id),
                    }
                }
                drop(writer);
                drop(reader);
                serve.join().unwrap().unwrap();
                (agreement, cancelled_done)
            })
        })
        .collect();

    let mut agreement = true;
    let mut cancelled_done_frames = 0usize;
    for client in clients {
        let (ok, cancelled_done) = client.join().unwrap();
        agreement &= ok;
        cancelled_done_frames += cancelled_done;
    }
    window.close();
    MultiRun {
        in_flight_peak: server.peak_in_flight(),
        queue_depth_peak: server.queue_depth_peak(),
        cancelled_done_frames,
        agreement,
    }
}

fn main() {
    let fast = mgopt_bench::fast_mode();
    let n_studies = 8usize;
    let (population, max_trials) = if fast { (6, 18) } else { (10, 40) };
    let max_concurrent = 4usize;
    let studies: Vec<StudyRequest> = (0..n_studies as u64)
        .map(|k| study(k, population, max_trials))
        .collect();

    println!(
        "daemon throughput: {n_studies} studies, population {population}, \
         {max_trials} trials each, max_concurrent {max_concurrent}"
    );

    let expected: Vec<Vec<PlanPoint>> = studies.iter().map(standalone_front).collect();

    // The multi-connection phase: same 8 studies, one shared daemon, one
    // connection per study (each submitted twice), plus a long streamed
    // victim study cancelled after its first generation.
    let mut victim = study(999, population, max_trials * 10);
    victim.stream = true;

    let (mut concurrent_runs, mut sequential_runs, mut multi_runs) =
        (Vec::new(), Vec::new(), Vec::new());
    let t = measure(SAMPLES, 3, |v, window| match v {
        0 => concurrent_runs.push(run_batch(&studies, max_concurrent, false, window)),
        1 => sequential_runs.push(run_batch(&studies, 1, true, window)),
        _ => multi_runs.push(run_multi(
            &studies,
            &expected,
            max_concurrent,
            &victim,
            window,
        )),
    });
    let (concurrent, sequential, multi) = (t[0], t[1], t[2]);

    let batch_runs = || concurrent_runs.iter().chain(&sequential_runs);
    let hits: u64 = batch_runs().map(|r| r.hits).sum();
    let misses: u64 = batch_runs().map(|r| r.misses).sum();
    let agreement = batch_runs().all(|r| r.fronts == expected);
    let multi_studies = 2 * n_studies;
    let multi_conn = MultiConnBench {
        connections: n_studies,
        studies: multi_studies,
        max_concurrent,
        in_flight_peak: multi_runs
            .iter()
            .map(|r| r.in_flight_peak)
            .max()
            .unwrap_or(0),
        queue_depth_peak: multi_runs
            .iter()
            .map(|r| r.queue_depth_peak)
            .max()
            .unwrap_or(0),
        timing: multi,
        studies_per_sec: multi_studies as f64 / (multi.median_ms / 1e3),
        // Sequential baseline scaled from 8 studies to this batch size.
        speedup: sequential.median_ms * (multi_studies as f64 / n_studies as f64) / multi.median_ms,
        cancelled_done_frames: multi_runs.iter().map(|r| r.cancelled_done_frames).sum(),
        agreement: multi_runs.iter().all(|r| r.agreement),
    };

    let bench = ServerBench {
        studies: n_studies,
        population,
        max_trials,
        sites: concurrent_runs[0].sites,
        plan_space: concurrent_runs[0].plan_space,
        max_concurrent,
        in_flight_peak: concurrent_runs.iter().map(|r| r.peak).max().unwrap_or(0),
        concurrent,
        sequential,
        studies_per_sec: n_studies as f64 / (concurrent.median_ms / 1e3),
        speedup: sequential.median_ms / concurrent.median_ms,
        prep_cache_hits: hits,
        prep_cache_misses: misses,
        prep_cache_hit_rate: if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        },
        agreement,
        multi_conn,
    };

    println!(
        "  multiplexed {:9.1} ± {:.1} ms   ({:.2} studies/s, peak {} in flight)",
        concurrent.median_ms, concurrent.mad_ms, bench.studies_per_sec, bench.in_flight_peak
    );
    println!(
        "  sequential  {:9.1} ± {:.1} ms   (speedup {:.2}x, medians)",
        sequential.median_ms, sequential.mad_ms, bench.speedup
    );
    println!(
        "  prep cache  {} hits / {} misses ({:.0}% hit rate)",
        bench.prep_cache_hits,
        bench.prep_cache_misses,
        bench.prep_cache_hit_rate * 100.0
    );
    println!(
        "  agreement with standalone runs: {}",
        if bench.agreement {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );
    let mc = &bench.multi_conn;
    println!(
        "  multi-conn  {:9.1} ± {:.1} ms   ({} connections, {} studies, {:.2} studies/s, \
         speedup {:.2}x)",
        multi.median_ms, multi.mad_ms, mc.connections, mc.studies, mc.studies_per_sec, mc.speedup
    );
    println!(
        "              peak {} in flight (cap {}), queue depth peak {}, \
         cancelled-study Done frames {}, agreement: {}",
        mc.in_flight_peak,
        mc.max_concurrent,
        mc.queue_depth_peak,
        mc.cancelled_done_frames,
        if mc.agreement {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );

    mgopt_bench::write_bench("BENCH_server.json", &bench);
}
