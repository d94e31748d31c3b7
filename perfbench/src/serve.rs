//! The daemon workloads: an in-process `mgopt_server::Server` built from
//! `ServerConfig::default()`, driven over real TCP from two client
//! connections, one thread each.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use mgopt_core::wire::{self, Response, ResponseFrame, StudyRequest};
use mgopt_core::{FleetProblem, PreparedFleet, ScenarioConfig};
use mgopt_server::{Server, ServerConfig};

use crate::gen;
use crate::harness::{fleet_layers, overhead, replay_prepare, setup_reps, traced, write_trace};
use crate::oracle::{self, Answer};
use crate::report::{self, peak_rss_mib, Layers, Run};
use crate::stats::{mean, median};
use crate::trace::{Recorder, Span, TracedProblem};
use crate::Args;

/// Client connections (the load uses at most two threads).
const CONNECTIONS: usize = 2;
/// A study that sends nothing for this long counts as never finished.
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// Traced studies replayed in process after the window.
const REPLAY_STUDIES: usize = 16;
/// Passes of the wire replay over the kept frames.
const WIRE_REPLAY_PASSES: usize = 20;

/// A running daemon with its client connections.
struct Daemon {
    server: Arc<Server>,
    thread: Option<JoinHandle<io::Result<()>>>,
    conns: Vec<TcpStream>,
}

impl Daemon {
    /// Bind on loopback, serve on a thread, connect the clients.
    fn start() -> io::Result<Self> {
        let server = Arc::new(Server::new(ServerConfig::default()));
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let thread = {
            let server = Arc::clone(&server);
            thread::spawn(move || server.serve_tcp(listener))
        };
        let conns = (0..CONNECTIONS)
            .map(|_| {
                let c = TcpStream::connect(addr)?;
                c.set_read_timeout(Some(READ_TIMEOUT))?;
                Ok(c)
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Self {
            server,
            thread: Some(thread),
            conns,
        })
    }
}

impl Drop for Daemon {
    /// Close every client, `Shutdown` the daemon and wait for it to stop.
    fn drop(&mut self) {
        let mut conns = std::mem::take(&mut self.conns);
        if !conns.is_empty() {
            let mut first = conns.remove(0);
            drop(conns);
            let _ = first.write_all(b"{\"v\":1,\"id\":\"stop\",\"req\":\"Shutdown\"}\n");
            let _ = io::Read::read_to_string(&mut first, &mut String::new());
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One study as the client saw it.
#[derive(Debug)]
struct StudyRec {
    k: u64,
    traced: bool,
    /// The request line (studies kept for the wire replay only).
    request: Option<String>,
    t_write: Instant,
    t_queued: Option<Instant>,
    t_accepted: Option<Instant>,
    t_done: Option<Instant>,
    /// Frame arrivals (traced studies only).
    arrivals: Vec<(&'static str, Instant)>,
    /// Raw response lines (studies kept for the wire replay only).
    responses: Vec<String>,
    frames: u64,
    bytes: u64,
    prep_hits: u32,
    prep_misses: u32,
    /// The answer of the `Done` frame, reduced to what the oracle checks.
    answer: Option<Answer>,
    /// The daemon's own `Done.wall_ms`.
    wall_ms: u64,
    error: Option<String>,
}

impl StudyRec {
    fn latency_ms(&self) -> Option<f64> {
        let done = self.t_done?;
        self.answer?;
        Some(done.duration_since(self.t_write).as_secs_f64() * 1e3)
    }
}

/// Which daemon workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Closed loop, one study outstanding per connection, warm cache.
    Small,
    /// Four studies pipelined per connection, every member a cache miss.
    Cold,
}

impl Mode {
    fn depth(self) -> usize {
        match self {
            Mode::Small => 1,
            Mode::Cold => 4,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Mode::Small => "serve_small",
            Mode::Cold => "serve_cold",
        }
    }

    fn study(self, seed: u64, k: u64) -> StudyRequest {
        match self {
            Mode::Small => gen::small_study(gen::search_seed(seed, k)),
            Mode::Cold => gen::cold_study(seed, k),
        }
    }
}

/// Send `line` and read frames until the study `id` ends.
fn run_one(conn: &TcpStream, id: &str, line: &str) -> io::Result<()> {
    (&*conn).write_all(format!("{line}\n").as_bytes())?;
    let mut reader = BufReader::new(conn);
    let mut buf = String::new();
    loop {
        buf.clear();
        if reader.read_line(&mut buf)? == 0 {
            return Err(io::Error::other("daemon closed the connection"));
        }
        let frame: ResponseFrame = serde_json::from_str(buf.trim_end())
            .map_err(|e| io::Error::other(format!("bad frame: {e}")))?;
        match frame.resp {
            Response::Done(_) if frame.id == id => return Ok(()),
            Response::Error(e) => return Err(io::Error::other(e.to_string())),
            _ => {}
        }
    }
}

/// Whether study `k`'s request and response lines are kept for the
/// replays: traced studies among the first few, so the memory they take
/// does not grow with throughput.
fn kept(args: &Args, k: u64) -> bool {
    traced(args, k) && k < 4 * REPLAY_STUDIES as u64
}

/// One connection's closed loop: keep `depth` studies outstanding until
/// the deadline, then drain. Connection `c` runs studies `k ≡ c (mod 2)`.
fn drive(
    conn: &TcpStream,
    c: usize,
    mode: Mode,
    args: &Args,
    start: &Barrier,
    window: Duration,
) -> Vec<StudyRec> {
    let mut reader = BufReader::new(conn);
    let mut open: BTreeMap<u64, StudyRec> = BTreeMap::new();
    let mut finished = Vec::new();
    let mut next = 0u64;
    let mut issue = |n: usize, open: &mut BTreeMap<u64, StudyRec>| {
        let mut batch = String::new();
        let mut recs = Vec::new();
        for _ in 0..n {
            let k = CONNECTIONS as u64 * next + c as u64;
            next += 1;
            let request = gen::request_line(&gen::study_id(k), mode.study(args.seed, k));
            batch.push_str(&request);
            batch.push('\n');
            recs.push((k, request));
        }
        let t_write = Instant::now();
        let ok = (&*conn).write_all(batch.as_bytes()).is_ok();
        for (k, request) in recs {
            open.insert(
                k,
                StudyRec {
                    k,
                    traced: traced(args, k),
                    bytes: request.len() as u64 + 1,
                    request: kept(args, k).then_some(request),
                    t_write,
                    t_queued: None,
                    t_accepted: None,
                    t_done: None,
                    arrivals: Vec::new(),
                    responses: Vec::new(),
                    frames: 0,
                    prep_hits: 0,
                    prep_misses: 0,
                    answer: None,
                    wall_ms: 0,
                    error: (!ok).then(|| "request write failed".to_string()),
                },
            );
        }
    };

    start.wait();
    let deadline = Instant::now() + window;
    issue(mode.depth(), &mut open);
    let mut line = String::new();
    while !open.is_empty() {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let t = Instant::now();
        let frame: ResponseFrame = match serde_json::from_str(line.trim_end()) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("{}: unparsable frame ({e}): {line}", mode.name());
                break;
            }
        };
        let Some(rec) = gen::study_index(&frame.id).and_then(|k| open.get_mut(&k)) else {
            eprintln!("{}: frame for unknown study {:?}", mode.name(), frame.id);
            break;
        };
        rec.frames += 1;
        rec.bytes += line.len() as u64;
        if rec.request.is_some() {
            rec.responses.push(line.trim_end().to_string());
        }
        let (kind, terminal) = match frame.resp {
            Response::Queued(_) => {
                rec.t_queued = Some(t);
                ("frame.queued", false)
            }
            Response::Accepted(a) => {
                rec.t_accepted = Some(t);
                rec.prep_hits = a.prep_cache_hits;
                rec.prep_misses = a.prep_cache_misses;
                ("frame.accepted", false)
            }
            Response::Front(_) => ("frame.front", false),
            Response::Done(d) => {
                rec.t_done = Some(t);
                rec.wall_ms = d.wall_ms;
                rec.answer = Some(Answer {
                    generations: d.generations,
                    sampled_trials: d.sampled_trials,
                    unique_evaluations: d.unique_evaluations,
                    front: oracle::digest_front(&d.front),
                });
                ("frame.done", true)
            }
            Response::Error(e) => {
                rec.error = Some(e.to_string());
                ("frame.error", true)
            }
            other => {
                rec.error = Some(format!("unexpected frame {other:?}"));
                ("frame.other", true)
            }
        };
        if rec.traced {
            rec.arrivals.push((kind, t));
        }
        if terminal {
            let k = rec.k;
            finished.push(open.remove(&k).expect("study is open"));
            if Instant::now() < deadline {
                issue(1, &mut open);
            }
        }
    }
    for (_, mut rec) in open {
        rec.error
            .get_or_insert_with(|| "never finished".to_string());
        finished.push(rec);
    }
    finished
}

/// Set up a daemon for `mode`: bind, connect and, for `serve_small`, one
/// warm-up study that prepares the preset's sites into the cache.
fn set_up(mode: Mode, seed: u64) -> io::Result<Daemon> {
    let d = Daemon::start()?;
    if mode == Mode::Small {
        let study = gen::small_study(gen::derive(seed, gen::Stream::Warmup, 0));
        run_one(&d.conns[0], "warmup", &gen::request_line("warmup", study))?;
    }
    Ok(d)
}

/// Run `serve_small` or `serve_cold`.
pub fn serve(args: &Args, mode: Mode) -> io::Result<Run> {
    let (setup_s, daemon) = setup_reps(|| set_up(mode, args.seed));
    let daemon = daemon?;

    let start = Barrier::new(CONNECTIONS + 1);
    let window = args.window();
    let steal0 = report::steal_s();
    let mut t0 = Instant::now();
    let recs: Vec<StudyRec> = thread::scope(|s| {
        let handles: Vec<_> = daemon
            .conns
            .iter()
            .enumerate()
            .map(|(c, conn)| {
                let start = &start;
                s.spawn(move || drive(conn, c, mode, args, start, window))
            })
            .collect();
        start.wait();
        t0 = Instant::now();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let t_end = recs
        .iter()
        .filter_map(|r| r.t_done)
        .max()
        .unwrap_or_else(Instant::now);
    let window_s = t_end.duration_since(t0).as_secs_f64();
    let steal_share = report::steal_share(steal0, window_s);
    let peak = peak_rss_mib();
    let server_peak = (
        daemon.server.peak_in_flight(),
        daemon.server.queue_depth_peak(),
    );
    drop(daemon);
    println!(
        "daemon: in-flight peak {}, queue depth peak {}",
        server_peak.0, server_peak.1
    );

    // The oracle: every Done front against a standalone scalar-walk run.
    let tiny = (mode == Mode::Small).then(|| gen::paper_tiny().prepare());
    let reference = |k: u64| -> Answer {
        let study = mode.study(args.seed, k);
        let b = &study.budget;
        match &tiny {
            Some(fleet) => oracle::reference_front(fleet, b.population_size, b.max_trials, b.seed),
            None => {
                let fleet = study
                    .resolved_scenario()
                    .expect("generated studies are valid")
                    .prepare();
                oracle::reference_front(&fleet, b.population_size, b.max_trials, b.seed)
            }
        }
    };
    let answered: Vec<&StudyRec> = recs.iter().filter(|r| r.answer.is_some()).collect();
    let refs = oracle::par_map(&answered, |r| reference(r.k));
    let mut failed = recs.iter().filter(|r| r.answer.is_none()).count() as u64;
    for r in recs.iter().filter(|r| r.error.is_some()) {
        eprintln!(
            "{} study {}: {}",
            mode.name(),
            r.k,
            r.error.as_deref().unwrap_or("")
        );
    }
    for (r, want) in answered.iter().zip(&refs) {
        if r.answer != Some(*want) {
            eprintln!(
                "{} study {}: front differs from the scalar reference",
                mode.name(),
                r.k
            );
            failed += 1;
        }
    }

    let mut layers = Layers::default();
    if args.trace {
        failed += trace_layers(&mut layers, &recs, mode, args, tiny.as_ref());
    }

    Ok(Run {
        setup_s,
        latencies_ms: recs.iter().filter_map(StudyRec::latency_ms).collect(),
        window_s,
        attempted: recs.len() as u64,
        failed,
        peak_rss_mib: peak,
        steal_share,
        layers,
    })
}

/// Per-layer metrics of a traced daemon run: client-side frame spans,
/// plus replays of the workload's own studies (engine), sites (prepare)
/// and frames (wire). Returns replays that disagreed with the daemon.
fn trace_layers(
    layers: &mut Layers,
    recs: &[StudyRec],
    mode: Mode,
    args: &Args,
    tiny: Option<&PreparedFleet>,
) -> u64 {
    let rec = Recorder::new();
    let traced: Vec<&StudyRec> = recs
        .iter()
        .filter(|r| r.traced && r.answer.is_some())
        .collect();
    for r in &traced {
        let (Some(t_done), Some(t_acc)) = (r.t_done, r.t_accepted) else {
            continue;
        };
        let span = |name, parent, a: Instant, b: Instant, work| Span {
            name,
            parent,
            study: Some(r.k),
            start_ns: rec.ns_at(a),
            end_ns: rec.ns_at(b),
            work,
        };
        let root = rec.push(span("study", None, r.t_write, t_done, r.bytes));
        if let Some(q) = r.t_queued {
            rec.push(span("server.queue", Some(root), r.t_write, q, 0));
        }
        rec.push(span("server.admission", Some(root), r.t_write, t_acc, 0));
        rec.push(span("server.body", Some(root), t_acc, t_done, 0));
        for &(kind, t) in &r.arrivals {
            rec.push(span(kind, Some(root), t, t, 0));
        }
    }

    let n = traced.len().max(1) as f64;
    let sum = |f: &dyn Fn(&StudyRec) -> f64| traced.iter().map(|r| f(r)).sum::<f64>();
    let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
    fn done(r: &StudyRec) -> Answer {
        r.answer.expect("traced studies are answered")
    }
    let latency = |r: &StudyRec| r.latency_ms().unwrap_or(0.0);
    layers.set(
        "server.accept_ms",
        sum(&|r| r.t_accepted.map_or(0.0, |a| ms(r.t_write, a))) / n,
    );
    layers.set(
        "server.queued_ratio",
        traced.iter().filter(|r| r.t_queued.is_some()).count() as f64 / n,
    );
    layers.set("server.wall_ms", sum(&|r| r.wall_ms as f64) / n);
    layers.set(
        "server.outside_ms",
        sum(&|r| latency(r) - r.wall_ms as f64) / n,
    );
    layers.set("wire.frames_per_study", sum(&|r| r.frames as f64) / n);
    layers.set("wire.bytes_per_study", sum(&|r| r.bytes as f64) / n);
    layers.set(
        "optimizer.sampled_trials",
        sum(&|r| done(r).sampled_trials as f64) / n,
    );
    layers.set(
        "optimizer.unique_ratio",
        sum(&|r| done(r).unique_evaluations as f64)
            / sum(&|r| done(r).sampled_trials as f64).max(1.0),
    );
    let (hits, lookups) = recs.iter().fold((0u64, 0u64), |(h, l), r| {
        (
            h + u64::from(r.prep_hits),
            l + u64::from(r.prep_hits + r.prep_misses),
        )
    });
    layers.set("cache.lookups", lookups as f64);
    layers.set("cache.hit_ratio", hits as f64 / lookups.max(1) as f64);
    let misses: u64 = recs.iter().map(|r| u64::from(r.prep_misses)).sum();
    layers.set("prepare.calls", misses as f64 / recs.len().max(1) as f64);
    layers.set("trace.studies", traced.len() as f64);
    overhead(
        layers,
        &recs
            .iter()
            .filter_map(|r| Some((r.traced, r.latency_ms()?)))
            .collect::<Vec<_>>(),
    );

    // Engine replay: the first traced studies again, in-process, through
    // the forwarding wrapper, on the daemon's default backend.
    let mut sample: Vec<&StudyRec> = traced
        .iter()
        .copied()
        .filter(|r| r.request.is_some())
        .collect();
    sample.sort_by_key(|r| r.k);
    sample.truncate(REPLAY_STUDIES);
    let mut roots = Vec::new();
    let mut disagree = 0;
    let mut sites = 0;
    let mut steps = 0;
    let mut prep_ms = Vec::new();
    for r in &sample {
        let study = mode.study(args.seed, r.k);
        let owned;
        let fleet = match tiny {
            Some(f) => f,
            None => {
                let scenario = study
                    .resolved_scenario()
                    .expect("generated studies are valid");
                let configs: Vec<ScenarioConfig> = scenario
                    .members
                    .iter()
                    .map(|m| m.scenario.clone())
                    .collect();
                prep_ms.push(replay_prepare(&rec, &configs, 1));
                owned = scenario.prepare();
                &owned
            }
        };
        sites = fleet.n_sites();
        steps = fleet.members[0].data.len();
        let problem = FleetProblem::new(fleet);
        let root = rec.open("replay.study", Some(r.k), None);
        let tp = TracedProblem {
            inner: &problem,
            recorder: &rec,
            study: r.k,
            parent: root,
        };
        let b = &study.budget;
        let run = oracle::front_run(fleet, &tp, b.population_size, b.max_trials, b.seed);
        rec.close(root, 0);
        roots.push(root);
        if Some(run) != r.answer {
            eprintln!(
                "{} study {}: traced replay differs from the daemon",
                mode.name(),
                r.k
            );
            disagree += 1;
        }
    }
    let busy = fleet_layers(layers, &rec.spans(), &roots, sites, steps);
    let client_ms = mean(&traced.iter().map(|r| latency(r)).collect::<Vec<_>>());
    layers.set(
        "engine.fleet_share",
        busy / client_ms.max(f64::MIN_POSITIVE),
    );
    layers.set("trace.study_ms_mean", client_ms);
    layers.set(
        "prepare.site_ms",
        match tiny {
            Some(f) => {
                let configs: Vec<ScenarioConfig> =
                    f.members.iter().map(|m| m.config.clone()).collect();
                replay_prepare(&rec, &configs, 3)
            }
            None => median(&prep_ms).unwrap_or(0.0),
        },
    );

    // Wire replay: the workload's own request lines and response frames.
    let requests: Vec<&str> = sample.iter().filter_map(|r| r.request.as_deref()).collect();
    let responses: Vec<ResponseFrame> = sample
        .iter()
        .flat_map(|r| &r.responses)
        .filter_map(|l| serde_json::from_str(l).ok())
        .collect();
    layers.set(
        "wire.parse_request_us",
        replay_us(&rec, "replay.parse_request", &requests, |l| {
            wire::parse_request(l).is_ok()
        }),
    );
    layers.set(
        "wire.encode_response_us",
        replay_us(&rec, "replay.encode_response", &responses, |f| {
            !wire::encode_response(f).is_empty()
        }),
    );
    write_trace(&rec, args, mode.name());
    disagree
}

/// Mean microseconds per call of `f` over `items`, [`WIRE_REPLAY_PASSES`]
/// passes, each pass one span.
fn replay_us<T>(rec: &Recorder, name: &'static str, items: &[T], f: impl Fn(&T) -> bool) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let mut ok = true;
    let t = Instant::now();
    for _ in 0..WIRE_REPLAY_PASSES {
        let id = rec.open(name, None, None);
        for item in items {
            ok &= std::hint::black_box(f(std::hint::black_box(item)));
        }
        rec.close(id, items.len() as u64);
    }
    assert!(ok, "{name}: the workload's own frames must round-trip");
    t.elapsed().as_secs_f64() * 1e6 / (WIRE_REPLAY_PASSES * items.len()) as f64
}
