//! The `serve_mix` workload: a closed loop of two clients against a
//! `sec serve` daemon process with two workers and an empty cache.
//!
//! Each round starts a fresh daemon and sends the same seeded script:
//! per client, fresh equivalent pairs (a miss, an engine run, an
//! insert), renamed resubmissions of the client's own earlier pairs (a
//! fingerprint and a hit), `revalidate` resubmissions (a hit plus a
//! seeded run), and mutated pairs that simulation refutes.
//! A client only resubmits pairs whose first answer it already has, so
//! the hit and miss counts do not depend on how the two clients
//! interleave.
//!
//! The shares of the four kinds are synthetic: no record of real
//! `sec serve` traffic exists to derive them from. They are set so that
//! one round times every cache path on every row (see `README.md`).

use crate::checks::{parse_reference, Reference, REFERENCE_TSV};
use crate::eval::{self, SplitMix};
use crate::layers::{Layers, ServeLayers};
use crate::stats::{geomean, median, Outcome, Tally};
use crate::{set_up, shuffle, Args, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sec_bench::{make_instance, RunConfig};
use sec_gen::iscas_alike_suite;
use sec_netlist::{structural_fingerprint, write_bench, Aig, Fingerprint, ProductMachine};
use sec_serve::{check_line, run_server, CheckRequest, Client, Engine, ServeOptions, Source};
use sec_synth::{mutate, random_mutation};
use sec_trace::{parse_json, Json};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Rows whose request takes at most ~0.3 s of engine time, in
/// ascending order of their `table1_sat` check time, so the round times
/// the request path rather than the engine. s420 and the rows from s832
/// up (0.4–1.8 s per engine run) stay out: their fresh and revalidate
/// runs made up most of a round's wall time and most of its spread
/// between runs. s349 stays out because its Table 1 pair is s344's
/// (same fingerprint).
pub const SERVE_ROWS: &[&str] = &[
    "s298", "s1196", "s1238", "s641", "s713", "s444", "s344", "s382", "s208", "s526", "s953",
    "s1512",
];

pub const CLIENTS: usize = 2;

/// About how long one round takes, daemon start and stop included.
const ROUND_S: f64 = 4.0;

/// Renamed resubmissions per fresh pair.
pub const RENAMES: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Fresh,
    Renamed,
    Revalidate,
    Mutated,
}

/// Per-request deadline; a request that reaches it counts as failed.
const REQUEST_TIMEOUT_MS: u64 = 30_000;

/// One scripted request.
struct Request {
    kind: Kind,
    row: &'static str,
    /// The wire line.
    line: String,
    /// The circuits as sent, for the evaluator and fingerprint timing.
    spec: Arc<Aig>,
    imp: Arc<Aig>,
    /// The order key of the fresh request a resubmission repeats.
    first: Option<u64>,
    /// A fresh request's own key.
    key: u64,
}

impl Request {
    fn new(
        kind: Kind,
        row: &'static str,
        spec: Arc<Aig>,
        imp: Arc<Aig>,
        first: Option<u64>,
    ) -> Request {
        Request {
            kind,
            row,
            line: String::new(),
            spec,
            imp,
            first,
            key: 0,
        }
    }
}

fn line(spec: &Aig, imp: &Aig, tag: String, revalidate: bool) -> String {
    check_line(&CheckRequest {
        spec: Source::Inline(write_bench(spec)),
        impl_: Source::Inline(write_bench(imp)),
        engine: Engine::Sat,
        timeout_ms: Some(REQUEST_TIMEOUT_MS),
        conflict_budget: None,
        jobs: 1,
        heartbeat_ms: None,
        tag: Some(tag),
        no_cache: false,
        revalidate,
    })
}

/// `aig` with every signal and output renamed from `seed`.
fn renamed(aig: &Aig, seed: u64) -> Aig {
    let mut out = aig.clone();
    let vars: Vec<_> = aig.vars().skip(1).collect();
    let mut ids: Vec<usize> = (0..vars.len()).collect();
    shuffle(&mut ids, seed);
    let salt = SplitMix::new(seed).next_u64() % 0xFFFF;
    for (v, id) in vars.into_iter().zip(ids) {
        out.set_name(v, format!("w{salt:x}_{id}"));
    }
    for i in 0..aig.num_outputs() {
        out.rename_output(i, format!("po{salt:x}_{i}"));
    }
    out
}

fn fingerprint(spec: &Aig, imp: &Aig) -> Fingerprint {
    structural_fingerprint(&ProductMachine::build(spec, imp).expect("pair builds").aig)
}

/// Times `structural_fingerprint` on the product of one pair.
fn time_fingerprint(spec: &Aig, imp: &Aig) -> f64 {
    let pm = ProductMachine::build(spec, imp).expect("pair builds");
    let t = Instant::now();
    std::hint::black_box(structural_fingerprint(&pm.aig));
    t.elapsed().as_secs_f64()
}

/// Frames per random sequence when telling mutants from their
/// specifications. Some mutations only show after ~50 frames (a high
/// counter bit), so this stays above that.
const MUTANT_FRAMES: usize = 64;

/// Lanes (of 2 × 64 random sequences of [`MUTANT_FRAMES`] frames) on
/// which a mutant must differ from its specification: all of them, so
/// it differs whatever inputs are drawn.
const MUTANT_LANES: u32 = 128;

fn detecting_lanes(spec: &Aig, imp: &Aig, seed: u64) -> u32 {
    (0..2u64)
        .map(|k| eval::mismatching_lanes(spec, imp, MUTANT_FRAMES, seed ^ (k << 48)).count_ones())
        .sum()
}

/// Builds every client's script for a round from `seed`.
///
/// The make-up is the same for every seed: each row of [`SERVE_ROWS`]
/// is one fresh pair (rows of similar cost split between the two
/// clients), resubmitted [`RENAMES`] times renamed and once with
/// `revalidate` by the same client, and each client sends one mutated
/// pair per row. Every fresh pair is the row's Table 1 instance, so the
/// engine work does not change with the seed; the seed picks the
/// clients, the order, the names and the mutations. Fresh and mutated
/// pairs have distinct structural fingerprints, so each is a cache miss.
fn scripts(seed: u64) -> Vec<Vec<Request>> {
    let suite = iscas_alike_suite(usize::MAX);
    let entry = |row: &str| suite.iter().find(|e| e.name == row).expect("suite row");
    let instance = |row: &str| make_instance(entry(row), &RunConfig::default());
    // Rows of similar cost go in twos to the two clients, the seed
    // deciding which gets which, so both clients carry the same load
    // and the closed loop's wall time does not hinge on the seed.
    let mut fresh_rows: Vec<Vec<&str>> = vec![Vec::new(); CLIENTS];
    let mut coin = SplitMix::new(seed);
    for two in SERVE_ROWS.chunks(CLIENTS) {
        let mut clients: Vec<usize> = (0..CLIENTS).collect();
        shuffle(&mut clients, coin.next_u64());
        for (&row, c) in two.iter().zip(clients) {
            fresh_rows[c].push(row);
        }
    }
    let mut seen: HashSet<Fingerprint> = HashSet::new();
    let mut unseen = |spec: &Aig, imp: &Aig| seen.insert(fingerprint(spec, imp));
    let mut out = Vec::new();
    for (client, rows) in fresh_rows.iter().enumerate() {
        // (order key, request): every resubmission gets a key above its
        // fresh pair's, so sorting keeps it after the first answer.
        let mut keyed: Vec<(u64, Request)> = Vec::new();
        let mut key = SplitMix::new(seed ^ (client as u64 + 1) << 32);
        for &row in rows {
            let spec = Arc::new(entry(row).aig.clone());
            let imp = Arc::new(instance(row));
            assert!(unseen(&spec, &imp), "{row}: two rows share a fingerprint");
            let k = key.next_u64() >> 2;
            let mut resubmit = vec![(Kind::Revalidate, spec.clone(), imp.clone())];
            for r in 0..RENAMES {
                let s = key.next_u64() ^ r as u64;
                resubmit.push((
                    Kind::Renamed,
                    Arc::new(renamed(&spec, s)),
                    Arc::new(renamed(&imp, s ^ 1)),
                ));
            }
            keyed.push((k, Request::new(Kind::Fresh, row, spec, imp, None)));
            for (kind, spec, imp) in resubmit {
                let later = k + 1 + key.next_u64() % (u64::MAX / 4 - k);
                keyed.push((later, Request::new(kind, row, spec, imp, Some(k))));
            }
        }
        for &row in SERVE_ROWS {
            let spec = Arc::new(entry(row).aig.clone());
            let base = instance(row);
            let mut mrng = StdRng::seed_from_u64(key.next_u64());
            let imp = (0..)
                .map(|_| random_mutation(&base, &mut mrng).expect("a mutation applies"))
                .map(|m| mutate(&base, m))
                .find(|imp| {
                    detecting_lanes(&spec, imp, key.next_u64()) == MUTANT_LANES
                        && unseen(&spec, imp)
                })
                .expect("a detectable mutant");
            keyed.push((
                key.next_u64() >> 2,
                Request::new(Kind::Mutated, row, spec, Arc::new(imp), None),
            ));
        }
        keyed.sort_by_key(|(k, _)| *k);
        let script = keyed
            .into_iter()
            .enumerate()
            .map(|(i, (k, mut r))| {
                r.key = k;
                let tag = format!("c{client}.{i}");
                r.line = line(&r.spec, &r.imp, tag, r.kind == Kind::Revalidate);
                r
            })
            .collect();
        out.push(script);
    }
    out
}

/// The name of the event on one wire line, without parsing it all.
fn event_name(line: &str) -> &str {
    line.split_once("\"ev\":\"")
        .and_then(|(_, rest)| rest.split_once('"'))
        .map_or("", |(name, _)| name)
}

fn field_u64(j: &Json, key: &str) -> Option<u64> {
    j.get(key).and_then(Json::as_u64)
}

/// What one client saw in one round.
#[derive(Default)]
struct ClientLog {
    latency_ms: Vec<f64>,
    outcomes: Vec<(String, Outcome)>,
    serve: ServeLayers,
}

/// The first answer to a fresh pair: verdict, class count and eqs%.
type Answer = (String, u64, String);

fn answer(j: &Json) -> Answer {
    (
        j.get("verdict")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        field_u64(j, "classes").unwrap_or(0),
        format!(
            "{:.4}",
            j.get("eqs_percent").and_then(Json::as_f64).unwrap_or(-1.0)
        ),
    )
}

/// The partition a fresh pair of `row` must come back with: the BDD
/// engine's under the daemon's settings, from `reference.tsv`.
fn fresh_reference(reference: &Reference, row: &str) -> Option<Answer> {
    reference
        .get(&(row.to_string(), "serve_bdd".to_string()))
        .map(|p| ("equivalent".to_string(), p.classes as u64, p.eqs.clone()))
}

/// Judges one `serve.result` against what the request must return.
fn judge(
    req: &Request,
    result: &Json,
    firsts: &HashMap<u64, Answer>,
    reference: &Reference,
) -> Outcome {
    let got = answer(result);
    match (req.kind, got.0.as_str()) {
        (_, "unknown") => Outcome::Failed(format!(
            "unknown: {}",
            result.get("reason").and_then(Json::as_str).unwrap_or("")
        )),
        (Kind::Mutated, "inequivalent") => {
            let cex = result
                .get("cex")
                .and_then(Json::as_str)
                .and_then(eval::parse_cex);
            match cex {
                Some(t) if eval::trace_shows_mismatch(&req.spec, &req.imp, &t) => Outcome::Ok,
                _ => Outcome::Wrong("counterexample does not replay".into()),
            }
        }
        (Kind::Fresh, "equivalent") => match fresh_reference(reference, req.row) {
            Some(want) if want == got => Outcome::Ok,
            want => Outcome::Wrong(format!("fresh pair answered {got:?}, reference {want:?}")),
        },
        (Kind::Renamed | Kind::Revalidate, _) => {
            let first = &firsts[&req.first.expect("resubmissions name a first")];
            if *first == got {
                Outcome::Ok
            } else {
                Outcome::Wrong(format!("resubmission answered {got:?}, first {first:?}"))
            }
        }
        (kind, v) => Outcome::Wrong(format!("{kind:?} pair answered {v}")),
    }
}

/// Sends a client's script, one request after the previous answer.
fn client_loop(addr: &str, script: &[Request], reference: &Reference) -> ClientLog {
    let mut client = Client::connect(addr).expect("daemon accepts connections");
    let mut log = ClientLog::default();
    let mut firsts: HashMap<u64, Answer> = HashMap::new();
    let dur_ms = |line: &str| {
        parse_json(line)
            .ok()
            .and_then(|j| field_u64(&j, "dur_us"))
            .map_or(0.0, |us| us as f64 / 1000.0)
    };
    for (i, req) in script.iter().enumerate() {
        let t0 = Instant::now();
        client.send_line(&req.line).expect("request is sent");
        let outcome = loop {
            let line = client
                .next_line()
                .expect("daemon answers")
                .expect("daemon stays up");
            match event_name(&line) {
                "req.accept" => log.serve.accept_ms.push(dur_ms(&line)),
                "req.queue" => log.serve.queue_ms.push(dur_ms(&line)),
                "req.run" => log.serve.run_ms.push(dur_ms(&line)),
                "job.start" if line.contains("\"seeded\":true") => log.serve.seeded_runs += 1,
                "serve.error" => break Outcome::Failed(line),
                "serve.result" => {
                    let j = parse_json(&line).expect("serve.result is JSON");
                    let cached = j.get("cached").and_then(Json::as_bool).unwrap_or(true);
                    let verdict = j.get("verdict").and_then(Json::as_str).unwrap_or("");
                    if !cached && verdict != "unknown" {
                        log.serve.cache_insertions += 1;
                    }
                    if req.kind == Kind::Fresh {
                        firsts.insert(req.key, answer(&j));
                    }
                    break judge(req, &j, &firsts, reference);
                }
                _ => {}
            }
        };
        let ms = t0.elapsed().as_secs_f64() * 1000.0;
        eprintln!(
            "{:>10} {:>7} {ms:>10.1} ms  {:?}",
            format!("{:?}", req.kind),
            req.row,
            outcome
        );
        log.latency_ms.push(ms);
        log.outcomes
            .push((format!("{:?} {} #{i}", req.kind, req.row), outcome));
    }
    log
}

/// The daemon mode of this binary (`--serve-daemon [TRACE]`): `sec
/// serve` with two workers on a free local port, its address on the
/// first line of standard output. It exits when its standard input
/// closes, so a daemon never outlives the benchmark that started it.
pub fn daemon_main(trace_path: Option<PathBuf>) -> ! {
    std::thread::spawn(|| {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        std::process::exit(0);
    });
    let opts = ServeOptions {
        listen: "127.0.0.1:0".into(),
        workers: 2,
        trace_path,
        ..ServeOptions::default()
    };
    match run_server(&opts) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            std::process::exit(1)
        }
    }
}

/// A daemon process, killed and waited for if it is dropped running.
struct DaemonProcess {
    child: Child,
    /// Held open: the daemon exits when it closes (see [`daemon_main`]).
    _stdin: ChildStdin,
    /// The address banner comes first; nothing else is written.
    stdout: BufReader<ChildStdout>,
}

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A daemon of this round: its process and control connection.
struct Daemon {
    process: DaemonProcess,
    addr: String,
    control: Client,
}

/// Reads lines until the named event; returns its line.
fn await_event(client: &mut Client, name: &str) -> String {
    loop {
        let line = client
            .next_line()
            .expect("daemon answers")
            .expect("daemon stays up");
        if event_name(&line) == name {
            return line;
        }
    }
}

/// Starts `sec serve` as a process of its own (this binary in daemon
/// mode) and waits until it answers `health`.
fn start_daemon(trace_path: Option<&Path>) -> Daemon {
    let mut cmd = Command::new(std::env::current_exe().expect("the benchmark's own path"));
    cmd.arg("--serve-daemon");
    if let Some(p) = trace_path {
        cmd.arg(p);
    }
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("the daemon process starts");
    let mut process = DaemonProcess {
        _stdin: child.stdin.take().expect("piped stdin"),
        stdout: BufReader::new(child.stdout.take().expect("piped stdout")),
        child,
    };
    let mut banner = String::new();
    process
        .stdout
        .read_line(&mut banner)
        .expect("the daemon writes its address");
    let addr = banner
        .trim()
        .strip_prefix("sec-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected daemon banner {banner:?}"))
        .to_string();
    let mut control = Client::connect(&addr).expect("daemon accepts connections");
    control
        .send_line("{\"cmd\":\"health\"}")
        .expect("health is sent");
    await_event(&mut control, "serve.health");
    Daemon {
        process,
        addr,
        control,
    }
}

impl Daemon {
    /// Reads the `metrics` verb's cache counters and the process's
    /// peak resident memory in MiB, then shuts the daemon down and
    /// waits for its process to end.
    fn stop(mut self) -> (u64, u64, f64) {
        self.control
            .send_line("{\"cmd\":\"metrics\"}")
            .expect("metrics is sent");
        let m = parse_json(&await_event(&mut self.control, "serve.metrics")).expect("JSON");
        let counts = (
            field_u64(&m, "cache_hits").unwrap_or(0),
            field_u64(&m, "cache_misses").unwrap_or(0),
        );
        let peak = crate::layers::peak_rss_mib_of(&format!("/proc/{}", self.process.child.id()));
        self.control
            .send_line("{\"cmd\":\"shutdown\"}")
            .expect("shutdown is sent");
        await_event(&mut self.control, "serve.bye");
        let status = self.process.child.wait().expect("the daemon process ends");
        assert!(status.success(), "daemon exited with {status}");
        (counts.0, counts.1, peak)
    }
}

/// One round on a fresh daemon: the measured wall time of the closed
/// loop, each client's log, and the daemon's cache hits, misses and
/// peak resident memory.
fn round(
    scripts: &[Vec<Request>],
    reference: &Reference,
    trace: Option<&Path>,
    start_s: &mut Vec<f64>,
) -> (f64, Vec<ClientLog>, (u64, u64, f64)) {
    let t = Instant::now();
    let daemon = start_daemon(trace);
    start_s.push(t.elapsed().as_secs_f64());
    let t = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| s.spawn(|| client_loop(&daemon.addr, script, reference)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread ends"))
            .collect()
    });
    let wall = t.elapsed().as_secs_f64();
    let stopped = daemon.stop();
    (wall, logs, stopped)
}

pub fn run(args: &Args, dir: &Path) -> Report {
    let mut setup = Vec::new();
    let scripted = set_up(&mut setup, || scripts(args.seed));
    let reference = parse_reference(REFERENCE_TSV);
    let mut tally = Tally::default();
    // The evaluator's view, before any timing: fresh pairs agree,
    // mutated pairs differ.
    for (c, script) in scripted.iter().enumerate() {
        for (i, req) in script.iter().enumerate() {
            let differs = detecting_lanes(&req.spec, &req.imp, args.seed ^ i as u64) > 0;
            if (req.kind == Kind::Mutated) != differs {
                tally.wrong.push(format!(
                    "c{c}.{i} {:?}: evaluator disagrees with its construction",
                    req.kind
                ));
            }
        }
    }

    // Daemon start-up is part of set-up. One start per round is too few
    // samples for a median, so set-up also starts (and, untimed, stops)
    // the daemon as many times as it builds the scripts.
    let mut start_s = Vec::new();
    for _ in 0..crate::SETUPS {
        let t = Instant::now();
        let daemon = start_daemon(None);
        start_s.push(t.elapsed().as_secs_f64());
        daemon.stop();
    }
    let mut serve = ServeLayers::default();
    let mut peaks = Vec::new();
    let n_rounds = crate::rounds(args.seconds, ROUND_S, 1);
    let mut measure = |trace: Option<&Path>, tally: &mut Tally, serve: &mut ServeLayers| {
        let (mut walls, mut latency) = (Vec::new(), Vec::new());
        for _ in 0..n_rounds {
            let (wall, logs, (hits, misses, peak)) =
                round(&scripted, &reference, trace, &mut start_s);
            walls.push(wall);
            peaks.push(peak);
            serve.cache_hits += hits;
            serve.cache_misses += misses;
            for log in logs {
                latency.extend(log.latency_ms);
                for (what, o) in log.outcomes {
                    tally.record(&what, o);
                }
                serve.accept_ms.extend(log.serve.accept_ms);
                serve.queue_ms.extend(log.serve.queue_ms);
                serve.run_ms.extend(log.serve.run_ms);
                serve.cache_insertions += log.serve.cache_insertions;
                serve.seeded_runs += log.serve.seeded_runs;
            }
        }
        (walls, latency)
    };

    let requests: f64 = scripted.iter().map(Vec::len).sum::<usize>() as f64;
    let (round_walls, op_ms, layers) = if args.trace {
        // The wire events the serve layer figures come from are sent
        // whether or not the daemon writes a trace, so they are pooled
        // over the untraced and the traced rounds.
        let (base, base_latency) = measure(None, &mut tally, &mut serve);
        let base_rps = requests / median(&base);
        serve.client_ms = base_latency;
        serve.client_rps = base_rps;
        let trace_file = dir.join("serve-trace.ndjson");
        let (walls, latency) = measure(Some(&trace_file), &mut tally, &mut serve);
        let rounds = (base.len() + walls.len()) as u64;
        let mut layers = Layers::default();
        for _ in 0..rounds {
            for req in scripted.iter().flatten() {
                layers.fingerprint_s += time_fingerprint(&req.spec, &req.imp);
            }
        }
        layers.serve = serve;
        let overhead = 100.0 * (base_rps / (requests / median(&walls)) - 1.0);
        (walls, latency, Some((layers, rounds, overhead)))
    } else {
        let (walls, latency) = measure(None, &mut tally, &mut serve);
        (walls, latency, None)
    };
    set_up(&mut setup, || scripts(args.seed));
    Report {
        tally,
        wall_s: median(&round_walls),
        geomean_ms: geomean(&op_ms).unwrap_or(0.0),
        peak_rss_mib: median(&peaks),
        setup_s: median(&setup) + median(&start_s),
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_gen::{counter, CounterKind};
    use sec_synth::Mutation;

    fn result(fields: &str) -> Json {
        parse_json(&format!("{{\"ev\":\"serve.result\",{fields}}}")).expect("JSON")
    }

    #[test]
    fn a_counterexample_must_replay() {
        let spec = Arc::new(counter(4, CounterKind::Binary));
        let bad = Arc::new(mutate(&spec, Mutation::FlipInit(0)));
        let req = Request::new(Kind::Mutated, "c4", spec.clone(), bad, None);
        let (none, r) = (HashMap::new(), Reference::new());
        let ok = result(r#""verdict":"inequivalent","cex":"10""#);
        assert_eq!(judge(&req, &ok, &none, &r), Outcome::Ok);
        // The same trace on a pair that agrees shows no mismatch.
        let same = Request::new(Kind::Mutated, "c4", spec.clone(), spec, None);
        assert!(matches!(judge(&same, &ok, &none, &r), Outcome::Wrong(_)));
        let garbled = result(r#""verdict":"inequivalent","cex":"1x""#);
        assert!(matches!(
            judge(&req, &garbled, &none, &r),
            Outcome::Wrong(_)
        ));
        let missed = result(r#""verdict":"equivalent""#);
        assert!(matches!(judge(&req, &missed, &none, &r), Outcome::Wrong(_)));
    }

    #[test]
    fn a_resubmission_must_repeat_the_first_answer() {
        let spec = Arc::new(counter(4, CounterKind::Binary));
        let req = Request::new(Kind::Renamed, "c4", spec.clone(), spec, Some(7));
        let first = result(r#""verdict":"equivalent","classes":9,"eqs_percent":100.0"#);
        let firsts = HashMap::from([(7, answer(&first))]);
        let r = Reference::new();
        assert_eq!(judge(&req, &first, &firsts, &r), Outcome::Ok);
        let other = result(r#""verdict":"equivalent","classes":8,"eqs_percent":100.0"#);
        assert!(matches!(
            judge(&req, &other, &firsts, &r),
            Outcome::Wrong(_)
        ));
        let unknown = result(r#""verdict":"unknown","reason":"timeout""#);
        assert!(matches!(
            judge(&req, &unknown, &firsts, &r),
            Outcome::Failed(_)
        ));
    }

    #[test]
    fn a_fresh_pair_must_match_the_reference_partition() {
        let spec = Arc::new(counter(4, CounterKind::Binary));
        let req = Request::new(Kind::Fresh, "c4", spec.clone(), spec, None);
        let r = parse_reference("c4\tserve_bdd\t9\t40\t100.0000\n");
        let right = result(r#""verdict":"equivalent","classes":9,"eqs_percent":100.0"#);
        assert_eq!(judge(&req, &right, &HashMap::new(), &r), Outcome::Ok);
        let wrong = result(r#""verdict":"equivalent","classes":8,"eqs_percent":100.0"#);
        assert!(matches!(
            judge(&req, &wrong, &HashMap::new(), &r),
            Outcome::Wrong(_)
        ));
        // No reference for the row is wrong too, not a pass.
        let none = Reference::new();
        assert!(matches!(
            judge(&req, &right, &HashMap::new(), &none),
            Outcome::Wrong(_)
        ));
    }
}
