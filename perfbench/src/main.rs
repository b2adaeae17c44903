//! The sec benchmark: Table 1 on both backends and a `sec serve`
//! request mix. See `README.md` beside this crate.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1_sat --seed 1 --seconds 12 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --make-reference          # rewrites perfbench/reference.tsv
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod checks;
mod eval;
mod instances;
mod layers;
mod serve_mix;
mod stats;

use checks::{CheckWorkload, Config};
use eval::SplitMix;
use instances::Pair;
use layers::Layers;
use sec_obs::{Obs, Sink};
use stats::{geomean, median, Tally};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub const WORKLOADS: &[&str] = &["table1_sat", "table1_bdd", "serve_mix"];

/// End-to-end metric names and units, in the order they are printed.
/// Each means the same on every workload, since every workload prints
/// every one: an operation is a check on the check workloads and a
/// request on `serve_mix`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("check_geomean_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// How many times a run sets its inputs up before its measured rounds,
/// and again after them; `setup_s` is the median of all of these.
/// Machine speed drifts within seconds, and set-ups at both ends of a
/// run sample more of that drift than the same number taken in a row.
pub const SETUPS: usize = 7;

/// Runs `make` [`SETUPS`] times, pushing each time taken onto `times`,
/// and returns the last result.
pub fn set_up<T>(times: &mut Vec<f64>, mut make: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        last = Some(make());
        times.push(t.elapsed().as_secs_f64());
    }
    last.expect("SETUPS is positive")
}

/// Whole rounds a run measures: as many rounds of about `round_s`
/// seconds as fill `seconds`, and at least `min_rounds`. The count
/// depends on the arguments alone, so every run of a workload makes the
/// same operations, takes the same number of samples and reaches the
/// same memory high-water mark, however fast the machine is that day.
pub fn rounds(seconds: f64, round_s: f64, min_rounds: usize) -> usize {
    ((seconds / round_s).ceil() as usize).max(min_rounds)
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--make-reference") {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Some(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// What a workload run hands back for printing.
pub struct Report {
    pub tally: Tally,
    /// `wall_s`: on a check workload the time to check every row once,
    /// each at its median; on `serve_mix` the median round.
    pub wall_s: f64,
    /// `check_geomean_ms`: geometric mean of per-row median check
    /// times, or of every request's latency on `serve_mix`.
    pub geomean_ms: f64,
    /// `peak_rss_mib`: the high-water resident memory of the process
    /// that checks: this one on a check workload, the median over
    /// rounds of each round's daemon process on `serve_mix`.
    pub peak_rss_mib: f64,
    pub setup_s: f64,
    /// Traced runs only: the per-layer figures, the number of rounds
    /// they cover, and the tracing overhead in percent.
    pub layers: Option<(Layers, u64, f64)>,
}

/// A scratch directory for the run's input files, inside the working
/// directory and removed at the end of the run.
pub fn work_dir(workload: &str) -> PathBuf {
    let dir = Path::new(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("work directory is creatable");
    dir
}

/// Shuffles `xs` in place (Fisher–Yates) from `seed`.
pub fn shuffle<T>(xs: &mut [T], seed: u64) {
    let mut rng = SplitMix::new(seed);
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i + 1));
    }
}

/// Checks of each quick row per round. A quick row's time is a few
/// milliseconds and moves by half from one check to the next, so one
/// sample per round would let a handful of rows set
/// `check_geomean_ms`.
pub const QUICK_REPEATS: usize = 5;

/// Each row's median time in milliseconds, in row order.
fn row_medians(samples: &[Vec<f64>]) -> Vec<f64> {
    samples.iter().map(|s| median(s)).collect()
}

/// Seconds to check every row once, each at its median.
fn table_seconds(samples: &[Vec<f64>]) -> f64 {
    row_medians(samples).iter().sum::<f64>() / 1000.0
}

fn run_checks(w: CheckWorkload, args: &Args, dir: &Path) -> Report {
    let mut setup = Vec::new();
    let pairs: Vec<Pair> = set_up(&mut setup, || instances::table1_pairs(w.rows, dir));
    let mut tally = Tally::default();
    for name in instances::disagreeing(&pairs, args.seed) {
        tally.wrong.push(format!(
            "{name}: spec and implementation differ on the evaluator"
        ));
    }
    let reference = checks::parse_reference(checks::REFERENCE_TSV);

    // A round checks every row once and every quick row
    // `QUICK_REPEATS` times, in a seeded order.
    let schedule: Vec<usize> = pairs
        .iter()
        .enumerate()
        .flat_map(|(i, p)| {
            let n = if w.quick.contains(&p.name.as_str()) {
                QUICK_REPEATS
            } else {
                1
            };
            std::iter::repeat(i).take(n)
        })
        .collect();
    let mut round = 0u64;
    let mut one_round = |obs: &Obs,
                         mut layers: Option<&mut Layers>,
                         tally: &mut Tally,
                         samples: &mut [Vec<f64>]| {
        let mut order = schedule.clone();
        shuffle(&mut order, args.seed ^ round.wrapping_mul(0x9E37_79B9));
        round += 1;
        for i in order {
            let pair = &pairs[i];
            let timed = checks::check(pair, w.config, obs.clone(), layers.as_deref_mut());
            let got = checks::PartitionSummary::of(&timed.result);
            let want = checks::reference_for(&reference, w.config, &pair.name);
            let ms = timed.total.as_secs_f64() * 1000.0;
            eprintln!(
                "{:>7} {ms:>10.1} ms  {}",
                pair.name,
                checks::verdict_name(&timed.result.verdict)
            );
            tally.record(
                &pair.name,
                checks::judge(pair, &timed.result.verdict, &got, want),
            );
            samples[i].push(ms);
        }
    };

    let mut samples = vec![Vec::new(); pairs.len()];
    let layers = if args.trace {
        // Traced: one untraced round as the overhead baseline, then one
        // traced round with a recorder on `Options::obs`.
        let mut base = vec![Vec::new(); pairs.len()];
        one_round(&Obs::off(), None, &mut tally, &mut base);
        let mut layers = Layers::default();
        let obs = Obs::multi(vec![
            Arc::new(layers.recorder.clone()) as Arc<dyn Sink>,
            layers.product_nodes.clone() as Arc<dyn Sink>,
        ]);
        one_round(&obs, Some(&mut layers), &mut tally, &mut samples);
        let overhead = 100.0 * (table_seconds(&samples) / table_seconds(&base) - 1.0);
        Some((layers, 1, overhead))
    } else {
        for _ in 0..rounds(args.seconds, w.round_s, w.min_rounds) {
            one_round(&Obs::off(), None, &mut tally, &mut samples);
        }
        None
    };
    set_up(&mut setup, || instances::table1_pairs(w.rows, dir));
    Report {
        tally,
        wall_s: table_seconds(&samples),
        geomean_ms: geomean(&row_medians(&samples)).unwrap_or(0.0),
        peak_rss_mib: layers::peak_rss_mib(),
        setup_s: median(&setup),
        layers,
    }
}

/// Runs every reference configuration on its rows and rewrites
/// `reference.tsv`, printing each row's time on stderr.
fn make_reference() {
    let dir = work_dir("reference");
    let columns: [(&str, Config, &[&str]); 5] = [
        ("bdd", Config::Bdd, checks::TABLE1_BDD_ROWS),
        ("sat_j1", Config::Sat { jobs: 1 }, checks::TABLE1_SAT_ROWS),
        ("sat_j2", Config::Sat { jobs: 2 }, &["s13207"]),
        ("sat_mono", Config::SatMonolithic, checks::FAULT_ROWS),
        ("serve_bdd", Config::ServeBdd, serve_mix::SERVE_ROWS),
    ];
    let mut out = String::from(
        "# Partition reference: one line per row and configuration.\n\
         # Regenerate with `cargo run --release --offline --manifest-path \
         perfbench/Cargo.toml -- --make-reference`.\n\
         # row\tconfig\tclasses\tsignals\teqs_percent\n",
    );
    for (col, config, rows) in columns {
        for pair in instances::table1_pairs(rows, &dir) {
            let timed = checks::check(&pair, config, Obs::off(), None);
            let s = checks::PartitionSummary::of(&timed.result);
            eprintln!(
                "{col:>6} {:>7} {:>8.3}s {:?}",
                pair.name,
                timed.total.as_secs_f64(),
                timed.result.verdict
            );
            if timed.result.verdict.is_equivalent() {
                out.push_str(&format!(
                    "{}\t{col}\t{}\t{}\t{}\n",
                    pair.name, s.classes, s.signals, s.eqs
                ));
            }
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference.tsv");
    std::fs::write(&path, out).expect("reference.tsv is writable");
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("wrote {}", path.display());
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn print_result(r: &Report, trace: bool) {
    let metrics: Vec<(&str, &str, f64)> = if trace {
        let (layers, rounds, overhead) = r.layers.as_ref().expect("traced runs carry layers");
        layers::PER_LAYER
            .iter()
            .zip(layers.metrics(*rounds, *overhead))
            .map(|((n, u), (_, v))| (*n, *u, v))
            .collect()
    } else {
        let values = [r.wall_s, r.geomean_ms, r.peak_rss_mib, r.setup_s];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((n, u), v)| (*n, *u, v))
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.tally.correct(),
        r.tally.attempted,
        r.tally.failed,
        body.join(", ")
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--serve-daemon") {
        serve_mix::daemon_main(argv.get(1).map(PathBuf::from));
    }
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return make_reference(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 \
                 | --make-reference",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let dir = work_dir(&args.workload);
    let report = match checks::workload(&args.workload) {
        Some(w) => run_checks(w, &args, &dir),
        None => serve_mix::run(&args, &dir),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench_work");
    print_result(&report, args.trace);
    if !report.tally.correct() {
        eprintln!("perfbench: wrong answers: {:?}", report.tally.wrong);
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_trace::{parse_json, Json};

    fn benchmark_json() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn names(j: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = j.get(key) else {
            panic!("{key} is a list");
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn owned(xs: &[(&str, &str)]) -> Vec<(String, String)> {
        xs.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn a_run_has_a_fixed_number_of_whole_rounds() {
        // `BENCHMARK.json`'s 12 s: one `table1_sat` round, the two
        // `table1_bdd` rounds it needs at least, three `serve_mix` rounds.
        assert_eq!(rounds(12.0, 50.0, 1), 1);
        assert_eq!(rounds(12.0, 24.0, 2), 2);
        assert_eq!(rounds(12.0, 4.0, 1), 3);
        assert_eq!(rounds(60.0, 24.0, 2), 3);
    }

    #[test]
    fn the_table_time_takes_each_row_once_at_its_median() {
        // A quick row checked five times counts once, at its median.
        let samples = vec![
            vec![1000.0, 3000.0, 2000.0],
            vec![4.0, 9.0, 5.0, 6.0, 100.0],
        ];
        assert!((table_seconds(&samples) - 2.006).abs() < 1e-12);
        assert_eq!(row_medians(&samples), vec![2000.0, 6.0]);
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let j = benchmark_json();
        assert_eq!(names(&j, "end_to_end"), owned(END_TO_END));
        assert_eq!(names(&j, "per_layer"), owned(layers::PER_LAYER));
        let Some(Json::Arr(ws)) = j.get("workloads") else {
            panic!("workloads is a list");
        };
        let ws: Vec<&str> = ws
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(ws, WORKLOADS);
        let allowed = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for (n, _) in END_TO_END.iter().chain(layers::PER_LAYER) {
            assert!(
                n.chars().all(allowed) && n.len() <= 64,
                "bad metric name {n}"
            );
        }
    }
}
