//! The three check workloads: Table 1 rows checked one after another
//! through the library, each from `load_model` to its verdict.

use crate::eval;
use crate::instances::Pair;
use crate::layers::Layers;
use crate::stats::Outcome;
use sec_core::{Backend, CheckResult, Checker, Options, OptionsBuilder, Verdict};
use sec_netlist::load_model;
use sec_obs::Obs;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Every Table 1 row but s15850, which times out on both backends.
pub const TABLE1_SAT_ROWS: &[&str] = &[
    "s208", "s298", "s344", "s349", "s382", "s386", "s420", "s444", "s510", "s526", "s641", "s713",
    "s820", "s832", "s838", "s953", "s1196", "s1238", "s1423", "s1512", "s3384", "s6669", "s5378",
    "s9234", "s13207",
];

/// s208–s1512 plus s5378 and s9234: the rows the BDD backend proves.
pub const TABLE1_BDD_ROWS: &[&str] = &[
    "s208", "s298", "s344", "s349", "s382", "s386", "s420", "s444", "s510", "s526", "s641", "s713",
    "s820", "s832", "s838", "s953", "s1196", "s1238", "s1423", "s1512", "s5378", "s9234",
];

/// `table1_sat` rows whose check takes under 0.1 s.
pub const TABLE1_SAT_QUICK: &[&str] = &[
    "s208", "s298", "s344", "s349", "s382", "s444", "s526", "s641", "s713", "s953", "s1196",
    "s1238",
];

/// `table1_bdd` rows whose check takes under 0.15 s.
pub const TABLE1_BDD_QUICK: &[&str] = &[
    "s208", "s298", "s382", "s420", "s444", "s526", "s641", "s713", "s953", "s1196", "s1238",
    "s1512",
];

/// Rows on which `Options::sat()` does not finish: its batched
/// incremental queries stall, and the budget fallback still batches.
/// `Options::sat_monolithic()` proves them in 2.4 s and 3.6 s.
pub const FAULT_ROWS: &[&str] = &["s3384", "s6669"];

/// Deadline of a named-fault check: well above 1.5 × the best known
/// configuration (3.6 s and 5.4 s), the bar a fix has to meet.
pub const FAULT_DEADLINE: Duration = Duration::from_secs(10);

/// Deadline of every other check: never reached by a working program.
pub const SAFETY_DEADLINE: Duration = Duration::from_secs(60);

/// One engine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Config {
    /// `Options::paper()`: the BDD backend.
    Bdd,
    /// `Options::sat()` at the given worker count.
    Sat { jobs: usize },
    /// `Options::sat_monolithic()`: a fresh solver per round. It proves
    /// the named-fault rows, so it is their reference.
    SatMonolithic,
    /// The BDD engine as `sec serve` configures it (the library
    /// defaults, BMC on): the reference for `serve_mix`'s fresh pairs,
    /// which the daemon checks on SAT with those defaults.
    ServeBdd,
}

impl Config {
    /// `table1`'s settings on top of the preset: 16 simulation cycles,
    /// functional dependencies on, the 8 Mi-node BDD cap, no BMC.
    pub fn options(self, deadline: Duration, obs: Obs) -> Options {
        let (base, backend, jobs) = match self {
            Config::Bdd => (OptionsBuilder::paper(), Backend::Bdd, 1),
            Config::Sat { jobs } => (OptionsBuilder::sat(), Backend::Sat, jobs),
            Config::SatMonolithic => (OptionsBuilder::sat_monolithic(), Backend::Sat, 1),
            Config::ServeBdd => {
                return OptionsBuilder::new()
                    .backend(Backend::Bdd)
                    .timeout(Some(deadline))
                    .obs(obs)
                    .build()
            }
        };
        base.backend(backend)
            .jobs(jobs)
            .sim_cycles(16)
            .functional_deps(true)
            .approx_reach(false)
            .node_limit(8 << 20)
            .timeout(Some(deadline))
            .bmc_depth(0)
            .obs(obs)
            .build()
    }

    /// The reference columns this configuration is checked against, in
    /// order: the other engine, then, where BDD cannot finish, a SAT
    /// run on another code path (the pool at jobs 2, or the monolithic
    /// solver on the named-fault rows). Only `table1_sat` runs SAT.
    pub fn reference_columns(self) -> &'static [&'static str] {
        match self {
            Config::Bdd => &["sat_j1"],
            Config::Sat { .. } => &["bdd", "sat_j2", "sat_mono"],
            Config::SatMonolithic | Config::ServeBdd => &[],
        }
    }
}

/// A check workload: its configuration, its rows, the rows checked
/// [`crate::QUICK_REPEATS`] times a round, about how long a round
/// takes, and the fewest whole rounds a run measures.
pub struct CheckWorkload {
    pub config: Config,
    pub rows: &'static [&'static str],
    pub quick: &'static [&'static str],
    pub round_s: f64,
    pub min_rounds: usize,
}

pub fn workload(name: &str) -> Option<CheckWorkload> {
    // One `table1_sat` round is ~50 s, of which 20 s are the named
    // fault's deadlines, so one round is steady. A `table1_bdd` round
    // is ~24 s of memory-bound work, 40% of it on s1423, and moves
    // with the machine's speed; two rounds halve the weight of a slow
    // stretch shorter than a run.
    let (config, rows, quick, round_s, min_rounds) = match name {
        "table1_sat" => (
            Config::Sat { jobs: 1 },
            TABLE1_SAT_ROWS,
            TABLE1_SAT_QUICK,
            50.0,
            1,
        ),
        "table1_bdd" => (Config::Bdd, TABLE1_BDD_ROWS, TABLE1_BDD_QUICK, 24.0, 2),
        _ => return None,
    };
    Some(CheckWorkload {
        config,
        rows,
        quick,
        round_s,
        min_rounds,
    })
}

pub fn deadline(row: &str) -> Duration {
    if FAULT_ROWS.contains(&row) {
        FAULT_DEADLINE
    } else {
        SAFETY_DEADLINE
    }
}

/// The partition summary both engines must agree on (Thm. 2).
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionSummary {
    pub classes: usize,
    pub signals: usize,
    /// eqs% rendered to four decimals, so the comparison is exact.
    pub eqs: String,
}

impl PartitionSummary {
    pub fn of(r: &CheckResult) -> PartitionSummary {
        PartitionSummary {
            classes: r.stats.classes,
            signals: r.stats.signals,
            eqs: format!("{:.4}", r.stats.eqs_percent),
        }
    }
}

/// `reference.tsv`: row → column → partition summary.
pub type Reference = BTreeMap<(String, String), PartitionSummary>;

pub const REFERENCE_TSV: &str = include_str!("../reference.tsv");

pub fn parse_reference(text: &str) -> Reference {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            assert_eq!(f.len(), 5, "reference line `{l}`");
            (
                (f[0].to_string(), f[1].to_string()),
                PartitionSummary {
                    classes: f[2].parse().expect("classes"),
                    signals: f[3].parse().expect("signals"),
                    eqs: f[4].to_string(),
                },
            )
        })
        .collect()
}

/// The reference entry for `row` under `config`: the first column of
/// [`Config::reference_columns`] that has the row.
pub fn reference_for<'a>(
    reference: &'a Reference,
    config: Config,
    row: &str,
) -> Option<&'a PartitionSummary> {
    config
        .reference_columns()
        .iter()
        .find_map(|col| reference.get(&(row.to_string(), col.to_string())))
}

/// Judges one check of an equivalent pair: the verdict must be
/// `Equivalent` with the reference partition; an `Unknown` is a failed
/// operation; anything else (an `Inequivalent` verdict, whose trace is
/// replayed to say whether it even is a counterexample) is wrong.
pub fn judge(
    pair: &Pair,
    verdict: &Verdict,
    got: &PartitionSummary,
    want: Option<&PartitionSummary>,
) -> Outcome {
    match verdict {
        Verdict::Equivalent => match want {
            Some(w) if w == got => Outcome::Ok,
            Some(w) => Outcome::Wrong(format!("partition {got:?}, reference {w:?}")),
            None => Outcome::Wrong("no reference partition for this row".into()),
        },
        Verdict::Unknown(why) => Outcome::Failed(why.clone()),
        Verdict::Inequivalent(t) => {
            let replays = eval::trace_shows_mismatch(&pair.spec, &pair.imp, &t.inputs);
            Outcome::Wrong(format!(
                "inequivalent verdict on an equivalent pair (trace replays: {replays})"
            ))
        }
        other => Outcome::Wrong(format!("unexpected verdict {other:?}")),
    }
}

/// A verdict in one word, with an `Unknown`'s reason.
pub fn verdict_name(v: &Verdict) -> String {
    match v {
        Verdict::Equivalent => "equivalent".into(),
        Verdict::Inequivalent(_) => "inequivalent".into(),
        Verdict::Unknown(why) => format!("unknown ({why})"),
        other => format!("{other:?}"),
    }
}

/// One timed check: load both files, build the product, run.
pub struct Timed {
    pub result: CheckResult,
    pub total: Duration,
}

/// Checks `pair` as `sec check` does. With `layers`, the phases are
/// timed separately.
pub fn check(pair: &Pair, config: Config, obs: Obs, layers: Option<&mut Layers>) -> Timed {
    let opts = config.options(deadline(&pair.name), obs);
    let t0 = Instant::now();
    let spec = load_model(&pair.spec_path).expect("benchmark input loads");
    let imp = load_model(&pair.impl_path).expect("benchmark input loads");
    let t_load = Instant::now();
    let checker = Checker::new(&spec, &imp, opts).expect("benchmark pair builds");
    let t_product = Instant::now();
    let result = checker.run();
    let t_end = Instant::now();
    if let Some(l) = layers {
        l.load_s += (t_load - t0).as_secs_f64();
        l.product_s += (t_product - t_load).as_secs_f64();
        l.run_s += (t_end - t_product).as_secs_f64();
        l.classes += result.stats.classes as u64;
    }
    Timed {
        result,
        total: t_end - t0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_gen::{counter, CounterKind};
    use sec_sim::Trace;
    use sec_synth::{mutate, Mutation};
    use std::path::PathBuf;

    fn pair(imp: sec_netlist::Aig) -> Pair {
        Pair {
            name: "c4".into(),
            spec: counter(4, CounterKind::Binary),
            imp,
            spec_path: PathBuf::new(),
            impl_path: PathBuf::new(),
        }
    }

    fn summary(classes: usize) -> PartitionSummary {
        PartitionSummary {
            classes,
            signals: 40,
            eqs: "100.0000".into(),
        }
    }

    #[test]
    fn equivalent_with_the_reference_partition_is_ok() {
        let p = pair(counter(4, CounterKind::Binary));
        let got = judge(&p, &Verdict::Equivalent, &summary(9), Some(&summary(9)));
        assert_eq!(got, Outcome::Ok);
    }

    #[test]
    fn a_partition_that_disagrees_with_the_reference_is_wrong() {
        let p = pair(counter(4, CounterKind::Binary));
        let got = judge(&p, &Verdict::Equivalent, &summary(9), Some(&summary(10)));
        assert!(matches!(got, Outcome::Wrong(_)), "{got:?}");
        let got = judge(&p, &Verdict::Equivalent, &summary(9), None);
        assert!(matches!(got, Outcome::Wrong(_)), "{got:?}");
    }

    #[test]
    fn a_wrong_verdict_is_wrong_and_an_unknown_is_failed() {
        let p = pair(counter(4, CounterKind::Binary));
        let cex = Verdict::Inequivalent(Trace::new(vec![vec![true]; 3]));
        let got = judge(&p, &cex, &summary(9), Some(&summary(9)));
        assert!(
            matches!(got, Outcome::Wrong(ref w) if w.contains("replays: false")),
            "{got:?}"
        );
        let unknown = Verdict::Unknown("timeout".into());
        let got = judge(&p, &unknown, &summary(0), Some(&summary(9)));
        assert_eq!(got, Outcome::Failed("timeout".into()));
    }

    #[test]
    fn the_reference_is_the_other_engine() {
        let r = parse_reference(REFERENCE_TSV);
        // Thm. 2: both engines find the same maximum correspondence.
        for &row in TABLE1_BDD_ROWS {
            let bdd = reference_for(&r, Config::Sat { jobs: 1 }, row).expect(row);
            assert_eq!(Some(bdd), reference_for(&r, Config::Bdd, row), "{row}");
        }
        // Where BDD cannot finish, the SAT runs check each other, so a
        // fix of the named fault is judged like any other row.
        for &row in TABLE1_SAT_ROWS {
            assert!(
                reference_for(&r, Config::Sat { jobs: 1 }, row).is_some(),
                "{row}"
            );
        }
        for row in FAULT_ROWS {
            assert!(
                r.contains_key(&(row.to_string(), "sat_mono".to_string())),
                "{row}"
            );
        }
        for row in crate::serve_mix::SERVE_ROWS {
            assert!(
                r.contains_key(&(row.to_string(), "serve_bdd".to_string())),
                "{row}"
            );
        }
    }

    #[test]
    fn quick_rows_belong_to_their_workload() {
        for (rows, quick) in [
            (TABLE1_SAT_ROWS, TABLE1_SAT_QUICK),
            (TABLE1_BDD_ROWS, TABLE1_BDD_QUICK),
        ] {
            for row in quick {
                assert!(rows.contains(row), "{row}");
                assert!(!FAULT_ROWS.contains(row), "{row}");
            }
        }
    }

    #[test]
    fn a_mutant_is_not_equivalent_on_the_evaluator() {
        let spec = counter(4, CounterKind::Binary);
        let bad = mutate(&spec, Mutation::InvertNext(0));
        assert!(eval::first_mismatch(&spec, &bad, 16, 3).is_some());
    }
}
