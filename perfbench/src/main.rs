//! The repository benchmark: the datamining workspace as its users meet
//! it, measured end to end, with a traced mode that breaks the same run
//! into per-layer numbers. See `README.md` beside this crate.
//!
//! Every run of every workload goes through the same pipeline: set-up,
//! an analyst's mining passes over a grid of support thresholds, then
//! open-loop serving traffic, then serving beside a streaming writer
//! that republishes rules. The workloads differ in the Quest baskets
//! that are mined, so every run reports every metric.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload quest-sparse --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod loadgen;
mod mining;
mod serving;
mod util;

use std::path::Path;
use std::process::ExitCode;
use util::{median_of, secs, Report, Tracer};

/// Seed of the Quest pattern tables. It is part of each workload's
/// definition, like its shape: a different table changes how much work
/// a support threshold means, so `--seed` never changes it.
pub const PATTERN_SEED: u64 = 1;

pub const WORKLOADS: [&str; 2] = ["quest-sparse", "quest-dense"];

/// Times the set-up runs; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Shares of `--seconds` given to the parts of a run: mining passes,
/// open-loop serving, serving beside the streaming writer.
const MINE_SHARE: f64 = 0.4;
const OPEN_SHARE: f64 = 0.25;
const REFRESH_SHARE: f64 = 0.35;

/// Command-line arguments. A flag given twice keeps its last value, so a
/// default placed early on the command line can be overridden later.
#[derive(Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Where traced runs write their artifacts, relative to the checkout.
const OUT_DIR: &str = "perfbench/out";

const USAGE: &str =
    "usage: dm-perfbench --workload <quest-sparse|quest-dense> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    /// The same arguments with `share` of the time budget.
    fn part(&self, share: f64) -> Args {
        Args {
            seconds: self.seconds * share,
            ..self.clone()
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 40.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

/// Writes one traced-run artifact under `OUT_DIR/<workload>-seed<n>/`.
pub fn write_artifact(args: &Args, name: &str, contents: &str) -> Result<(), String> {
    let dir = Path::new(OUT_DIR).join(format!("{}-seed{}", args.workload, args.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// One run: set-up several times, then each part on its share of the
/// time budget.
fn run(args: &Args, grid: &mining::Grid, report: &mut Report) -> Result<(), String> {
    let tracer = Tracer::new(args.trace);
    let ((db, fixture), setup) = median_of(SETUP_REPS, || {
        let db = {
            let _span = tracer.obs().span("synth.quest.generate");
            mining::generate_db(grid, args.seed)?
        };
        Ok((db, serving::setup(args.seed, &tracer)?))
    })?;
    if tracer.on() {
        serving::setup_metrics(&tracer, report);
        write_artifact(args, "spans-setup.folded", &tracer.folded())?;
    } else {
        report.metric("setup_s", secs(setup), "s");
    }
    mining::run(&args.part(MINE_SHARE), grid, &db, report)?;
    drop(db);
    serving::run(
        &args.part(OPEN_SHARE),
        &args.part(REFRESH_SHARE),
        fixture,
        report,
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let grid = match args.workload.as_str() {
        "quest-sparse" => &mining::SPARSE,
        _ => &mining::DENSE,
    };
    if let Err(why) = run(&args, grid, &mut report) {
        eprintln!("{}: {why}", args.workload);
        return ExitCode::FAILURE;
    }
    print!("{}", report.render());
    ExitCode::SUCCESS
}
