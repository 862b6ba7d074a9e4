//! Command line of the benchmark. `run.sh` builds this binary and the
//! daemon, then calls it with `--server` and `--out-dir` filled in.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1   one run; last stdout line is the result JSON
//! perfbench all [--seed N] [--seconds S]                       every workload, untraced then traced
//! perfbench repeat --runs N [--seed N] [--seconds S]           N untraced runs per workload, spreads beside bounds
//! perfbench smoke                                              shrunken cubes, 2 s windows, determinism check
//! perfbench declare                                            print BENCHMARK.json as this program defines it
//! ```

use perfbench::declared::{self, END_TO_END, RUN_SECONDS};
use perfbench::plan::{Scale, WORKLOADS};
use perfbench::run::{self, Metric, Options, Outcome};
use perfbench::stats;
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    mode: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    runs: usize,
    server: PathBuf,
    out_dir: PathBuf,
    declared: PathBuf,
}

fn parse() -> Result<Cli, String> {
    let mut cli = Cli {
        mode: "all".to_string(),
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        runs: 5,
        server: PathBuf::from("perfbench/target/release/msketch-serve"),
        out_dir: PathBuf::from("perfbench/target/perfbench-out"),
        declared: PathBuf::from("BENCHMARK.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        let number = |text: String| {
            text.parse::<f64>()
                .map_err(|_| format!("{text:?} is not a number"))
        };
        match arg.as_str() {
            "all" | "repeat" | "smoke" | "declare" => cli.mode = arg,
            "--smoke" => cli.mode = "smoke".to_string(),
            "--workload" => {
                cli.workload = Some(value()?);
                cli.mode = "one".to_string();
            }
            "--seed" => cli.seed = number(value()?)? as u64,
            "--seconds" => cli.seconds = number(value()?)?,
            "--trace" => cli.traced = number(value()?)? != 0.0,
            "--runs" => cli.runs = number(value()?)? as usize,
            "--server" => cli.server = PathBuf::from(value()?),
            "--out-dir" => cli.out_dir = PathBuf::from(value()?),
            "--declared" => cli.declared = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.seconds.is_nan() || cli.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(cli)
}

fn print_metrics(outcome: &Outcome, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{:<16} {:<40} {:>16.4} {:<6} n={}",
            outcome.workload, m.name, m.value, m.unit, m.samples
        );
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, every value with all its digits.
fn result_json(outcome: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

/// Run once and hold the result to the declaration and the oracle.
fn checked(name: &str, opts: &Options, declared: &str) -> Result<Outcome, String> {
    let outcome = run::run(name, opts)?;
    declared::check(declared, "end_to_end", &outcome.end_to_end)?;
    if opts.traced {
        declared::check(declared, "per_layer", &outcome.per_layer)?;
    }
    for failure in &outcome.failures {
        eprintln!("[{name}] FAILED {failure}");
    }
    if !outcome.correct {
        return Err(format!(
            "{name}: {} of {} requests failed or a post-window check did",
            outcome.failed, outcome.attempted
        ));
    }
    Ok(outcome)
}

fn environment() {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    println!(
        "environment: nproc {} | cpu {cpu} | kernel {} | {} | commit {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        read("/proc/sys/kernel/osrelease").trim(),
        command("rustc", &["--version"]),
        command("git", &["rev-parse", "--short", "HEAD"]),
    );
}

fn real_main() -> Result<(), String> {
    let cli = parse()?;
    if cli.mode == "declare" {
        print!("{}", declared::benchmark_json());
        return Ok(());
    }
    let declared = std::fs::read_to_string(&cli.declared)
        .map_err(|e| format!("{}: {e}", cli.declared.display()))?;
    let mut opts = Options {
        server: cli.server.clone(),
        out_dir: cli.out_dir.clone(),
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
        scale: Scale::FULL,
    };
    match cli.mode.as_str() {
        "one" => {
            let name = cli.workload.as_deref().unwrap_or("");
            let outcome = checked(name, &opts, &declared)?;
            print_metrics(&outcome, &outcome.end_to_end);
            print_metrics(&outcome, &outcome.per_layer);
            let metrics = if opts.traced {
                &outcome.per_layer
            } else {
                &outcome.end_to_end
            };
            println!("{}", result_json(&outcome, metrics));
        }
        "all" => {
            environment();
            for name in WORKLOADS {
                for traced in [false, true] {
                    opts.traced = traced;
                    let outcome = checked(name, &opts, &declared)?;
                    print_metrics(
                        &outcome,
                        if traced {
                            &outcome.per_layer
                        } else {
                            &outcome.end_to_end
                        },
                    );
                    println!(
                        "{name}: {} requests, {} failed ({})",
                        outcome.attempted,
                        outcome.failed,
                        if traced { "traced" } else { "untraced" }
                    );
                }
            }
        }
        "repeat" => {
            environment();
            let mut over = 0;
            for name in WORKLOADS {
                let mut runs: Vec<Outcome> = Vec::new();
                for i in 0..cli.runs {
                    opts.seed = cli.seed + i as u64;
                    runs.push(checked(name, &opts, &declared)?);
                }
                for (k, (metric, unit, _, bound)) in END_TO_END.iter().enumerate() {
                    let values: Vec<f64> = runs.iter().map(|r| r.end_to_end[k].value).collect();
                    let [q1, q2, q3] = stats::quartiles(&values).unwrap_or([values[0]; 3]);
                    let (lo, hi) = values
                        .iter()
                        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                    let iqr = (q3 - q1) / q2;
                    let flag = if iqr > *bound {
                        over += 1;
                        "  OVER BOUND"
                    } else {
                        ""
                    };
                    println!(
                        "{name:<16} {metric:<18} median {q2:>12.4} {unit:<4} q1 {q1:>12.4} q3 {q3:>12.4} iqr/median {iqr:.4} range/median {:.4} bound {bound}{flag}",
                        (hi - lo) / q2
                    );
                }
            }
            if over > 0 {
                return Err(format!("{over} metric spreads exceed their bounds"));
            }
        }
        "smoke" => {
            opts.scale = Scale::SMOKE;
            opts.seconds = opts.seconds.min(2.0);
            opts.traced = true;
            for name in WORKLOADS {
                let a = checked(name, &opts, &declared)?;
                let b = checked(name, &opts, &declared)?;
                // Counts depend on the seed alone: two runs agree exactly.
                for count in [
                    "core.solve_newton_iters",
                    "core.cascade_maxent_frac",
                    "timeline.cover_segments",
                ] {
                    let of = |o: &Outcome| {
                        o.per_layer
                            .iter()
                            .find(|m| m.name == count)
                            .map(|m| m.value)
                    };
                    if of(&a) != of(&b) {
                        return Err(format!(
                            "{name}: {count} differs between two runs of one seed: {:?} vs {:?}",
                            of(&a),
                            of(&b)
                        ));
                    }
                }
                print_metrics(&a, &a.end_to_end);
                println!(
                    "{name}: smoke ok, {} requests checked",
                    a.attempted + b.attempted
                );
            }
        }
        other => return Err(format!("unknown mode {other:?}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
