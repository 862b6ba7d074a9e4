//! `msketch-repro (--fig <id> [--fig <id>...] | --all) [--full]`: print each
//! selected figure's tables and the claim they support, at paper scale with
//! `--full`. Any other argument, or none, prints the ids and exits 2.

use msketch_bench::figures::{figure, FIGURES};
use msketch_bench::HarnessArgs;
use std::process::ExitCode;

fn usage() -> ExitCode {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    eprintln!(
        "usage: msketch-repro (--fig <id> [--fig <id>...] | --all) [--full]\nids: {}",
        ids.join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut full = false;
    let mut picked = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--all" => picked.extend(&FIGURES),
            "--fig" => match args.next().as_deref().and_then(figure) {
                Some(fig) => picked.push(fig),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if picked.is_empty() {
        return usage();
    }
    let args = HarnessArgs { full };
    for fig in picked {
        for table in (fig.run)(&args) {
            print!("{}", table.render());
        }
        println!("\nClaim ({}): {}", fig.id, fig.claim);
    }
    ExitCode::SUCCESS
}
