//! Regenerates the paper's tables and figures: `exp <id>` runs one entry
//! of the experiment registry ([`hypertp_bench::experiments::all`]; see
//! the DESIGN.md experiment index), `exp all` runs every one in paper
//! order.

use std::process::ExitCode;

use hypertp_bench::experiments::{all, run_all};

fn main() -> ExitCode {
    let id = std::env::args().nth(1).unwrap_or_default();
    if id == "all" {
        print!("{}", run_all());
        return ExitCode::SUCCESS;
    }
    match all().into_iter().find(|(name, _)| *name == id) {
        Some((_, run)) => {
            print!("{}", run());
            ExitCode::SUCCESS
        }
        None => {
            let ids: Vec<&str> = all().into_iter().map(|(name, _)| name).collect();
            eprintln!("usage: exp <id>|all\nids: {}", ids.join(" "));
            ExitCode::from(2)
        }
    }
}
