//! The experiment driver: `exp <name>` runs one experiment, `exp all`
//! every one in order, `exp --list` prints the names.

use nsc_bench::EXPERIMENTS;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_default();
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    match arg.as_str() {
        "all" => nsc_bench::run_all(),
        "--list" => println!("{}", names.join("\n")),
        name => match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
            Some((_, run)) => run(),
            None => {
                eprintln!(
                    "usage: exp <name>|all|--list  (names: {})",
                    names.join(", ")
                );
                std::process::exit(2);
            }
        },
    }
}
