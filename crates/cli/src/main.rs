//! The `regcluster` binary: a thin wrapper around the library.

use std::process::ExitCode;

fn main() -> ExitCode {
    // Fault-injection sites (dev/test only): honored when the FAILPOINTS
    // env var is set, a handful of relaxed atomic loads otherwise.
    if let Err(e) = regcluster_failpoint::init_from_env() {
        eprintln!("error: bad FAILPOINTS spec: {e}");
        return ExitCode::FAILURE;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match regcluster_cli::parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("try `regcluster help`");
            return ExitCode::FAILURE;
        }
    };
    match regcluster_cli::run(&command) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
