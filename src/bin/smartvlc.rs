//! The `smartvlc` command-line tool — see `smartvlc::cli` for the
//! commands and `smartvlc --help` for usage.
//! `SMARTVLC_THREADS` sets the worker count of the commands that fan out
//! (default: available parallelism); output is identical at any count.

use smartvlc::sim::{parse_thread_count, with_threads};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", smartvlc::cli::USAGE);
        return;
    }
    let threads = match std::env::var("SMARTVLC_THREADS") {
        Ok(raw) => parse_thread_count(&raw).unwrap_or_else(|err| {
            eprintln!("{err}");
            std::process::exit(2);
        }),
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    match with_threads(threads, || smartvlc::cli::run(&args)) {
        Ok(out) => print!("{out}"),
        Err(err) => {
            eprintln!("{err}");
            std::process::exit(2);
        }
    }
}
