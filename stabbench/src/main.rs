//! `stabbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a table, then one JSON result line; exits 1 when an output
//! check failed and 2 on a usage or setup error (without a result).

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match stabbench::Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stabbench: {e}");
            std::process::exit(2);
        }
    };
    match stabbench::run(&args) {
        Ok(rep) => {
            rep.print(&args.workload, args.seed, args.trace);
            if !rep.checks.ok() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("stabbench: {}: {e}", args.workload);
            std::process::exit(2);
        }
    }
}
