//! Runs every experiment of the paper's evaluation section in sequence,
//! one child process per figure, forwarding its own arguments (scale and
//! session flags alike) to each; exits 1 when any child did not succeed.
//! Prefer the individual binaries (`fig6`, `table2`, `fig7`, …) when you
//! only need one artifact.

use std::process::Command;

const EXPERIMENTS: [&str; 7] = ["fig6", "table2", "fig7", "fig8", "fig9", "fig10", "fig11"];

fn main() {
    // Validate the shared flags once up front (`--help` and bad values exit
    // here) instead of seven times, one per child.
    let _ = mswj_experiments::Scale::from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()));
    let mut failed = Vec::new();
    for name in EXPERIMENTS {
        println!("\n================ {name} ================\n");
        let binary = exe_dir
            .as_ref()
            .map(|d| d.join(name))
            .filter(|p| p.exists());
        let status = match binary {
            Some(path) => Command::new(path).args(&args).status(),
            None => Command::new("cargo")
                .args([
                    "run",
                    "--release",
                    "-p",
                    "mswj-experiments",
                    "--bin",
                    name,
                    "--",
                ])
                .args(&args)
                .status(),
        };
        match status {
            Ok(s) if s.success() => continue,
            Ok(s) => eprintln!("experiment {name} exited with {s}"),
            Err(e) => eprintln!("failed to run {name}: {e}"),
        }
        failed.push(name);
    }
    if !failed.is_empty() {
        eprintln!("run_all: failed experiments: {}", failed.join(", "));
        std::process::exit(1);
    }
}
