//! Plumbing shared by the command-line binaries (`cawosched`,
//! `experiments`, `figures`): the error exit, the closed-stdout exit,
//! the observability flags and the `--threads` pool.

#![expect(clippy::print_stderr, reason = "the binaries' error and report paths")]

use std::io;

/// Prints `msg` to stderr and ends the program with exit 2: every
/// binary's usage and input-error path.
#[expect(clippy::exit, reason = "a CLI's usage/error path legitimately exits")]
pub fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Ends the program after a failed write to stdout: quietly with exit 0
/// when the reader has gone (`cawosched generate | head -1`), through
/// [`die`] on any other error.
#[expect(
    clippy::exit,
    reason = "a closed stdout ends the output the reader asked for"
)]
pub fn stdout_failed(e: &io::Error) -> ! {
    if e.kind() == io::ErrorKind::BrokenPipe {
        std::process::exit(0)
    }
    die(&format!("cannot write to stdout: {e}"))
}

/// Runs `f` on a dedicated pool of `threads` workers (`--threads N`),
/// or on the current pool when `threads` is 0. Results are
/// bit-identical either way (docs/CONCURRENCY.md); the flag only trades
/// wall-clock against CPU use. A count the pool refuses — above its
/// ceiling of 256, or a thread the OS will not start — ends the program
/// through [`die`].
pub fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    match threads {
        0 => f(),
        n => rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap_or_else(|e| die(&format!("--threads {n}: {e}")))
            .install(f),
    }
}

/// The observability flags: `--log-level off|summary|trace`,
/// `--profile` (the summary table on stderr after the run) and
/// `--obs-out FILE` (the JSONL event trace, which `obs_check`
/// validates and converts to a Chrome trace).
#[derive(Debug, Default)]
pub struct ObsArgs {
    /// `--log-level`; `CAWO_LOG` applies when absent.
    pub log_level: Option<String>,
    /// `--profile`.
    pub profile: bool,
    /// `--obs-out`.
    pub obs_out: Option<String>,
}

impl ObsArgs {
    /// Applies `--log-level` / `CAWO_LOG`, then raises the level where
    /// an output was requested without one: `--profile` needs
    /// Summary-level counters and span histograms, `--obs-out` the Trace
    /// event timeline. A bad level ends the program through [`die`].
    pub fn init(&self) {
        let lvl = cawo_obs::init(self.log_level.as_deref()).unwrap_or_else(|e| die(&e));
        if self.log_level.is_none() && std::env::var_os("CAWO_LOG").is_none() {
            if self.obs_out.is_some() {
                cawo_obs::set_level(cawo_obs::Level::Trace);
            } else if self.profile && lvl < cawo_obs::Level::Summary {
                cawo_obs::set_level(cawo_obs::Level::Summary);
            }
        }
    }

    /// Drains the sinks once the run is over (the pool is quiescent
    /// here) and emits whatever was asked for.
    pub fn finish(&self) {
        if !self.profile && self.obs_out.is_none() {
            return;
        }
        let snap = cawo_obs::drain();
        if let Some(path) = &self.obs_out {
            let mut buf = Vec::new();
            cawo_obs::write_jsonl(&snap, &mut buf)
                .unwrap_or_else(|e| die(&format!("trace serialisation failed: {e}")));
            std::fs::write(path, &buf)
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
            eprintln!("observability trace written to {path}");
        }
        if self.profile {
            eprint!("{}", cawo_obs::summary_table(&snap));
        }
    }
}
