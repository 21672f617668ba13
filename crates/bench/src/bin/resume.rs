//! Kill-and-resume determinism gate for the crash-safe search path.
//!
//! Two modes, both printing the same digest format as the `chaos` binary
//! so `scripts/check.sh` can diff them against a straight-through run:
//!
//! * **Budget mode** (default): interrupt each chaos search after
//!   `--budget-generations` generations, journaling its replies in
//!   `--dir`, then resume from the journal to completion.
//!
//!   ```text
//!   resume --seed 2 --workers 8 --dir /tmp/ckpt --budget-generations 2
//!   ```
//!
//! * **Kill mode** (`--kill`): re-spawn this binary as a slowed-down
//!   victim (`--victim`), SIGKILL it once its journal holds replies, then
//!   recover whatever survived and finish the searches.
//!
//!   ```text
//!   resume --seed 1 --workers 1 --dir /tmp/ckpt --kill
//!   ```
//!
//! The victim additionally wires SIGINT and SIGTERM to the run budget's
//! cooperative cancel flag: Ctrl-C or a service manager's stop both halt
//! at the next generation boundary with the journal synced instead of
//! tearing the process down mid-write.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use nautilus::CheckpointStore;
use nautilus_bench::{chaos_digest, chaos_recover_digest, chaos_resume_digest, chaos_victim};

/// SIGINT's POSIX signal number.
const SIGINT: i32 = 2;
/// SIGTERM's POSIX signal number — service managers send this on stop,
/// and it must drain exactly like Ctrl-C rather than kill mid-write.
const SIGTERM: i32 = 15;

static CANCEL: OnceLock<Arc<AtomicBool>> = OnceLock::new();

extern "C" fn on_sigint(_signum: i32) {
    if let Some(flag) = CANCEL.get() {
        flag.store(true, Ordering::Release);
    }
}

/// Installs `on_sigint` for SIGINT and SIGTERM and returns the cancel
/// flag it raises.
fn install_sigint_cancel() -> Arc<AtomicBool> {
    let flag = CANCEL.get_or_init(|| Arc::new(AtomicBool::new(false))).clone();
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(SIGINT, on_sigint);
        signal(SIGTERM, on_sigint);
    }
    flag
}

struct Cli {
    seed: u64,
    workers: usize,
    dir: Option<PathBuf>,
    budget_generations: u32,
    kill: bool,
    victim: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: resume [--seed N] [--workers N] [--dir PATH] \
         [--budget-generations N] [--kill | --victim]"
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli =
        Cli { seed: 1, workers: 1, dir: None, budget_generations: 2, kill: false, victim: false };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => cli.seed = v,
                None => usage(),
            },
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => cli.workers = v,
                None => usage(),
            },
            "--dir" => match args.next() {
                Some(v) => cli.dir = Some(PathBuf::from(v)),
                None => usage(),
            },
            "--budget-generations" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => cli.budget_generations = v,
                None => usage(),
            },
            "--kill" => cli.kill = true,
            "--victim" => cli.victim = true,
            _ => usage(),
        }
    }
    if cli.kill && cli.victim {
        usage();
    }
    cli
}

/// Spawns this binary as a slowed victim journaling into `dir`, SIGKILLs
/// it once its baseline journal holds replies, and returns once it is
/// dead.
fn kill_a_victim(cli: &Cli, dir: &Path) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut child = std::process::Command::new(exe)
        .arg("--victim")
        .arg("--seed")
        .arg(cli.seed.to_string())
        .arg("--workers")
        .arg(cli.workers.to_string())
        .arg("--dir")
        .arg(dir)
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn victim process");

    // Wait until the victim has work worth losing: two generations'
    // worth of replies (a population is 10) in the baseline journal.
    let baseline = dir.join("baseline");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let replies = CheckpointStore::create(&baseline).map_or(0, |s| s.journal().replies());
        if replies >= 20 {
            break;
        }
        if let Ok(Some(status)) = child.try_wait() {
            // Victim finished before we could kill it — its journal is
            // still on disk, recovery just replays the whole run.
            eprintln!("victim exited early ({status}); recovering its final state");
            return;
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            eprintln!("victim journaled no replies within 30s");
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL victim");
    let _ = child.wait();
}

fn main() {
    let cli = parse_cli();
    let dir = cli.dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("nautilus-resume-{}", std::process::id()))
    });
    std::fs::create_dir_all(&dir).expect("create checkpoint directory");

    if cli.victim {
        let cancel = install_sigint_cancel();
        let digest = chaos_victim(cli.seed, cli.workers, &dir, Duration::from_millis(2), cancel);
        println!("{digest}");
        return;
    }

    let digest = if cli.kill {
        kill_a_victim(&cli, &dir);
        chaos_recover_digest(cli.seed, cli.workers, &dir)
    } else {
        chaos_resume_digest(cli.seed, cli.workers, &dir, cli.budget_generations)
    };
    println!("{digest}");

    // Belt-and-braces self-check so a mis-wired gate fails loudly even if
    // the caller forgets to diff: the resumed digest must equal a straight
    // in-process run.
    let straight = chaos_digest(cli.seed, cli.workers);
    if digest != straight {
        eprintln!("resumed digest diverged from straight-through run");
        std::process::exit(1);
    }
}
