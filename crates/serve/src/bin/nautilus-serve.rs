//! The nautilus search daemon.
//!
//! ```text
//! nautilus-serve --dir /var/lib/nautilus [--slots N]
//! ```
//!
//! Listens on an ephemeral localhost port (published to `<dir>/endpoint`),
//! recovers any jobs a previous incarnation left behind, and serves
//! submissions until SIGTERM, SIGINT or a `Drain` request, any of which
//! triggers a graceful drain: running jobs checkpoint and park, queued
//! jobs stay queued, the endpoint file is removed, and the process exits
//! 0. The next incarnation re-adopts everything.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use nautilus_serve::{Daemon, DaemonConfig};

/// SIGINT's POSIX signal number.
const SIGINT: i32 = 2;
/// SIGTERM's POSIX signal number.
const SIGTERM: i32 = 15;

static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_stop_signal(_signum: i32) {
    STOP.store(true, Ordering::Release);
}

fn install_stop_signals() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(SIGINT, on_stop_signal);
        signal(SIGTERM, on_stop_signal);
    }
}

fn usage() -> ! {
    eprintln!("usage: nautilus-serve --dir PATH [--slots N]");
    std::process::exit(2);
}

fn main() {
    let mut dir: Option<PathBuf> = None;
    let mut slots: usize = 2;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dir" => match args.next() {
                Some(v) => dir = Some(PathBuf::from(v)),
                None => usage(),
            },
            "--slots" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => slots = v,
                _ => usage(),
            },
            _ => usage(),
        }
    }
    let Some(dir) = dir else { usage() };
    std::fs::create_dir_all(&dir).expect("create state directory");

    install_stop_signals();

    let mut cfg = DaemonConfig::new(&dir);
    cfg.slots = slots;
    let daemon = Daemon::start(cfg).expect("start daemon");
    println!("nautilus-serve listening on {} (state: {})", daemon.addr(), dir.display());

    while !STOP.load(Ordering::Acquire) && !daemon.is_draining() {
        std::thread::sleep(Duration::from_millis(25));
    }
    eprintln!("nautilus-serve: draining");
    daemon.drain_and_join();
    eprintln!("nautilus-serve: drained, exiting");
}
