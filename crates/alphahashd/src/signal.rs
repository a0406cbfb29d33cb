//! Minimal SIGINT/SIGTERM latching without a libc dependency (the
//! offline container has no crates.io, so the usual `signal-hook` /
//! `libc` route is unavailable — the same constraint that makes the
//! compat crates exist).
//!
//! The handler does the only async-signal-safe thing there is to do:
//! set a static atomic flag. The daemon's signal watcher thread polls
//! [`triggered`] and turns it into the normal graceful drain.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

static TRIGGERED: AtomicBool = AtomicBool::new(false);
static INSTALL: Once = Once::new();

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// The crate forbids unsafe everywhere but here: registering a process
/// signal handler has no safe std surface, so this module declares
/// `signal(2)` directly (the prototype libc would otherwise provide)
/// and confines the handler body to one atomic store.
#[allow(unsafe_code)]
mod ffi {
    extern "C" {
        /// `signal(2)` — always present in the C runtime the Rust std
        /// already links against.
        pub(super) fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub(super) extern "C" fn on_signal(_signum: i32) {
        super::TRIGGERED.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    pub(super) fn install_for(signum: i32) {
        // SAFETY: `signal` is the C standard library's own registration
        // entry point; the handler only performs an atomic store, which
        // is async-signal-safe.
        unsafe {
            signal(signum, on_signal);
        }
    }
}

/// Installs the SIGINT/SIGTERM latch (idempotent).
pub fn install() {
    INSTALL.call_once(|| {
        ffi::install_for(SIGINT);
        ffi::install_for(SIGTERM);
    });
}

/// Whether a latched signal has arrived since [`install`].
pub fn triggered() -> bool {
    TRIGGERED.load(Ordering::SeqCst)
}
