//! Readiness waiting for the server's I/O loop: `poll(2)` over the
//! listener, the connections and a [`Waker`] that workers signal when they
//! deliver a response.
//!
//! `std` has no readiness API, so this module declares `poll` itself (the
//! C library is linked by `std` on every Unix target; no crate is added).
//! The loop sleeps in the kernel until a socket is ready or a worker wakes
//! it: a loop that spun between events would look, to the scheduler, like
//! a third CPU-bound thread beside the busy workers, and take CPU time
//! from them.

use std::io::{Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::net::UnixStream;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Wakes a [`PollSet::wait`] from another thread: a non-blocking socket
/// pair whose read end is in the set. Each wake writes one byte; a full
/// buffer means wakes are already pending, so a failed write loses
/// nothing.
pub(crate) struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    pub(crate) fn new() -> std::io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// Makes the next (or a sleeping) `wait` on a set holding this waker
    /// return.
    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Consumes every pending wake. The loop calls this *before* it looks
    /// for work, so a wake sent after the look stays pending and ends the
    /// next wait at once.
    pub(crate) fn reset(&self) {
        let mut buf = [0u8; 256];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// The descriptors one `wait` watches, rebuilt before every wait.
#[derive(Default)]
pub(crate) struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    pub(crate) fn clear(&mut self) {
        self.fds.clear();
    }

    /// Watches `fd` for readability if `read` and writability if
    /// `write`; for neither, not at all (a closed peer would otherwise
    /// report a hang-up on every wait).
    pub(crate) fn add(&mut self, fd: &impl AsRawFd, read: bool, write: bool) {
        let events = if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 };
        if events != 0 {
            self.push(fd.as_raw_fd(), events);
        }
    }

    /// Watches `waker` (see [`Waker::wake`]).
    pub(crate) fn add_waker(&mut self, waker: &Waker) {
        self.push(waker.rx.as_raw_fd(), POLLIN);
    }

    fn push(&mut self, fd: RawFd, events: c_short) {
        self.fds.push(PollFd { fd, events, revents: 0 });
    }

    /// Sleeps until a watched descriptor is ready (or reports an error or
    /// hang-up), a signal arrives, or `timeout` passes. The caller then
    /// re-examines everything, so which descriptor woke it is not kept.
    pub(crate) fn wait(&mut self, timeout: Duration) {
        let ms = timeout.as_millis().min(c_int::MAX as u128) as c_int;
        // SAFETY: `fds` is an exclusively borrowed array of `fds.len()`
        // `#[repr(C)]` pollfd records, valid for the whole call. Every
        // descriptor belongs to a socket the caller keeps open until the
        // call returns; a closed one would only be reported as invalid.
        // An error (EINTR) returns to the caller like a timeout.
        unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, ms) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn wake_ends_a_wait_and_reset_consumes_it() {
        let waker = Waker::new().unwrap();
        let mut set = PollSet::default();
        set.add_waker(&waker);
        waker.wake();
        waker.wake();
        let t = Instant::now();
        set.wait(Duration::from_secs(10));
        assert!(t.elapsed() < Duration::from_secs(5));
        // Both wakes are consumed: the next wait runs to its timeout.
        waker.reset();
        let t = Instant::now();
        set.wait(Duration::from_millis(30));
        assert!(t.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn a_wake_from_another_thread_ends_a_sleeping_wait() {
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        let mut set = PollSet::default();
        set.add_waker(&waker);
        let w = std::sync::Arc::clone(&waker);
        let t = Instant::now();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w.wake();
        });
        set.wait(Duration::from_secs(10));
        assert!(t.elapsed() < Duration::from_secs(5));
        h.join().unwrap();
    }

    #[test]
    fn readable_socket_ends_a_wait() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut set = PollSet::default();
        set.add(&b, true, false);
        a.write_all(b"x").unwrap();
        let t = Instant::now();
        set.wait(Duration::from_secs(10));
        assert!(t.elapsed() < Duration::from_secs(5));
    }
}
