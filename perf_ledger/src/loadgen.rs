//! The load generator: seeded Poisson arrivals sent open-loop from one
//! sender thread while one receiver thread reads every response, plus a
//! closed-loop saturation phase. At most two connections, two threads.
//!
//! Open-loop latency runs from the time a request was *due*, so a stall
//! that delays later sends is charged to them, and the sender's own
//! lateness is reported; a run whose p99 lateness exceeds
//! [`MAX_LATENESS_MS`] measured the generator, not the server, and is
//! invalid.

use crate::stats::percentile;
use pqe_rand::rngs::StdRng;
use pqe_rand::Rng;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const MAX_LATENESS_MS: f64 = 1.0;
/// How long the receiver waits for outstanding responses once sending
/// stops before declaring them lost.
const STALL: Duration = Duration::from_secs(60);

/// One request line and the connection it goes out on.
pub struct Request {
    pub line: String,
    pub conn: usize,
}

/// A response to `reqs[idx]`.
pub struct Response {
    pub idx: usize,
    pub latency_ms: f64,
    pub body: String,
}

/// Arrival offsets (seconds) of a Poisson process at `rate` per second
/// over `duration` seconds, conditioned on its expected count
/// `round(rate × duration)`: that many uniform times, sorted. The count is
/// fixed so that every run measures the same number of requests.
pub fn poisson_offsets(rate: f64, duration: f64, rng: &mut StdRng) -> Vec<f64> {
    let n = (rate * duration).round() as usize;
    let mut out: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * duration).collect();
    out.sort_by(f64::total_cmp);
    out
}

/// Calls `send(i, due)` at each due time `start + offsets[i]` and returns
/// how late (ms) each call started.
pub fn paced(
    start: Instant,
    offsets: &[f64],
    mut send: impl FnMut(usize, Instant) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let mut lateness = Vec::with_capacity(offsets.len());
    for (i, &off) in offsets.iter().enumerate() {
        let due = start + Duration::from_secs_f64(off);
        // Sleep to just short of the due time, then yield-spin the rest:
        // a plain sleep overshoots by the timer slack.
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let left = due - now;
            if left > Duration::from_micros(100) {
                std::thread::sleep(left - Duration::from_micros(50));
            } else {
                std::thread::yield_now();
            }
        }
        lateness.push(due.elapsed().as_secs_f64() * 1e3);
        send(i, due)?;
    }
    Ok(lateness)
}

/// The run's lateness statistic: the p99 (of at least 100 sends), else the
/// maximum. `Err` when it exceeds [`MAX_LATENESS_MS`]. A validity check,
/// not a reported percentile: a stray late send or two must not void a
/// run of a thousand.
pub fn check_lateness(lateness_ms: &[f64]) -> Result<f64, String> {
    let p99 = percentile(lateness_ms, 99.0, 1)
        .unwrap_or_else(|_| lateness_ms.iter().copied().fold(0.0, f64::max));
    if p99 > MAX_LATENESS_MS {
        Err(format!(
            "load generator p99 lateness {p99:.3} ms > {MAX_LATENESS_MS} ms"
        ))
    } else {
        Ok(p99)
    }
}

/// Real-time scheduling for the load generator, undone on drop.
///
/// While held, the calling thread runs in the real-time FIFO class. On a
/// machine whose cores the server saturates, a normally scheduled generator
/// thread waits out a scheduler slice (several ms) before it can send or
/// timestamp, which would be charged to the server. The generator's threads
/// sleep almost always, so the server loses next to nothing. Threads and
/// child processes it starts begin back in the normal class.
pub struct Prioritized {
    pub class: &'static str,
}

impl Prioritized {
    pub fn acquire() -> Prioritized {
        let fifo = set_policy(sys::SCHED_FIFO | sys::SCHED_RESET_ON_FORK, 10);
        Prioritized {
            class: if fifo {
                "SCHED_FIFO"
            } else {
                "SCHED_OTHER (no permission for SCHED_FIFO)"
            },
        }
    }
}

impl Drop for Prioritized {
    fn drop(&mut self) {
        set_policy(sys::SCHED_OTHER, 0);
    }
}

fn set_policy(policy: std::os::raw::c_int, priority: std::os::raw::c_int) -> bool {
    let param = sys::SchedParam {
        sched_priority: priority,
    };
    // SAFETY: `param` is a valid `struct sched_param` for the duration of
    // the call; pid 0 names the calling thread.
    unsafe { sys::sched_setscheduler(0, policy, &param) == 0 }
}

mod sys {
    use std::os::raw::{c_int, c_short, c_ulong};

    #[repr(C)]
    pub struct SchedParam {
        pub sched_priority: c_int,
    }

    pub const SCHED_OTHER: c_int = 0;
    pub const SCHED_FIFO: c_int = 1;
    pub const SCHED_RESET_ON_FORK: c_int = 0x4000_0000;

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    pub const POLLIN: c_short = 0x1;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        pub fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
    }
}

/// Read side of the load connections: waits on all of them at once.
pub struct Mux {
    streams: Vec<TcpStream>,
    bufs: Vec<Vec<u8>>,
}

impl Mux {
    pub fn new(streams: &[TcpStream]) -> Result<Mux, String> {
        let streams = streams
            .iter()
            .map(|s| s.try_clone().map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let bufs = vec![Vec::new(); streams.len()];
        Ok(Mux { streams, bufs })
    }

    /// Waits up to `timeout` and returns the complete response lines that
    /// arrived, with their connection and arrival time.
    pub fn recv(&mut self, timeout: Duration) -> Result<Vec<(usize, String, Instant)>, String> {
        let mut fds: Vec<sys::PollFd> = self
            .streams
            .iter()
            .map(|s| sys::PollFd {
                fd: s.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            })
            .collect();
        let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        // SAFETY: `fds` is an exclusively borrowed array of `fds.len()`
        // `#[repr(C)]` pollfd records, valid for the whole call, and every
        // descriptor belongs to a stream in `self.streams`, which outlives it.
        let n = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as _, timeout_ms) };
        if n < 0 {
            let e = std::io::Error::last_os_error();
            return if e.kind() == std::io::ErrorKind::Interrupted {
                Ok(Vec::new())
            } else {
                Err(format!("poll: {e}"))
            };
        }
        let at = Instant::now();
        let mut lines = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        for (i, fd) in fds.iter().enumerate() {
            if fd.revents == 0 {
                continue;
            }
            // Readable (or hung up): one read cannot block.
            let got = self.streams[i]
                .read(&mut chunk)
                .map_err(|e| format!("receive: {e}"))?;
            if got == 0 {
                return Err("server closed a load connection".into());
            }
            let buf = &mut self.bufs[i];
            buf.extend_from_slice(&chunk[..got]);
            while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = buf.drain(..=pos).collect();
                lines.push((i, String::from_utf8_lossy(&line).trim().to_owned(), at));
            }
        }
        Ok(lines)
    }
}

fn send_line(stream: &mut TcpStream, line: &str) -> Result<(), String> {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))
}

/// Sends `reqs[i]` at `start + offsets[i]` (open loop) and collects every
/// response. Returns the responses and each send's lateness (ms).
pub fn open_loop(
    streams: &mut [TcpStream],
    reqs: &[Request],
    offsets: &[f64],
) -> Result<(Vec<Response>, Vec<f64>), String> {
    let pending: Vec<Mutex<VecDeque<(usize, Instant)>>> = streams
        .iter()
        .map(|_| Mutex::new(VecDeque::new()))
        .collect();
    let sent = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let mut mux = Mux::new(streams)?;
    std::thread::scope(|s| {
        let receiver = s.spawn(|| -> Result<Vec<Response>, String> {
            // New threads start in the normal class; the receiver
            // timestamps arrivals, so it raises itself too.
            let _prioritized = Prioritized::acquire();
            let mut got = Vec::with_capacity(reqs.len());
            let mut last = Instant::now();
            loop {
                if done.load(Ordering::Acquire) && got.len() == sent.load(Ordering::Acquire) {
                    return Ok(got);
                }
                for (conn, body, at) in mux.recv(Duration::from_millis(20))? {
                    let (idx, due) = pending[conn]
                        .lock()
                        .expect("pending queue poisoned")
                        .pop_front()
                        .ok_or("response without a request")?;
                    got.push(Response {
                        idx,
                        latency_ms: (at - due).as_secs_f64() * 1e3,
                        body,
                    });
                    last = at;
                }
                if done.load(Ordering::Acquire) && last.elapsed() > STALL {
                    return Err(format!(
                        "{} responses never arrived",
                        sent.load(Ordering::Acquire) - got.len()
                    ));
                }
            }
        });
        let lateness = paced(Instant::now(), offsets, |i, due| {
            let r = &reqs[i];
            pending[r.conn]
                .lock()
                .expect("pending queue poisoned")
                .push_back((i, due));
            sent.fetch_add(1, Ordering::Release);
            send_line(&mut streams[r.conn], &r.line)
        });
        done.store(true, Ordering::Release);
        let responses = receiver
            .join()
            .map_err(|_| "receiver thread panicked".to_owned())?;
        Ok((responses?, lateness?))
    })
}

/// Closed loop: one outstanding request per connection for `window`;
/// `next(conn)` makes the request sent on `conn` once its previous response
/// arrives. Latency runs from the send. Returns the responses, indexed in
/// send order, and how many completed inside the window.
pub fn closed_loop(
    streams: &mut [TcpStream],
    mut next: impl FnMut(usize) -> Request,
    window: Duration,
) -> Result<(Vec<Response>, usize), String> {
    let mut mux = Mux::new(streams)?;
    let mut in_flight: Vec<Option<(usize, Instant)>> = vec![None; streams.len()];
    let mut responses = Vec::new();
    let mut sent = 0;
    let mut send = |conn: usize, streams: &mut [TcpStream]| {
        send_line(&mut streams[conn], &next(conn).line)?;
        sent += 1;
        Ok::<_, String>((sent - 1, Instant::now()))
    };
    let start = Instant::now();
    for (conn, slot) in in_flight.iter_mut().enumerate() {
        *slot = Some(send(conn, streams)?);
    }
    let mut in_window = 0;
    while in_flight.iter().any(Option::is_some) {
        let lines = mux.recv(Duration::from_millis(100))?;
        if lines.is_empty() && start.elapsed() > window + STALL {
            return Err("closed-loop responses never arrived".into());
        }
        for (conn, body, at) in lines {
            let (idx, sent_at) = in_flight[conn].take().ok_or("response without a request")?;
            responses.push(Response {
                idx,
                latency_ms: (at - sent_at).as_secs_f64() * 1e3,
                body,
            });
            if at - start <= window {
                in_window += 1;
                in_flight[conn] = Some(send(conn, streams)?);
            }
        }
    }
    Ok((responses, in_window))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqe_rand::SeedableRng;

    #[test]
    fn poisson_offsets_have_the_requested_rate() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = poisson_offsets(200.0, 20.0, &mut rng);
        assert_eq!(t.len(), 4000);
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
        assert!(t.iter().all(|&x| (0.0..20.0).contains(&x)));
        // Exponential gaps: about e^-1 of them exceed the mean gap.
        let long = t.windows(2).filter(|w| w[1] - w[0] > 1.0 / 200.0).count();
        let share = long as f64 / 3999.0;
        assert!((share - (-1.0f64).exp()).abs() < 0.03, "share {share}");
        let again = poisson_offsets(200.0, 20.0, &mut StdRng::seed_from_u64(5));
        assert_eq!(t, again);
    }

    #[test]
    fn scheduler_reports_lateness_of_a_slow_sender() {
        // Due every millisecond, but each send takes three: the backlog
        // grows, every later send starts late, and the run is invalid.
        let offsets: Vec<f64> = (0..40).map(|i| i as f64 * 1e-3).collect();
        let late = paced(Instant::now(), &offsets, |_, _| {
            std::thread::sleep(Duration::from_millis(3));
            Ok(())
        })
        .unwrap();
        assert_eq!(late.len(), 40);
        assert!(late[39] > 50.0, "last send only {} ms late", late[39]);
        let err = check_lateness(&late).unwrap_err();
        assert!(err.contains("lateness"), "{err}");
    }

    #[test]
    fn scheduler_sends_on_time_when_the_sender_keeps_up() {
        // As in a run, the sender is real-time scheduled (where permitted):
        // the tests running beside it keep both cores busy.
        let _prioritized = Prioritized::acquire();
        let offsets: Vec<f64> = (0..100).map(|i| i as f64 * 2e-3).collect();
        let start = Instant::now();
        let late = paced(start, &offsets, |i, due| {
            assert!(Instant::now() >= due);
            assert_eq!(due, start + Duration::from_secs_f64(offsets[i]));
            Ok(())
        })
        .unwrap();
        // The typical send is on time; a stray stall of the test machine
        // may delay a few, which the p99 of a full run tolerates.
        let p50 = percentile(&late, 50.0, 10).unwrap();
        assert!(p50 < MAX_LATENESS_MS / 2.0, "lateness {late:?}");
    }

    #[test]
    fn lateness_check_is_the_p99_or_else_the_maximum() {
        let mut late = vec![0.1; 50];
        late[7] = 1.5;
        assert!(check_lateness(&late).is_err());
        late[7] = 0.9;
        assert_eq!(check_lateness(&late).unwrap(), 0.9);
        // Two stalled sends in a thousand leave the p99 on time.
        let mut late = vec![0.05; 1000];
        late[3] = 6.0;
        late[500] = 4.0;
        assert_eq!(check_lateness(&late).unwrap(), 0.05);
    }
}
