//! The load generator: the `haqjsk-serve` child process, its connections,
//! and the two timed loops.
//!
//! Frames are encoded before a loop starts and replies are kept as raw
//! lines, so inside a timed window the generator only writes bytes, reads
//! a line and reads the clock.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Environment variables that change the server's execution path; the
/// benchmark clears them so every run measures the default configuration.
pub const CLEARED_ENV: [&str; 4] = [
    "HAQJSK_BACKEND",
    "HAQJSK_CACHE_SHARDS",
    "HAQJSK_CACHE_BUDGET",
    "HAQJSK_SIMD",
];

/// Engine worker threads the server is pinned to.
pub const SERVER_THREADS: &str = "2";

/// A running `haqjsk-serve`; killed and reaped on drop.
pub struct ServerProcess {
    child: Child,
    /// The bound JSON-lines address, read from the banner.
    pub addr: String,
}

impl ServerProcess {
    /// Starts the server on an ephemeral port with the pinned environment
    /// (`traced` switches its span tracer on) and waits for its banner.
    pub fn spawn(bin: &Path, traced: bool) -> Result<ServerProcess, String> {
        let mut command = Command::new(bin);
        command
            .arg("127.0.0.1:0")
            .env("HAQJSK_THREADS", SERVER_THREADS)
            .env("HAQJSK_TRACE", if traced { "on" } else { "off" })
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for name in CLEARED_ENV {
            command.env_remove(name);
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // Own the child before anything can fail, so it is always reaped.
        let mut server = ServerProcess {
            child,
            addr: String::new(),
        };
        let mut banner = String::new();
        BufReader::new(stdout)
            .read_line(&mut banner)
            .map_err(|e| format!("cannot read the server banner: {e}"))?;
        // "haqjsk-serve listening on 127.0.0.1:PORT (...)"
        server.addr = banner
            .split_whitespace()
            .nth(3)
            .ok_or_else(|| format!("unexpected server banner {banner:?}"))?
            .to_string();
        Ok(server)
    }

    /// The server's peak resident set size (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM line in {path}"))
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Sends one pre-encoded frame and returns the raw reply line.
pub trait Transport {
    /// `frame` ends with a newline; the reply is returned without one.
    fn call(&mut self, frame: &str) -> Result<String, String>;
}

/// One JSON-lines connection to the server.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects with Nagle's algorithm off, so small frames leave at once.
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        // A hung server fails the run instead of stalling it.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        let reader = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            writer: stream,
            reader: BufReader::new(reader),
        })
    }
}

impl Transport for Conn {
    fn call(&mut self, frame: &str) -> Result<String, String> {
        self.writer
            .write_all(frame.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        let read = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?;
        if read == 0 {
            return Err("the server closed the connection".to_string());
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }
}

/// Time source of the timed loops, in seconds from an arbitrary origin.
pub trait Clock {
    /// The current time.
    fn now(&self) -> f64;
    /// Blocks until `t` (returns at once when `t` has passed).
    fn sleep_until(&self, t: f64);
}

/// The monotonic wall clock.
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose origin is now.
    pub fn start() -> WallClock {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn sleep_until(&self, t: f64) {
        let wait = t - self.now();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
    }
}

/// One closed-loop operation: its latency and raw reply.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Send to reply, in milliseconds.
    pub latency_ms: f64,
    /// The raw reply line, parsed only after the timed phase.
    pub reply: String,
}

/// Closed loop: sends each frame once, in order, the next only after the
/// previous reply. A run is exactly `frames.len()` operations however fast
/// the server answers; returns the samples and the loop's wall time in
/// seconds.
pub fn closed_loop(
    transport: &mut impl Transport,
    clock: &impl Clock,
    frames: &[&str],
) -> Result<(Vec<Sample>, f64), String> {
    let mut samples = Vec::with_capacity(frames.len());
    let start = clock.now();
    for frame in frames {
        let sent = clock.now();
        let reply = transport.call(frame)?;
        samples.push(Sample {
            latency_ms: (clock.now() - sent) * 1e3,
            reply,
        });
    }
    Ok((samples, clock.now() - start))
}

/// One open-loop probe, timed from when it was due.
#[derive(Debug, Clone)]
pub struct ProbeSample {
    /// Due time to reply, in milliseconds: includes any wait a stall of an
    /// earlier probe imposed on this one.
    pub latency_ms: f64,
    /// How late the probe was sent, in milliseconds.
    pub late_ms: f64,
    /// Send to reply, in milliseconds.
    pub service_ms: f64,
    /// The raw reply line.
    pub reply: String,
}

/// Open loop: probe `i` is due `i · period_s` after the start and is sent
/// at its due time, or at once if an earlier probe's reply came back after
/// it. Probes continue while `running()` holds, checked after each wait.
pub fn open_loop(
    transport: &mut impl Transport,
    clock: &impl Clock,
    frame: &str,
    period_s: f64,
    running: impl Fn() -> bool,
) -> Result<Vec<ProbeSample>, String> {
    let start = clock.now();
    let mut samples = Vec::new();
    for i in 0.. {
        let due = start + i as f64 * period_s;
        clock.sleep_until(due);
        if !running() {
            break;
        }
        let sent = clock.now();
        let reply = transport.call(frame)?;
        let done = clock.now();
        samples.push(ProbeSample {
            latency_ms: (done - due) * 1e3,
            late_ms: (sent - due) * 1e3,
            service_ms: (done - sent) * 1e3,
            reply,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Simulated time: sleeping and serving both just advance it.
    struct FakeClock(Cell<f64>);

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            self.0.get()
        }

        fn sleep_until(&self, t: f64) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    /// A server whose `k`-th reply takes `service(k)` seconds.
    struct FakeServer<'a, F: Fn(usize) -> f64> {
        clock: &'a FakeClock,
        service: F,
        calls: usize,
    }

    impl<F: Fn(usize) -> f64> Transport for FakeServer<'_, F> {
        fn call(&mut self, frame: &str) -> Result<String, String> {
            let now = self.clock.now();
            self.clock.0.set(now + (self.service)(self.calls));
            self.calls += 1;
            Ok(frame.trim_end().to_string())
        }
    }

    #[test]
    fn closed_loop_stops_after_its_op_count_whatever_the_speed() {
        let frames: Vec<String> = (0..37).map(|i| format!("{{\"op\":{i}}}\n")).collect();
        let frames: Vec<&str> = frames.iter().map(String::as_str).collect();
        for service_s in [1e-6, 1e-3, 2.0] {
            let clock = FakeClock(Cell::new(0.0));
            let mut server = FakeServer {
                clock: &clock,
                service: |_| service_s,
                calls: 0,
            };
            let (samples, wall) = closed_loop(&mut server, &clock, &frames).expect("no errors");
            assert_eq!(server.calls, frames.len(), "service time {service_s}");
            assert_eq!(samples.len(), frames.len());
            assert_eq!(samples[5].reply, "{\"op\":5}");
            assert!((samples[0].latency_ms - service_s * 1e3).abs() < 1e-6);
            assert!((wall - 37.0 * service_s).abs() < 1e-6);
        }
    }

    #[test]
    fn open_loop_times_from_the_due_time() {
        // Period 10 ms; probe 2 stalls for 35 ms, so probes 3..=5 are due
        // while it is outstanding and leave late.
        let clock = FakeClock(Cell::new(100.0));
        let mut server = FakeServer {
            clock: &clock,
            service: |k| if k == 2 { 0.035 } else { 0.001 },
            calls: 0,
        };
        let samples = open_loop(&mut server, &clock, "{}\n", 0.010, || clock.now() < 100.095)
            .expect("no errors");
        let ms: Vec<(f64, f64)> = samples.iter().map(|s| (s.latency_ms, s.late_ms)).collect();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
        // On time before the stall.
        assert!(close(ms[0].0, 1.0) && close(ms[0].1, 0.0));
        assert!(close(ms[2].0, 35.0) && close(ms[2].1, 0.0));
        // Probe 3 was due at 30 ms but sent at 55 ms: its latency counts
        // the 25 ms it waited behind the stall.
        assert!(close(ms[3].1, 25.0) && close(ms[3].0, 26.0));
        assert!(close(samples[3].service_ms, 1.0));
        assert!(close(ms[4].1, 16.0) && close(ms[4].0, 17.0));
        assert!(close(ms[5].1, 7.0) && close(ms[5].0, 8.0));
        // Caught up: back on schedule.
        assert!(close(ms[6].0, 1.0) && close(ms[6].1, 0.0));
        // The loop stops once `running` fails after a wait: the probe due
        // at 100 ms (i = 10) never leaves.
        assert_eq!(samples.len(), 10);
    }
}
