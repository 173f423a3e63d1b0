//! The served process: the real release `nsc serve <module> --addr …`
//! binary with default flags, spawned as a child and observed only from
//! outside — its socket, its exit status, its CPU clock and `/proc/<pid>`.

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_getcpuclockid(pid: i32, clock_id: *mut i32) -> i32;
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// A running `nsc serve`.  Dropping it kills the process, so a panic or
/// early return anywhere in the harness leaves no child behind.
pub struct Child {
    proc: std::process::Child,
    port: u16,
}

impl Drop for Child {
    fn drop(&mut self) {
        let _ = self.proc.kill();
        let _ = self.proc.wait();
    }
}

/// A free loopback port: bind port 0, read the port, release it.  The
/// caller retries if another process takes it before the child binds.
fn free_port() -> std::io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

impl Child {
    /// Spawns `nsc serve module --addr 127.0.0.1:<port>` and connects to
    /// it, returning as soon as the server accepts.  A child that exits
    /// before accepting (its port was taken) is retried on a new port.
    pub fn start(nsc: &Path, module: &Path) -> Result<(Child, TcpStream), String> {
        let mut last = String::new();
        for _ in 0..5 {
            let port = free_port().map_err(|e| format!("no free port: {e}"))?;
            let proc = Command::new(nsc)
                .arg("serve")
                .arg(module)
                .arg("--addr")
                .arg(format!("127.0.0.1:{port}"))
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .map_err(|e| format!("cannot spawn {}: {e}", nsc.display()))?;
            let mut child = Child { proc, port };
            match child.connect(Duration::from_secs(60)) {
                Ok(stream) => return Ok((child, stream)),
                Err(e) => last = e,
            }
        }
        Err(format!("nsc serve did not come up: {last}"))
    }

    /// Connects to the child, retrying while it is not yet listening.
    pub fn connect(&mut self, timeout: Duration) -> Result<TcpStream, String> {
        let deadline = Instant::now() + timeout;
        loop {
            match TcpStream::connect(("127.0.0.1", self.port)) {
                Ok(s) => return Ok(s),
                Err(e) => {
                    if let Ok(Some(status)) = self.proc.try_wait() {
                        let mut err = String::new();
                        if let Some(mut pipe) = self.proc.stderr.take() {
                            let _ = pipe.read_to_string(&mut err);
                        }
                        return Err(format!("child exited early ({status}): {}", err.trim()));
                    }
                    if Instant::now() >= deadline {
                        return Err(format!("connect timed out: {e}"));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// CPU seconds (user + system, every thread that ever ran) the child
    /// has used, from its process CPU-time clock.  `/proc/<pid>/stat`
    /// carries the same sum, but in 10 ms ticks — a tenth of what a lightly
    /// loaded child uses in a whole phase.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let mut clock = 0i32;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: both calls only write through the two pointers, which
        // point at live, correctly laid out locals; the pid is our own
        // unreaped child's, so it cannot have been reused.
        let rc = unsafe {
            match clock_getcpuclockid(self.proc.id() as i32, &mut clock) {
                0 => clock_gettime(clock, &mut ts),
                rc => rc,
            }
        };
        if rc != 0 {
            return Err("cannot read the child's CPU-time clock".into());
        }
        Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.proc.id());
        std::fs::read_to_string(&path)
            .map_err(|e| format!("{path}: {e}"))?
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in status".to_string())
    }

    /// Waits for the child to exit on its own (after a `shutdown` request)
    /// and requires exit status 0.
    pub fn wait_exit(mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.proc.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("child exited with {status}")),
                None if Instant::now() >= deadline => {
                    return Err("child did not exit after shutdown".into())
                }
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }
}
