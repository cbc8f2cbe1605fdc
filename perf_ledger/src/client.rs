//! A `pqe serve` child process and blocking NDJSON connections to it.

use crate::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `pqe serve` process. Dropping it kills the process, so no
/// server outlives the run that started it.
pub struct Server {
    child: Child,
    /// Held open so the server's shutdown banner never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Starts `pqe serve --addr 127.0.0.1:0 <args>` and waits for its
    /// listening banner.
    ///
    /// The server runs at `nice` 10: client and server share the machine's
    /// cores, and a load generator that waits for a core measures its own
    /// scheduling, not the server (its sends would go out late). The
    /// generator's threads are idle almost always, so the server loses
    /// next to nothing.
    pub fn spawn(pqe: &Path, args: &[&str]) -> Result<Server, String> {
        let mut cmd = Command::new("nice");
        cmd.args(["-n", "10"])
            .arg(pqe)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(args);
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning nice {}: {e}", pqe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .trim()
            .strip_prefix("pqe-serve listening on ")
            .map(str::to_owned);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("pqe serve did not start (banner {banner:?})"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.addr)
    }

    /// Sends `shutdown` and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut c = self.connect()?;
        c.call(&Json::obj([("op", Json::str("shutdown"))]))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("pqe serve exited with {status}")),
                None if Instant::now() > deadline => {
                    return Err("pqe serve ignored shutdown".into())
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One request/response connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer, reader })
    }

    /// The underlying stream, for the load generator to take over.
    pub fn into_stream(self) -> TcpStream {
        self.writer
    }

    /// Sends one request and reads its response line.
    pub fn call(&mut self, req: &Json) -> Result<Json, String> {
        self.writer
            .write_all(format!("{req}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Json::parse(line.trim()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// `{"op":"estimate",…}` as the ledger sends it (server-default threads).
pub fn estimate(query: &str, epsilon: f64, seed: u64) -> Json {
    Json::obj([
        ("op", Json::str("estimate")),
        ("query", Json::str(query)),
        ("epsilon", Json::from(epsilon)),
        ("seed", Json::from(seed)),
        ("method", Json::str("auto")),
    ])
}
