//! The `case_tool serve` process under test and the one closed-loop
//! client connection that drives it.

use depcase_service::Client;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

/// A running server process plus its client connection.
pub struct Server {
    child: Child,
    stderr: Option<JoinHandle<Vec<String>>>,
    client: Client,
}

impl Server {
    /// Spawns `binary serve --addr 127.0.0.1:0 <flags>`, waits for its
    /// listening line (the engine has opened and recovered by then) and
    /// connects.
    pub fn start(binary: &Path, flags: &[String]) -> Result<Server, String> {
        let mut child = Command::new(binary)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let mut seen = Vec::new();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.split("listening on ").nth(1) {
                        break addr.trim().to_string();
                    }
                    seen.push(line);
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("server exited before listening: {}", seen.join(" | ")));
                }
            }
        };
        // Drain the rest of stderr so the server never blocks on it;
        // keep the tail for error reports.
        let stderr = std::thread::spawn(move || {
            let mut tail: Vec<String> = Vec::new();
            for line in lines.map_while(Result::ok) {
                if tail.len() == 8 {
                    tail.remove(0);
                }
                tail.push(line.chars().take(400).collect());
            }
            tail
        });
        let client = match Client::connect(addr.as_str()) {
            Ok(c) => c,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = stderr.join();
                return Err(format!("connecting to {addr}: {e}"));
            }
        };
        Ok(Server { child, stderr: Some(stderr), client })
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// One request line, one reply line.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.client.round_trip(line).map_err(|e| e.to_string())
    }

    /// Graceful shutdown: the `shutdown` op drains and syncs, then the
    /// process exits; waits for it and for the stderr reader.
    pub fn stop(mut self) -> Result<(), String> {
        let reply = self.call(r#"{"id":0,"op":"shutdown"}"#);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        let tail = self.stderr.take().map(|h| h.join().unwrap_or_default()).unwrap_or_default();
        match reply {
            Ok(r) if r.contains(r#""ok":true"#) && status.success() => Ok(()),
            other => Err(format!(
                "server did not shut down cleanly ({other:?}, {status}): {}",
                tail.join(" | ")
            )),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.stderr.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(h) = self.stderr.take() {
                let _ = h.join();
            }
        }
    }
}

/// The float after `"key":` in a reply line, bit-exact (the service
/// prints shortest round-trip decimals).
pub fn f64_field(reply: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = reply.find(&pat)? + pat.len();
    let rest = &reply[start..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

pub fn is_ok(reply: &str) -> bool {
    reply.contains(r#""ok":true"#)
}

/// A fresh, empty directory under `root`.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The filesystem type holding `path` (longest mount-point prefix in
/// /proc/mounts).
pub fn filesystem_of(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else { return "unknown".into() };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".into(), |(_, fs)| fs)
}
