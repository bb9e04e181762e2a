//! A loopback fleet of real `dynvote-stored` processes, observed only
//! from outside: `status` reports, `/proc/<pid>/stat` CPU time and
//! `/proc/<pid>/status` memory, file sizes in the data directories, and
//! the machine's CPU counters in `/proc/stat`.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dynvote_control::ShardMap;
use dynvote_store::client::request;
use dynvote_store::router::fetch_map;
use dynvote_store::wire::Frame;
use dynvote_store::Outcome;

/// One `status` report as key → value.
pub type Status = BTreeMap<String, String>;

pub struct Fleet {
    children: Vec<Child>,
    pub addrs: Vec<String>,
    pub map: ShardMap,
    dir: PathBuf,
}

impl Fleet {
    /// Starts `sites` durable ODV daemons hosting `shards` shard groups
    /// (ring placement over every site, so each shard's coordinator is
    /// a different process), with their data under `dir`, and waits
    /// until every daemon answers and the map is served.
    pub fn boot(daemon: &Path, dir: &Path, sites: usize, shards: usize) -> Result<Fleet, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        // Reserve ports, then free them for the daemons (which retry a
        // busy address for a while).
        let addrs: Vec<String> = {
            let listeners: Vec<TcpListener> = (0..sites)
                .map(|_| TcpListener::bind("127.0.0.1:0"))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("reserving a loopback port: {e}"))?;
            listeners
                .iter()
                .map(|l| l.local_addr().map(|a| a.to_string()))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("reading a loopback port: {e}"))?
        };
        let peers = addrs
            .iter()
            .enumerate()
            .map(|(i, a)| format!("{i}={a}"))
            .collect::<Vec<_>>()
            .join(",");
        let mut fleet = Fleet {
            children: Vec::new(),
            addrs: addrs.clone(),
            map: ShardMap {
                epoch: 0,
                shards: Vec::new(),
                sites: Vec::new(),
            },
            dir: dir.to_path_buf(),
        };
        for site in 0..sites {
            let data = dir.join(format!("site-{site}"));
            let log = std::fs::File::create(dir.join(format!("site-{site}.stderr")))
                .map_err(|e| format!("creating daemon log: {e}"))?;
            let child = Command::new(daemon)
                .args([
                    "--site",
                    &site.to_string(),
                    "--policy",
                    "odv",
                    "--peers",
                    &peers,
                ])
                .args([
                    "--shards",
                    &shards.to_string(),
                    "--shard-placement",
                    "ring:3",
                ])
                .arg("--data-dir")
                .arg(&data)
                .args(["--quiet", "--bind-retry-ms", "3000"])
                .args(["--connect-timeout-ms", "250", "--read-timeout-ms", "2000"])
                .args(["--backoff-ms", "10", "--backoff-cap-ms", "100"])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(log)
                .spawn()
                .map_err(|e| format!("starting {}: {e}", daemon.display()))?;
            fleet.children.push(child);
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        for addr in &addrs {
            loop {
                if matches!(
                    request(addr, &Frame::Status, Duration::from_millis(500)),
                    Ok(Outcome::Report(_))
                ) {
                    break;
                }
                if Instant::now() > deadline {
                    return Err(format!("daemon at {addr} never answered status"));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        fleet.map = fetch_map(&addrs[0], Duration::from_secs(5))?;
        if fleet.map.shards.len() != shards {
            return Err(format!(
                "fleet built {} shards, wanted {shards}",
                fleet.map.shards.len()
            ));
        }
        Ok(fleet)
    }

    /// Shard `shard`'s `status` report at `site`.
    pub fn status(&self, site: usize, shard: u16) -> Result<Status, String> {
        let frame = Frame::Shard {
            shard,
            inner: Box::new(Frame::Status),
        };
        match request(&self.addrs[site], &frame, Duration::from_secs(5)) {
            Ok(Outcome::Report(text)) => Ok(text
                .lines()
                .filter_map(|line| line.split_once('='))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()),
            other => Err(format!("status of shard {shard} at site {site}: {other:?}")),
        }
    }

    /// The summed peak resident set (`VmHWM`) of the daemons, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.children
            .iter()
            .map(|child| peak_rss_kb(&format!("/proc/{}/status", child.id())))
            .sum::<f64>()
            / 1024.0
    }

    /// The daemons' `/proc/<pid>/stat` files, for [`process_cpu_secs`].
    pub fn stat_paths(&self) -> Vec<String> {
        self.children
            .iter()
            .map(|child| format!("/proc/{}/stat", child.id()))
            .collect()
    }

    /// Total size of every site's and shard's `ledger.log`.
    pub fn ledger_bytes(&self) -> u64 {
        let mut total = 0;
        for site in 0..self.addrs.len() {
            for shard in 0..self.map.shards.len() {
                let path = dynvote_replica::wal::shard_dir(
                    &self.dir.join(format!("site-{site}")),
                    shard as u16,
                )
                .join(dynvote_store::probe::LEDGER_FILE);
                total += std::fs::metadata(path).map_or(0, |m| m.len());
            }
        }
        total
    }

    /// Kills every daemon, waits for each, and deletes the data.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
        }
        for child in &mut self.children {
            let _ = child.wait();
        }
        self.children.clear();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// `VmHWM` in kB from a `/proc/<pid>/status` file; 0 if unreadable.
pub fn peak_rss_kb(path: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .unwrap_or(0.0)
}

/// A numeric `status` field, 0 when absent.
pub fn field(status: &Status, key: &str) -> u64 {
    status.get(key).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// The sum of every `peer.<i>.sends` field.
pub fn peer_sends(status: &Status) -> u64 {
    status
        .iter()
        .filter(|(k, _)| k.starts_with("peer.") && k.ends_with(".sends"))
        .filter_map(|(_, v)| v.parse::<u64>().ok())
        .sum()
}

/// Machine-wide CPU time from `/proc/stat`, in ticks: (stolen by the
/// hypervisor, all).
pub fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// User + system CPU time of a process from its `/proc/<pid>/stat`, s
/// (fields 14 and 15, in clock ticks of 1/100 s); 0 if unreadable.
pub fn process_cpu_secs(path: &str) -> f64 {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let fields: Vec<&str> = text
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}
