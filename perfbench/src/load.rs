//! Keyed load on one shard coordinator per connection: the operation
//! stream, the closed loop, the pipelined fill, and the
//! final read-back. Every answer is checked against [`History`].

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use dynvote_control::ShardMap;
use dynvote_store::client::ClientError;
use dynvote_store::conn::{Connection, Pending};
use dynvote_store::wire::Frame;
use dynvote_store::{Deadline, Outcome, ShardRouter};

use crate::history::{History, Violation};
use crate::stats::SplitMix;
use crate::trace::Tracer;

/// Every request's own deadline. Generous: a slow answer on a loaded
/// machine is a latency sample, not a failure.
const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// Requests kept in flight per connection while filling an image.
const FILL_WINDOW: usize = 256;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    Put,
}

#[derive(Clone, Copy)]
pub struct Op {
    pub kind: Kind,
    pub key: u32,
}

/// The seeded operation stream of one connection: a uniform key and a
/// put with probability `write_pct`%.
pub struct OpStream {
    rng: SplitMix,
    write_pct: u64,
    keys: u64,
}

impl OpStream {
    pub fn new(seed: u64, lane: u16, write_pct: u64, keys: usize) -> OpStream {
        OpStream {
            rng: SplitMix::new(seed ^ (u64::from(lane) + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
            write_pct,
            keys: keys as u64,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let kind = if self.rng.below(100) < self.write_pct {
            Kind::Put
        } else {
            Kind::Get
        };
        let key = self.rng.below(self.keys) as u32;
        Op { kind, key }
    }
}

/// One connection's slice of the store: a shard and its keys.
pub struct Lane {
    pub shard: u16,
    pub keys: Vec<String>,
    pub history: History,
    pub stream: OpStream,
}

/// `per_shard` seed-named keys for every shard of `map`, found by
/// hashing candidates with the map's own router.
pub fn key_pools(map: &ShardMap, seed: u64, per_shard: usize) -> Vec<Vec<String>> {
    let mut pools: Vec<Vec<String>> = vec![Vec::new(); map.shards.len()];
    let mut i = 0u64;
    while pools.iter().any(|p| p.len() < per_shard) {
        let key = format!("k{seed:x}-{i}");
        i += 1;
        let pool = &mut pools[map.shard_of(key.as_bytes()) as usize];
        if pool.len() < per_shard {
            pool.push(key);
        }
    }
    pools
}

/// Operations attempted and how each ended.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub refused: u64,
    pub unavailable: u64,
    pub timed_out: u64,
    pub wrong: u64,
    pub granted_puts: u64,
    /// Latency of every granted operation, ms, and when it completed,
    /// s after the window opened.
    pub latency_ms: Vec<f64>,
    pub done_s: Vec<f64>,
    pub read_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    /// The first few wrong answers, described.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.refused + self.unavailable + self.timed_out + self.wrong
    }

    pub fn granted(&self) -> u64 {
        self.latency_ms.len() as u64
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.unavailable += other.unavailable;
        self.timed_out += other.timed_out;
        self.wrong += other.wrong;
        self.granted_puts += other.granted_puts;
        self.latency_ms.extend(other.latency_ms);
        self.done_s.extend(other.done_s);
        self.read_ms.extend(other.read_ms);
        self.write_ms.extend(other.write_ms);
        for note in other.notes {
            self.note(note);
        }
    }

    fn note(&mut self, note: String) {
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
    }

    fn client_error(&mut self, error: &ClientError) {
        match error {
            ClientError::Timeout { .. } => self.timed_out += 1,
            ClientError::Unreachable { .. } => self.unavailable += 1,
            ClientError::Protocol { detail } => {
                self.wrong += 1;
                self.note(format!("protocol error: {detail}"));
            }
        }
    }

    /// One line naming every failure kind.
    pub fn summary(&self) -> String {
        format!(
            "attempted={} granted={} refused={} unavailable={} timed_out={} wrong_answer={}",
            self.attempted,
            self.granted(),
            self.refused,
            self.unavailable,
            self.timed_out,
            self.wrong
        )
    }
}

struct InFlight {
    pending: Pending,
    /// When the request was submitted.
    t0: Instant,
    op: Op,
    seq: u64,
    floor: Option<u64>,
    req: u64,
}

/// One connection to a shard coordinator and the lane it drives.
pub struct LoadGen<'a> {
    conn: &'a Connection,
    lane: &'a mut Lane,
    epoch: u64,
    tracer: &'a mut Tracer,
    pub tally: Tally,
    next_req: u64,
    /// Completion times are taken relative to this.
    opened: Instant,
}

impl<'a> LoadGen<'a> {
    pub fn new(
        conn: &'a Connection,
        lane: &'a mut Lane,
        epoch: u64,
        tracer: &'a mut Tracer,
    ) -> LoadGen<'a> {
        LoadGen {
            conn,
            lane,
            epoch,
            tracer,
            tally: Tally::default(),
            next_req: 0,
            opened: Instant::now(),
        }
    }

    fn submit(&mut self, op: Op) -> Option<InFlight> {
        self.tally.attempted += 1;
        // Span ids are unique across lanes: the shard in the top bits.
        let req = u64::from(self.lane.shard) << 48 | self.next_req;
        self.next_req += 1;
        let t0 = Instant::now();
        let key = self.lane.keys[op.key as usize].clone();
        let shard = self.lane.shard;
        let epoch = self.epoch;
        let (frame, seq, floor) = match op.kind {
            Kind::Put => {
                let (value, seq) = self.lane.history.submit_put(op.key);
                (
                    Frame::PutKey {
                        epoch,
                        shard,
                        key,
                        value,
                    },
                    seq,
                    None,
                )
            }
            Kind::Get => (
                Frame::GetKey { epoch, shard, key },
                0,
                self.lane.history.floor(op.key),
            ),
        };
        let deadline = Deadline::within(OP_TIMEOUT);
        let conn = self.conn;
        match self.tracer.time("store.conn.submit", req, None, || {
            conn.submit(&frame, &deadline)
        }) {
            Ok(pending) => Some(InFlight {
                pending,
                t0,
                op,
                seq,
                floor,
                req,
            }),
            Err(error) => {
                self.tally.client_error(&error);
                None
            }
        }
    }

    fn reap(&mut self, f: InFlight) {
        let deadline = Deadline::within(OP_TIMEOUT);
        let conn = self.conn;
        let answer = self.tracer.time("store.conn.wait", f.req, None, || {
            conn.wait(&f.pending, &deadline)
        });
        let now = Instant::now();
        let ms = now.duration_since(f.t0).as_secs_f64() * 1e3;
        let done = now.saturating_duration_since(self.opened).as_secs_f64();
        let tally = &mut self.tally;
        let read = |value: Option<&[u8]>, tally: &mut Tally, history: &History| match history
            .check_read(f.op.key, f.floor, value)
        {
            Ok(()) => {
                tally.latency_ms.push(ms);
                tally.done_s.push(done);
                tally.read_ms.push(ms);
            }
            Err(violation) => {
                tally.wrong += 1;
                tally.note(format!(
                    "read of key {} answered wrongly: {violation:?}",
                    f.op.key
                ));
            }
        };
        match (f.op.kind, answer) {
            (Kind::Put, Ok(Outcome::Done(_))) => {
                self.lane.history.ack_put(f.op.key, f.seq);
                tally.granted_puts += 1;
                tally.latency_ms.push(ms);
                tally.done_s.push(done);
                tally.write_ms.push(ms);
            }
            (Kind::Get, Ok(Outcome::Value { value, .. })) => {
                read(Some(&value), tally, &self.lane.history)
            }
            (Kind::Get, Ok(Outcome::Refused(message))) if message.contains("not found") => {
                read(None, tally, &self.lane.history);
            }
            (_, Ok(Outcome::Refused(_) | Outcome::Stale { .. })) => tally.refused += 1,
            (_, Ok(Outcome::Unavailable { .. })) => tally.unavailable += 1,
            (_, Ok(other)) => {
                tally.wrong += 1;
                tally.note(format!("unexpected answer {other:?}"));
            }
            (_, Err(error)) => tally.client_error(&error),
        }
    }

    /// Writes every key once, [`FILL_WINDOW`] puts in flight, so each
    /// batch folds up to that many keys into one image commit.
    pub fn fill(&mut self) {
        let mut inflight = VecDeque::with_capacity(FILL_WINDOW);
        for key in 0..self.lane.keys.len() as u32 {
            if inflight.len() == FILL_WINDOW {
                let oldest = inflight.pop_front().expect("window is full");
                self.reap(oldest);
            }
            let op = Op {
                kind: Kind::Put,
                key,
            };
            if let Some(f) = self.submit(op) {
                inflight.push_back(f);
            }
        }
        while let Some(f) = inflight.pop_front() {
            self.reap(f);
        }
    }

    /// Keeps `depth` requests of the lane's stream in flight until
    /// `end`, then waits for every answer. Completion times count from
    /// `start`.
    pub fn drive(&mut self, depth: usize, start: Instant, end: Instant) {
        self.opened = start;
        let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(depth);
        while Instant::now() < end {
            while inflight.len() < depth {
                let op = self.lane.stream.next_op();
                match self.submit(op) {
                    Some(f) => inflight.push_back(f),
                    None => break,
                }
            }
            if let Some(f) = inflight.pop_front() {
                self.reap(f);
            }
        }
        while let Some(f) = inflight.pop_front() {
            self.reap(f);
        }
    }
}

/// Reads every key of `lane` back through a fresh client and checks
/// each value against the newest acknowledged put: the first key
/// through `router`'s own route-and-retry path, then every key
/// pipelined to the coordinator that the router's freshly fetched map
/// names (one routed round trip per key would take seconds on a large
/// image). Returns the keys checked and a description of each problem.
pub fn read_back(router: &ShardRouter, lane: &Lane) -> (u64, Vec<String>) {
    let mut problems = Vec::new();
    let check = |i: usize, answer: Result<Outcome, ClientError>, problems: &mut Vec<String>| {
        let key = &lane.keys[i];
        let verdict = match answer {
            Ok(Outcome::Value { value, .. }) => lane.history.check_final(i as u32, Some(&value)),
            Ok(Outcome::Refused(message)) if message.contains("not found") => {
                lane.history.check_final(i as u32, None)
            }
            other => {
                problems.push(format!("read-back of {key}: {other:?}"));
                return;
            }
        };
        if let Err(violation) = verdict {
            let kind = match violation {
                Violation::Stale { .. } => "lost write",
                Violation::NeverWritten => "value never written",
            };
            problems.push(format!("read-back of {key}: {kind} ({violation:?})"));
        }
    };
    let deadline = Deadline::within(OP_TIMEOUT);
    check(0, router.get(&lane.keys[0], &deadline), &mut problems);
    let map = match router.map(&deadline) {
        Ok(map) => map,
        Err(error) => return (1, vec![format!("fresh router has no map: {error}")]),
    };
    let Some(addr) = map.coordinator_addr(lane.shard) else {
        return (
            1,
            vec![format!(
                "fresh map names no coordinator for shard {}",
                lane.shard
            )],
        );
    };
    let conn = Connection::new(addr, dynvote_store::ConnOptions::default());
    let mut inflight: VecDeque<(usize, Result<Pending, ClientError>)> = VecDeque::new();
    let reap = |(i, pending): (usize, Result<Pending, ClientError>), problems: &mut Vec<String>| {
        let answer = pending.and_then(|p| conn.wait(&p, &Deadline::within(OP_TIMEOUT)));
        check(i, answer, problems);
    };
    for (i, key) in lane.keys.iter().enumerate() {
        let shard = map.shard_of(key.as_bytes());
        if shard != lane.shard {
            problems.push(format!(
                "fresh map routes {key} to shard {shard}, not {}",
                lane.shard
            ));
        }
        if inflight.len() == FILL_WINDOW {
            reap(inflight.pop_front().expect("window is full"), &mut problems);
        }
        let frame = Frame::GetKey {
            epoch: map.epoch,
            shard,
            key: key.clone(),
        };
        inflight.push_back((i, conn.submit(&frame, &Deadline::within(OP_TIMEOUT))));
    }
    for item in inflight {
        reap(item, &mut problems);
    }
    (lane.keys.len() as u64 + 1, problems)
}
