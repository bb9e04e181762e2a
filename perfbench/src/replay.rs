//! The traced in-process replay: a workload's operation stream driven
//! through the program's public functions along the path one keyed
//! batch takes in a coordinator, with a span around every call:
//!
//! request frames `Frame::encode_tagged` / `Frame::decode` → per run of
//! same-kind operations `Cluster::read` on an in-memory cluster of the
//! same three sites, `decode_kv`, Algorithm 1's `decide`, and for puts
//! `encode_kv`, `Cluster::write_batch` and `OpLedger::note_commit` →
//! reply frames → once per batch `SiteStore::log` for every change the
//! batch made (fsync included), as the daemon does before it answers.

use std::collections::BTreeMap;
use std::path::Path;

use dynvote_control::{decode_kv, encode_kv};
use dynvote_core::{decide, SiteId, StateTable};
use dynvote_replica::{ClusterBuilder, Protocol, SiteStore, WalRecord};
use dynvote_store::probe::OpLedger;
use dynvote_store::wire::Frame;

use crate::history::History;
use crate::load::{Kind, Op, OpStream};
use crate::trace::Tracer;

/// What the replay counted beside its spans.
#[derive(Default)]
pub struct Counts {
    pub ops: u64,
    pub requests: u64,
    pub request_bytes: u64,
    pub replies: u64,
    pub reply_bytes: u64,
    pub images: u64,
    pub image_bytes: u64,
    /// WAL bytes appended by batches whose log calls did not rotate a
    /// snapshot, and the puts those batches carried.
    pub wal_bytes: u64,
    pub wal_puts: u64,
}

/// Replays `ops` operations of `stream` over `keys`, starting from the
/// filled `image`, in batches of `batch`. Durable files live in `dir`.
pub fn run(
    image: &BTreeMap<String, Vec<u8>>,
    keys: &[String],
    stream: &mut OpStream,
    ops: usize,
    batch: usize,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Counts, String> {
    let site = SiteId::new(0);
    let mut cluster = ClusterBuilder::new()
        .copies([0, 1, 2])
        .protocol(Protocol::Odv)
        .build_with_value(encode_kv(image));
    let rule = cluster.rule().cloned().ok_or("ODV decides by a rule")?;
    let _ = std::fs::remove_dir_all(dir);
    let io = |e: std::io::Error| format!("replay storage: {e}");
    let (mut store, _) = SiteStore::open(&dir.join("site"), 64).map_err(io)?;
    store
        .seed(cluster.state_at(site), None, Some(cluster.value_at(site)))
        .map_err(io)?;
    let mut ledger = OpLedger::open(&dir.join("site")).map_err(io)?;
    let mut history = History::new(keys.len(), 0x7e91a9);
    let mut counts = Counts::default();
    let mut next_id = 0u64;
    let mut done = 0usize;
    let mut batch_no = 0u64;
    while done < ops {
        let size = batch.min(ops - done);
        let batch_ops: Vec<Op> = (0..size).map(|_| stream.next_op()).collect();
        done += size;
        batch_no += 1;
        let b = batch_no;
        let parent = tracer.open("replay.batch", b, None);
        // The requests as the client encodes and the daemon decodes them.
        let mut values = Vec::with_capacity(size);
        for op in &batch_ops {
            let key = keys[op.key as usize].clone();
            let frame = match op.kind {
                Kind::Put => {
                    let (value, _) = history.submit_put(op.key);
                    values.push(Some(value.clone()));
                    Frame::PutKey {
                        epoch: 1,
                        shard: 0,
                        key,
                        value,
                    }
                }
                Kind::Get => {
                    values.push(None);
                    Frame::GetKey {
                        epoch: 1,
                        shard: 0,
                        key,
                    }
                }
            };
            next_id += 1;
            let bytes = tracer.time("store.wire.encode", b, parent, || {
                frame.encode_tagged(next_id)
            });
            counts.requests += 1;
            counts.request_bytes += bytes.len() as u64;
            tracer
                .time("store.wire.decode", b, parent, || {
                    Frame::decode(&bytes[4..])
                })
                .map_err(|e| format!("request frame did not decode: {e:?}"))?;
        }
        // Runs of same-kind operations, as the batch worker serves them.
        let mut replies: Vec<Frame> = Vec::with_capacity(size);
        let mut i = 0;
        while i < size {
            let kind = batch_ops[i].kind;
            let mut j = i;
            while j < size && batch_ops[j].kind == kind {
                j += 1;
            }
            let bytes = tracer
                .time("replica.cluster.read", b, parent, || cluster.read(site))
                .map_err(|e| format!("in-memory read refused: {e:?}"))?;
            let mut kv = tracer
                .time("control.kv.decode", b, parent, || decode_kv(&bytes))
                .ok_or("the replicated image is not a KV map")?;
            let mut states = StateTable::fresh(cluster.copies());
            for s in cluster.copies().iter() {
                states.set(s, cluster.state_at(s));
            }
            let copies = cluster.copies();
            let decision = tracer.time("core.decision.decide", b, parent, || {
                decide(copies, copies, &states, &rule, None)
            });
            if !decision.is_granted() {
                return Err("Algorithm 1 refused a fully connected group".to_string());
            }
            match kind {
                Kind::Put => {
                    for k in i..j {
                        let op = batch_ops[k];
                        let value = values[k].take().expect("puts carry values");
                        kv.insert(keys[op.key as usize].clone(), value);
                    }
                    let image = tracer.time("control.kv.encode", b, parent, || encode_kv(&kv));
                    counts.images += 1;
                    counts.image_bytes += image.len() as u64;
                    let committed = tracer
                        .time("replica.cluster.write_batch", b, parent, || {
                            cluster.write_batch(site, vec![image.clone()])
                        })
                        .into_iter()
                        .next()
                        .ok_or("write_batch answered nothing")?
                        .map_err(|e| format!("in-memory write refused: {e:?}"))?;
                    let state = cluster.state_at(site);
                    let ticket = cluster.last_ticket();
                    tracer
                        .time("store.probe.note_commit", b, parent, || {
                            ledger.note_commit(ticket, state, Some(&image))
                        })
                        .map_err(io)?;
                    for _ in i..j {
                        replies.push(Frame::Done {
                            detail: format!(
                                "committed o={} v={} P={{0,1,2}}",
                                committed.op, committed.version
                            ),
                        });
                    }
                }
                Kind::Get => {
                    let version = cluster.state_at(site).version;
                    for op in &batch_ops[i..j] {
                        let value = kv
                            .get(&keys[op.key as usize])
                            .cloned()
                            .ok_or("a filled key vanished from the image")?;
                        replies.push(Frame::Value { version, value });
                    }
                }
            }
            i = j;
        }
        // One durable sync for the whole batch, before any reply.
        let (before, puts) = (
            store.wal_bytes(),
            batch_ops.iter().filter(|o| o.kind == Kind::Put).count(),
        );
        let mut rotated = false;
        while let Some(record) = next_change(&store, &cluster, site) {
            tracer
                .time("replica.wal.append_fsync", b, parent, || store.log(record))
                .map_err(io)?;
            rotated |= store.wal_records() == 0;
        }
        if !rotated {
            counts.wal_bytes += store.wal_bytes() - before;
            counts.wal_puts += puts as u64;
        }
        for reply in &replies {
            next_id += 1;
            let bytes = tracer.time("store.wire.encode", b, parent, || {
                reply.encode_tagged(next_id)
            });
            counts.replies += 1;
            counts.reply_bytes += bytes.len() as u64;
            tracer
                .time("store.wire.decode", b, parent, || {
                    Frame::decode(&bytes[4..])
                })
                .map_err(|e| format!("reply frame did not decode: {e:?}"))?;
        }
        tracer.close(parent);
        counts.ops += size as u64;
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(counts)
}

/// The next WAL record that brings the store's image closer to the
/// cluster's state at `site` — the diff the daemon logs, one record at
/// a time, before answering; `None` once they agree.
fn next_change(
    store: &SiteStore,
    cluster: &dynvote_replica::Cluster<Vec<u8>>,
    site: SiteId,
) -> Option<WalRecord> {
    let image = store.image();
    let state = cluster.state_at(site);
    let value = Some(cluster.value_at(site));
    if image.state != state || image.value != value {
        let changed = image.value != value;
        return Some(WalRecord::Commit {
            state,
            value: if changed { value } else { None },
        });
    }
    let pending = cluster.pending_at(site);
    (image.pending != pending).then(|| match pending {
        Some(ticket) => WalRecord::Vote { ticket },
        None => WalRecord::Release {
            ticket: image.pending.unwrap_or(0),
        },
    })
}
