//! The benchmark's own record of what it wrote, kept apart from the
//! program, and the checks made against it.
//!
//! Every put carries a unique 32-byte payload naming its sequence
//! number and key, so a read reveals exactly which put it observed.
//! Per key the record keeps every put submitted (in submission order,
//! which is the order one pipelined connection's puts are applied in)
//! and the newest put acknowledged so far. A read must return a value
//! some put wrote to that key, never one older than the newest put
//! acknowledged before the read was sent.

/// Payload length: sequence (8) + key (4) + run tag (4) + filler (16).
pub const PAYLOAD_LEN: usize = 32;

/// Why a read failed the check.
#[derive(Debug, PartialEq, Eq)]
pub enum Violation {
    /// The value is not one this benchmark ever wrote to this key.
    NeverWritten,
    /// The value predates a put that was acknowledged before the read
    /// was sent (a stale read), or a final read-back shows an older
    /// value than the last acknowledged put (a lost write).
    Stale { seen: u64, floor: u64 },
}

struct KeyRecord {
    /// Sequence numbers of puts submitted to this key, ascending.
    puts: Vec<u64>,
    /// The newest acknowledged put.
    acked: Option<u64>,
}

/// One connection's record over its own keys.
pub struct History {
    tag: u32,
    next_seq: u64,
    keys: Vec<KeyRecord>,
}

impl History {
    pub fn new(keys: usize, tag: u32) -> History {
        History {
            tag,
            next_seq: 1,
            keys: (0..keys)
                .map(|_| KeyRecord {
                    puts: Vec::new(),
                    acked: None,
                })
                .collect(),
        }
    }

    /// Records a new put to `key` and returns its unique payload and
    /// sequence number.
    pub fn submit_put(&mut self, key: u32) -> (Vec<u8>, u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.keys[key as usize].puts.push(seq);
        (payload(seq, key, self.tag), seq)
    }

    pub fn ack_put(&mut self, key: u32, seq: u64) {
        let record = &mut self.keys[key as usize];
        record.acked = Some(record.acked.map_or(seq, |a| a.max(seq)));
    }

    /// The lower bound a read of `key` sent now must respect.
    pub fn floor(&self, key: u32) -> Option<u64> {
        self.keys[key as usize].acked
    }

    /// Checks a read of `key` sent with lower bound `floor`; `None` is a
    /// "key not found" answer.
    pub fn check_read(
        &self,
        key: u32,
        floor: Option<u64>,
        value: Option<&[u8]>,
    ) -> Result<(), Violation> {
        let Some(value) = value else {
            return match floor {
                None => Ok(()),
                Some(floor) => Err(Violation::Stale { seen: 0, floor }),
            };
        };
        let seq = match parse(value, self.tag) {
            Some((seq, k)) if k == key => seq,
            _ => return Err(Violation::NeverWritten),
        };
        if self.keys[key as usize].puts.binary_search(&seq).is_err() {
            return Err(Violation::NeverWritten);
        }
        match floor {
            Some(floor) if seq < floor => Err(Violation::Stale { seen: seq, floor }),
            _ => Ok(()),
        }
    }

    /// Checks a final read-back of `key` against the newest
    /// acknowledged put. A newer value is allowed only from a put whose
    /// acknowledgement never arrived (its fate was unknown).
    pub fn check_final(&self, key: u32, value: Option<&[u8]>) -> Result<(), Violation> {
        self.check_read(key, self.floor(key), value)
    }
}

fn payload(seq: u64, key: u32, tag: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(PAYLOAD_LEN);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    let filler = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(key);
    out.extend_from_slice(&filler.to_le_bytes());
    out.extend_from_slice(&(!filler).to_le_bytes());
    out
}

fn parse(value: &[u8], tag: u32) -> Option<(u64, u32)> {
    if value.len() != PAYLOAD_LEN {
        return None;
    }
    let seq = u64::from_le_bytes(value[0..8].try_into().ok()?);
    let key = u32::from_le_bytes(value[8..12].try_into().ok()?);
    let got = u32::from_le_bytes(value[12..16].try_into().ok()?);
    (got == tag && payload(seq, key, tag) == value).then_some((seq, key))
}

/// Plants a stale read, a lost write and a foreign value in a synthetic
/// history and returns an error unless the checks flag all three (and
/// pass the honest reads).
pub fn self_test() -> Result<(), String> {
    let mut h = History::new(2, 0xfeed);
    let (v1, s1) = h.submit_put(0);
    h.ack_put(0, s1);
    let (v2, s2) = h.submit_put(0);
    h.ack_put(0, s2);
    let (other, _) = h.submit_put(1);
    let floor = h.floor(0);
    let honest = h.check_read(0, floor, Some(&v2));
    let stale = h.check_read(0, floor, Some(&v1));
    let lost = h.check_final(0, Some(&v1));
    let foreign = h.check_read(0, floor, Some(&other));
    let missing = h.check_final(0, None);
    let expect = [
        (honest == Ok(()), "an honest read was flagged"),
        (
            matches!(stale, Err(Violation::Stale { .. })),
            "a planted stale read was not flagged",
        ),
        (
            matches!(lost, Err(Violation::Stale { .. })),
            "a planted lost write was not flagged",
        ),
        (
            foreign == Err(Violation::NeverWritten),
            "a value written to another key was not flagged",
        ),
        (missing.is_err(), "a vanished key was not flagged"),
    ];
    match expect.iter().find(|(ok, _)| !ok) {
        Some((_, why)) => Err(format!("history self-test: {why}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_faults_are_flagged() {
        self_test().unwrap();
    }

    #[test]
    fn reads_of_in_flight_puts_pass() {
        let mut h = History::new(1, 1);
        let (v1, s1) = h.submit_put(0);
        h.ack_put(0, s1);
        let floor = h.floor(0);
        let (v2, _) = h.submit_put(0);
        // Either the acknowledged value or the in-flight one is allowed.
        assert_eq!(h.check_read(0, floor, Some(&v1)), Ok(()));
        assert_eq!(h.check_read(0, floor, Some(&v2)), Ok(()));
        assert_eq!(
            h.check_read(0, floor, Some(b"garbage")),
            Err(Violation::NeverWritten)
        );
    }
}
