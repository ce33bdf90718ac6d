//! Property-based tests for the sb-json parser, on the in-repo `sb-check`
//! harness. Every prefix and every single-byte replacement, insertion and
//! deletion of a valid document must come back from
//! [`sb_json::from_slice`] as `Ok` or `Err`, never as a panic, and valid
//! documents must round-trip. The grid cache reads its cell files with
//! this parser, so one document per case is shaped like a serialized
//! grid cell. Every failure message carries an `SB_CHECK_SEED` that
//! replays the exact case.

use sb_check::{check, prop_assert, prop_assert_eq, Config, Rng, Shrink};
use sb_json::{json_struct, Json};

/// Pinned suite seed: every property below derives its per-case seeds
/// from this value, so failures reproduce across machines.
const SUITE: u64 = 0x7E45_0011;

fn cfg() -> Config {
    Config::new(SUITE)
}

/// One byte-level edit of a document.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Replace(usize, u8),
    Insert(usize, u8),
    Delete(usize),
}

impl Edit {
    fn apply(self, text: &[u8]) -> Vec<u8> {
        let mut out = text.to_vec();
        match self {
            Edit::Replace(i, b) => out[i] = b,
            Edit::Insert(i, b) => out.insert(i, b),
            Edit::Delete(i) => {
                out.remove(i);
            }
        }
        out
    }
}

/// A valid document and the edits to try on it.
#[derive(Debug, Clone)]
struct Doc {
    text: String,
    edits: Vec<Edit>,
}

/// Shrinking an edit list would not make a failing document any easier
/// to read; the failure message names the edit instead.
impl Shrink for Doc {}

/// Bytes that steer the parser into its branches, plus a few that are
/// not valid UTF-8 on their own.
const STEER: &[u8] = b"{}[]\",:\\-+.0123456789eEtfnu \n\x00\x1f\x7f\x80\xbf\xc3\xe2\xf0\xff";

fn gen_edits(rng: &mut Rng, len: usize) -> Vec<Edit> {
    (0..48)
        .map(|_| {
            let byte = if rng.coin(0.5) {
                STEER[rng.below(STEER.len())]
            } else {
                rng.next_u64() as u8
            };
            match rng.below(3) {
                0 if len > 0 => Edit::Replace(rng.below(len), byte),
                1 if len > 0 => Edit::Delete(rng.below(len)),
                _ => Edit::Insert(rng.below(len + 1), byte),
            }
        })
        .collect()
}

fn gen_string(rng: &mut Rng) -> String {
    const CHARS: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '€',
        '\u{2028}', '\u{FFFF}', '😀',
    ];
    (0..rng.below(8))
        .map(|_| CHARS[rng.below(CHARS.len())])
        .collect()
}

fn gen_int(rng: &mut Rng) -> i128 {
    match rng.below(4) {
        0 => rng.below(1000) as i128 - 500,
        1 => rng.next_u64() as i64 as i128,
        2 => rng.next_u64() as i128,
        _ => [i128::MIN, i128::MAX, u64::MAX as i128, i64::MIN as i128][rng.below(4)],
    }
}

fn gen_float(rng: &mut Rng) -> f64 {
    match rng.below(4) {
        0 => rng.uniform(-1.0, 1.0) as f64,
        1 => rng.normal() as f64 * 1e6,
        2 => [-0.0, 5e-324, f64::MIN_POSITIVE, f64::MAX, 1e21, 0.1][rng.below(6)],
        _ => {
            // Any finite bit pattern: subnormals, huge and tiny exponents.
            let f = f64::from_bits(rng.next_u64());
            if f.is_finite() {
                f
            } else {
                1.5
            }
        }
    }
}

fn gen_value(rng: &mut Rng, depth: usize) -> Json {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.below(kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.coin(0.5)),
        2 => Json::Int(gen_int(rng)),
        3 => Json::Float(gen_float(rng)),
        4 => Json::Str(gen_string(rng)),
        5 => Json::Arr(
            (0..rng.below(4))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// A random value, compact or pretty-printed, with edits.
fn gen_doc(rng: &mut Rng) -> Doc {
    let value = gen_value(rng, 3);
    let text = value
        .render(rng.coin(0.5))
        .expect("generated floats are finite");
    let edits = gen_edits(rng, text.len());
    Doc { text, edits }
}

/// The fields of a grid run record, as the experiment runner writes them.
#[derive(Debug, Clone, PartialEq)]
struct Record {
    experiment: String,
    strategy: String,
    target_compression: f64,
    seed: u64,
    compression: f64,
    speedup: f64,
    top1: f32,
    top5: f32,
    top1_before_finetune: f32,
    pretrain_top1: f32,
    pretrain_top5: f32,
    realized_speedup: Option<f64>,
    latency_us: Option<f64>,
}

json_struct!(Record {
    experiment,
    strategy,
    target_compression,
    seed,
    compression,
    speedup,
    top1,
    top5,
    top1_before_finetune,
    pretrain_top1,
    pretrain_top5,
    realized_speedup,
    latency_us
});

/// A grid cell file: the config fingerprint and the record.
#[derive(Debug, Clone, PartialEq)]
struct Cell {
    fingerprint: String,
    record: Record,
}

json_struct!(Cell {
    fingerprint,
    record
});

impl Shrink for Cell {}

fn gen_cell(rng: &mut Rng) -> Cell {
    let ratio = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0][rng.below(6)];
    let measured = rng.coin(0.5);
    Cell {
        fingerprint: format!("{:016x}", rng.next_u64()),
        record: Record {
            experiment: format!("grid-{}", gen_string(rng)),
            strategy: ["Global Magnitude", "Random", "Layer Magnitude"][rng.below(3)].to_string(),
            target_compression: ratio,
            seed: rng.next_u64(),
            compression: ratio * (1.0 + rng.uniform(-0.01, 0.01) as f64),
            speedup: ratio * rng.uniform(0.5, 1.0) as f64,
            top1: rng.uniform(0.0, 1.0),
            top5: rng.uniform(0.0, 1.0),
            top1_before_finetune: rng.uniform(0.0, 1.0),
            pretrain_top1: rng.uniform(0.0, 1.0),
            pretrain_top5: rng.uniform(0.0, 1.0),
            realized_speedup: measured.then(|| rng.uniform(0.1, 20.0) as f64),
            latency_us: measured.then(|| rng.uniform(1.0, 1e5) as f64),
        },
    }
}

/// A cell file as the runner writes it (pretty-printed), with edits.
fn gen_cell_doc(rng: &mut Rng) -> (Cell, Doc) {
    let cell = gen_cell(rng);
    let text = sb_json::to_string_pretty(&cell).expect("cell serializes");
    let edits = gen_edits(rng, text.len());
    (cell, Doc { text, edits })
}

#[test]
fn valid_documents_round_trip() {
    check("json::valid_documents_round_trip", cfg(), gen_doc, |doc| {
        let value: Json = sb_json::from_slice(doc.text.as_bytes())
            .map_err(|e| format!("valid document rejected: {e}"))?;
        let pretty = doc.text.contains('\n');
        prop_assert_eq!(value.render(pretty).map_err(|e| e.to_string())?, doc.text);
        let other = value.render(!pretty).map_err(|e| e.to_string())?;
        prop_assert_eq!(sb_json::parse(&other).map_err(|e| e.to_string())?, value);
        Ok(())
    });
}

#[test]
fn cell_documents_round_trip_exactly() {
    check(
        "json::cell_documents_round_trip_exactly",
        cfg(),
        gen_cell_doc,
        |(cell, doc)| {
            let back: Cell = sb_json::from_slice(doc.text.as_bytes())
                .map_err(|e| format!("cell document rejected: {e}"))?;
            prop_assert_eq!(&back, cell);
            Ok(())
        },
    );
}

/// Every proper prefix, as a crash mid-write leaves it, parses to `Ok` or
/// `Err` without panicking. A proper prefix of an object is never a
/// complete document, so a truncated cell file is always an error.
#[test]
fn truncated_documents_never_panic() {
    check(
        "json::truncated_documents_never_panic",
        cfg(),
        |rng| (gen_doc(rng), gen_cell_doc(rng)),
        |(doc, (_, cell))| {
            let bytes = doc.text.as_bytes();
            for end in 0..bytes.len() {
                let _ = sb_json::from_slice::<Json>(&bytes[..end]);
            }
            let bytes = cell.text.as_bytes();
            for end in 0..bytes.len() {
                let prefix = &bytes[..end];
                prop_assert!(
                    sb_json::from_slice::<Json>(prefix).is_err(),
                    "a {end}-byte prefix of a cell parsed: {:?}",
                    String::from_utf8_lossy(prefix)
                );
                prop_assert!(sb_json::from_slice::<Cell>(prefix).is_err());
            }
            Ok(())
        },
    );
}

/// Single-byte replacements, insertions and deletions parse to `Ok` or
/// `Err` without panicking, both as a bare value and as a cell.
#[test]
fn mutated_documents_never_panic() {
    check(
        "json::mutated_documents_never_panic",
        cfg(),
        |rng| (gen_doc(rng), gen_cell_doc(rng)),
        |(doc, (_, cell))| {
            for d in [doc, cell] {
                for &edit in &d.edits {
                    let mutated = edit.apply(d.text.as_bytes());
                    let _ = sb_json::from_slice::<Json>(&mutated);
                    let _ = sb_json::from_slice::<Cell>(&mutated);
                }
            }
            Ok(())
        },
    );
}
